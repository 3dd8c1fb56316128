"""Exact batched top-k ranking, top-K metrics and the sparsity-bucket
breakdown."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Adjacency, gather_rows
from .errors import ConfigError

SPARSITY_BUCKETS = ((1, 5), (6, 10), (11, 20), (21, None))

# Users scored and ranked per block, by evaluation and by virtual-triplet
# refresh: a block's score matrix is BLOCK_ROWS x num_items.
BLOCK_ROWS = 256

# ``top_k`` cuts a row into max(RANK_GROUPS, 4k) strided column groups, at
# most one per column: enough that about k + 2 entries reach its bar.
RANK_GROUPS = 128


def top_k(scores: np.ndarray, k: int, excluded: Adjacency | None = None
          ) -> Adjacency:
    """Each row's first ``k`` columns by descending score, ties by
    ascending column, skipping the row's ``excluded`` columns; a row with
    fewer columns left keeps them all. Scores must be finite.

    Exact, in two stages. Threshold: at least ``k`` entries of a row reach
    the k-th largest of its group maxima, so every top-k entry does too.
    Sort: of the entries that reach this bar, in ascending column order,
    the ones tied with the bar are cut to the room the entries above it
    leave (a fully tied row stays short); a stable sort of the rest by
    descending score then breaks ties by ascending column.
    """
    rows, cols = scores.shape
    k = min(k, cols)
    if k == 0:
        return Adjacency(np.zeros(rows + 1, dtype=np.int64),
                         np.zeros(0, dtype=np.int64))
    masked = scores.astype(np.result_type(scores, 0.0))  # ints widen, for -inf
    if excluded is not None:
        masked[excluded.entry_rows, excluded.indices] = -np.inf
    groups = min(max(RANK_GROUPS, 4 * k), cols)
    whole = cols - cols % groups
    maxima = masked[:, :whole].reshape(rows, whole // groups, groups).max(
        axis=1)
    left = maxima[:, :cols - whole]
    np.maximum(left, masked[:, whole:], out=left)
    bar = np.partition(maxima, groups - k, axis=1)[:, groups - k]
    reach = np.flatnonzero(masked >= bar[:, None])  # columns ascend per row
    starts = np.searchsorted(reach, np.arange(rows + 1) * cols)
    counts = np.diff(starts)
    values = masked.ravel()[reach]
    tied = np.flatnonzero(values == np.repeat(bar, counts))
    tie_starts = np.searchsorted(tied, starts)
    above = counts - np.diff(tie_starts)
    # A -inf bar marks a row with fewer than k columns left: its tied
    # entries are the excluded ones.
    lengths = np.minimum(k, np.where(bar > -np.inf, counts, above))
    room = np.maximum(lengths - above, 0)
    keep = np.ones(len(reach), dtype=bool)
    keep[tied] = False
    keep[tied[gather_rows(tie_starts[:-1], room)[1]]] = True
    reach, values = reach[keep], values[keep]
    kept = above + room
    kept_starts, at = gather_rows(np.zeros(rows, dtype=np.int64), kept)
    # Padding (+inf negated scores) sorts after every survivor.
    negated = np.full((rows, int(kept.max(initial=0))), np.inf,
                      dtype=masked.dtype)
    negated[reach // cols, at] = -values
    order = np.argsort(negated, axis=1, kind="stable")
    first = order[np.arange(order.shape[1]) < lengths[:, None]]
    return Adjacency.from_lengths(
        lengths, reach[first + np.repeat(kept_starts[:-1], lengths)] % cols)


@dataclass
class MetricsReport:
    """User-averaged Recall@K / NDCG@K plus the sparsity breakdown."""

    recall: dict[int, float]
    ndcg: dict[int, float]
    num_users_evaluated: int
    # ``sparsity_breakdown``'s arguments.
    per_user: tuple = field(repr=False, compare=False)

    @functools.cached_property
    def buckets(self) -> list[dict]:
        """The sparsity breakdown, computed once, when first read."""
        return sparsity_breakdown(*self.per_user)

    def to_dict(self) -> dict:
        return {
            "recall": {str(k): v for k, v in self.recall.items()},
            "ndcg": {str(k): v for k, v in self.ndcg.items()},
            "num_users_evaluated": self.num_users_evaluated,
            "buckets": self.buckets,
        }


def evaluate_rankings(score_rows, users, relevant: Adjacency,
                      masked: Adjacency, ks: tuple[int, ...],
                      user_train_count: np.ndarray) -> MetricsReport:
    """Rank each user's unmasked items and average the metrics.

    ``score_rows(block)`` returns the score matrix of an array of users.
    ``relevant`` and ``masked`` are user->item CSRs. Users with no relevant
    item are skipped. Only the top ``max(ks)`` items are ranked, at most
    every item: a deeper cutoff reads the last rank. The report's buckets
    group users by ``user_train_count``.
    """
    if min(ks) < 1:
        raise ConfigError(f"ranking cutoffs must be >= 1, got {list(ks)}")
    users = np.asarray(users, dtype=np.int64)
    users = users[relevant.row_lengths[users] > 0]
    n = len(users)
    recall = {k: np.empty(n) for k in ks}
    ndcg = {k: np.empty(n) for k in ks}
    for start in range(0, n, BLOCK_ROWS):
        block = users[start:start + BLOCK_ROWS]
        scores = score_rows(block)
        depth = min(max(ks), scores.shape[1])
        discounts = np.array([1.0 / math.log2(pos + 1)
                              for pos in range(1, depth + 1)])
        ranked = top_k(scores, depth, masked.take(block))
        wanted = relevant.take(block)
        # Only the ranked items are looked up, keyed by (row, item); every
        # row has a relevant item, so ``keys`` is not empty.
        rows, width = ranked.entry_rows, scores.shape[1]
        found = rows * width + ranked.indices
        keys = np.sort(wanted.entry_rows * width + wanted.indices)
        hit = np.zeros((len(block), depth), dtype=bool)
        hit[rows, np.arange(len(rows)) - ranked.indptr[rows]] = keys[
            np.searchsorted(keys, found).clip(max=len(keys) - 1)] == found
        hits = np.cumsum(hit, axis=1)
        # Running sums left to right: the order a per-user loop adds them.
        dcg = np.cumsum(np.where(hit, discounts, 0.0), axis=1)
        ideal = np.cumsum(discounts)
        num_relevant = wanted.row_lengths
        part = slice(start, start + BLOCK_ROWS)
        for k in ks:
            at = min(k, depth) - 1
            recall[k][part] = hits[:, at] / num_relevant
            ndcg[k][part] = dcg[:, at] / ideal[np.minimum(k, num_relevant) - 1]
    return MetricsReport(
        recall={k: float(np.mean(v)) if n else 0.0 for k, v in recall.items()},
        ndcg={k: float(np.mean(v)) if n else 0.0 for k, v in ndcg.items()},
        num_users_evaluated=n,
        per_user=(user_train_count[users], recall, ndcg, ks))


def sparsity_breakdown(train_counts: np.ndarray,
                       recall: dict[int, np.ndarray],
                       ndcg: dict[int, np.ndarray],
                       ks: tuple[int, ...]) -> list[dict]:
    """Group evaluated users by train interaction count and average each
    bucket, as the report's rows (``lo``, ``hi``, ``count`` and the
    metrics by ``str(k)``); empty buckets report count 0 and null metrics.

    Entry ``j`` of ``train_counts``, ``recall[k]`` and ``ndcg[k]`` belongs
    to the j-th evaluated user.
    """
    out = []
    for lo, hi in SPARSITY_BUCKETS:
        members = (train_counts >= lo) & (hi is None or train_counts <= hi)
        count = int(np.count_nonzero(members))
        recall_b, ndcg_b = ({str(k): float(np.mean(per_user[k][members]))
                             if count else None for k in ks}
                            for per_user in (recall, ndcg))
        out.append({"lo": lo, "hi": hi, "count": count,
                    "recall": recall_b, "ndcg": ndcg_b})
    return out

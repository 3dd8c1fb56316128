"""Exact batched top-k ranking, top-K metrics and the sparsity-bucket
breakdown."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Adjacency
from .errors import ConfigError

SPARSITY_BUCKETS = ((1, 5), (6, 10), (11, 20), (21, None))

# Users scored and ranked per block, by evaluation and by virtual-triplet
# refresh: a block's score matrix is BLOCK_ROWS x num_items.
BLOCK_ROWS = 256


def top_k(scores: np.ndarray, k: int, excluded: Adjacency | None = None
          ) -> Adjacency:
    """Each row's first ``k`` columns by descending score, ties by
    ascending column, skipping the row's ``excluded`` columns; a row with
    fewer columns left keeps them all. Scores must be finite.

    Exact: ``argpartition`` picks k columns holding the k largest values;
    where the boundary (k-th largest) value has more ties than the row has
    room for, the lowest tied columns are taken instead of the arbitrary
    ones; then only the k survivors of each row are sorted.
    """
    rows, cols = scores.shape
    k = min(k, cols)
    masked = scores.astype(np.result_type(scores, 0.0))  # ints widen, for -inf
    if excluded is not None:
        masked[excluded.entry_rows, excluded.indices] = -np.inf
    lengths = np.minimum(k, np.count_nonzero(masked > -np.inf, axis=1))
    if k == 0:
        return Adjacency.from_lengths(lengths, np.zeros(0, dtype=np.int64))
    cand = np.argpartition(masked, cols - k, axis=1)[:, cols - k:]
    vals = np.take_along_axis(masked, cand, axis=1)
    kth = vals[:, :1]
    room = lengths - np.count_nonzero(vals > kth, axis=1)
    fix = np.flatnonzero(np.count_nonzero(masked == kth, axis=1) > room)
    if fix.size:
        sub = masked[fix]
        tied = sub == kth[fix]
        keep = (sub > kth[fix]) | (tied & (np.cumsum(tied, axis=1)
                                           <= room[fix, None]))
        r, c = np.nonzero(keep)  # row-major: columns ascend within a row
        at = np.arange(len(r)) - np.searchsorted(r, r)
        vals[fix] = -np.inf  # padding of rows shorter than k sorts last
        cand[fix[r], at] = c
        vals[fix[r], at] = sub[r, c]
    order = np.lexsort((cand, -vals), axis=1)
    ranked = np.take_along_axis(cand, order, axis=1)
    return Adjacency.from_lengths(lengths,
                                  ranked[np.arange(k) < lengths[:, None]])


@dataclass
class BucketMetrics:
    """Mean metrics of one train-interaction-count bucket."""

    lo: int
    hi: int | None
    count: int
    recall: dict[int, float | None]
    ndcg: dict[int, float | None]

    def to_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "count": self.count,
            "recall": {str(k): v for k, v in self.recall.items()},
            "ndcg": {str(k): v for k, v in self.ndcg.items()},
        }


@dataclass
class MetricsReport:
    """User-averaged Recall@K / NDCG@K plus the sparsity breakdown."""

    recall: dict[int, float]
    ndcg: dict[int, float]
    num_users_evaluated: int
    # ``sparsity_breakdown``'s arguments, or None for no breakdown.
    per_user: tuple | None = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def buckets(self) -> list[BucketMetrics]:
        """The sparsity breakdown, computed once, when first read."""
        return [] if self.per_user is None else sparsity_breakdown(
            *self.per_user)

    def to_dict(self) -> dict:
        return {
            "recall": {str(k): v for k, v in self.recall.items()},
            "ndcg": {str(k): v for k, v in self.ndcg.items()},
            "num_users_evaluated": self.num_users_evaluated,
            "buckets": [b.to_dict() for b in self.buckets],
        }


def evaluate_rankings(score_rows, users, relevant: Adjacency,
                      masked: Adjacency, ks: tuple[int, ...],
                      user_train_count: np.ndarray | None = None
                      ) -> MetricsReport:
    """Rank each user's unmasked items and average the metrics.

    ``score_rows(block)`` returns the score matrix of an array of users.
    ``relevant`` and ``masked`` are user->item CSRs. Users with no relevant
    item are skipped. Only the top ``max(ks)`` items are ranked.
    """
    if min(ks) < 1:
        raise ConfigError(f"ranking cutoffs must be >= 1, got {list(ks)}")
    users = np.asarray(users, dtype=np.int64)
    users = users[relevant.row_lengths[users] > 0]
    depth = max(ks)
    discounts = np.array([1.0 / math.log2(pos + 1)
                          for pos in range(1, depth + 1)])
    hits = np.zeros((len(users), depth), dtype=np.int64)
    dcg = np.zeros((len(users), depth))
    for start in range(0, len(users), BLOCK_ROWS):
        block = users[start:start + BLOCK_ROWS]
        scores = score_rows(block)
        ranked = top_k(scores, depth, masked.take(block))
        wanted = relevant.take(block)
        is_relevant = np.zeros(scores.shape, dtype=bool)
        is_relevant[wanted.entry_rows, wanted.indices] = True
        rows = ranked.entry_rows
        hit = np.zeros((len(block), depth), dtype=bool)
        hit[rows, np.arange(len(rows)) - ranked.indptr[rows]] = \
            is_relevant[rows, ranked.indices]
        hits[start:start + BLOCK_ROWS] = np.cumsum(hit, axis=1)
        # Running sums left to right: the order a per-user loop adds them.
        dcg[start:start + BLOCK_ROWS] = np.cumsum(
            np.where(hit, discounts, 0.0), axis=1)
    num_relevant = relevant.row_lengths[users]
    ideal = np.cumsum(discounts)
    recall = {k: hits[:, k - 1] / num_relevant for k in ks}
    ndcg = {k: dcg[:, k - 1] / ideal[np.minimum(k, num_relevant) - 1]
            for k in ks}
    n = len(users)
    return MetricsReport(
        recall={k: float(np.mean(v)) if n else 0.0 for k, v in recall.items()},
        ndcg={k: float(np.mean(v)) if n else 0.0 for k, v in ndcg.items()},
        num_users_evaluated=n,
        per_user=(None if user_train_count is None
                  else (user_train_count[users], recall, ndcg, ks)))


def sparsity_breakdown(train_counts: np.ndarray,
                       recall: dict[int, np.ndarray],
                       ndcg: dict[int, np.ndarray],
                       ks: tuple[int, ...]) -> list[BucketMetrics]:
    """Group evaluated users by train interaction count and average each
    bucket; empty buckets report count 0 and null metrics.

    Entry ``j`` of ``train_counts``, ``recall[k]`` and ``ndcg[k]`` belongs
    to the j-th evaluated user.
    """
    out = []
    for lo, hi in SPARSITY_BUCKETS:
        members = (train_counts >= lo) & (hi is None or train_counts <= hi)
        count = int(np.count_nonzero(members))
        recall_b, ndcg_b = ({k: float(np.mean(per_user[k][members]))
                             if count else None for k in ks}
                            for per_user in (recall, ndcg))
        out.append(BucketMetrics(lo=lo, hi=hi, count=count,
                                 recall=recall_b, ndcg=ndcg_b))
    return out

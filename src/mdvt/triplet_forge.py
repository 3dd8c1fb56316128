"""Virtual-triplet construction from fused user/item representations.

Per user, two disjoint item groups: a similar group (virtual positives,
most-similar first) and a dissimilar group (virtual negatives,
least-similar first). Shared rules across all constructors:

  * ties break by ascending item index;
  * items the user already interacted with in train are excluded from the
    positive candidates (unless ``include_seen``); negatives draw from all
    items except the chosen positives, which guarantees the two groups
    never overlap.

Users are processed in blocks of ``evaluator.BLOCK_ROWS``: one similarity
block, then ``evaluator.top_k`` for each group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .backbone import Representations
from .dataset import Adjacency
from .errors import SelectionError, TrainingCollapseError
from .evaluator import BLOCK_ROWS, top_k

if TYPE_CHECKING:
    from .trainer import RunConfig

CONSTRUCTOR_TAGS = ("topn", "threshold", "threshold_topn", "interval",
                    "freq_f1", "freq_f2")
THRESHOLD_TAGS = ("threshold", "threshold_topn", "interval")


@dataclass
class VirtualTripletSet:
    """One epoch's virtual groups as CSR rows over the covered users.

    ``users`` ascends; row ``r`` of ``positives`` and of ``negatives`` (of
    equal length, in rank order) belongs to user ``users[r]``.
    """

    users: np.ndarray
    positives: Adjacency
    negatives: Adjacency

    def __post_init__(self) -> None:
        pos, neg = self.positives, self.negatives
        assert len(self.users) == len(pos) == len(neg) and np.array_equal(
            pos.row_lengths, neg.row_lengths), "virtual groups misaligned"
        width = 1 + max(pos.indices.max(initial=-1),
                        neg.indices.max(initial=-1))
        overlap = np.isin(neg.entry_rows * width + neg.indices,
                          pos.entry_rows * width + pos.indices)
        assert not overlap.any(), "virtual groups overlap for user " \
            f"{self.users[neg.entry_rows[overlap][0]]}"


def cosine_rows(user_vecs: np.ndarray, item_matrix: np.ndarray,
                item_norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosine similarity of a block of fused user vectors against all
    fused items, and which users have a zero norm.

    Zero-norm item rows map to similarity 0; a zero-norm user means the
    representation has collapsed. Stacked matrix-vector products keep each
    user's sums in the order of a one-user product, so a row does not
    depend on the block it is computed in.
    """
    dots = np.matmul(item_matrix, user_vecs[:, :, None])[:, :, 0]
    u_norms = np.sqrt(np.matmul(user_vecs[:, None, :],
                                user_vecs[:, :, None])[:, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(dots, u_norms * item_norms, out=dots)
    dots[:, ~(item_norms > 0.0)] = 0.0
    return dots, u_norms[:, 0] == 0.0


def _raise_first(users: np.ndarray, collapsed: np.ndarray,
                 short: np.ndarray, message) -> None:
    """Raise the error a one-user-at-a-time loop meets first: a collapsed
    user, or ``message(r)`` for a row with too few candidates."""
    bad = np.flatnonzero(collapsed | short)
    if bad.size:
        r = bad[0]
        if collapsed[r]:
            raise TrainingCollapseError(
                f"user {users[r]} has a zero-norm fused representation")
        raise SelectionError(message(r))


def _rerank(pool: Adjacency, values: np.ndarray, n: int) -> Adjacency:
    """The first ``n`` items of each (equal-length) pool row by descending
    ``values``, ties by ascending item index."""
    items = np.sort(pool.indices.reshape(len(pool), -1), axis=1)
    cols = top_k(values[items], n)
    picked = np.take_along_axis(items, cols.indices.reshape(len(pool), -1),
                                axis=1)
    return Adjacency(cols.indptr, picked.ravel())


def select(config: RunConfig, sim: np.ndarray, seen: Adjacency | None,
           item_counts: np.ndarray, users: np.ndarray, collapsed: np.ndarray
           ) -> tuple[Adjacency, Adjacency]:
    """Virtual ``(positives, negatives)`` of a block of users by
    ``config.constructor`` and its settings (``top_n``, ``sim_threshold``,
    ``n_floor``): one CSR row per row of ``sim``, empty where a threshold
    admits nothing. ``interval`` caps its groups at ``top_n``, as
    ``threshold_topn`` does.

    ``seen`` holds each row's excluded positive candidates, and
    ``item_counts`` every item's train degree, which the frequency
    constructors rank by. Raises the error a one-user-at-a-time loop meets
    first: a collapsed user (``collapsed[r]``) or a row with too few
    candidates. ``users`` names the rows in messages.
    """
    rows, num_items = sim.shape
    free = np.full(rows, num_items) - (0 if seen is None else seen.row_lengths)
    tag, n = config.constructor, config.top_n
    if tag in THRESHOLD_TAGS:
        above = sim >= config.sim_threshold
        if seen is not None:
            above[seen.entry_rows, seen.indices] = False
        lengths = above.sum(axis=1)
        if tag != "threshold":
            lengths = np.minimum(lengths, n)
        if tag == "interval":
            lengths = np.where(lengths < config.n_floor,
                               np.minimum(config.n_floor, free), lengths)
        _raise_first(users, collapsed, num_items - lengths < lengths,
                     lambda r: f"need {lengths[r]} negative candidates, "
                               f"only {num_items - lengths[r]} left")
        depth = int(lengths.max(initial=0))
        positives = top_k(sim, depth, seen).head(lengths)
        return positives, top_k(-sim, depth, positives).head(lengths)

    what = f"top-{n}" if tag == "topn" else "frequency"
    _raise_first(users, collapsed, free < 2 * n,
                 lambda r: f"{what} selection needs at least {2 * n} "
                           f"candidate items, got {free[r]}")
    if tag == "topn":
        positives = top_k(sim, n, seen)
        return positives, top_k(-sim, n, positives)
    if tag == "freq_f1":
        block = np.broadcast_to(item_counts, sim.shape)
        positives = top_k(block, n, seen)
        return positives, top_k(-block, n, positives)
    # freq_f2: the n most / least popular of the 2n most / least similar.
    positives = _rerank(top_k(sim, 2 * n, seen), item_counts, n)
    return positives, _rerank(top_k(-sim, 2 * n, positives), -item_counts, n)


def refresh(reps: Representations, config: RunConfig, seen_items: Adjacency,
            trainable_users: np.ndarray, item_counts: np.ndarray
            ) -> VirtualTripletSet:
    """Rebuild the virtual-triplet set of ``trainable_users`` (ascending,
    distinct) from the current fused representations with ``select``.

    ``seen_items[u]`` (a row of the train CSR) lists the items excluded
    from user ``u``'s positives unless ``config.include_seen`` is set.
    """
    items = reps.fused_items
    item_norms = np.linalg.norm(items, axis=1)
    groups = []
    for start in range(0, len(trainable_users), BLOCK_ROWS):
        block = trainable_users[start:start + BLOCK_ROWS]
        sim, collapsed = cosine_rows(reps.fused_users[block], items,
                                     item_norms)
        groups.append(select(config, sim,
                             None if config.include_seen
                             else seen_items.take(block),
                             item_counts, block, collapsed))
    lengths = np.concatenate([np.zeros(0, dtype=np.int64)]
                             + [pos.row_lengths for pos, _ in groups])
    covered = lengths > 0

    def stacked(side: int) -> Adjacency:
        return Adjacency.from_lengths(lengths[covered], np.concatenate(
            [np.zeros(0, dtype=np.int64)] + [g[side].indices for g in groups]))

    return VirtualTripletSet(trainable_users[covered], stacked(0), stacked(1))

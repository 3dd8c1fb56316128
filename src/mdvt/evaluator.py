"""Top-K ranking metrics, sparsity-bucket breakdown, and convergence
diagnostics."""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import dataclass, field

import numpy as np

SPARSITY_BUCKETS = ((1, 5), (6, 10), (11, 20), (21, None))


def rank_items(scores: np.ndarray, masked: Collection[int] | None = None
               ) -> np.ndarray:
    """Items sorted by score descending, ties by ascending index, with
    masked items removed before ranking."""
    keep = np.ones(len(scores), dtype=bool)
    if masked is not None:
        keep[np.fromiter(masked, np.int64, len(masked))] = False
    candidates = np.flatnonzero(keep)
    order = np.lexsort((candidates, -scores[candidates]))
    return candidates[order]


def recall_at_k(ranked: np.ndarray, relevant: set[int], k: int) -> float:
    if not relevant:
        raise ValueError("relevant set is empty")
    hits = sum(1 for i in ranked[:k] if int(i) in relevant)
    return hits / len(relevant)


def ndcg_at_k(ranked: np.ndarray, relevant: set[int], k: int) -> float:
    if not relevant:
        raise ValueError("relevant set is empty")
    dcg = 0.0
    for pos, item in enumerate(ranked[:k], start=1):
        if int(item) in relevant:
            dcg += 1.0 / math.log2(pos + 1)
    ideal = sum(1.0 / math.log2(pos + 1)
                for pos in range(1, min(k, len(relevant)) + 1))
    return dcg / ideal


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
    buckets: list[BucketMetrics] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "recall": {str(k): v for k, v in self.recall.items()},
            "ndcg": {str(k): v for k, v in self.ndcg.items()},
            "num_users_evaluated": self.num_users_evaluated,
            "buckets": [b.to_dict() for b in self.buckets],
        }


def evaluate_rankings(score_rows, users: list[int], relevant, masked,
                      ks: tuple[int, ...],
                      user_train_count: np.ndarray | None = None
                      ) -> MetricsReport:
    """Rank each user's unmasked items and average the metrics.

    ``score_rows(chunk)`` returns the score matrix for a list of users.
    ``relevant[u]`` and ``masked[u]`` are user ``u``'s relevant and masked
    items: sets, or rows of a CSR. Users with no relevant item are skipped.
    """
    per_user: dict[int, dict[int, tuple[float, float]]] = {}
    eligible = [u for u in users if len(relevant[u])]
    chunk = 256
    for start in range(0, len(eligible), chunk):
        batch = eligible[start:start + chunk]
        rows = score_rows(batch)
        for row, u in zip(rows, batch):
            ranked = rank_items(row, masked[u])
            rel = {int(i) for i in relevant[u]}
            per_user[u] = {k: (recall_at_k(ranked, rel, k),
                               ndcg_at_k(ranked, rel, k)) for k in ks}
    n = len(per_user)
    recall = {k: (float(np.mean([m[k][0] for m in per_user.values()]))
                  if n else 0.0) for k in ks}
    ndcg = {k: (float(np.mean([m[k][1] for m in per_user.values()]))
                if n else 0.0) for k in ks}
    report = MetricsReport(recall=recall, ndcg=ndcg, num_users_evaluated=n)
    if user_train_count is not None:
        report.buckets = sparsity_breakdown(per_user, user_train_count, ks)
    return report


def sparsity_breakdown(per_user: dict[int, dict[int, tuple[float, float]]],
                       user_train_count: np.ndarray,
                       ks: tuple[int, ...]) -> list[BucketMetrics]:
    """Group evaluated users by train interaction count and average each
    bucket; empty buckets report count 0 and null metrics."""
    out = []
    for lo, hi in SPARSITY_BUCKETS:
        members = [u for u in per_user
                   if lo <= user_train_count[u] and
                   (hi is None or user_train_count[u] <= hi)]
        if members:
            recall = {k: float(np.mean([per_user[u][k][0] for u in members]))
                      for k in ks}
            ndcg = {k: float(np.mean([per_user[u][k][1] for u in members]))
                    for k in ks}
        else:
            recall = {k: None for k in ks}
            ndcg = {k: None for k in ks}
        out.append(BucketMetrics(lo=lo, hi=hi, count=len(members),
                                 recall=recall, ndcg=ndcg))
    return out


def convergence_summary(histories) -> list[dict]:
    """Plot-ready per-run convergence rows."""
    rows = []
    for idx, history in enumerate(histories):
        rows.append({
            "run": idx,
            "epochs_to_best": history.best_epoch + 1,
            "epochs_to_stop": history.stopped_epoch + 1,
            "final_l_bpr": history.l_bpr[-1],
            "final_l_total": history.l_total[-1],
            "trigger_epoch": history.trigger_epoch,
        })
    return rows

"""Pair-wise losses on real and virtual triplets, analytic gradients, and
Adam updates.

Virtual-triplet selection indices are frozen for the epoch, so gradients
flow only through the representations: the loss path
tables -> propagation -> readout -> fusion -> dot products -> softplus
is smooth, and every stage except the dot products is linear. The
propagation matrix is symmetric for both supported normalizations, so the
backward pass pushes final-representation gradients through the same
operator used forward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .backbone import Propagator, Representations
from .dataset import TripletBatch
from .errors import ConfigError, MdvtError
from .triplet_forge import VirtualTripletSet

COMBINE_MODES = ("default", "wo_scale")


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) without overflow; -log(sigmoid(g)) == softplus(-g)."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


@dataclass
class LossReport:
    """Loss components of one batch or one epoch."""

    l_bpr: float
    l_vbpr: float | None
    l_total: float
    epoch: int


def combined_loss(l_bpr: float, l_vbpr: float | None, lam: float,
                  mode: str = "default") -> float:
    """Joint loss: (1-lambda)*bpr + lambda*vbpr, or bpr + lambda*vbpr when
    the align-scale is ablated. A warm-up batch (no virtual loss) is the
    plain bpr loss."""
    if not 0.0 <= lam <= 1.0:
        raise ConfigError(f"lambda must lie in [0, 1], got {lam}")
    if mode not in COMBINE_MODES:
        raise ConfigError(f"unknown loss combination mode {mode!r}")
    if l_vbpr is None:
        return l_bpr
    if mode == "wo_scale":
        return l_bpr + lam * l_vbpr
    return (1.0 - lam) * l_bpr + lam * l_vbpr


def _loss_weights(lam: float, joint: bool, wo_scale: bool
                  ) -> tuple[float, float]:
    if not joint:
        return 1.0, 0.0
    if wo_scale:
        return 1.0, lam
    return 1.0 - lam, lam


def _virtual_rows(users: np.ndarray, virtual: VirtualTripletSet,
                  per_distinct_user: bool) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the batch's distinct covered users (ascending) and each
    row's weight: its batch multiplicity, or 1 per distinct user."""
    uniq, counts = np.unique(users, return_counts=True)
    rows = np.searchsorted(virtual.users, uniq)
    found = rows < len(virtual.users)
    found[found] = ((virtual.users[rows[found]] == uniq[found])
                    & (virtual.positives.row_lengths[rows[found]] > 0))
    weight = (np.ones(found.sum()) if per_distinct_user
              else counts[found].astype(float))
    return rows[found], weight


def _virtual_loss(rows: np.ndarray, weight: np.ndarray,
                  virtual: VirtualTripletSet, z: np.ndarray, num_users: int,
                  w_v: float, wo_aggr: bool, grad_fused: np.ndarray) -> float:
    """Weighted mean virtual loss of ``rows``; adds ``w_v`` times its
    gradient to ``grad_fused``.

    Rows of one group length are computed together. Stacked matrix
    products keep each user's sums in the order of a one-user product, and
    the scatter visits users ascending, each user's positives then its
    negatives, so the result equals a one-user-at-a-time loop's.
    """
    total = float(weight.sum())
    pos, neg = virtual.positives.take(rows), virtual.negatives.take(rows)
    users = virtual.users[rows]
    lengths = pos.row_lengths
    terms = np.empty(len(rows))
    user_grad = np.empty((len(rows), z.shape[1]))
    pair_coef = np.empty(len(pos.indices))
    for n in np.unique(lengths):
        sel = np.flatnonzero(lengths == n)
        at = pos.indptr[sel, None] + np.arange(n)
        zu = z[users[sel]]
        zp = z[pos.indices[at] + num_users]
        zn = z[neg.indices[at] + num_users]
        if wo_aggr:
            diff = zp - zn
            gaps = np.matmul(diff, zu[:, :, None])[:, :, 0]
            terms[sel] = weight[sel] * np.mean(softplus(-gaps), axis=1)
            coef = (w_v * weight[sel] / (total * n))[:, None] * (
                expit(gaps) - 1.0)
            user_grad[sel] = np.matmul(coef[:, None, :], diff)[:, 0]
            pair_coef[at] = coef
        else:
            delta = zp.mean(axis=1) - zn.mean(axis=1)
            gap = np.matmul(zu[:, None, :], delta[:, :, None])[:, 0, 0]
            terms[sel] = weight[sel] * softplus(-gap)
            coef = (w_v * weight[sel] / total) * (expit(gap) - 1.0)
            user_grad[sel] = coef[:, None] * delta
            pair_coef[at] = (coef / n)[:, None]
    if w_v != 0.0:
        grad_fused[users] += user_grad
        # Each user's positives, then its negatives, users ascending.
        pair = np.arange(len(pair_coef))
        to_pos = pair + np.repeat(pos.indptr[:-1], lengths)
        to_neg = pair + np.repeat(pos.indptr[1:], lengths)
        targets = np.empty(2 * len(pair), dtype=np.int64)
        targets[to_pos] = pos.indices + num_users
        targets[to_neg] = neg.indices + num_users
        step = pair_coef[:, None] * z[np.repeat(users, lengths)]
        steps = np.empty((2 * len(pair), z.shape[1]))
        steps[to_pos] = step
        steps[to_neg] = -step
        np.add.at(grad_fused, targets, steps)
    # Running sum left to right, as a loop accumulates it.
    return float(np.cumsum(terms)[-1] / total)


def backward(batch: TripletBatch, virtual: VirtualTripletSet | None,
             reps: Representations, prop: Propagator, *,
             lam: float, joint: bool, num_layers: int,
             wo_aggr: bool = False, wo_scale: bool = False,
             score_mode: str = "per_modality", readout_mode: str = "sum",
             per_distinct_user: bool = False):
    """Batch losses and gradients w.r.t. every embedding table.

    Returns ``(LossReport, grads)`` where ``grads[modality]`` holds
    ``{"user": array, "item": array}``. Only tables reachable from the
    batch vertices (and the virtual groups) through the propagation
    neighborhoods receive nonzero gradient.
    d(-log sigmoid(g))/dg = -(1 - sigmoid(g)).
    """
    w_bpr, w_v = _loss_weights(lam, joint, wo_scale)
    num_users = reps.num_users
    batch_size = len(batch)
    users = batch.users
    pos = batch.pos_items + num_users
    neg = batch.neg_items + num_users

    grads_final = {m: np.zeros_like(f) for m, f in reps.finals.items()}
    grad_fused = np.zeros_like(reps.fused)

    # Real-triplet branch.
    if score_mode == "per_modality":
        gaps = np.zeros(batch_size)
        for m, f in reps.finals.items():
            gaps += np.einsum("bd,bd->b", f[users], f[pos] - f[neg])
    else:
        z = reps.fused
        gaps = np.einsum("bd,bd->b", z[users], z[pos] - z[neg])
    l_bpr = float(np.mean(softplus(-gaps)))
    if w_bpr != 0.0:
        coef = (w_bpr / batch_size) * (expit(gaps) - 1.0)
        if score_mode == "per_modality":
            for m, f in reps.finals.items():
                g = grads_final[m]
                np.add.at(g, users, coef[:, None] * (f[pos] - f[neg]))
                np.add.at(g, pos, coef[:, None] * f[users])
                np.add.at(g, neg, -coef[:, None] * f[users])
        else:
            z = reps.fused
            np.add.at(grad_fused, users, coef[:, None] * (z[pos] - z[neg]))
            np.add.at(grad_fused, pos, coef[:, None] * z[users])
            np.add.at(grad_fused, neg, -coef[:, None] * z[users])

    # Virtual-triplet branch.
    l_vbpr = None
    if joint and virtual is not None:
        rows, weight = _virtual_rows(users, virtual, per_distinct_user)
        if rows.size:
            l_vbpr = _virtual_loss(rows, weight, virtual, reps.fused,
                                   num_users, w_v, wo_aggr, grad_fused)

    if not joint:
        l_total = l_bpr
    elif l_vbpr is not None:
        l_total = combined_loss(l_bpr, l_vbpr,
                                lam, "wo_scale" if wo_scale else "default")
    else:
        # Joint batch without any virtual entry: the bpr weight still applies.
        l_total = w_bpr * l_bpr
    report = LossReport(l_bpr=l_bpr, l_vbpr=l_vbpr if joint else None,
                        l_total=l_total, epoch=-1)

    # Fusion backward, then the shared propagation/readout transpose.
    if np.any(grad_fused):
        share = grad_fused / len(reps.mask)
        for m in reps.mask:
            grads_final[m] += share
    grads: dict[str, dict[str, np.ndarray]] = {}
    for m, g in grads_final.items():
        acc = g.copy()
        cur = g
        for _ in range(num_layers):
            cur = prop.apply(cur)
            acc += cur
        if readout_mode == "mean":
            acc /= num_layers + 1
        grads[m] = {"user": acc[:num_users], "item": acc[num_users:]}
    return report, grads


@dataclass
class OptimizerState:
    """Adam moments mirroring the embedding tables."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    @classmethod
    def for_state(cls, state, learning_rate: float,
                  weight_decay: float = 0.0) -> "OptimizerState":
        m = {key: np.zeros_like(t) for key, t in state.param_items()}
        v = {key: np.zeros_like(t) for key, t in state.param_items()}
        return cls(m=m, v=v, step=0, learning_rate=learning_rate,
                   weight_decay=weight_decay)


def adam_step(state, opt: OptimizerState,
              grads: dict[str, dict[str, np.ndarray]]) -> None:
    """One in-place Adam update with bias correction."""
    opt.step += 1
    t = opt.step
    bc1 = 1.0 - opt.beta1 ** t
    bc2 = 1.0 - opt.beta2 ** t
    for key, param in state.param_items():
        role, modality = key.split(".", 1)
        g = grads[modality][role]
        if not np.all(np.isfinite(g)):
            raise MdvtError(f"non-finite gradient for table {key} "
                            f"at optimizer step {t}")
        if opt.weight_decay:
            g = g + opt.weight_decay * param
        m = opt.m[key]
        v = opt.v[key]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * np.square(g)
        param -= opt.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + opt.eps)

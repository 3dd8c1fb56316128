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
import scipy.sparse as sp
from scipy.special import expit

from .backbone import Propagator, Representations
from .dataset import TripletBatch
from .errors import MdvtError
from .triplet_forge import VirtualTripletSet

# Rows per block of the row-blocked passes (Adam, and the local step's
# row add): 512 rows of 64 float64 columns are 256 KiB per array, so a
# block's arrays stay in a core's L2 cache through all of its passes.
ROW_BLOCK = 512


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
    the align-scale is ablated (``mode="wo_scale"``); a warm-up batch (no
    virtual loss) gives bpr. ``RunConfig`` guarantees lambda in [0, 1]."""
    if l_vbpr is None:
        return l_bpr
    if mode == "wo_scale":
        return l_bpr + lam * l_vbpr
    return (1.0 - lam) * l_bpr + lam * l_vbpr


def _loss_weights(lam: float, joint: bool, wo_scale: bool
                  ) -> tuple[float, float]:
    if not joint:
        return 1.0, 0.0
    return (1.0 if wo_scale else 1.0 - lam), lam


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
                  virtual: VirtualTripletSet, reps: Representations,
                  w_v: float, wo_aggr: bool
                  ) -> tuple[float, np.ndarray, np.ndarray]:
    """Weighted mean virtual loss of ``rows``, and ``(targets, steps)``:
    ``w_v`` times its gradient w.r.t. ``reps.fused`` as steps into its
    rows.

    Rows of one group length are computed together. Stacked matrix
    products keep each user's sums in the order of a one-user product, and
    the steps into items come users ascending, each user's positives then
    its negatives, so scattering them in order equals a one-user loop.
    """
    z = reps.fused
    total = float(weight.sum())
    pos, neg = virtual.positives.take(rows), virtual.negatives.take(rows)
    users = reps.locate(virtual.users[rows])
    pos_rows = reps.locate(pos.indices + reps.num_users)
    neg_rows = reps.locate(neg.indices + reps.num_users)
    lengths = pos.row_lengths
    terms = np.empty(len(rows))
    user_grad = np.empty((len(rows), z.shape[1]))
    pair_coef = np.empty(len(pos.indices))
    for n in np.unique(lengths):
        sel = np.flatnonzero(lengths == n)
        at = pos.indptr[sel, None] + np.arange(n)
        zu = z[users[sel]]
        zp = z[pos_rows[at]]
        zn = z[neg_rows[at]]
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
    # Each user's positives, then its negatives, users ascending.
    pair = np.arange(len(pair_coef))
    to_pos = pair + np.repeat(pos.indptr[:-1], lengths)
    to_neg = pair + np.repeat(pos.indptr[1:], lengths)
    targets = np.empty(2 * len(pair), dtype=np.int64)
    targets[to_pos] = pos_rows
    targets[to_neg] = neg_rows
    step = pair_coef[:, None] * z[np.repeat(users, lengths)]
    steps = np.empty((2 * len(pair), z.shape[1]))
    steps[to_pos] = step
    steps[to_neg] = -step
    # Running sum left to right, as a loop accumulates it.
    return (float(np.cumsum(terms)[-1] / total),
            np.concatenate([users, targets]),
            np.concatenate([user_grad, steps]))


def batch_vertices(batch: TripletBatch, virtual: VirtualTripletSet | None,
                   num_users: int, num_vertices: int) -> np.ndarray:
    """The vertex ids, ascending, whose final representations ``backward``
    reads for ``batch``: its users, positives and negatives and, with a
    virtual set, the virtual positives and negatives of its covered users.
    """
    read = np.zeros(num_vertices, dtype=bool)
    read[batch.users] = True
    read[batch.pos_items + num_users] = True
    read[batch.neg_items + num_users] = True
    if virtual is not None:
        rows, _ = _virtual_rows(batch.users, virtual, False)
        read[virtual.positives.take(rows).indices + num_users] = True
        read[virtual.negatives.take(rows).indices + num_users] = True
    return np.flatnonzero(read)


def _selection(targets: np.ndarray, num_rows: int) -> sp.csr_matrix:
    """The ``num_rows x len(targets)`` CSR with a 1 at ``(targets[k], k)``:
    ``S @ steps`` adds the steps into their rows in order ``k``, from zero,
    bit for bit. scipy's CSR times dense product sums each row's entries
    in stored order from zero, the stable sort stores a row's columns
    ascending, and multiplying by 1.0 is exact."""
    counts = np.bincount(targets, minlength=num_rows)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return sp.csr_matrix((np.ones(len(targets)),
                          np.argsort(targets, kind="stable"), indptr),
                         shape=(num_rows, len(targets)))


def backward(batch: TripletBatch, virtual: VirtualTripletSet | None,
             reps: Representations, prop: Propagator, *,
             lam: float, joint: bool, num_layers: int,
             wo_aggr: bool = False, wo_scale: bool = False,
             score_mode: str = "per_modality", readout_mode: str = "sum",
             per_distinct_user: bool = False):
    """Batch losses and gradients w.r.t. every embedding table.

    Returns ``(LossReport, grads)`` where ``grads[modality]`` is the
    ``(V, d)`` gradient of that modality's table (users first, like
    ``EmbeddingState.tables``). Only rows reachable from the batch vertices
    (and the virtual groups) through the propagation neighborhoods are
    nonzero. Each scatter is one selection-CSR product (``_selection``).
    d(-log sigmoid(g))/dg = -(1 - sigmoid(g)).

    ``reps`` may be compact (``forward_pass(..., rows=batch_vertices(...))``):
    the scatters then fill its rows only, and ``_spread`` fans them out to
    the whole table, giving the full pass's gradients bit for bit.
    """
    w_bpr, w_v = _loss_weights(lam, joint, wo_scale)
    num_users, size = reps.num_users, len(batch)
    users = reps.locate(batch.users)
    pos = reps.locate(batch.pos_items + num_users)
    neg = reps.locate(batch.neg_items + num_users)

    # Real-triplet branch, per modality or on the fused matrix: one block of
    # steps each, in batch order: c*(f[pos]-f[neg]) into the users, c*f[u]
    # into pos, -c*f[u] into neg. Filled in place: fresh pages cost more
    # than the arithmetic.
    scored = (reps.finals if score_mode == "per_modality"
              else {None: reps.fused})
    bpr_steps = {}
    gaps = np.zeros(size)
    for m, f in scored.items():
        steps = bpr_steps[m] = np.empty((3 * size, f.shape[1]))
        diff, f_users = steps[:size], steps[size:2 * size]
        np.take(f, pos, axis=0, out=diff)
        diff -= f[neg]
        np.take(f, users, axis=0, out=f_users)
        gaps += np.einsum("bd,bd->b", f_users, diff)
    l_bpr = float(np.mean(softplus(-gaps)))
    if w_bpr == 0.0:
        bpr_steps.clear()
    coef = ((w_bpr / size) * (expit(gaps) - 1.0))[:, None]
    for steps in bpr_steps.values():
        steps[:size] *= coef
        steps[size:2 * size] *= coef
        np.negative(steps[size:2 * size], out=steps[2 * size:])
    bpr_targets = np.concatenate([users, pos, neg])

    # (targets, steps) into the fused matrix: fused-mode BPR steps first.
    fused = [(bpr_targets, bpr_steps.pop(None))] if None in bpr_steps else []
    l_vbpr = None
    if joint and virtual is not None:
        rows, weight = _virtual_rows(batch.users, virtual, per_distinct_user)
        if rows.size:
            l_vbpr, *scatter = _virtual_loss(rows, weight, virtual, reps,
                                             w_v, wo_aggr)
            if w_v != 0.0:
                fused.append(scatter)

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

    share = None
    if fused:
        targets, steps = (np.concatenate(parts) for parts in zip(*fused))
        grad_fused = _selection(targets, len(reps.fused)) @ steps
        if np.any(grad_fused):
            share = grad_fused / len(reps.mask)
    select = _selection(bpr_targets, len(reps.fused)) if bpr_steps else None
    grads = {}
    for m, f in reps.finals.items():
        acc = (np.zeros_like(f) if select is None
               else select @ bpr_steps.pop(m))
        # Fusion backward once per mask entry, then propagation's transpose.
        if share is not None:
            for _ in range(reps.mask.count(m)):
                acc += share
        if reps.rows is None:
            layer = acc
            for _ in range(num_layers):
                layer = prop.apply(layer)
                acc += layer
        else:
            acc = _spread(acc, reps, prop, num_layers)
        if readout_mode == "mean":
            acc /= num_layers + 1
        grads[m] = acc
    return report, grads


def _spread(acc: np.ndarray, reps: Representations, prop: Propagator,
            num_layers: int) -> np.ndarray:
    """The whole-table layer sum of compact-row gradients ``acc``: what
    the full pass computes from ``acc`` scattered into zeros, bit for bit.

    The first propagation is ``block.T @ acc``. The operator is exactly
    symmetric (each weight reads ``deg[r] * deg[c]``, which commutes), and
    the CSC product adds each output row's terms in ascending vertex
    order: the CSR row's order less its ``+0.0`` terms, which change no
    sum that starts from ``+0.0``. Later layers run on the whole table.
    """
    if num_layers == 0:
        out = np.zeros((len(reps.index), acc.shape[1]))
        out[reps.rows] = acc
        return out
    layer = reps.block.T @ acc
    out = layer.copy() if num_layers > 1 else layer
    # In blocks, so the gathered rows are a small temporary.
    for start in range(0, len(acc), ROW_BLOCK):
        rows = reps.rows[start:start + ROW_BLOCK]
        out[rows] += acc[start:start + ROW_BLOCK]
    for _ in range(num_layers - 1):
        layer = prop.apply(layer)
        out += layer
    return out


@dataclass
class OptimizerState:
    """Adam moments mirroring the modality tables."""

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
        m = {key: np.zeros_like(t) for key, t in state.tables.items()}
        v = {key: np.zeros_like(t) for key, t in state.tables.items()}
        return cls(m=m, v=v, step=0, learning_rate=learning_rate,
                   weight_decay=weight_decay)


def adam_step(state, opt: OptimizerState,
              grads: dict[str, np.ndarray]) -> None:
    """One in-place Adam update with bias correction. Every gradient is
    checked before any table moves: a non-finite one raises and leaves
    the tables and moments as they were.

    Each table is walked in blocks of ``ROW_BLOCK`` rows; every element
    sees the same ufuncs in the same order as a whole-table update."""
    opt.step += 1
    t = opt.step
    for m in state.tables:
        if not np.all(np.isfinite(grads[m])):
            role = ("item" if np.all(np.isfinite(grads[m][:state.num_users]))
                    else "user")
            raise MdvtError(f"non-finite gradient for table {role}.{m} "
                            f"at optimizer step {t}")
    bc1 = 1.0 - opt.beta1 ** t
    bc2 = 1.0 - opt.beta2 ** t
    # Two temporaries, reused by every block; each line computes what
    # ``param -= lr * (m / bc1) / (sqrt(v / bc2) + eps)`` does, in order.
    first = next(iter(state.tables.values()))
    a_block, b_block = (np.empty((min(len(first), ROW_BLOCK),
                                  first.shape[1])) for _ in range(2))
    for key, table in state.tables.items():
        for start in range(0, len(table), ROW_BLOCK):
            rows = slice(start, start + ROW_BLOCK)
            param, g = table[rows], grads[key][rows]
            m, v = opt.m[key][rows], opt.v[key][rows]
            a, b = a_block[:len(param)], b_block[:len(param)]
            if opt.weight_decay:
                g = np.add(g, np.multiply(opt.weight_decay, param, out=a),
                           out=a)
            m *= opt.beta1
            m += np.multiply(1.0 - opt.beta1, g, out=b)
            v *= opt.beta2
            v += np.multiply(1.0 - opt.beta2, np.square(g, out=b), out=b)
            np.multiply(opt.learning_rate, np.divide(m, bc1, out=a), out=a)
            np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), opt.eps, out=b)
            param -= np.divide(a, b, out=a)

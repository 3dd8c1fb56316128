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
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .backbone import Propagator, Representations, fuse
from .dataset import TripletBatch
from .errors import MdvtError
from .triplet_forge import VirtualTripletSet

if TYPE_CHECKING:
    from .trainer import RunConfig

# Rows per block of the row-blocked passes (Adam, and the local step's
# row add): 512 rows of 64 float32 columns are 128 KiB per array, so a
# block's arrays stay in a core's L2 cache through all of its passes.
ROW_BLOCK = 512

# Adam's moment decay rates and denominator guard.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) without overflow; -log(sigmoid(g)) == softplus(-g)."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


@dataclass
class LossReport:
    """Loss components of one batch or one epoch."""

    l_bpr: float
    l_vbpr: float | None
    l_total: float


def _virtual_rows(users: np.ndarray, virtual: VirtualTripletSet,
                  per_distinct_user: bool) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the batch's distinct covered users (ascending) and each
    row's integer weight: its batch multiplicity, or 1 per distinct user."""
    uniq, counts = np.unique(users, return_counts=True)
    rows = np.searchsorted(virtual.users, uniq)
    found = rows < len(virtual.users)
    found[found] = ((virtual.users[rows[found]] == uniq[found])
                    & (virtual.positives.row_lengths[rows[found]] > 0))
    weight = counts[found]
    return rows[found], np.ones_like(weight) if per_distinct_user else weight


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
    weight = weight.astype(z.dtype)  # small integers: exact
    total = float(weight.sum())
    pos, neg = virtual.positives.take(rows), virtual.negatives.take(rows)
    users = reps.locate(virtual.users[rows])
    pos_rows = reps.locate(pos.indices + reps.num_users)
    neg_rows = reps.locate(neg.indices + reps.num_users)
    lengths = pos.row_lengths
    terms = np.empty(len(rows), dtype=z.dtype)
    user_grad = np.empty((len(rows), z.shape[1]), dtype=z.dtype)
    pair_coef = np.empty(len(pos.indices), dtype=z.dtype)
    for n in np.unique(lengths).tolist():  # an np.int64 n widens float32
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
    steps = np.empty((2 * len(pair), z.shape[1]), dtype=z.dtype)
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


def _selection(targets: np.ndarray, like: np.ndarray) -> sp.csr_matrix:
    """The ``len(like) x len(targets)`` CSR of ``like``'s dtype with a 1 at
    ``(targets[k], k)``: ``S @ steps`` adds the steps into their rows in
    order ``k``, from zero, bit for bit. scipy's CSR times dense product
    sums each row's entries in stored order from zero, the stable sort
    stores a row's columns ascending, and multiplying by 1.0 is exact."""
    counts = np.bincount(targets, minlength=len(like))
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return sp.csr_matrix((np.ones(len(targets), dtype=like.dtype),
                          np.argsort(targets, kind="stable"), indptr),
                         shape=(len(like), len(targets)))


def backward(batch: TripletBatch, virtual: VirtualTripletSet | None,
             reps: Representations, prop: Propagator, config: RunConfig,
             peer=None):
    """Batch losses and gradients w.r.t. the embedding tables ``reps``
    holds finals of; a batch with a ``virtual`` set is joint, one with None
    is warm-up.

    Returns ``(LossReport, grads)`` where ``grads[modality]`` is the
    ``(V, d)`` gradient of that modality's table (users first, like
    ``EmbeddingState.tables``). Only rows reachable from the batch vertices
    (and the virtual groups) through the propagation neighborhoods are
    nonzero. Each scatter is one selection-CSR product (``_selection``).
    d(-log sigmoid(g))/dg = -(1 - sigmoid(g)).

    ``l_total = w_bpr * l_bpr + w_v * l_vbpr`` with ``(w_bpr, w_v)``
    (1-lambda, lambda) in a joint batch, (1, lambda) with the align-scale
    ablated (``wo_scale``), and (1, 0) in warm-up.

    ``reps`` may be compact (``forward_pass(..., rows=batch_vertices(...))``):
    the scatters then fill its rows only, and ``_spread`` fans them out to
    the whole table, giving the full pass's gradients bit for bit.

    In a split epoch (``trainer.train_epoch``) each process passes its
    end of the link as ``peer``, and its ``reps`` holds its own tables'
    finals, the worker's the later ones in table order. The worker sends
    its gap terms (and its masked finals when the loss reads the fused
    matrix) and gets back ``(coef, share)``; its report is None. The
    parent adds those gap terms to its own in table order, computes the
    losses, ``coef`` and ``share`` as a serial step does, and sends them.
    """
    # The rows the BPR steps go into: users, then positives, negatives.
    rows = reps.locate(np.concatenate([batch.users,
                                       batch.pos_items + reps.num_users,
                                       batch.neg_items + reps.num_users]))
    blocks, gaps = {}, []
    if config.score_mode == "per_modality":
        for m, f in reps.finals.items():
            blocks[m], gap = _step_block(f, rows)
            gaps.append(gap)
    if peer is not None and not peer.couples:
        fused = virtual is not None or config.score_mode == "fused"
        peer.send((gaps, {m: f for m, f in reps.finals.items()
                          if m in reps.mask} if fused else None))
        report, (coef, share) = None, peer.recv()
    else:
        if peer is not None:
            their_gaps, their_finals = peer.recv()
            gaps += their_gaps
            if their_finals:
                reps.fused = fuse({**reps.finals, **their_finals}, reps.mask)
        report, coef, share = _couple(batch, virtual, reps, config, rows,
                                      gaps)
        if peer is not None:
            peer.send((coef, share))
    return report, _table_grads(reps, prop, config, rows, blocks, coef,
                                share)


def _step_block(f: np.ndarray, rows: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """The unscaled BPR step block of the scored matrix ``f`` and its gap
    terms ``f[u] . (f[pos] - f[neg])``: ``f[pos] - f[neg]`` (the users'
    steps), ``f[u]`` (the positives'), then room for the negatives'.
    Filled in place: fresh pages cost more than the arithmetic."""
    size = len(rows) // 3
    users, pos, neg = rows[:size], rows[size:2 * size], rows[2 * size:]
    block = np.empty((3 * size, f.shape[1]), dtype=f.dtype)
    diff, f_users = block[:size], block[size:2 * size]
    np.take(f, pos, axis=0, out=diff)
    diff -= f[neg]
    np.take(f, users, axis=0, out=f_users)
    return block, np.einsum("bd,bd->b", f_users, diff)


def _scale(block: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """A step block times each triplet's ``coef``, with the negatives'
    steps ``-c*f[u]``, in place."""
    size = len(coef)
    block[:size] *= coef
    block[size:2 * size] *= coef
    np.negative(block[size:2 * size], out=block[2 * size:])
    return block


def _couple(batch: TripletBatch, virtual: VirtualTripletSet | None,
            reps: Representations, config: RunConfig, rows: np.ndarray,
            gaps: list[np.ndarray]):
    """The part of a batch step that reads every table: the losses, each
    triplet's BPR coefficient (None when the BPR term weighs 0) and
    ``share``, the fused matrix's gradient over the mask length (None when
    zero). ``gaps`` are every table's gap terms in table order, added from
    zero in that order; fused scoring scores ``reps.fused`` instead."""
    w_v = config.lam if virtual is not None else 0.0
    w_bpr = 1.0 if config.wo_scale else 1.0 - w_v
    size = len(batch)
    if config.score_mode == "fused":
        block, gap = _step_block(reps.fused, rows)
        gaps = [gap]
    total = np.zeros(size, dtype=gaps[0].dtype)
    for gap in gaps:
        total += gap
    l_bpr = float(np.mean(softplus(-total)))
    coef = (((w_bpr / size) * (expit(total) - 1.0))[:, None]
            if w_bpr != 0.0 else None)

    # (targets, steps) into the fused matrix: fused-mode BPR steps first.
    fused = ([(rows, _scale(block, coef))]
             if config.score_mode == "fused" and coef is not None else [])
    l_vbpr = None
    if virtual is not None:
        v_rows, weight = _virtual_rows(batch.users, virtual,
                                       config.per_distinct_user)
        if v_rows.size:
            l_vbpr, *scatter = _virtual_loss(v_rows, weight, virtual, reps,
                                             w_v, config.wo_aggr)
            if w_v != 0.0:
                fused.append(scatter)

    # A joint batch without any virtual entry still weights the bpr term.
    l_total = w_bpr * l_bpr + w_v * (0.0 if l_vbpr is None else l_vbpr)
    report = LossReport(l_bpr=l_bpr, l_vbpr=l_vbpr, l_total=l_total)

    share = None
    if fused:
        targets, steps = (np.concatenate(parts) for parts in zip(*fused))
        grad_fused = _selection(targets, reps.fused) @ steps
        if np.any(grad_fused):
            share = grad_fused / len(reps.mask)
    return report, coef, share


def _table_grads(reps: Representations, prop: Propagator, config: RunConfig,
                 rows: np.ndarray, blocks: dict[str, np.ndarray],
                 coef: np.ndarray | None, share: np.ndarray | None
                 ) -> dict[str, np.ndarray]:
    """The gradient of each table ``reps`` holds finals of: its scaled
    step block scattered into ``rows``, plus ``share`` once per mask
    entry, pushed back through the propagation."""
    grads = {}
    select = None
    for m, f in reps.finals.items():
        if blocks and coef is not None:
            if select is None:
                select = _selection(rows, f)
            acc = select @ _scale(blocks.pop(m), coef)
        else:
            acc = np.zeros_like(f)
        # Fusion backward once per mask entry, then propagation's transpose.
        if share is not None:
            for _ in range(reps.mask.count(m)):
                acc += share
        if reps.rows is None:
            layer = acc
            for _ in range(config.num_layers):
                layer = prop.apply(layer)
                acc += layer
        else:
            acc = _spread(acc, reps, prop, config.num_layers)
        if config.readout == "mean":
            acc /= config.num_layers + 1
        grads[m] = acc
    return grads


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
        out = np.zeros((len(reps.index), acc.shape[1]), dtype=acc.dtype)
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

    @classmethod
    def for_state(cls, state) -> "OptimizerState":
        m = {key: np.zeros_like(t) for key, t in state.tables.items()}
        v = {key: np.zeros_like(t) for key, t in state.tables.items()}
        return cls(m=m, v=v, step=0)


def adam_step(state, opt: OptimizerState, grads: dict[str, np.ndarray],
              config: RunConfig, peer=None) -> None:
    """One in-place Adam update of the tables ``grads`` names, with bias
    correction, at ``config``'s learning rate and weight decay. A
    non-finite gradient raises before any table or moment moves.

    In a split epoch ``peer.agree`` trades this process's finding (the
    first non-finite table's message, or None) for the step's, so that
    neither process moves a table unless both may, and the message is the
    one a serial step gives.

    Each table is walked in blocks of ``ROW_BLOCK`` rows; every element
    sees the same ufuncs in the same order as a whole-table update."""
    opt.step += 1
    t = opt.step
    problem = None
    for m, g in grads.items():
        if not np.all(np.isfinite(g)):
            role = ("item" if np.all(np.isfinite(g[:state.num_users]))
                    else "user")
            problem = (f"non-finite gradient for table {role}.{m} "
                       f"at optimizer step {t}")
            break
    if peer is not None:
        problem = peer.agree(problem)
    if problem:
        raise MdvtError(problem)
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    # Two temporaries, reused by every block; each line computes what
    # ``param -= lr * (m / bc1) / (sqrt(v / bc2) + eps)`` does, in order.
    first = next(iter(state.tables.values()))
    a_block, b_block = (np.empty_like(first[:ROW_BLOCK]) for _ in range(2))
    for key in grads:
        table = state.tables[key]
        for start in range(0, len(table), ROW_BLOCK):
            rows = slice(start, start + ROW_BLOCK)
            param, g = table[rows], grads[key][rows]
            m, v = opt.m[key][rows], opt.v[key][rows]
            a, b = a_block[:len(param)], b_block[:len(param)]
            if config.weight_decay:
                g = np.add(g, np.multiply(config.weight_decay, param, out=a),
                           out=a)
            m *= BETA1
            m += np.multiply(1.0 - BETA1, g, out=b)
            v *= BETA2
            v += np.multiply(1.0 - BETA2, np.square(g, out=b), out=b)
            np.multiply(config.learning_rate, np.divide(m, bc1, out=a),
                        out=a)
            np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), EPS, out=b)
            param -= np.divide(a, b, out=a)

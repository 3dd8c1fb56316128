"""Finite-difference oracle for the analytic backward pass.

The loss closure recomputes the full forward pass from the embedding
tables while holding the batch and the virtual-triplet indices fixed, so
central differences probe exactly the path the analytic gradients claim
to cover.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from mdvt import backbone, objective


def as_float64(state: backbone.EmbeddingState) -> backbone.EmbeddingState:
    """A copy of ``state`` with float64 tables. Central differences need
    them: at float32 the rounding of each loss, divided by ``2h``, swamps
    the gradient. A float32 operator times a float64 table widens exactly,
    so the loss path runs in float64 throughout."""
    return dataclasses.replace(state, tables={
        m: t.astype(np.float64) for m, t in state.tables.items()})


def batch_losses(batch, virtual, reps, *, lam, wo_aggr=False,
                 wo_scale=False, score_mode="per_modality",
                 per_distinct_user=False) -> objective.LossReport:
    """The loss values of ``objective.backward``, whose gradients are
    dropped; with zero layers it never applies the propagator."""
    report, _ = objective.backward(
        batch, virtual, reps, prop=None, lam=lam, num_layers=0,
        wo_aggr=wo_aggr, wo_scale=wo_scale, score_mode=score_mode,
        per_distinct_user=per_distinct_user)
    return report


def total_loss(state, prop, batch, virtual, *, num_layers, mask,
               readout_mode, lam, wo_aggr, wo_scale, score_mode,
               per_distinct_user=False):
    reps = backbone.forward_pass(state, prop, num_layers, mask, readout_mode)
    report = batch_losses(
        batch, virtual, reps, lam=lam, wo_aggr=wo_aggr,
        wo_scale=wo_scale, score_mode=score_mode,
        per_distinct_user=per_distinct_user)
    return report.l_total


def loss_component(state, prop, batch, virtual, component, *, num_layers,
                   mask, readout_mode, wo_aggr, score_mode):
    """l_bpr or l_vbpr alone, for per-component gradient checks."""
    reps = backbone.forward_pass(state, prop, num_layers, mask, readout_mode)
    report = batch_losses(
        batch, virtual, reps, lam=0.5, wo_aggr=wo_aggr,
        score_mode=score_mode)
    return report.l_bpr if component == "bpr" else report.l_vbpr


def finite_difference(loss_fn, state, h=1e-4):
    """Central differences of loss_fn over every table coordinate."""
    grads = {}
    for key, table in state.param_items():
        g = np.zeros_like(table)
        it = np.nditer(table, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = table[idx]
            table[idx] = orig + h
            f_plus = loss_fn(state)
            table[idx] = orig - h
            f_minus = loss_fn(state)
            table[idx] = orig
            g[idx] = (f_plus - f_minus) / (2.0 * h)
            it.iternext()
        grads[key] = g
    return grads


def max_relative_error(analytic, numeric):
    """Worst relative error of ``objective.backward``'s ``(V, d)``
    gradients against ``finite_difference``'s per-table ones."""
    worst = 0.0
    for modality, an in analytic.items():
        fd = np.vstack([numeric[f"user.{modality}"],
                        numeric[f"item.{modality}"]])
        err = np.abs(an - fd) / np.maximum(1.0, np.abs(fd))
        worst = max(worst, float(err.max()))
    return worst

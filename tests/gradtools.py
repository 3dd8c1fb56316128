"""Finite-difference oracle for the analytic backward pass.

The loss closure recomputes the full forward pass from the embedding
tables while holding the batch and the virtual-triplet indices fixed, so
central differences probe exactly the path the analytic gradients claim
to cover.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from mdvt import backbone, objective


def as_float64(state: backbone.EmbeddingState) -> backbone.EmbeddingState:
    """A copy of ``state`` with float64 tables. Central differences need
    them: at float32 the rounding of each loss, divided by ``2h``, swamps
    the gradient. A float32 operator times a float64 table widens exactly,
    so the loss path runs in float64 throughout."""
    return dataclasses.replace(state, tables={
        m: t.astype(np.float64) for m, t in state.tables.items()})


def batch_losses(batch, virtual, reps, config) -> objective.LossReport:
    """The loss values of ``objective.backward``, whose gradients are
    dropped; with zero layers it never applies the propagator."""
    report, _ = objective.backward(batch, virtual, reps, None,
                                   _without_layers(config))
    return report


@functools.lru_cache
def _without_layers(config):
    # Built once per config: finite differences evaluate thousands of losses.
    return dataclasses.replace(config, num_layers=0)


def total_loss(state, prop, batch, virtual, config):
    reps = backbone.forward_pass(state, prop, config)
    return batch_losses(batch, virtual, reps, config).l_total


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

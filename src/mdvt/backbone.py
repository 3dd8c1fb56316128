"""Reference graph-collaborative-filtering backbone.

Per-modality embedding tables are propagated over the bipartite train
graph, read out as the layer sum, fused across modalities by element-wise
mean, and scored by dot products. The whole forward map from tables to
final representations is linear, so the backward pass reuses the same
propagation operator (see objective.backward).

A training step may propagate only the rows its loss reads
(``forward_pass(..., rows=S)``); evaluation and refresh never do.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from .dataset import InteractionGraph, gather_rows

if TYPE_CHECKING:
    from .trainer import RunConfig

NORM_MODES = ("dual", "sym")
READOUT_MODES = ("sum", "mean")
SCORE_MODES = ("per_modality", "fused")
DTYPE = np.float32  # of the tables and the operator; derived arrays follow


@dataclass
class EmbeddingState:
    """Trainable tables, ``DTYPE`` (float32): one ``(V, d)`` table per
    modality over the union vertex set, users first.

    ``user[m]``/``item[m]`` are writeable row views of ``tables[m]``, made
    on each read; only ``tables`` is stored, so a copy or deepcopy of the
    state never shares or detaches them.
    """

    tables: dict[str, np.ndarray]
    num_users: int
    embed_dim: int

    @property
    def modalities(self) -> tuple[str, ...]:
        return tuple(self.tables)

    @property
    def user(self) -> dict[str, np.ndarray]:
        return {m: t[:self.num_users] for m, t in self.tables.items()}

    @property
    def item(self) -> dict[str, np.ndarray]:
        return {m: t[self.num_users:] for m, t in self.tables.items()}

    def param_items(self):
        """(key, table) pairs in a fixed order: per modality, user then item."""
        for m, t in self.tables.items():
            yield f"user.{m}", t[:self.num_users]
            yield f"item.{m}", t[self.num_users:]

    def copy(self) -> "EmbeddingState":
        return dataclasses.replace(
            self, tables={m: t.copy() for m, t in self.tables.items()})


def init_embeddings(features: dict[str, np.ndarray], num_users: int,
                    num_items: int, embed_dim: int, seed: int
                    ) -> EmbeddingState:
    """Seeded uniform(-0.5/sqrt(d), 0.5/sqrt(d)) tables; non-id item tables
    start from the raw features projected to d and stay trainable.

    Projection: identity when the feature width already equals d, otherwise
    a fixed seed-derived Gaussian matrix scaled by 1/sqrt(f). One substream
    per table keeps the draw deterministic and independent of the other
    tables. Drawn and projected in float64, then rounded once to ``DTYPE``.
    """
    modalities = ("id", *features)
    scale = 0.5 / np.sqrt(embed_dim)
    streams = np.random.SeedSequence(seed).spawn(2 * len(modalities))
    state = EmbeddingState(
        tables={m: np.empty((num_users + num_items, embed_dim), DTYPE)
                for m in modalities},
        num_users=num_users, embed_dim=embed_dim)
    for k, m in enumerate(modalities):
        rng_u = np.random.default_rng(streams[2 * k])
        rng_i = np.random.default_rng(streams[2 * k + 1])
        state.user[m][:] = rng_u.uniform(-scale, scale, (num_users, embed_dim))
        item = state.item[m]
        if m == "id":
            item[:] = rng_i.uniform(-scale, scale, (num_items, embed_dim))
            continue
        feats = features[m].astype(np.float64)
        f_m = feats.shape[1]
        if f_m == embed_dim:
            item[:] = feats
        else:
            projection = rng_i.standard_normal((f_m, embed_dim)) / np.sqrt(f_m)
            item[:] = feats @ projection
    return state


class Propagator:
    """Sparse one-layer propagation operator over the union vertex set.

    ``dual`` weights each edge (u, i) by 1/(d_u * d_i); ``sym`` by
    1/sqrt(d_u * d_i). Both matrices are symmetric, so the operator is its
    own transpose and the backward pass applies it unchanged.
    """

    def __init__(self, graph: InteractionGraph, norm: str = "dual") -> None:
        nu = graph.num_users
        v = graph.num_vertices
        users, items = graph.edges()
        rows = np.concatenate([users, items + nu])
        cols = np.concatenate([items + nu, users])
        deg = graph.degrees.astype(np.float64)
        prod = deg[rows] * deg[cols]
        weights = 1.0 / prod if norm == "dual" else 1.0 / np.sqrt(prod)
        self.matrix = sp.csr_matrix((weights.astype(DTYPE), (rows, cols)),
                                    shape=(v, v))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def block(self, rows: np.ndarray) -> sp.csr_matrix:
        """The operator's rows ``rows`` (ascending, distinct) as a
        ``len(rows) x V`` CSR, gathered with numpy: scipy's row indexing
        costs about a millisecond a call. ``block(S) @ x`` equals
        ``apply(x)[S]`` bit for bit, since each output row sums the same
        entries in the same order."""
        p = self.matrix
        starts = p.indptr[rows]
        indptr, at = gather_rows(starts, p.indptr[rows + 1] - starts)
        return sp.csr_matrix((p.data[at], p.indices[at], indptr),
                             shape=(len(rows), p.shape[1]))


@dataclass
class Representations:
    """One forward pass: per-modality finals and the fused matrix.

    A full pass stacks every matrix over the union vertex set (users
    first), with split views for user/item blocks. A compact pass
    (``rows`` set) holds only the vertices ``rows``, ascending: ``locate``
    maps vertex ids to its rows, ``block`` is the operator's ``rows``
    rows, and the whole-split views refuse, so nothing ranks or selects
    from a partial matrix. A pass over some of the modalities holds only
    their finals, and ``fused`` is None if it leaves out a fused one.
    """

    finals: dict[str, np.ndarray]
    fused: np.ndarray | None
    num_users: int
    mask: tuple[str, ...]
    rows: np.ndarray | None = None
    index: np.ndarray | None = None
    block: sp.csr_matrix | None = None

    def locate(self, vertices: np.ndarray) -> np.ndarray:
        """Rows of ``finals``/``fused`` that hold ``vertices``."""
        return vertices if self.index is None else self.index[vertices]

    def _whole(self, matrix: np.ndarray) -> np.ndarray:
        if self.rows is not None:
            raise ValueError("compact representations hold only the rows "
                             "of one batch, not whole user or item blocks")
        return matrix

    def users(self, modality: str) -> np.ndarray:
        return self._whole(self.finals[modality])[: self.num_users]

    def items(self, modality: str) -> np.ndarray:
        return self._whole(self.finals[modality])[self.num_users:]

    @property
    def fused_users(self) -> np.ndarray:
        return self._whole(self.fused)[: self.num_users]

    @property
    def fused_items(self) -> np.ndarray:
        return self._whole(self.fused)[self.num_users:]


def forward_pass(state: EmbeddingState, prop: Propagator, config: RunConfig,
                 rows: np.ndarray | None = None,
                 modalities: tuple[str, ...] | None = None
                 ) -> Representations:
    """Propagate the ``modalities`` tables (default all), read out the
    layer sum (or mean) and fuse the modalities of ``config.modality_mask``
    (default all) by element-wise mean.

    With ``rows`` (ascending vertex ids) the result is compact: layers
    ``1..L-1`` still run on the whole table, the last one propagates only
    ``rows``, and every sum adds the same terms in the same order as the
    full pass, so each row equals the full pass's bit for bit.
    """
    num_layers = config.num_layers
    mask = config.modality_mask or state.modalities
    block = index = None
    if rows is not None:
        block = prop.block(rows)
        # Out of range for the compact rows: a vertex outside ``rows``
        # raises instead of reading another vertex's row.
        index = np.full(block.shape[1], len(rows), dtype=np.int64)
        index[rows] = np.arange(len(rows))
    finals: dict[str, np.ndarray] = {}
    for m in modalities or state.modalities:
        layer = state.tables[m]
        if rows is None:
            out = layer.copy()
            for _ in range(num_layers):
                layer = prop.apply(layer)
                out += layer
        else:
            out = layer[rows]
            for _ in range(num_layers - 1):
                layer = prop.apply(layer)
                out += layer[rows]
            if num_layers:
                out += block @ layer
        if config.readout == "mean":
            out /= num_layers + 1
        finals[m] = out
    fused = fuse(finals, mask) if set(mask) <= finals.keys() else None
    return Representations(finals=finals, fused=fused,
                           num_users=state.num_users, mask=mask, rows=rows,
                           index=index, block=block)


def fuse(finals: dict[str, np.ndarray], mask: tuple[str, ...]) -> np.ndarray:
    """The element-wise mean of the finals ``mask`` names, summed in mask
    order (a repeated entry counts each time)."""
    fused = finals[mask[0]].copy()
    for m in mask[1:]:
        fused += finals[m]
    fused /= len(mask)
    return fused


def score_matrix(reps: Representations, users: np.ndarray,
                 config: RunConfig) -> np.ndarray:
    """Scores of several users against all items, one row per user."""
    if config.score_mode == "fused":
        return reps.fused_users[users] @ reps.fused_items.T
    first, *rest = reps.finals
    out = reps.users(first)[users] @ reps.items(first).T
    term = None  # one block, reused by every later modality
    for m in rest:
        term = np.matmul(reps.users(m)[users], reps.items(m).T, out=term)
        out += term
    return out

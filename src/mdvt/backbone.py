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

import numpy as np
import scipy.sparse as sp

from .dataset import InteractionGraph, ModalityBundle
from .errors import DataError

NORM_MODES = ("dual", "sym")
READOUT_MODES = ("sum", "mean")
SCORE_MODES = ("per_modality", "fused")


@dataclass
class EmbeddingState:
    """Trainable tables, float64 for training: one ``(V, d)`` table per
    modality over the union vertex set, users first.

    ``user[m]``/``item[m]`` are writeable row views of ``tables[m]``, made
    on each read; only ``tables`` is stored, so a copy or deepcopy of the
    state never shares or detaches them.
    """

    tables: dict[str, np.ndarray]
    num_users: int
    init_seed: int
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


def init_embeddings(bundle: ModalityBundle, num_users: int, embed_dim: int,
                    seed: int) -> EmbeddingState:
    """Seeded uniform(-0.5/sqrt(d), 0.5/sqrt(d)) tables; non-id item tables
    start from the raw features projected to d and stay trainable.

    Projection: identity when the feature width already equals d, otherwise
    a fixed seed-derived Gaussian matrix scaled by 1/sqrt(f). One substream
    per table keeps the draw deterministic and independent of the other
    tables.
    """
    scale = 0.5 / np.sqrt(embed_dim)
    streams = np.random.SeedSequence(seed).spawn(2 * len(bundle.modalities))
    state = EmbeddingState(
        tables={m: np.empty((num_users + bundle.num_items, embed_dim))
                for m in bundle.modalities},
        num_users=num_users, init_seed=seed, embed_dim=embed_dim)
    for k, m in enumerate(bundle.modalities):
        rng_u = np.random.default_rng(streams[2 * k])
        rng_i = np.random.default_rng(streams[2 * k + 1])
        state.user[m][:] = rng_u.uniform(-scale, scale, (num_users, embed_dim))
        item = state.item[m]
        if m == "id":
            item[:] = rng_i.uniform(-scale, scale,
                                   (bundle.num_items, embed_dim))
            continue
        feats = bundle.features[m].astype(np.float64)
        f_m = feats.shape[1]
        if f_m < 1:
            raise DataError(f"modality {m!r} has {f_m} feature columns")
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
        self.matrix = sp.csr_matrix((weights, (rows, cols)), shape=(v, v))

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
        lengths = p.indptr[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, dtype=p.indptr.dtype)
        np.cumsum(lengths, out=indptr[1:])
        at = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
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
    from a partial matrix.
    """

    finals: dict[str, np.ndarray]
    fused: np.ndarray
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


def forward_pass(state: EmbeddingState, prop: Propagator, num_layers: int,
                 mask: tuple[str, ...], readout_mode: str = "sum",
                 rows: np.ndarray | None = None) -> Representations:
    """Propagate every modality table, read out the layer sum (or mean)
    and fuse the ``mask`` modalities by element-wise mean. The arguments
    are unchecked: ``RunConfig`` and ``TrainingRun`` guarantee them.

    With ``rows`` (ascending vertex ids) the result is compact: layers
    ``1..L-1`` still run on the whole table, the last one propagates only
    ``rows``, and every sum adds the same terms in the same order as the
    full pass, so each row equals the full pass's bit for bit.
    """
    block = index = None
    if rows is not None:
        block = prop.block(rows)
        # Out of range for the compact rows: a vertex outside ``rows``
        # raises instead of reading another vertex's row.
        index = np.full(block.shape[1], len(rows), dtype=np.int64)
        index[rows] = np.arange(len(rows))
    finals: dict[str, np.ndarray] = {}
    for m, layer in state.tables.items():
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
        if readout_mode == "mean":
            out /= num_layers + 1
        finals[m] = out
    fused = finals[mask[0]].copy()
    for m in mask[1:]:
        fused += finals[m]
    fused /= len(mask)
    return Representations(finals=finals, fused=fused,
                           num_users=state.num_users, mask=mask, rows=rows,
                           index=index, block=block)


def score_matrix(reps: Representations, users: np.ndarray,
                 mode: str = "per_modality") -> np.ndarray:
    """Scores of several users against all items, one row per user."""
    if mode == "fused":
        return reps.fused_users[users] @ reps.fused_items.T
    out = None
    for m in reps.finals:
        s = reps.users(m)[users] @ reps.items(m).T
        out = s if out is None else out + s
    return out

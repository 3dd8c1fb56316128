"""Reference graph-collaborative-filtering backbone.

Per-modality embedding tables are propagated over the bipartite train
graph, read out as the layer sum, fused across modalities by element-wise
mean, and scored by dot products. The whole forward map from tables to
final representations is linear, so the backward pass reuses the same
propagation operator (see objective.backward).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dataset import InteractionGraph, ModalityBundle
from .errors import ConfigError, DataError

NORM_MODES = ("dual", "sym")
READOUT_MODES = ("sum", "mean")
SCORE_MODES = ("per_modality", "fused")


@dataclass
class EmbeddingState:
    """Trainable user/item tables per modality, float64 for training."""

    user: dict[str, np.ndarray]
    item: dict[str, np.ndarray]
    init_seed: int
    embed_dim: int

    @property
    def modalities(self) -> tuple[str, ...]:
        return tuple(self.user)

    @property
    def num_users(self) -> int:
        return next(iter(self.user.values())).shape[0]

    @property
    def num_items(self) -> int:
        return next(iter(self.item.values())).shape[0]

    def param_items(self):
        """(key, table) pairs in a fixed order: per modality, user then item."""
        for m in self.user:
            yield f"user.{m}", self.user[m]
            yield f"item.{m}", self.item[m]

    def copy(self) -> "EmbeddingState":
        return EmbeddingState(
            user={m: t.copy() for m, t in self.user.items()},
            item={m: t.copy() for m, t in self.item.items()},
            init_seed=self.init_seed,
            embed_dim=self.embed_dim,
        )


def init_embeddings(bundle: ModalityBundle, num_users: int, embed_dim: int,
                    seed: int) -> EmbeddingState:
    """Seeded uniform(-0.5/sqrt(d), 0.5/sqrt(d)) tables; non-id item tables
    start from the raw features projected to d and stay trainable.

    Projection: identity when the feature width already equals d, otherwise
    a fixed seed-derived Gaussian matrix scaled by 1/sqrt(f). One substream
    per table keeps the draw deterministic and independent of the other
    tables.
    """
    if embed_dim < 1:
        raise ConfigError(f"embed_dim must be >= 1, got {embed_dim}")
    scale = 0.5 / np.sqrt(embed_dim)
    streams = np.random.SeedSequence(seed).spawn(2 * len(bundle.modalities))
    user: dict[str, np.ndarray] = {}
    item: dict[str, np.ndarray] = {}
    for k, m in enumerate(bundle.modalities):
        rng_u = np.random.default_rng(streams[2 * k])
        rng_i = np.random.default_rng(streams[2 * k + 1])
        user[m] = rng_u.uniform(-scale, scale, (num_users, embed_dim))
        if m == "id":
            item[m] = rng_i.uniform(-scale, scale,
                                    (bundle.num_items, embed_dim))
            continue
        feats = bundle.features[m].astype(np.float64)
        f_m = feats.shape[1]
        if f_m < 1:
            raise DataError(f"modality {m!r} has {f_m} feature columns")
        if f_m == embed_dim:
            item[m] = feats.copy()
        else:
            projection = rng_i.standard_normal((f_m, embed_dim)) / np.sqrt(f_m)
            item[m] = feats @ projection
    return EmbeddingState(user=user, item=item, init_seed=seed,
                          embed_dim=embed_dim)


def propagate(x0: np.ndarray, prop: "Propagator", num_layers: int
              ) -> list[np.ndarray]:
    """Layer cache [x0, P x0, ..., P^L x0] over the union vertex set."""
    if num_layers < 0:
        raise ConfigError(f"num_layers must be >= 0, got {num_layers}")
    cache = [x0]
    cur = x0
    for _ in range(num_layers):
        cur = prop.apply(cur)
        cache.append(cur)
    return cache


def readout(cache: list[np.ndarray], mode: str = "sum") -> np.ndarray:
    """Combine the layer cache into final representations."""
    if mode not in READOUT_MODES:
        raise ConfigError(f"unknown readout mode {mode!r}")
    out = cache[0].copy()
    for layer in cache[1:]:
        out += layer
    if mode == "mean":
        out /= len(cache)
    return out


def fuse(finals: dict[str, np.ndarray], mask: tuple[str, ...]) -> np.ndarray:
    """Element-wise mean of the masked modalities' final representations."""
    if not mask:
        raise ConfigError("fusion mask selects no modality")
    missing = [m for m in mask if m not in finals]
    if missing:
        raise ConfigError(f"fusion mask names unknown modalities: {missing}")
    out = finals[mask[0]].copy()
    for m in mask[1:]:
        out += finals[m]
    out /= len(mask)
    return out


class Propagator:
    """Sparse one-layer propagation operator over the union vertex set.

    ``dual`` weights each edge (u, i) by 1/(d_u * d_i); ``sym`` by
    1/sqrt(d_u * d_i). Both matrices are symmetric, so the operator is its
    own transpose and the backward pass applies it unchanged.
    """

    def __init__(self, graph: InteractionGraph, norm: str = "dual") -> None:
        if norm not in NORM_MODES:
            raise ConfigError(f"unknown norm mode {norm!r}")
        self.norm = norm
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


@dataclass
class Representations:
    """One forward pass: per-modality finals, fused matrices, layer caches.

    All matrices are stacked over the union vertex set (users first), with
    split views for user/item blocks.
    """

    finals: dict[str, np.ndarray]
    fused: np.ndarray
    caches: dict[str, list[np.ndarray]]
    num_users: int
    mask: tuple[str, ...]

    def users(self, modality: str) -> np.ndarray:
        return self.finals[modality][: self.num_users]

    def items(self, modality: str) -> np.ndarray:
        return self.finals[modality][self.num_users:]

    @property
    def fused_users(self) -> np.ndarray:
        return self.fused[: self.num_users]

    @property
    def fused_items(self) -> np.ndarray:
        return self.fused[self.num_users:]


def forward_pass(state: EmbeddingState, prop: Propagator, num_layers: int,
                 mask: tuple[str, ...], readout_mode: str = "sum"
                 ) -> Representations:
    """Propagate every modality, read out, and fuse under ``mask``."""
    finals: dict[str, np.ndarray] = {}
    caches: dict[str, list[np.ndarray]] = {}
    for m in state.modalities:
        x0 = np.vstack([state.user[m], state.item[m]])
        cache = propagate(x0, prop, num_layers)
        caches[m] = cache
        finals[m] = readout(cache, readout_mode)
    fused = fuse(finals, mask)
    return Representations(finals=finals, fused=fused, caches=caches,
                           num_users=state.num_users, mask=mask)


def score_matrix(reps: Representations, users: np.ndarray,
                 mode: str = "per_modality") -> np.ndarray:
    """Scores of several users against all items, one row per user."""
    if mode not in SCORE_MODES:
        raise ConfigError(f"unknown score mode {mode!r}")
    if mode == "fused":
        return reps.fused_users[users] @ reps.fused_items.T
    out = None
    for m in reps.finals:
        s = reps.users(m)[users] @ reps.items(m).T
        out = s if out is None else out + s
    return out

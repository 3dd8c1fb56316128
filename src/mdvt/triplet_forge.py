"""Virtual-triplet construction from fused user/item representations.

Per user, selectors return two disjoint item lists: a similar group
(virtual positives, most-similar first) and a dissimilar group (virtual
negatives, least-similar first). Shared rules across all selectors:

  * ties break by ascending item index;
  * items the user already interacted with in train are excluded from the
    positive candidates (unless ``include_seen``); negatives draw from all
    items except the chosen positives, which guarantees the two groups
    never overlap.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backbone import Representations
from .dataset import Adjacency, PopularityTable
from .errors import ConfigError, SelectionError, TrainingCollapseError

CONSTRUCTOR_TAGS = ("topn", "threshold", "threshold_topn", "interval",
                    "freq_f1", "freq_f2")


@dataclass
class VirtualTripletSet:
    """Per-user virtual positive/negative item indices for one epoch."""

    positives: dict[int, np.ndarray]
    negatives: dict[int, np.ndarray]
    built_at_epoch: int
    constructor_tag: str

    def __post_init__(self) -> None:
        if self.constructor_tag not in CONSTRUCTOR_TAGS:
            raise ConfigError(f"unknown constructor {self.constructor_tag!r}")
        for u, pos in self.positives.items():
            neg = self.negatives[u]
            assert not set(pos.tolist()) & set(neg.tolist()), \
                f"virtual groups overlap for user {u}"

    def users(self) -> list[int]:
        return sorted(self.positives)

    def dump(self, path: str | Path) -> None:
        """Debug text dump: ``user<TAB>pos:i1,i2<TAB>neg:j1,j2`` per line."""
        lines = []
        for u in self.users():
            pos = ",".join(str(i) for i in self.positives[u])
            neg = ",".join(str(i) for i in self.negatives[u])
            lines.append(f"{u}\tpos:{pos}\tneg:{neg}\n")
        Path(path).write_text("".join(lines), encoding="utf-8")


def cosine_row(user_vec: np.ndarray, item_matrix: np.ndarray,
               user: int = -1,
               item_norms: np.ndarray | None = None) -> np.ndarray:
    """Cosine similarity of one fused user vector against all fused items.

    Zero-norm item rows map to similarity 0; a zero-norm user means the
    representation has collapsed and is an error.
    """
    u_norm = float(np.linalg.norm(user_vec))
    if u_norm == 0.0:
        raise TrainingCollapseError(
            f"user {user} has a zero-norm fused representation")
    if item_norms is None:
        item_norms = np.linalg.norm(item_matrix, axis=1)
    dots = item_matrix @ user_vec
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(item_norms > 0.0, dots / (u_norm * item_norms), 0.0)


def _order_desc(values: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Candidates sorted by similarity descending, ties by ascending index."""
    order = np.lexsort((candidates, -values[candidates]))
    return candidates[order]


def _order_asc(values: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    order = np.lexsort((candidates, values[candidates]))
    return candidates[order]


def _positive_candidates(num_items: int, exclusion: Collection[int] | None
                         ) -> np.ndarray:
    keep = np.ones(num_items, dtype=bool)
    if exclusion is not None:
        keep[np.fromiter(exclusion, np.int64, len(exclusion))] = False
    return np.flatnonzero(keep)


def _negatives_for(values: np.ndarray, positives: np.ndarray,
                   count: int) -> np.ndarray:
    pool = np.ones(len(values), dtype=bool)
    pool[positives] = False
    candidates = np.flatnonzero(pool)
    if len(candidates) < count:
        raise SelectionError(
            f"need {count} negative candidates, only {len(candidates)} left")
    return _order_asc(values, candidates)[:count]


def select_topn(values: np.ndarray, n: int,
                exclusion: Collection[int] | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Top-n most/least similar items.

    Positives: the n largest-similarity items outside ``exclusion``.
    Negatives: the n smallest-similarity items among everything else.
    """
    candidates = _positive_candidates(len(values), exclusion)
    if len(candidates) < 2 * n:
        raise SelectionError(
            f"top-{n} selection needs at least {2 * n} candidate items, "
            f"got {len(candidates)}")
    positives = _order_desc(values, candidates)[:n]
    negatives = _negatives_for(values, positives, n)
    return positives, negatives


def select_threshold(values: np.ndarray, threshold: float,
                     cap: int | None = None, floor: int | None = None,
                     exclusion: Collection[int] | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Similarity-threshold selection, with an optional cap and floor.

    Positives are the candidate items with similarity >= threshold, sorted
    descending; ``cap`` truncates dense users, ``floor`` pads sparse users
    from the top of the remaining similarities even below the threshold.
    Negatives are an equal count of smallest-similarity items.
    """
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"similarity threshold must lie in (0, 1), "
                          f"got {threshold}")
    candidates = _positive_candidates(len(values), exclusion)
    ordered = _order_desc(values, candidates)
    qualifying = ordered[values[ordered] >= threshold]
    positives = qualifying
    if cap is not None and len(positives) > cap:
        positives = positives[:cap]
    if floor is not None and len(positives) < floor:
        want = min(floor, len(ordered))
        positives = ordered[:want]
    negatives = _negatives_for(values, positives, len(positives))
    return positives, negatives


def select_frequency(values: np.ndarray, n: int,
                     popularity: PopularityTable, mode: str,
                     exclusion: Collection[int] | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Interaction-frequency selection variants.

    ``f1`` ignores similarity entirely: the n most-popular items become
    positives, the n least-popular negatives. ``f2`` pre-filters by
    similarity (top-2n / bottom-2n) and keeps the n most- / least-popular
    of each pool.
    """
    if mode not in ("f1", "f2"):
        raise ConfigError(f"frequency mode must be 'f1' or 'f2', got {mode!r}")
    counts = popularity.item_train_count.astype(np.int64)
    candidates = _positive_candidates(len(values), exclusion)
    if len(candidates) < 2 * n:
        raise SelectionError(
            f"frequency selection needs at least {2 * n} candidate items, "
            f"got {len(candidates)}")

    def by_count_desc(pool: np.ndarray) -> np.ndarray:
        return pool[np.lexsort((pool, -counts[pool]))]

    def by_count_asc(pool: np.ndarray) -> np.ndarray:
        return pool[np.lexsort((pool, counts[pool]))]

    if mode == "f1":
        positives = by_count_desc(candidates)[:n]
        rest = np.ones(len(values), dtype=bool)
        rest[positives] = False
        rest_idx = np.flatnonzero(rest)
        if len(rest_idx) < n:
            raise SelectionError("too few items for frequency negatives")
        negatives = by_count_asc(rest_idx)[:n]
        return positives, negatives

    sim_pool = _order_desc(values, candidates)[:2 * n]
    positives = by_count_desc(sim_pool)[:n]
    rest = np.ones(len(values), dtype=bool)
    rest[positives] = False
    rest_idx = np.flatnonzero(rest)
    if len(rest_idx) < n:
        raise SelectionError("too few items for frequency negatives")
    neg_pool = _order_asc(values, rest_idx)[:2 * n]
    negatives = by_count_asc(neg_pool)[:n]
    return positives, negatives


@dataclass
class SelectionParams:
    """Which selector to run and its knobs."""

    constructor: str = "topn"
    n: int = 2
    threshold: float | None = None
    n_floor: int | None = None
    n_cap: int | None = None
    include_seen: bool = False

    def validate(self) -> None:
        if self.constructor not in CONSTRUCTOR_TAGS:
            raise ConfigError(f"unknown constructor {self.constructor!r}")
        needs_threshold = self.constructor in ("threshold", "threshold_topn",
                                               "interval")
        if needs_threshold and self.threshold is None:
            raise ConfigError(
                f"constructor {self.constructor!r} requires a threshold")
        if self.constructor == "interval" and self.n_floor is None:
            raise ConfigError("interval constructor requires n_floor")


def _select(params: SelectionParams, row, popularity: PopularityTable | None,
            exclusion: Collection[int] | None
            ) -> tuple[np.ndarray, np.ndarray]:
    tag = params.constructor
    if tag == "topn":
        return select_topn(row, params.n, exclusion)
    if tag == "threshold":
        return select_threshold(row, params.threshold, exclusion=exclusion)
    if tag == "threshold_topn":
        return select_threshold(row, params.threshold, cap=params.n,
                                exclusion=exclusion)
    if tag == "interval":
        cap = params.n_cap if params.n_cap is not None else params.n
        return select_threshold(row, params.threshold, cap=cap,
                                floor=params.n_floor, exclusion=exclusion)
    if tag == "freq_f1":
        return select_frequency(row, params.n, popularity, "f1", exclusion)
    if tag == "freq_f2":
        return select_frequency(row, params.n, popularity, "f2", exclusion)
    raise ConfigError(f"unknown constructor {tag!r}")


def refresh(reps: Representations, params: SelectionParams, epoch: int,
            trainable_users: list[int] | np.ndarray,
            seen_items: Adjacency | None = None,
            popularity: PopularityTable | None = None) -> VirtualTripletSet:
    """Rebuild the virtual-triplet set from the current fused
    representations.

    ``seen_items[u]`` (a row of the train CSR) lists the items excluded
    from user ``u``'s positives unless ``include_seen`` is set.
    """
    params.validate()
    fused_items = reps.fused_items
    item_norms = np.linalg.norm(fused_items, axis=1)
    positives: dict[int, np.ndarray] = {}
    negatives: dict[int, np.ndarray] = {}
    for u in trainable_users:
        u = int(u)
        row = cosine_row(reps.fused_users[u], fused_items, user=u,
                         item_norms=item_norms)
        exclusion = None
        if not params.include_seen and seen_items is not None:
            exclusion = seen_items[u]
        pos, neg = _select(params, row, popularity, exclusion)
        if len(pos) == 0:
            continue
        positives[u] = pos
        negatives[u] = neg
    return VirtualTripletSet(positives=positives, negatives=negatives,
                             built_at_epoch=epoch,
                             constructor_tag=params.constructor)

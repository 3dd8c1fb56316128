"""One-user-at-a-time reference implementations.

The interaction and split-file loaders (``dataset.load_interactions`` and
``dataset._read_split``, which parse canonical files in one vectorised
pass) are checked against ``load_interactions_loop``, the line-by-line
loader it replaced, and ``read_split_loop``, which reads a split file one
line at a time in the one form ``save_bundle`` writes: the same records,
ids and duplicate count, or the same error and message.

The batched production paths (``evaluator.top_k``, ``triplet_forge.select``
and ``refresh``, the virtual branch of ``objective.backward``) are checked
against these loops: selections, rankings and metrics must match exactly,
virtual losses and gradients to 1e-12. ``objective.backward``'s
selection-CSR scatters are checked bit for bit against
``backward_add_at``, the same computation with ``np.add.at``, and
``objective.adam_step``'s row blocks against ``adam_step_whole_table``.
The strategy search, which forks its candidates off one shared warm-up
trunk, is checked bit for bit against ``independent_search``, which
trains every candidate from epoch 0.
"""

from __future__ import annotations

import io
import math
from collections.abc import Collection
from pathlib import Path

import numpy as np
from scipy.special import expit

from mdvt.dataset import Adjacency
from mdvt.errors import (ConfigError, DataError, MdvtError, SelectionError,
                         TrainingCollapseError)
from mdvt import objective, warmup
from mdvt.objective import BETA1, BETA2, EPS, softplus
from mdvt.trainer import (CandidateResult, RunConfig, SearchResult,
                          TrainingRun)
from mdvt.triplet_forge import VirtualTripletSet


# --- text loaders, one line at a time --------------------------------------

def _check_utf8(path: Path) -> None:
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start}: "
                        f"{exc.reason})") from None


def load_interactions_loop(path) -> tuple[list, tuple, tuple, int]:
    """(records, user ids, item ids, duplicates dropped) of a raw
    ``user<TAB>item`` file: each line stripped, blank and ``#`` lines
    skipped, ids numbered on first appearance, repeated pairs dropped."""
    path = Path(path)
    _check_utf8(path)
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    records: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    duplicates = 0
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise DataError(
                    f"{path}:{lineno}: expected 'user<TAB>item', got {line!r}")
            u = user_index.setdefault(parts[0], len(user_index))
            i = item_index.setdefault(parts[1], len(item_index))
            if (u, i) in seen:
                duplicates += 1
                continue
            seen.add((u, i))
            records.append((u, i))
    if not records:
        raise DataError(f"{path}: no interaction records")
    return records, tuple(user_index), tuple(item_index), duplicates


def read_split_loop(path, num_users: int, num_items: int) -> list:
    """The ``(user, item)`` records of a bundle split file in the one form
    ``save_bundle`` writes: every line two indices of ASCII digits within
    int64, one tab between them and ``\\n`` after. Errors, in order: the
    first line outside that form, then the first user and then the first
    item index outside the id tables, then the first repeated line."""
    path = Path(path)
    _check_utf8(path)
    text = path.read_bytes().decode("utf-8")
    records = []
    for lineno, line in enumerate(io.StringIO(text, newline="\n"), start=1):
        user, tab, item = line.partition("\t")
        item, newline = item[:-1], item[-1:]
        if not (tab and newline == "\n" and all(
                v.isascii() and v.isdigit() and int(v) < 2**63
                for v in (user, item))):
            raise DataError(f"{path}:{lineno}: expected "
                            f"'user<TAB>item\\n' indices, got {line!r}")
        records.append((int(user), int(item)))
    for role, k, bound in (("user", 0, num_users), ("item", 1, num_items)):
        bad = [r[k] for r in records if not 0 <= r[k] < bound]
        if bad:
            raise DataError(f"{path}: {role} index {bad[0]} outside "
                            f"[0, {bound})")
    seen = set()
    for lineno, pair in enumerate(records, start=1):
        if pair in seen:
            raise DataError(f"{path}:{lineno}: duplicate interaction "
                            f"(user {pair[0]}, item {pair[1]})")
        seen.add(pair)
    return records


# --- virtual sets as {user: (positives, negatives)} ------------------------

def make_virtual(positives: dict, negatives: dict) -> VirtualTripletSet:
    """A VirtualTripletSet from per-user group dicts."""
    users = np.array(sorted(positives), dtype=np.int64)

    def csr(groups):
        rows = [np.asarray(groups[u], dtype=np.int64) for u in users]
        return Adjacency.from_lengths(
            np.array([len(r) for r in rows], dtype=np.int64),
            np.concatenate([np.zeros(0, dtype=np.int64)] + rows))

    return VirtualTripletSet(users, csr(positives), csr(negatives))


def adjacency_of(rows: dict, num_rows: int) -> Adjacency:
    """A CSR whose row ``r`` holds the items of ``rows.get(r)``, ascending."""
    items = [np.array(sorted(rows.get(r, ())), dtype=np.int64)
             for r in range(num_rows)]
    return Adjacency.from_lengths(
        np.array([len(i) for i in items], dtype=np.int64),
        np.concatenate([np.zeros(0, dtype=np.int64)] + items))


def groups_of(virtual: VirtualTripletSet) -> dict[int, tuple[list, list]]:
    return {int(u): (virtual.positives[r].tolist(),
                     virtual.negatives[r].tolist())
            for r, u in enumerate(virtual.users)}


# --- similarity and per-user selectors -------------------------------------

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
                     item_counts: np.ndarray, mode: str,
                     exclusion: Collection[int] | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Interaction-frequency selection variants, by ``item_counts`` (each
    item's train interaction count).

    ``f1`` ignores similarity entirely: the n most-popular items become
    positives, the n least-popular negatives. ``f2`` pre-filters by
    similarity (top-2n / bottom-2n) and keeps the n most- / least-popular
    of each pool.
    """
    if mode not in ("f1", "f2"):
        raise ConfigError(f"frequency mode must be 'f1' or 'f2', got {mode!r}")
    counts = np.asarray(item_counts, dtype=np.int64)
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


def select_one(config: RunConfig, row: np.ndarray,
               item_counts: np.ndarray | None,
               exclusion: Collection[int] | None
               ) -> tuple[np.ndarray, np.ndarray]:
    """The per-user selector ``config.constructor`` names, applied to one
    row."""
    tag, n, threshold = config.constructor, config.top_n, config.sim_threshold
    if tag == "topn":
        return select_topn(row, n, exclusion)
    if tag == "threshold":
        return select_threshold(row, threshold, exclusion=exclusion)
    if tag == "threshold_topn":
        return select_threshold(row, threshold, cap=n, exclusion=exclusion)
    if tag == "interval":
        return select_threshold(row, threshold, cap=n, floor=config.n_floor,
                                exclusion=exclusion)
    if tag == "freq_f1":
        return select_frequency(row, n, item_counts, "f1", exclusion)
    return select_frequency(row, n, item_counts, "f2", exclusion)


def refresh_oracle(reps, config: RunConfig, trainable_users,
                   seen_items: Adjacency | None = None,
                   item_counts: np.ndarray | None = None
                   ) -> dict[int, tuple[list, list]]:
    """The virtual groups one user at a time, as ``groups_of`` returns
    them; raises what the first failing user raises."""
    fused_items = reps.fused_items
    item_norms = np.linalg.norm(fused_items, axis=1)
    out = {}
    for u in trainable_users:
        u = int(u)
        row = cosine_row(reps.fused_users[u], fused_items, user=u,
                         item_norms=item_norms)
        exclusion = None
        if not config.include_seen and seen_items is not None:
            exclusion = seen_items[u]
        pos, neg = select_one(config, row, item_counts, exclusion)
        if len(pos):
            out[u] = (pos.tolist(), neg.tolist())
    return out


# --- ranking and metrics ---------------------------------------------------

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


# --- losses ----------------------------------------------------------------

def bpr_loss(pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
    """Mean of -log(sigmoid(score gap)) over the batch."""
    gaps = np.asarray(pos_scores, dtype=float) - np.asarray(neg_scores,
                                                            dtype=float)
    return float(np.mean(softplus(-gaps)))


def aggregate_virtual(user: int, virtual: VirtualTripletSet,
                      fused_items: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Mean fused vectors of the user's similar and dissimilar item groups."""
    groups = groups_of(virtual)
    if user not in groups:
        raise KeyError(f"user {user} has no virtual triplets")
    pos, neg = groups[user]
    return fused_items[pos].mean(axis=0), fused_items[neg].mean(axis=0)


def virtual_bpr_loss(users: np.ndarray, virtual: VirtualTripletSet,
                     fused_users: np.ndarray, fused_items: np.ndarray,
                     wo_aggr: bool = False) -> float:
    """Mean virtual-triplet loss over the contributing batch entries.

    One term per entry: the gap between the user's affinity to the mean of
    its similar group and to the mean of its dissimilar group. With
    ``wo_aggr`` the group means are removed and the entry's term is the
    mean over its rank-matched (positive_k, negative_k) pairs, which is
    identical to the default when the groups hold a single item.
    """
    groups = groups_of(virtual)
    terms = []
    for u in users:
        u = int(u)
        if u not in groups or not groups[u][0]:
            continue
        if wo_aggr:
            pos, neg = groups[u]
            gaps = (fused_items[pos] - fused_items[neg]) @ fused_users[u]
            terms.append(float(np.mean(softplus(-gaps))))
        else:
            plus, minus = aggregate_virtual(u, virtual, fused_items)
            gap = float(fused_users[u] @ (plus - minus))
            terms.append(float(softplus(-np.array([gap]))[0]))
    if not terms:
        raise KeyError("no batch user has virtual triplets")
    return float(np.mean(terms))


def virtual_branch_oracle(users: np.ndarray, virtual: VirtualTripletSet,
                          z: np.ndarray, num_users: int, w_v: float,
                          wo_aggr: bool, per_distinct_user: bool):
    """The virtual branch of ``objective.backward`` one user at a time:
    ``(l_vbpr, gradient w.r.t. the fused matrix)``; l_vbpr is None when
    no batch user is covered."""
    groups = groups_of(virtual)
    counts: dict[int, int] = {}
    for u in users:
        u = int(u)
        if u in groups and groups[u][0]:
            counts[u] = counts.get(u, 0) + 1
    uniq = sorted(counts)
    mult = np.array([1 if per_distinct_user else counts[u] for u in uniq],
                    dtype=z.dtype)
    grad_fused = np.zeros_like(z)
    total = float(mult.sum())
    if total == 0.0:
        return None, grad_fused
    acc = 0.0
    for u, weight in zip(uniq, mult):
        p_idx = np.array(groups[u][0]) + num_users
        n_idx = np.array(groups[u][1]) + num_users
        n_group = len(p_idx)
        if wo_aggr:
            pair_gaps = (z[p_idx] - z[n_idx]) @ z[u]
            acc += weight * float(np.mean(softplus(-pair_gaps)))
            coef = (w_v * weight / (total * n_group)) * (
                expit(pair_gaps) - 1.0)
            grad_fused[u] += coef @ (z[p_idx] - z[n_idx])
            np.add.at(grad_fused, p_idx, coef[:, None] * z[u])
            np.add.at(grad_fused, n_idx, -coef[:, None] * z[u])
        else:
            plus = z[p_idx].mean(axis=0)
            minus = z[n_idx].mean(axis=0)
            gap = z[u] @ (plus - minus)
            acc += weight * float(softplus(-np.array([gap]))[0])
            coef = (w_v * weight / total) * (expit(gap) - 1.0)
            grad_fused[u] += coef * (plus - minus)
            np.add.at(grad_fused, p_idx,
                      np.full((n_group, 1), coef / n_group) * z[u])
            np.add.at(grad_fused, n_idx,
                      np.full((n_group, 1), -coef / n_group) * z[u])
    return acc / total, grad_fused



# --- backward with np.add.at scatters --------------------------------------

def _virtual_loss_add_at(rows, weight, virtual, z, num_users, w_v, wo_aggr,
                         grad_fused) -> float:
    """The batched virtual loss; adds ``w_v`` times its gradient to
    ``grad_fused`` with one ordered ``np.add.at``."""
    weight = weight.astype(z.dtype)
    total = float(weight.sum())
    pos, neg = virtual.positives.take(rows), virtual.negatives.take(rows)
    users = virtual.users[rows]
    lengths = pos.row_lengths
    terms = np.empty(len(rows), dtype=z.dtype)
    user_grad = np.empty((len(rows), z.shape[1]), dtype=z.dtype)
    pair_coef = np.empty(len(pos.indices), dtype=z.dtype)
    for n in np.unique(lengths).tolist():
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
        pair = np.arange(len(pair_coef))
        to_pos = pair + np.repeat(pos.indptr[:-1], lengths)
        to_neg = pair + np.repeat(pos.indptr[1:], lengths)
        targets = np.empty(2 * len(pair), dtype=np.int64)
        targets[to_pos] = pos.indices + num_users
        targets[to_neg] = neg.indices + num_users
        step = pair_coef[:, None] * z[np.repeat(users, lengths)]
        steps = np.empty((2 * len(pair), z.shape[1]), dtype=z.dtype)
        steps[to_pos] = step
        steps[to_neg] = -step
        np.add.at(grad_fused, targets, steps)
    return float(np.cumsum(terms)[-1] / total)


def backward_add_at(batch, virtual, reps, prop, config: RunConfig):
    """``objective.backward`` with every scatter an ``np.add.at`` into a
    zeroed array, three per modality for the real triplets: the
    reference its selection-CSR products must equal bit for bit.
    Returns ``(LossReport, {modality: (V, d) gradient})``."""
    lam, wo_aggr, wo_scale = config.lam, config.wo_aggr, config.wo_scale
    score_mode, num_layers = config.score_mode, config.num_layers
    if virtual is None:
        w_bpr, w_v = 1.0, 0.0
    elif wo_scale:
        w_bpr, w_v = 1.0, lam
    else:
        w_bpr, w_v = 1.0 - lam, lam
    num_users = reps.num_users
    batch_size = len(batch)
    users = batch.users
    pos = batch.pos_items + num_users
    neg = batch.neg_items + num_users
    grads_final = {m: np.zeros_like(f) for m, f in reps.finals.items()}
    grad_fused = np.zeros_like(reps.fused)

    if score_mode == "per_modality":
        gaps = np.zeros(batch_size, dtype=reps.fused.dtype)
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

    l_vbpr = None
    if virtual is not None:
        rows, weight = objective._virtual_rows(users, virtual,
                                               config.per_distinct_user)
        if rows.size:
            l_vbpr = _virtual_loss_add_at(rows, weight, virtual, reps.fused,
                                          num_users, w_v, wo_aggr,
                                          grad_fused)
    # The enhanced pair-wise loss case by case: bpr alone in warm-up;
    # (1-lambda)*bpr + lambda*vbpr, or bpr + lambda*vbpr with the
    # align-scale ablated; a joint batch without any virtual entry keeps
    # only its weighted bpr term.
    if virtual is None:
        l_total = l_bpr
    elif l_vbpr is None:
        l_total = w_bpr * l_bpr
    elif wo_scale:
        l_total = l_bpr + lam * l_vbpr
    else:
        l_total = (1.0 - lam) * l_bpr + lam * l_vbpr
    report = objective.LossReport(l_bpr=l_bpr, l_vbpr=l_vbpr,
                                  l_total=l_total)

    if np.any(grad_fused):
        share = grad_fused / len(reps.mask)
        for m in reps.mask:
            grads_final[m] += share
    grads = {}
    for m, g in grads_final.items():
        acc = g.copy()
        cur = g
        for _ in range(num_layers):
            cur = prop.apply(cur)
            acc += cur
        if config.readout == "mean":
            acc /= num_layers + 1
        grads[m] = acc
    return report, grads


# --- Adam over whole tables ------------------------------------------------

def adam_step_whole_table(state, opt, grads, config) -> None:
    """``objective.adam_step`` with each ufunc over a whole table at once:
    the reference its row-blocked update must equal bit for bit."""
    opt.step += 1
    t = opt.step
    for m in state.tables:
        if not np.all(np.isfinite(grads[m])):
            role = ("item" if np.all(np.isfinite(grads[m][:state.num_users]))
                    else "user")
            raise MdvtError(f"non-finite gradient for table {role}.{m} "
                            f"at optimizer step {t}")
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    a, b = (np.empty_like(next(iter(state.tables.values())))
            for _ in range(2))
    for key, param in state.tables.items():
        g = grads[key]
        if config.weight_decay:
            g = np.add(g, np.multiply(config.weight_decay, param, out=a),
                       out=a)
        m, v = opt.m[key], opt.v[key]
        m *= BETA1
        m += np.multiply(1.0 - BETA1, g, out=b)
        v *= BETA2
        v += np.multiply(1.0 - BETA2, np.square(g, out=b), out=b)
        np.multiply(config.learning_rate, np.divide(m, bc1, out=a), out=a)
        np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), EPS, out=b)
        param -= np.divide(a, b, out=a)


# --- strategy search, one independent run per candidate ---------------------

def _run_candidate(bundle, config, label: str,
                   candidate: int | None) -> CandidateResult:
    run = TrainingRun(bundle, config, trigger=candidate)
    state, history = run.finish()
    return CandidateResult(label, candidate, history, state,
                           run.best_validation)


def dynamic_estimate(bundle, config) -> int | None:
    """The epoch at which the trigger rule fires on a warm-up-only run's
    losses, or None if that run stops before it would train that epoch."""
    _, history = TrainingRun(bundle, config).finish()
    fired = warmup.dynamic_trigger(history.l_total, config.g)
    return fired if fired is not None and fired < len(history.l_total) \
        else None


def independent_search(bundle, config
                       ) -> tuple[SearchResult, list[CandidateResult]]:
    """``trainer.run_strategy_search`` with every candidate trained from
    epoch 0 by its own ``TrainingRun``; also returns each candidate's run."""
    results: list[CandidateResult] = []
    estimate = None
    if not config.mdvt_active:
        results.append(_run_candidate(bundle, config, "baseline", None))
    elif config.strategy == "static":
        for cand in warmup.static_candidates(config.static_set):
            results.append(_run_candidate(bundle, config, f"static:{cand}",
                                          cand))
    else:  # dynamic, or hybrid: the dynamic run is its probe
        estimate = dynamic_estimate(bundle, config)
        hybrid = config.strategy == "hybrid"
        results.append(_run_candidate(
            bundle, config, "dynamic_probe" if hybrid else "dynamic",
            estimate))
        if hybrid and estimate is not None:
            for cand in warmup.hybrid_candidates(estimate, config.s):
                if cand != estimate:
                    results.append(_run_candidate(bundle, config,
                                                  f"hybrid:{cand}", cand))

    ordered = sorted(results, key=lambda r: (r.candidate is None,
                                             r.candidate or 0))
    winner = ordered[0]
    for res in ordered[1:]:
        if res.val_ndcg10 > winner.val_ndcg10:
            winner = res
    return SearchResult(
        strategy=config.strategy if config.mdvt_active else "disabled",
        best_state=winner.state,
        best_history=winner.history,
        best_validation=winner.validation,
        candidates=[r.summary() for r in results],
        resolved_trigger=winner.history.trigger_epoch,
        dynamic_estimate=estimate,
    ), results

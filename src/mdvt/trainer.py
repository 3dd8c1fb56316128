"""Training orchestration: warm-up and joint epochs, per-epoch virtual
triplet refresh, validation-based early stopping, and the three warm-up
strategy searches.

Determinism: one master seed derives independent substreams for table
initialization, batch shuffling, and negative sampling. Virtual-triplet
construction draws no randomness, so candidate runs of a strategy search
share the same stream consumption and differ only in their trigger epoch,
and a run with the virtual loss weighted to zero is bit-identical to a
run with it disabled.
"""

from __future__ import annotations

import collections
import copy
import dataclasses
import hashlib
import json
import logging
import math
import struct
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import backbone, evaluator, objective, triplet_forge, warmup
from .dataset import (DatasetBundle, FEATURE_MAGIC, make_batches,
                      write_atomic)
from .errors import CheckpointError, ConfigError, MdvtError

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"MDVTCKPT"

LAMBDA_GRID = (0.1, 0.2, 0.3, 0.4, 0.5)
N_GRID = (1, 2, 4, 8)
G_GRID = (0.1, 0.2, 0.3, 0.4)
S_GRID = (1, 2, 3, 4, 5)
THRESHOLD_GRID = (0.5, 0.6, 0.7, 0.8, 0.9)
N_FLOOR_GRID = (0, 1, 2)


@dataclass(frozen=True)
class RunConfig:
    """Every knob of a single training run (and of strategy searches).

    Building one checks every value (``__post_init__``), and a built one
    cannot be changed, so every RunConfig is valid; derive variants with
    ``dataclasses.replace``, which checks them again.
    """

    embed_dim: int = 64
    num_layers: int = 1
    lam: float = 0.2
    top_n: int = 2
    batch_size: int = 2048
    learning_rate: float = 1e-3
    max_epochs: int = 1000
    patience: int = 20
    seed: int = 0
    modality_mask: tuple[str, ...] | None = None
    mdvt_enabled: bool = True
    constructor: str = "topn"
    sim_threshold: float | None = None
    n_floor: int | None = None
    n_cap: int | None = None
    wo_aggr: bool = False
    wo_scale: bool = False
    norm: str = "dual"
    readout: str = "sum"
    score_mode: str = "per_modality"
    include_seen: bool = False
    weight_decay: float = 0.0
    per_distinct_user: bool = False
    loss_reporting: str = "mean"
    strategy: str = "hybrid"
    static_set: tuple[int, ...] = warmup.DEFAULT_STATIC_SET
    g: float = warmup.DEFAULT_G
    s: int = warmup.DEFAULT_S
    eval_ks: tuple[int, ...] = (5, 10)
    warmup_candidate: int | None = None

    def __post_init__(self) -> None:
        """Check every value: its type against the annotation (a bool is
        not a number; an int is a valid float and is kept as given; a
        list becomes a tuple), then every range rule. Raises one
        ConfigError listing every problem."""
        problems = []
        for key, kind in _FIELD_TYPES.items():
            value = getattr(self, key)
            optional = type(None) in typing.get_args(kind)
            if optional:
                kind = typing.get_args(kind)[0]
            item = (typing.get_args(kind)[0]
                    if typing.get_origin(kind) is tuple else None)
            if item and isinstance(value, (list, tuple)) and all(
                    _is_a(v, item) for v in value):
                object.__setattr__(self, key, tuple(value))
            elif not ((value is None and optional)
                      or (item is None and _is_a(value, kind))):
                expected = (f"a list of {_NAMES[item]}s" if item
                            else f"a {_NAMES[kind]}")
                problems.append(
                    f"config key {key!r} must be {expected}"
                    f"{' or null' if optional else ''} (got {value!r})")
            elif isinstance(value, float) and not math.isfinite(value):
                problems.append(f"config key {key!r} must be a finite "
                                f"number (got {value!r})")
        if not problems:
            problems = self._range_problems()
        if problems:
            raise ConfigError("invalid config: " + "; ".join(problems))

    def _range_problems(self) -> list[str]:
        problems = []
        for key, low in (("embed_dim", 1), ("num_layers", 0), ("top_n", 1),
                         ("batch_size", 1), ("max_epochs", 1),
                         ("patience", 1), ("seed", 0), ("weight_decay", 0),
                         ("n_floor", 0), ("n_cap", 0),
                         ("warmup_candidate", 0)):
            value = getattr(self, key)
            if value is not None and value < low:
                problems.append(f"{key} must be >= {low} (got {value})")
        for key, low in (("static_set", 0), ("eval_ks", 1)):
            values = getattr(self, key)
            if any(v < low for v in values):
                problems.append(f"{key} entries must be >= {low} "
                                f"(got {list(values)})")
        for key, allowed in (("constructor", triplet_forge.CONSTRUCTOR_TAGS),
                             ("norm", backbone.NORM_MODES),
                             ("readout", backbone.READOUT_MODES),
                             ("score_mode", backbone.SCORE_MODES),
                             ("loss_reporting", ("mean", "sum")),
                             ("strategy", warmup.STRATEGIES)):
            if getattr(self, key) not in allowed:
                problems.append(f"unknown {key} {getattr(self, key)!r}")
        if not 0.0 <= self.lam <= 1.0:
            problems.append(f"lam must lie in [0, 1] (got {self.lam})")
        if self.learning_rate <= 0:
            problems.append("learning_rate must be positive "
                            f"(got {self.learning_rate})")
        if self.strategy == "static" and not self.static_set:
            problems.append("static strategy requires a non-empty static_set")
        if self.strategy in ("dynamic", "hybrid") and not 0.0 < self.g < 1.0:
            problems.append(f"g must lie in (0, 1) (got {self.g})")
        if self.strategy == "hybrid" and self.s < 1:
            problems.append(f"s must be >= 1 (got {self.s})")
        if self.constructor in triplet_forge.THRESHOLD_TAGS:
            if self.sim_threshold is None or not 0 < self.sim_threshold < 1:
                problems.append("sim_threshold must lie in (0, 1) for "
                                f"constructor {self.constructor!r}")
        if self.constructor == "interval" and self.n_floor is None:
            problems.append("interval constructor requires n_floor")
        if self.modality_mask == ():
            problems.append("modality_mask must name at least one modality")
        if 10 not in self.eval_ks:
            problems.append("eval_ks must include 10 (early-stopping metric)")
        return problems

    def off_grid_warnings(self) -> list[str]:
        """Notes on values outside the usual search grids."""
        warnings = []
        if self.mdvt_enabled:
            if self.lam not in LAMBDA_GRID and self.lam != 0.0:
                warnings.append(f"lam={self.lam} outside usual grid "
                                f"{LAMBDA_GRID}")
            if self.top_n not in N_GRID:
                warnings.append(f"top_n={self.top_n} outside usual grid "
                                f"{N_GRID}")
            if self.strategy in ("dynamic", "hybrid") and self.g not in G_GRID:
                warnings.append(f"g={self.g} outside usual grid {G_GRID}")
            if self.strategy == "hybrid" and self.s not in S_GRID:
                warnings.append(f"s={self.s} outside usual grid {S_GRID}")
            if (self.sim_threshold is not None
                    and round(self.sim_threshold, 6) not in THRESHOLD_GRID):
                warnings.append(f"sim_threshold={self.sim_threshold} outside "
                                f"usual grid {THRESHOLD_GRID}")
            if self.n_floor is not None and self.n_floor not in N_FLOOR_GRID:
                warnings.append(f"n_floor={self.n_floor} outside usual grid "
                                f"{N_FLOOR_GRID}")
        return warnings

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for key, value in out.items():
            if isinstance(value, tuple):
                out[key] = list(value)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Parse a JSON config object: ConfigError on an unknown key or on
        any value the constructor rejects."""
        unknown = sorted(set(data) - set(_FIELD_TYPES))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data)

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def selection_params(self) -> triplet_forge.SelectionParams:
        return triplet_forge.SelectionParams(
            constructor=self.constructor,
            n=self.top_n,
            threshold=self.sim_threshold,
            n_floor=self.n_floor,
            n_cap=self.n_cap,
            include_seen=self.include_seen,
        )

    @property
    def mdvt_active(self) -> bool:
        # lam == 0 zeroes the virtual loss exactly, so the whole virtual
        # machinery is inert; skipping it keeps such runs bit-identical to
        # disabled ones.
        return self.mdvt_enabled and self.lam > 0.0


_FIELD_TYPES = typing.get_type_hints(RunConfig)
_NAMES = {bool: "boolean", int: "whole number", float: "number",
          str: "string"}


def _is_a(value, kind: type) -> bool:
    """isinstance for config values: a bool is not a number, and an int is
    a valid float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


@dataclass
class TrainHistory:
    """Per-epoch losses and validation metrics of one run (epochs are
    0-indexed)."""

    l_bpr: list[float] = field(default_factory=list)
    l_vbpr: list[float | None] = field(default_factory=list)
    l_total: list[float] = field(default_factory=list)
    val_recall: dict[int, list[float]] = field(default_factory=dict)
    val_ndcg: dict[int, list[float]] = field(default_factory=dict)
    trigger_epoch: int | None = None
    best_epoch: int = 0
    stopped_epoch: int = 0

    def append_losses(self, report: objective.LossReport) -> None:
        self.l_bpr.append(report.l_bpr)
        self.l_vbpr.append(report.l_vbpr)
        self.l_total.append(report.l_total)

    def append_validation(self, metrics: evaluator.MetricsReport) -> None:
        for k, value in metrics.recall.items():
            self.val_recall.setdefault(k, []).append(value)
        for k, value in metrics.ndcg.items():
            self.val_ndcg.setdefault(k, []).append(value)

    def best_val_ndcg10(self) -> float:
        return self.val_ndcg[10][self.best_epoch]

    def to_dict(self) -> dict:
        return {
            "l_bpr": self.l_bpr,
            "l_vbpr": self.l_vbpr,
            "l_total": self.l_total,
            "val_recall": {str(k): v for k, v in self.val_recall.items()},
            "val_ndcg": {str(k): v for k, v in self.val_ndcg.items()},
            "trigger_epoch": self.trigger_epoch,
            "best_epoch": self.best_epoch,
            "stopped_epoch": self.stopped_epoch,
        }


def evaluate_split(state: backbone.EmbeddingState, bundle: DatasetBundle,
                   config: RunConfig, which: str, with_buckets: bool = False,
                   ks: tuple[int, ...] | None = None
                   ) -> evaluator.MetricsReport:
    """Rank the requested split with the current state, at the cutoffs
    ``ks`` (default ``config.eval_ks``).

    Validation masks the train items; test masks train plus validation.
    Users with no train record (cold users) are excluded from the
    averages, matching the evaluation protocol of the split design.
    """
    split = bundle.split
    if which == "validation":
        relevant, masked = split.validation.adjacency, split.train.adjacency
    elif which == "test":
        relevant, masked = split.test.adjacency, split.train_and_validation
    else:
        raise ConfigError(f"unknown evaluation split {which!r}")
    reps = backbone.forward_pass(state, propagator(bundle, config.norm),
                                 config.num_layers, _mask_for(state, config),
                                 config.readout)
    trained = split.train.adjacency.row_lengths > 0
    users = np.flatnonzero(trained & (relevant.row_lengths > 0))

    def score_rows(block: np.ndarray) -> np.ndarray:
        return backbone.score_matrix(reps, block, config.score_mode)

    counts = bundle.popularity.user_train_count if with_buckets else None
    return evaluator.evaluate_rankings(
        score_rows, users, relevant, masked,
        config.eval_ks if ks is None else ks, counts)


def propagator(bundle: DatasetBundle, norm: str) -> backbone.Propagator:
    """The bundle's propagation operator for ``norm``, built once."""
    if norm not in bundle.propagators:
        bundle.propagators[norm] = backbone.Propagator(bundle.graph, norm)
    return bundle.propagators[norm]


def _mask_for(state: backbone.EmbeddingState,
              config: RunConfig) -> tuple[str, ...]:
    return config.modality_mask or state.modalities


# Propagation work (operator entries times embed_dim) above which a batch
# step propagates only the rows its loss reads (``forward_pass(...,
# rows=...)``). Measured: search-small (3.6e4) runs faster on the full
# path, where gathering the rows costs more than it saves; joint-mid
# (5.1e6) and bpr-wide (1.5e7) run faster on the local one.
LOCAL_STEP_MIN_WORK = 2 ** 20


def train_epoch(state: backbone.EmbeddingState,
                opt: objective.OptimizerState, prop: backbone.Propagator,
                bundle: DatasetBundle, config: RunConfig, epoch: int,
                virtual: triplet_forge.VirtualTripletSet | None,
                rng_shuffle: np.random.Generator,
                rng_negative: np.random.Generator) -> objective.LossReport:
    """One pass over the shuffled train triplets; virtual is None during
    warm-up. Both the local and the full step give the same bits."""
    mask = _mask_for(state, config)
    joint = virtual is not None
    local = prop.matrix.nnz * state.embed_dim > LOCAL_STEP_MIN_WORK
    sums = {"l_bpr": 0.0, "l_total": 0.0}
    vbpr_sum, vbpr_batches, n_batches = 0.0, 0, 0
    for batch in make_batches(bundle.split.train, bundle.graph,
                              config.batch_size, rng_shuffle, rng_negative):
        rows = (objective.batch_vertices(batch, virtual, state.num_users,
                                         prop.matrix.shape[0])
                if local else None)
        reps = backbone.forward_pass(state, prop, config.num_layers, mask,
                                     config.readout, rows)
        report, grads = objective.backward(
            batch, virtual, reps, prop,
            lam=config.lam, joint=joint, num_layers=config.num_layers,
            wo_aggr=config.wo_aggr, wo_scale=config.wo_scale,
            score_mode=config.score_mode, readout_mode=config.readout,
            per_distinct_user=config.per_distinct_user)
        if not np.isfinite(report.l_total):
            raise MdvtError(
                f"non-finite loss at epoch {epoch}, batch {n_batches}: "
                f"l_bpr={report.l_bpr}, l_vbpr={report.l_vbpr}")
        # Drop the representations now, so that the next batch's reuse
        # their memory instead of sitting beside them at its peak. The
        # gradients stay until the next backward returns: freeing them too
        # frees the top of the heap, which malloc hands back to the kernel,
        # and every batch then page-faults its arrays in again.
        del reps
        objective.adam_step(state, opt, grads)
        sums["l_bpr"] += report.l_bpr
        sums["l_total"] += report.l_total
        if report.l_vbpr is not None:
            vbpr_sum += report.l_vbpr
            vbpr_batches += 1
        n_batches += 1
    scale = len(bundle.split.train) if config.loss_reporting == "sum" else 1.0
    l_vbpr = (scale * vbpr_sum / vbpr_batches) if vbpr_batches else None
    return objective.LossReport(
        l_bpr=scale * sums["l_bpr"] / n_batches,
        l_vbpr=l_vbpr if joint else None,
        l_total=scale * sums["l_total"] / n_batches,
        epoch=epoch)


class TrainingRun:
    """One training run, advanced an epoch at a time.

    It holds everything the next epoch reads: the tables, the Adam
    moments and step, both RNG streams, the first joint epoch
    (``trigger``), the history and the early-stopping bookkeeping.
    ``fork`` copies that state, so a strategy search can branch candidates
    off one shared warm-up trunk.
    """

    def __init__(self, bundle: DatasetBundle, config: RunConfig) -> None:
        streams = np.random.SeedSequence(config.seed).spawn(3)
        init_seed = int(streams[0].generate_state(1)[0])
        self.rng_shuffle = np.random.default_rng(streams[1])
        self.rng_negative = np.random.default_rng(streams[2])
        self.state = backbone.init_embeddings(
            bundle.modalities, bundle.num_users, config.embed_dim, init_seed)
        unknown = [m for m in _mask_for(self.state, config)
                   if m not in self.state.modalities]
        if unknown:
            raise ConfigError(
                f"modality_mask names unknown modalities: {unknown}")
        self.bundle, self.config = bundle, config
        self.prop = propagator(bundle, config.norm)
        self.opt = objective.OptimizerState.for_state(
            self.state, config.learning_rate, config.weight_decay)
        # A preset warm-up candidate, or None until a dynamic or hybrid
        # run's trigger rule fires.
        self.trigger = config.warmup_candidate
        self.history = TrainHistory()
        # Replaced on improvement, never mutated: forks may share them.
        self.best_state = self.state.copy()
        self.best_validation: evaluator.MetricsReport | None = None
        self.best_ndcg: float | None = None
        self.epochs_since_best = 0
        self.epoch = 0

    @property
    def done(self) -> bool:
        return (self.epoch >= self.config.max_epochs
                or self.epochs_since_best >= self.config.patience)

    def is_joint(self) -> bool:
        """Whether epoch ``self.epoch`` trains with the virtual loss. A
        dynamic or hybrid run without a trigger evaluates the trigger rule
        on the completed-epoch losses and latches the first firing."""
        if self.trigger is None and self.config.strategy in ("dynamic",
                                                             "hybrid"):
            self.trigger = warmup.dynamic_trigger(self.history.l_total,
                                                  self.config.g)
        return self.trigger is not None and self.epoch >= self.trigger

    def step(self) -> None:
        """Train epoch ``self.epoch`` (with a fresh virtual-triplet set if
        it is a joint epoch), validate it and update early stopping."""
        config, epoch, history = self.config, self.epoch, self.history
        virtual = None
        if config.mdvt_active and self.is_joint():
            if history.trigger_epoch is None:
                history.trigger_epoch = epoch
            reps = backbone.forward_pass(
                self.state, self.prop, config.num_layers,
                _mask_for(self.state, config), config.readout)
            seen = self.bundle.split.train.adjacency
            virtual = triplet_forge.refresh(
                reps, config.selection_params(), epoch,
                np.flatnonzero(seen.row_lengths), seen_items=seen,
                popularity=self.bundle.popularity)
        report = train_epoch(self.state, self.opt, self.prop, self.bundle,
                             config, epoch, virtual, self.rng_shuffle,
                             self.rng_negative)
        history.append_losses(report)
        # With buckets: the best epoch's report is the run's validation
        # result, so nothing ranks the best state again.
        val = evaluate_split(self.state, self.bundle, config, "validation",
                             with_buckets=True)
        history.append_validation(val)
        ndcg10 = val.ndcg[10]
        if self.best_ndcg is None or ndcg10 > self.best_ndcg:
            self.best_ndcg = ndcg10
            history.best_epoch = epoch
            self.best_state = self.state.copy()
            self.best_validation = val
            self.epochs_since_best = 0
        else:
            self.epochs_since_best += 1
        history.stopped_epoch = epoch
        self.epoch += 1

    def finish(self) -> tuple[backbone.EmbeddingState, TrainHistory]:
        """Train until early stopping or ``max_epochs``; return the best
        epoch's state and the history."""
        while not self.done:
            self.step()
        return self.best_state, self.history

    def fork(self, trigger: int) -> "TrainingRun":
        """An independent copy of this run whose first joint epoch is
        ``trigger``: the tables, Adam moments, RNG streams and history are
        copied; the bundle, the config, the best state and its validation
        report are shared."""
        shared = (self.bundle, self.config, self.prop, self.best_state,
                  self.best_validation)
        other = copy.deepcopy(self, {id(obj): obj for obj in shared})
        other.trigger = trigger
        return other


def train_run(bundle: DatasetBundle, config: RunConfig
              ) -> tuple[backbone.EmbeddingState, TrainHistory]:
    """Run one full training: warm-up epochs, joint epochs with a fresh
    virtual-triplet set each epoch, early stopping on validation NDCG@10,
    and best-epoch restoration."""
    return TrainingRun(bundle, config).finish()


@dataclass
class CandidateResult:
    """One strategy-search run, keyed by its warm-up candidate."""

    label: str
    candidate: int | None
    history: TrainHistory
    state: backbone.EmbeddingState
    validation: evaluator.MetricsReport

    @property
    def val_ndcg10(self) -> float:
        return self.history.best_val_ndcg10()

    def summary(self) -> dict:
        return {
            "label": self.label,
            "candidate": self.candidate,
            "trigger_epoch": self.history.trigger_epoch,
            "val_ndcg10": self.val_ndcg10,
            "best_epoch": self.history.best_epoch,
            "stopped_epoch": self.history.stopped_epoch,
        }


@dataclass
class SearchResult:
    """Winner of a warm-up strategy search plus the per-candidate table.
    ``best_validation`` ranks the validation split with ``best_state``,
    with buckets."""

    strategy: str
    best_config: RunConfig
    best_state: backbone.EmbeddingState
    best_history: TrainHistory
    best_validation: evaluator.MetricsReport
    candidates: list[dict]
    resolved_trigger: int | None
    dynamic_estimate: int | None = None


def _result(label: str, candidate: int | None, run: TrainingRun,
            how: str) -> CandidateResult:
    log.info("%s %s", label, how)
    state, history = run.finish()
    return CandidateResult(label, candidate, history, state,
                           run.best_validation)


def _branch(trunk: TrainingRun, label: str, candidate: int,
            last: bool) -> CandidateResult:
    """Advance the warm-up-only trunk to the start of epoch ``candidate``
    and fork it there; the last candidate takes the trunk over. A trunk
    that stops first is the candidate's result: it never triggers."""
    while trunk.epoch < candidate and not trunk.done:
        trunk.step()
    if trunk.done:
        return _result(label, candidate, trunk, "shares the trunk (trunk "
                       f"stopped at epoch {trunk.history.stopped_epoch})")
    if last:
        trunk.trigger = candidate
        return _result(label, candidate, trunk,
                       f"takes the trunk over at epoch {candidate}")
    return _result(label, candidate, trunk.fork(candidate),
                   f"forks the trunk at epoch {candidate}")


def run_strategy_search(bundle: DatasetBundle, config: RunConfig
                        ) -> SearchResult:
    """Resolve the warm-up trigger per the configured strategy.

    dynamic: one run. static: one candidate per entry of the static set.
    hybrid: one dynamic probe, reused as the candidate equal to its own
    trigger, plus the remaining candidates in [estimate-s, estimate+s].
    The winner is the run with the highest validation NDCG@10 (ties go to
    the earlier candidate).

    Warm-up epochs never read the trigger, so candidate ``c`` equals a
    warm-up-only trunk (trigger ``max_epochs``) up to the start of epoch
    ``c``, where it is forked: each warm-up epoch is trained once.
    """
    alone = dataclasses.replace(config, warmup_candidate=None)
    warmup_only = dataclasses.replace(config,
                                      warmup_candidate=config.max_epochs)
    if not config.mdvt_active:
        result = _result("baseline", None, TrainingRun(bundle, alone),
                         "trains alone")
        return SearchResult("disabled", config, result.state, result.history,
                            result.validation, [result.summary()], None)

    dynamic_estimate = None
    if config.strategy == "dynamic":
        results = [_result("dynamic", None, TrainingRun(bundle, alone),
                           "trains alone")]
        dynamic_estimate = results[0].history.trigger_epoch
    elif config.strategy == "static":
        trunk = TrainingRun(bundle, warmup_only)
        cands = warmup.static_candidates(config.static_set)
        results = [_branch(trunk, f"static:{c}", c, c == cands[-1])
                   for c in cands]
    else:  # hybrid
        trunk = TrainingRun(bundle, warmup_only)
        # The probe's trigger rule, checked on the trunk at the start of
        # each epoch. The last s epoch-start snapshots are the candidates
        # below the estimate.
        window = collections.deque(maxlen=config.s)
        while not trunk.done and warmup.dynamic_trigger(
                trunk.history.l_total, config.g) is None:
            window.append(trunk.fork(trunk.epoch))
            trunk.step()
        if trunk.done:
            log.warning("dynamic probe never triggered; "
                        "keeping the probe run as the result")
            results = [_result("dynamic_probe", None, trunk,
                               "is the warm-up-only trunk")]
        else:
            dynamic_estimate = trunk.epoch
            results = [_branch(trunk, "dynamic_probe", trunk.epoch, False)]
            while window:
                run = window.popleft()
                cand = run.epoch
                results.append(_result(f"hybrid:{cand}", cand, run,
                                       f"forks the trunk at epoch {cand}"))
            upper = [c for c in warmup.hybrid_candidates(dynamic_estimate,
                                                         config.s)
                     if c > dynamic_estimate]
            results += [_branch(trunk, f"hybrid:{c}", c, c == upper[-1])
                        for c in upper]

    ordered = sorted(results, key=lambda r: (r.candidate is None,
                                             r.candidate or 0))
    winner = ordered[0]
    for res in ordered[1:]:
        if res.val_ndcg10 > winner.val_ndcg10:
            winner = res
    best_config = dataclasses.replace(config,
                                      warmup_candidate=winner.candidate)
    return SearchResult(
        strategy=config.strategy,
        best_config=best_config,
        best_state=winner.state,
        best_history=winner.history,
        best_validation=winner.validation,
        candidates=[r.summary() for r in results],
        resolved_trigger=winner.history.trigger_epoch,
        dynamic_estimate=dynamic_estimate,
    )


# ---------------------------------------------------------------------------
# Checkpoints: magic, config hash, config echo, bundle fingerprint, then
# each table named and stored as a feature-format record (float32).
# ---------------------------------------------------------------------------

def _pack_blob(blob: bytes) -> bytes:
    return struct.pack("<I", len(blob)) + blob


def _read_blob(buf: memoryview, offset: int) -> tuple[bytes, int]:
    (size,) = struct.unpack_from("<I", buf, offset)
    start = offset + 4
    return bytes(buf[start:start + size]), start + size


def save_checkpoint(path: str | Path, state: backbone.EmbeddingState,
                    config: RunConfig, bundle_fp: str) -> None:
    config_blob = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    parts = [CHECKPOINT_MAGIC,
             _pack_blob(hashlib.sha256(config_blob).hexdigest().encode()),
             _pack_blob(config_blob),
             _pack_blob(bundle_fp.encode("utf-8"))]
    tables = list(state.param_items())
    parts.append(struct.pack("<I", len(tables)))
    for key, table in tables:
        mat = np.ascontiguousarray(table, dtype="<f4")
        parts.append(_pack_blob(key.encode("utf-8")))
        parts.append(FEATURE_MAGIC)
        parts.append(struct.pack("<II", mat.shape[0], mat.shape[1]))
        parts.append(mat.tobytes())
    write_atomic(path, b"".join(parts))


def load_checkpoint(path: str | Path
                    ) -> tuple[RunConfig, str, dict[str, np.ndarray]]:
    """Returns (config, bundle_fingerprint, tables keyed like
    EmbeddingState.param_items)."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    blob = path.read_bytes()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad checkpoint magic")
    try:
        buf = memoryview(blob)
        offset = 8
        stored_hash, offset = _read_blob(buf, offset)
        config_blob, offset = _read_blob(buf, offset)
        if hashlib.sha256(config_blob).hexdigest().encode() != stored_hash:
            raise CheckpointError(
                f"{path}: config hash mismatch (corrupt file)")
        bundle_fp, offset = _read_blob(buf, offset)
        (count,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        tables: dict[str, np.ndarray] = {}
        for _ in range(count):
            key, offset = _read_blob(buf, offset)
            if bytes(buf[offset:offset + 8]) != FEATURE_MAGIC:
                raise CheckpointError(f"{path}: bad table record magic")
            rows, cols = struct.unpack_from("<II", buf, offset + 8)
            offset += 16
            mat = np.frombuffer(blob, dtype="<f4", count=rows * cols,
                                offset=offset).reshape(rows, cols)
            tables[key.decode("utf-8")] = mat.astype(np.float64)
            offset += 4 * rows * cols
        config = RunConfig.from_dict(json.loads(config_blob.decode("utf-8")))
        return config, bundle_fp.decode("utf-8"), tables
    except (struct.error, ValueError, ConfigError) as exc:
        # Truncated or garbled records (short reads, undecodable text), or
        # a config echo this version does not accept.
        raise CheckpointError(
            f"{path}: unreadable checkpoint ({exc!r})") from None


def state_from_tables(tables: dict[str, np.ndarray], embed_dim: int,
                      mask: tuple[str, ...] | None = None
                      ) -> backbone.EmbeddingState:
    """Rebuild an EmbeddingState from checkpoint tables that hold ``mask``."""
    user: dict[str, np.ndarray] = {}
    item: dict[str, np.ndarray] = {}
    for key, mat in tables.items():
        role, _, modality = key.partition(".")
        (user if role == "user" else item)[modality] = mat
    if not user or set(user) != set(item):
        raise CheckpointError("checkpoint tables are not paired per modality")
    (user_shape, item_shape), *others = {(user[m].shape, item[m].shape)
                                         for m in user}
    if others or user_shape[1] != embed_dim or item_shape[1] != embed_dim:
        raise CheckpointError("checkpoint tables differ in shape")
    if missing := [m for m in mask or () if m not in user]:
        raise CheckpointError(f"checkpoint lacks masked modalities {missing}")
    return backbone.EmbeddingState(
        tables={m: np.vstack([user[m], item[m]]) for m in user},
        num_users=user_shape[0], init_seed=-1, embed_dim=embed_dim)

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
import contextlib
import copy
import dataclasses
import hashlib
import json
import logging
import math
import os
import pickle
import signal
import struct
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import backbone, evaluator, objective, triplet_forge, warmup
from .dataset import (DatasetBundle, make_batches, pack_matrix, read_matrix,
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

# Config keys of earlier versions: a config or grid that sets one exits 1
# as an unknown key, and a checkpoint whose echo holds one still loads.
RETIRED_KEYS = ("warmup_candidate", "loss_reporting", "n_cap")


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
    wo_aggr: bool = False
    wo_scale: bool = False
    norm: str = "dual"
    readout: str = "sum"
    score_mode: str = "per_modality"
    include_seen: bool = False
    weight_decay: float = 0.0
    per_distinct_user: bool = False
    strategy: str = "hybrid"
    static_set: tuple[int, ...] = warmup.DEFAULT_STATIC_SET
    g: float = warmup.DEFAULT_G
    s: int = warmup.DEFAULT_S
    eval_ks: tuple[int, ...] = (5, 10)

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
                         ("n_floor", 0)):
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
        """Notes on values outside the usual search grids, for the keys
        the run reads."""
        if not self.mdvt_active:
            return []
        # (key, grid, whether the run reads the key, the value compared)
        tag = self.constructor
        checks = (
            ("lam", LAMBDA_GRID, True, self.lam),
            ("top_n", N_GRID, tag != "threshold", self.top_n),
            ("g", G_GRID, self.strategy in ("dynamic", "hybrid"), self.g),
            ("s", S_GRID, self.strategy == "hybrid", self.s),
            ("sim_threshold", THRESHOLD_GRID,
             tag in triplet_forge.THRESHOLD_TAGS,
             self.sim_threshold is not None and round(self.sim_threshold, 6)),
            ("n_floor", N_FLOOR_GRID, tag == "interval", self.n_floor),
        )
        return [f"{key}={getattr(self, key)} outside usual grid {grid}"
                for key, grid, applies, value in checks
                if applies and value not in grid]

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
                   config: RunConfig, which: str,
                   ks: tuple[int, ...] | None = None
                   ) -> evaluator.MetricsReport:
    """Rank the requested split with the current state, at the cutoffs
    ``ks`` (default ``config.eval_ks``).

    Validation masks the train items; test masks train plus validation.
    Only ``split.trained_users`` are ranked, so cold users stay out of the
    averages; the report's buckets, by train degree, are built when read.
    """
    split = bundle.split
    if which == "validation":
        relevant, masked = split.validation.adjacency, split.train.adjacency
    elif which == "test":
        relevant, masked = split.test.adjacency, split.train_and_validation
    else:
        raise ConfigError(f"unknown evaluation split {which!r}")
    reps = backbone.forward_pass(state, propagator(bundle, config.norm),
                                 config)
    return evaluator.evaluate_rankings(
        lambda block: backbone.score_matrix(reps, block, config),
        split.trained_users, relevant, masked,
        config.eval_ks if ks is None else ks,
        bundle.graph.degrees[:bundle.num_users])


def propagator(bundle: DatasetBundle, norm: str) -> backbone.Propagator:
    """The bundle's propagation operator for ``norm``, built once."""
    if norm not in bundle.propagators:
        bundle.propagators[norm] = backbone.Propagator(bundle.graph, norm)
    return bundle.propagators[norm]


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
    warm-up. Both the local and the full step give the same bits.

    A split epoch (``_split_epoch``) gives the last half of the tables in
    table order to a forked worker, which replays the batches from its
    copies of the two generators and trades each step's coupled values
    with this process (``objective.backward``, ``adam_step``); at the end
    it sends its tables and Adam moments back into this process's arrays.
    The bits are a serial epoch's."""
    local = prop.matrix.nnz * state.embed_dim > LOCAL_STEP_MIN_WORK

    def steps(own: tuple[str, ...], peer: _Link | None):
        """Train the tables ``own``, yielding each batch's loss report
        (None in the worker)."""
        batches = make_batches(bundle.split.train, bundle.graph,
                               config.batch_size, rng_shuffle, rng_negative)
        for n, batch in enumerate(batches):
            rows = (objective.batch_vertices(batch, virtual, state.num_users,
                                             prop.matrix.shape[0])
                    if local else None)
            reps = backbone.forward_pass(state, prop, config, rows, own)
            report, grads = objective.backward(batch, virtual, reps, prop,
                                               config, peer)
            if report is not None and not np.isfinite(report.l_total):
                raise MdvtError(
                    f"non-finite loss at epoch {epoch}, batch {n}: "
                    f"l_bpr={report.l_bpr}, l_vbpr={report.l_vbpr}")
            # Drop the representations now, so that the next batch's
            # reuse their memory instead of sitting beside them at its
            # peak. The gradients stay until the next backward returns:
            # freeing them too frees the top of the heap, which malloc
            # hands back to the kernel, and every batch then page-faults
            # its arrays in again.
            del reps
            objective.adam_step(state, opt, grads, config, peer)
            yield report

    own = state.modalities
    if not _split_epoch(state, prop):
        return _mean_losses(steps(own, None))
    cut = len(own) - len(own) // 2
    own, theirs = own[:cut], own[cut:]
    # Imported here: multiprocessing costs a serial run 0.3 MiB of RSS.
    from multiprocessing.connection import Pipe
    pool = ForkPool(2)
    what = f"modalities {', '.join(theirs)}"
    with _starting(what):
        parent_end, worker_end = Pipe()

    # What the worker trains, and at the end sends back in place.
    arrays = [a for m in theirs for a in (state.tables[m], opt.m[m], opt.v[m])]

    def work() -> None:
        parent_end.close()
        link = _Link(worker_end)
        for _ in steps(theirs, link):
            pass
        for array in arrays:
            link.send_array(array)

    try:
        pool.add(what, work)
        worker_end.close()
        link = _Link(parent_end, pool)
        report = _mean_losses(steps(own, link))
        for array in arrays:
            link.recv_into(array)
        pool.gather()
    finally:
        parent_end.close()
        worker_end.close()
        pool.close()
    return report


def _mean_losses(reports) -> objective.LossReport:
    """An epoch's mean batch losses, summed in batch order, from an
    iterable that trains each batch as it yields its report."""
    l_bpr = l_total = vbpr_sum = 0.0
    vbpr_batches = n_batches = 0
    for report in reports:
        l_bpr += report.l_bpr
        l_total += report.l_total
        if report.l_vbpr is not None:
            vbpr_sum += report.l_vbpr
            vbpr_batches += 1
        n_batches += 1
    return objective.LossReport(
        l_bpr=l_bpr / n_batches,
        l_vbpr=(vbpr_sum / vbpr_batches) if vbpr_batches else None,
        l_total=l_total / n_batches)


# Propagation work (as for LOCAL_STEP_MIN_WORK) above which an epoch is
# split by modality across this process and a forked worker. Measured in
# interleaved perfbench pairs (2 cores): bpr-wide (1.5e7) trains faster
# split; joint-mid (5.1e6) does not, as its virtual loss and refresh stay
# here; search-small (3.6e4) trains many epochs, each cheaper than a fork.
SPLIT_MIN_WORK = 2 ** 23


def _split_epoch(state: backbone.EmbeddingState,
                 prop: backbone.Propagator) -> bool:
    """Whether an epoch is worth splitting across two processes and two
    fit: there are two tables or more, this process is no ForkPool's
    child, none of its ForkPool children is running, it may use two cores
    and it can fork."""
    return (len(state.tables) > 1
            and prop.matrix.nnz * state.embed_dim > SPLIT_MIN_WORK
            and not _in_child and not ForkPool.live
            and hasattr(os, "fork") and candidate_processes() > 1)


class _Link:
    """One process's end of a split epoch's connection: pickled messages
    that go each way in turn (see ``objective.backward`` and
    ``adam_step``). At the parent's end (``couples``, with the worker's
    ``pool``) a worker that died or raised gives the error ForkPool gives
    for it: the worker's own, or one MdvtError (exit 4) naming it."""

    def __init__(self, conn, pool: ForkPool | None = None) -> None:
        self.conn, self.pool = conn, pool
        self.couples = pool is not None

    def send(self, message) -> None:
        self._call(self.conn.send, message)

    def recv(self):
        return self._call(self.conn.recv)

    def send_array(self, array: np.ndarray) -> None:
        """Send a contiguous array's bytes, with no pickled copy."""
        self._call(self.conn.send_bytes, array.reshape(-1))

    def recv_into(self, array: np.ndarray) -> None:
        """Overwrite a contiguous array with the bytes ``send_array``
        sent."""
        self._call(self.conn.recv_bytes_into, array.reshape(-1))

    def _call(self, op, *args):
        try:
            return op(*args)
        except (EOFError, OSError):
            if self.pool is None:  # in the worker: the parent has gone
                raise
            self.pool.gather()
            raise MdvtError("the modality worker ended before its epoch")

    def agree(self, problem: str | None) -> str | None:
        """The step's first non-finite table message, or None: the
        parent's own comes first in table order; the worker waits for the
        parent's word before its tables move."""
        if self.couples:
            if problem is None:
                problem = self.recv()
                if problem is None:
                    self.send(None)
            return problem
        self.send(problem)
        return problem or self.recv()


class TrainingRun:
    """One training run, advanced an epoch at a time.

    It holds everything the next epoch reads: the tables, the Adam
    moments and step, both RNG streams, the first joint epoch
    (``trigger``; None for none), the history and the best epoch's state
    and validation (None until a step). ``fork`` copies that state, so a
    strategy search can branch candidates off one shared warm-up trunk.
    """

    def __init__(self, bundle: DatasetBundle, config: RunConfig,
                 trigger: int | None = None) -> None:
        streams = np.random.SeedSequence(config.seed).spawn(3)
        init_seed = int(streams[0].generate_state(1)[0])
        self.rng_shuffle = np.random.default_rng(streams[1])
        self.rng_negative = np.random.default_rng(streams[2])
        self.state = backbone.init_embeddings(
            bundle.features, bundle.num_users, bundle.num_items,
            config.embed_dim, init_seed)
        unknown = [m for m in config.modality_mask or ()
                   if m not in self.state.modalities]
        if unknown:
            raise ConfigError(
                f"modality_mask names unknown modalities: {unknown}")
        self.bundle, self.config = bundle, config
        self.prop = propagator(bundle, config.norm)
        self.opt = objective.OptimizerState.for_state(self.state)
        self.trigger = trigger
        self.history = TrainHistory()
        # Set by each improvement, never mutated: forks may share them.
        self.best_state: backbone.EmbeddingState | None = None
        self.best_validation: evaluator.MetricsReport | None = None
        self.epoch = 0

    @property
    def done(self) -> bool:
        return (self.epoch >= self.config.max_epochs
                or self.epoch - self.history.best_epoch > self.config.patience)

    def step(self) -> None:
        """Train epoch ``self.epoch`` (with a fresh virtual-triplet set if
        it is a joint epoch), validate it and update early stopping."""
        config, epoch, history = self.config, self.epoch, self.history
        virtual = None
        if self.trigger is not None and epoch >= self.trigger:
            if history.trigger_epoch is None:
                history.trigger_epoch = epoch
            reps = backbone.forward_pass(self.state, self.prop, config)
            split = self.bundle.split
            virtual = triplet_forge.refresh(
                reps, config, split.train.adjacency, split.trained_users,
                item_counts=self.bundle.graph.degrees[self.bundle.num_users:])
            del reps  # whole-table arrays the epoch never reads
        report = train_epoch(self.state, self.opt, self.prop, self.bundle,
                             config, epoch, virtual, self.rng_shuffle,
                             self.rng_negative)
        history.append_losses(report)
        # The best epoch's report is the run's validation result, so
        # nothing ranks the best state again.
        val = evaluate_split(self.state, self.bundle, config, "validation")
        history.append_validation(val)
        if (self.best_validation is None
                or val.ndcg[10] > self.best_validation.ndcg[10]):
            history.best_epoch = epoch
            self.best_state = self.state.copy()
            self.best_validation = val
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
    """Run ``config``'s strategy search; return the winner's best state and
    history (warm-up and joint epochs, early stopping on validation
    NDCG@10, best-epoch restoration)."""
    result = run_strategy_search(bundle, config)
    return result.best_state, result.best_history


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
    ``best_validation`` ranks the validation split with ``best_state``."""

    strategy: str
    best_state: backbone.EmbeddingState
    best_history: TrainHistory
    best_validation: evaluator.MetricsReport
    candidates: list[dict]
    resolved_trigger: int | None
    dynamic_estimate: int | None = None


def candidate_processes() -> int:
    """Child processes a search may train forked candidates in at once: one
    per core this process may use, or 1 without ``sched_getaffinity``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


# True in a ForkPool's child, whose parent's pool already fills the cores.
_in_child = False


class ForkPool(contextlib.AbstractContextManager):
    """Runs zero-argument jobs; ``gather`` returns their results in the
    order added. A job added with ``fork`` runs in a forked child that
    pipes back its pickled result or error, at most ``processes`` at once;
    other jobs, and all when ``processes`` is 1 or ``os.fork`` is missing,
    run here when added. Its ``with`` block raises the first error in job
    order (a dead child's as one MdvtError) and kills and reaps the rest."""

    # Children of every pool of this process, forked and not yet reaped.
    live = 0

    def __init__(self, processes: int) -> None:
        self.processes = processes if hasattr(os, "fork") else 1
        self.results: list = []
        # Running children, oldest first: (index, pid, pipe, what)
        self.running: collections.deque[tuple] = collections.deque()

    def __exit__(self, kind, error, trace) -> None:
        try:
            if isinstance(error, Exception):
                self.gather()  # an earlier job's error comes first
        finally:
            self.close()

    def add(self, what: str, job: typing.Callable[[], typing.Any],
            fork: bool = True) -> None:
        """Run ``job``; ``what`` names it in the message of a dead child."""
        if not fork or self.processes <= 1:
            self.results.append(job())
            return
        if len(self.running) == self.processes:
            self._wait()
        with _starting(what):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
        if pid == 0:
            _run_child(job, read, write)
        ForkPool.live += 1
        os.close(write)
        self.running.append((len(self.results), pid, os.fdopen(read, "rb"),
                             what))
        self.results.append(None)

    def _wait(self) -> None:
        """Take the oldest child's result, or stop all and raise its error."""
        index, pid, pipe, what = self.running[0]
        with pipe:
            data = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        self.running.popleft()
        ForkPool.live -= 1
        payload = pickle.loads(data) if code == 0 else MdvtError(
            f"the process training {what} ended without a result "
            f"({f'signal {-code}' if code < 0 else f'exit {code}'})")
        if isinstance(payload, Exception):
            self.close()
            raise payload
        self.results[index] = payload

    def gather(self) -> list:
        """Every job's result, in the order the jobs were added."""
        while self.running:
            self._wait()
        return self.results

    def close(self) -> None:
        """Kill and reap every child still running."""
        while self.running:
            _, pid, pipe, _ = self.running.popleft()
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            ForkPool.live -= 1


@contextlib.contextmanager
def _starting(what: str):
    """Raise a failure to make a child's pipe or process (too many open
    files or processes, say) as a runtime MdvtError naming ``what``."""
    try:
        yield
    except OSError as exc:
        raise MdvtError(f"cannot start the process training {what}: "
                        f"{exc.strerror or exc}") from None


def _run_child(job: typing.Callable[[], typing.Any], read: int, write: int
               ) -> typing.NoReturn:
    """In a forked child: run ``job``, pipe back its result or error, and
    exit without unwinding the parent's stack."""
    global _in_child
    _in_child = True
    code = 1
    try:
        os.close(read)
        try:
            payload = job()
        except Exception as exc:  # raised again by the parent
            payload = exc
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(payload, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _add(pool: ForkPool, label: str, candidate: int | None,
         run: TrainingRun, how: str, forked: bool = False) -> None:
    """Log how candidate ``label`` starts; add its training to ``pool``."""
    log.info("%s %s", label, how)

    def train() -> CandidateResult:
        state, history = run.finish()
        return CandidateResult(label, candidate, history, state,
                               run.best_validation)
    pool.add(f"candidate {label}", train, fork=forked)


def _branch(trunk: TrainingRun, pool: ForkPool, label: str, candidate: int,
            last: bool) -> None:
    """Advance the warm-up-only trunk to the start of epoch ``candidate``
    and fork it there; the last candidate takes the trunk over. A trunk
    that stops first is the candidate's result: it never triggers."""
    while trunk.epoch < candidate and not trunk.done:
        trunk.step()
    if trunk.done:
        _add(pool, label, candidate, trunk, "shares the trunk (trunk "
             f"stopped at epoch {trunk.history.stopped_epoch})")
    elif last:
        trunk.trigger = candidate
        _add(pool, label, candidate, trunk,
             f"takes the trunk over at epoch {candidate}")
    else:
        _add(pool, label, candidate, trunk.fork(candidate),
             f"forks the trunk at epoch {candidate}", forked=True)


def _start(bundle: DatasetBundle, config: RunConfig,
           pool: ForkPool) -> int | None:
    """Start every candidate of the search off one warm-up-only trunk;
    return the dynamic estimate. The baseline trains the trunk alone."""
    trunk = TrainingRun(bundle, config)
    if not config.mdvt_active:
        _add(pool, "baseline", None, trunk, "trains alone")
        return None
    if config.strategy == "static":
        cands = warmup.static_candidates(config.static_set)
        for c in cands:
            _branch(trunk, pool, f"static:{c}", c, c == cands[-1])
        return None
    # dynamic and hybrid: the probe's trigger rule, checked on the trunk at
    # the start of each epoch. Hybrid's last s epoch-start snapshots are the
    # candidates below the estimate; dynamic is the probe alone (s = 0).
    s, label = ((config.s, "dynamic_probe") if config.strategy == "hybrid"
                else (0, "dynamic"))
    window = collections.deque(maxlen=s)
    while not trunk.done and warmup.dynamic_trigger(
            trunk.history.l_total, config.g) is None:
        if s:
            window.append(trunk.fork(trunk.epoch))
        trunk.step()
    if trunk.done:
        log.warning("dynamic probe never triggered; "
                    "keeping the probe run as the result")
        _add(pool, label, None, trunk, "is the warm-up-only trunk")
        return None
    estimate = trunk.epoch
    upper = [c for c in warmup.hybrid_candidates(estimate, s) if c > estimate]
    _branch(trunk, pool, label, estimate, not upper)
    while window:
        run = window.popleft()
        _add(pool, f"hybrid:{run.epoch}", run.epoch, run,
             f"forks the trunk at epoch {run.epoch}", forked=True)
    for c in upper:
        _branch(trunk, pool, f"hybrid:{c}", c, c == upper[-1])
    return estimate


def run_strategy_search(bundle: DatasetBundle, config: RunConfig
                        ) -> SearchResult:
    """Resolve the warm-up trigger per the configured strategy.

    dynamic: one run, joint from the epoch its trigger rule fires. static:
    one candidate per entry of the static set. hybrid: the dynamic probe,
    as the candidate equal to its own trigger, plus the remaining
    candidates in [estimate-s, estimate+s]. Without the virtual machinery
    (``mdvt_active`` false): the baseline, strategy ``"disabled"``. The
    winner is the run with the highest validation NDCG@10 (ties go to the
    earlier candidate).

    Warm-up epochs never read the trigger, so candidate ``c`` equals a
    warm-up-only trunk (trigger None) up to the start of epoch ``c``,
    where it is forked: each warm-up epoch is trained once. Forked
    candidates train in up to ``candidate_processes()`` child processes at
    once (in turn here when this process is a ForkPool's child), with the
    same results, and the same first error, as one after another.
    """
    with ForkPool(1 if _in_child else candidate_processes()) as pool:
        dynamic_estimate = _start(bundle, config, pool)
        results = pool.gather()
    ordered = sorted(results, key=lambda r: (r.candidate is None,
                                             r.candidate or 0))
    winner = max(ordered, key=lambda r: r.val_ndcg10)  # the first on ties
    return SearchResult(
        strategy=config.strategy if config.mdvt_active else "disabled",
        best_state=winner.state,
        best_history=winner.history,
        best_validation=winner.validation,
        candidates=[r.summary() for r in results],
        resolved_trigger=winner.history.trigger_epoch,
        dynamic_estimate=dynamic_estimate,
    )


# ---------------------------------------------------------------------------
# Checkpoints: magic, config hash, config echo, bundle fingerprint, then
# each table named and stored as a matrix record (dataset.pack_matrix).
# ---------------------------------------------------------------------------

def _pack_blob(blob: bytes) -> bytes:
    return struct.pack("<I", len(blob)) + blob


def _read_blob(buf: bytes, offset: int) -> tuple[bytes, int]:
    (size,) = struct.unpack_from("<I", buf, offset)
    start = offset + 4
    return buf[start:start + size], start + size


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
        parts += [_pack_blob(key.encode("utf-8")), pack_matrix(table)]
    write_atomic(path, b"".join(parts))


def load_checkpoint(path: str | Path
                    ) -> tuple[RunConfig, str, dict[str, np.ndarray]]:
    """Returns (config, bundle_fingerprint, tables keyed like
    EmbeddingState.param_items), each table a :func:`read_matrix` record;
    :func:`state_from_tables` checks that they fit a bundle."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{path}: {exc.strerror or exc}") from None
    if blob[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad checkpoint magic")
    try:
        stored_hash, offset = _read_blob(blob, 8)
        config_blob, offset = _read_blob(blob, offset)
        if hashlib.sha256(config_blob).hexdigest().encode() != stored_hash:
            raise CheckpointError(
                f"{path}: config hash mismatch (corrupt file)")
        bundle_fp, offset = _read_blob(blob, offset)
        (count,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        tables: dict[str, np.ndarray] = {}
        for _ in range(count):
            key, offset = _read_blob(blob, offset)
            name = key.decode("utf-8")
            if name in tables:
                raise ValueError(f"table {name} repeated")
            try:
                tables[name], offset = read_matrix(blob, offset)
            except ValueError as exc:
                raise ValueError(f"table {name}: {exc}")
        if offset != len(blob):
            raise ValueError(f"{len(blob) - offset} bytes after the tables")
        data = json.loads(config_blob.decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError("the config echo is not a JSON object")
        for key in RETIRED_KEYS:  # earlier versions wrote them
            data.pop(key, None)
        config = RunConfig.from_dict(data)
        return config, bundle_fp.decode("utf-8"), tables
    except (struct.error, ValueError, ConfigError) as exc:
        # Truncated, garbled or trailing records (read_matrix's faults
        # too), or a config echo this version does not accept.
        raise CheckpointError(f"{path}: unreadable checkpoint ({exc})"
                              ) from None


def state_from_tables(tables: dict[str, np.ndarray], bundle: DatasetBundle,
                      embed_dim: int, mask: tuple[str, ...] | None = None
                      ) -> backbone.EmbeddingState:
    """Rebuild an EmbeddingState from checkpoint tables that hold ``mask``
    and are the layout ``bundle`` implies: ``user.<m>`` at ``(num_users,
    embed_dim)`` and ``item.<m>`` at ``(num_items, embed_dim)`` for each
    of its modalities, and nothing else."""
    if missing := [m for m in mask or () if f"user.{m}" not in tables]:
        raise CheckpointError(f"checkpoint lacks masked modalities {missing}")
    layout = {f"{role}.{m}": (rows, embed_dim) for m in bundle.modalities
              for role, rows in (("user", bundle.num_users),
                                 ("item", bundle.num_items))}
    shapes = {key: table.shape for key, table in tables.items()}
    if shapes != layout:
        missing = {key.partition(".")[2] for key in layout.keys() - shapes}
        wrong = [f"{key} {shapes[key]}" for key in layout.keys() & shapes
                 if shapes[key] != layout[key]]
        raise CheckpointError(
            f"checkpoint tables do not fit the bundle ({bundle.num_users} "
            f"users, {bundle.num_items} items, {embed_dim} columns): missing "
            f"modalities {sorted(missing)}, extra tables "
            f"{sorted(shapes.keys() - layout)}, misshapen tables "
            f"{sorted(wrong)}")
    return backbone.EmbeddingState(
        tables={m: np.vstack([tables[f"user.{m}"], tables[f"item.{m}"]])
                for m in bundle.modalities},
        num_users=bundle.num_users, embed_dim=embed_dim)

"""mdvt benchmark: one workload through ``prepare`` -> ``train`` -> ``eval``.

Usage (from the repository root):

    python3 perfbench/run.py --workload search-small --seed 0 \
        --seconds 40 --trace 0

The benchmark generates the workload's raw inputs from ``--seed``, then
drives the CLI in this process through ``mdvt.cli.main``, exactly as a
user's commands would run. ``--trace 0`` measures the end-to-end metrics
with nothing but a timer around ``cli.load_bundle``; ``--trace 1`` runs
one untraced and one traced pass on the same inputs and reports the
per-layer metrics. Every run checks its outputs; the last line of
standard output is the JSON result. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads: numpy's OpenBLAS would otherwise
# start one thread per core and make timings depend on the box's load.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, generate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
PROGRAM_MODULES = ("dataset", "backbone", "objective", "triplet_forge",
                   "evaluator", "warmup", "trainer", "cli")

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MiB",
    "test_ndcg10": "1",
}

# name -> unit. Names ending in ".calls" / ".s" are the call count /
# inclusive seconds of the span named by the prefix; the rest are computed
# in layer_metrics().
PER_LAYER = {
    "dataset.load_bundle.s": "s",
    "dataset.build_graph.s": "s",
    "dataset.prepare.s": "s",
    "dataset.make_batches.s": "s",
    "dataset.sample_negative.calls": "count",
    "dataset.negative.accept_ratio": "1",
    "dataset.self_s": "s",
    "backbone.forward_pass.calls": "count",
    "backbone.forward_pass.s": "s",
    "backbone.Propagator.apply.calls": "count",
    "backbone.Propagator.apply.s": "s",
    "backbone.Propagator.builds": "count",
    "backbone.score_matrix.s": "s",
    "backbone.self_s": "s",
    "objective.backward.calls": "count",
    "objective.backward.s": "s",
    "objective.adam_step.s": "s",
    "objective.self_s": "s",
    "triplet_forge.refresh.calls": "count",
    "triplet_forge.refresh.s": "s",
    "triplet_forge.select_topn.calls": "count",
    "triplet_forge.coverage": "1",
    "triplet_forge.self_s": "s",
    "evaluator.evaluate_rankings.calls": "count",
    "evaluator.evaluate_rankings.s": "s",
    "evaluator.rank_items.calls": "count",
    "evaluator.self_s": "s",
    "warmup.trigger_epoch": "epoch",
    "warmup.dynamic_estimate": "epoch",
    "warmup.self_s": "s",
    "trainer.train_run.calls": "count",
    "trainer.epochs.warmup": "count",
    "trainer.epochs.joint": "count",
    "trainer.epochs.warmup_distinct": "count",
    "trainer.search.distinct_epoch_ratio": "1",
    "trainer.train_epoch.calls": "count",
    "trainer.train_epoch.s": "s",
    "trainer.evaluate_split.calls": "count",
    "trainer.evaluate_split.s": "s",
    "trainer.save_checkpoint.s": "s",
    "trainer.load_checkpoint.s": "s",
    "trainer.self_s": "s",
    "cli.train.self_s": "s",
    "cli.eval.self_s": "s",
    "cli.self_s": "s",
    "trace.train_overhead_s": "s",
    "trace.spans": "count",
    "src.lines": "count",
}


# Set-up and eval repetitions run in blocks of at least this many seconds.
# The CPU here alternates between fast and slow stretches lasting
# fractions of a second to seconds; a block this long spans several.
BLOCK_S = 1.0


class RunFailed(Exception):
    """A command failed or an output check did not hold."""


def import_program() -> dict:
    """Import mdvt from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "mdvt" / "__init__.py").is_file():
        raise RunFailed(f"no mdvt package under {src}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"mdvt.{name}")
            for name in PROGRAM_MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise RunFailed(f"mdvt imported from {origin}, not from {src}")
    return mods


def blas_of(module) -> str | None:
    """The BLAS library ``module`` (numpy or scipy) was built against."""
    try:
        config = module.show_config(mode="dicts")
    except TypeError:  # older releases have no dict mode
        return None
    dep = config.get("Build Dependencies", {}).get("blas", {})
    return f"{dep.get('name')} {dep.get('version')}" if dep else None


def environment() -> dict:
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_of(np),
        "scipy_blas": blas_of(scipy),
        "git_commit": git_commit(ROOT),
    }


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a
    repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines(root: Path) -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((root / "src").rglob("*.py")))


class Cli:
    """Calls ``mdvt.cli.main`` in-process and counts failed commands."""

    def __init__(self, cli_module) -> None:
        self.module = cli_module
        self.attempted = 0
        self.failed = 0

    def __call__(self, *argv: str) -> tuple[str, float]:
        """Run one command; return (its stdout, its seconds)."""
        self.attempted += 1
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.module.main(list(argv))
        except Exception:  # a traceback escaping main is a failed command
            traceback.print_exc()
            code = "traceback"
        seconds = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            raise RunFailed(f"mdvt {argv[0]} exited with {code}")
        return out.getvalue(), seconds


@contextlib.contextmanager
def timed_load_bundle(cli_module):
    """Time ``cli.load_bundle``, the name ``cmd_train`` looks up, so that
    the train command's bundle load counts as set-up, not training."""
    original = cli_module.load_bundle
    seconds: list[float] = []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            seconds.append(time.perf_counter() - start)

    cli_module.load_bundle = timed
    try:
        yield seconds
    finally:
        cli_module.load_bundle = original


def repeat(step, min_reps: int, min_seconds: float, max_reps: int) -> list:
    """Call ``step`` at least ``min_reps`` times and for at least
    ``min_seconds``, but at most ``max_reps`` times, starting from a
    collected heap."""
    gc.collect()
    out = []
    start = time.perf_counter()
    while len(out) < max_reps and (len(out) < min_reps or
                                   time.perf_counter() - start < min_seconds):
        out.append(step())
    return out


class Replica:
    """One input replica's files and the commands run on them."""

    def __init__(self, workload: Workload, seed: int, replica: int,
                 work: Path, mods: dict, cli: Cli) -> None:
        self.mods = mods
        self.cli = cli
        self.work = work
        self.raw = generate(workload, seed, replica, work / "raw")
        self.bundle = work / "bundle"
        self.config = work / "config.json"
        self.config.write_text(
            json.dumps({**workload.config, "seed": seed}, sort_keys=True),
            encoding="utf-8")

    def setup(self) -> float:
        """``prepare`` plus the ``load_bundle`` call ``train`` makes."""
        argv = ["prepare", "--interactions", str(self.raw.interactions),
                "--out", str(self.bundle), "--seed", "0"]
        for name, path in self.raw.features:
            argv += ["--feature", f"{name}={path}"]
        _, prepare_s = self.cli(*argv)
        start = time.perf_counter()
        self.mods["dataset"].load_bundle(str(self.bundle))
        return prepare_s + time.perf_counter() - start

    def train(self, tag: str) -> tuple[dict, float]:
        """Train into report-<tag>.json; return (report, seconds outside
        the bundle load)."""
        report = self.work / f"report-{tag}.json"
        with timed_load_bundle(self.mods["cli"]) as loads:
            _, seconds = self.cli("train", "--bundle", str(self.bundle),
                                  "--config", str(self.config),
                                  "--out", str(report))
        return json.loads(report.read_text(encoding="utf-8")), \
            seconds - sum(loads)

    def evaluate(self, tag: str) -> tuple[dict, float]:
        out = self.work / f"eval-{tag}.json"
        printed, seconds = self.cli(
            "eval", "--bundle", str(self.bundle),
            "--checkpoint", str(self.work / f"report-{tag}.ckpt"),
            "--out", str(out))
        payload = json.loads(out.read_text(encoding="utf-8"))
        shown = re.search(r"ndcg@10=(\S+)", printed)
        expected = f"{payload['ndcg']['10']:.6f}"
        if shown is None or shown.group(1) != expected:
            raise RunFailed(f"eval printed ndcg@10 "
                            f"{shown and shown.group(1)}, wrote {expected}")
        return payload, seconds

    def random_ndcg10(self) -> float:
        """Expected test NDCG@10 of a uniformly random ranking of each
        evaluated user's unmasked items (what ``eval`` ranks)."""
        def pairs(name: str) -> np.ndarray:
            text = (self.bundle / name).read_text(encoding="utf-8")
            return np.array(text.split(), dtype=np.int64).reshape(-1, 2)

        stats = json.loads((self.bundle / "stats.json").read_text("utf-8"))
        nu, ni = stats["num_users"], stats["num_items"]
        train = np.bincount(pairs("train.tsv")[:, 0], minlength=nu)
        val = np.bincount(pairs("val.tsv")[:, 0], minlength=nu)
        test = np.bincount(pairs("test.tsv")[:, 0], minlength=nu)
        discount = 1.0 / np.log2(np.arange(2, 12))
        levels = []
        for u in np.flatnonzero((test > 0) & (train > 0)):
            cands = ni - train[u] - val[u]
            dcg = test[u] / cands * discount[:min(10, cands)].sum()
            levels.append(dcg / discount[:min(10, test[u])].sum())
        return float(np.mean(levels))

    def check(self, report: dict, ndcg10: float) -> None:
        history = report["history"]
        for key in ("l_bpr", "l_vbpr", "l_total"):
            bad = [v for v in history[key]
                   if v is not None and not math.isfinite(v)]
            if bad:
                raise RunFailed(f"non-finite {key} in report: {bad[:3]}")
        floor = self.random_ndcg10()
        if not ndcg10 > floor:
            raise RunFailed(f"test ndcg@10 {ndcg10} not above the "
                            f"random-ranking level {floor}")


def deterministic_part(report: dict) -> str:
    return json.dumps({k: v for k, v in report.items()
                       if k != "wall_clock_seconds"}, sort_keys=True)


def timed_run(replicas: list[Replica], seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics with tracing off.

    Each iteration sets up, trains and evaluates one replica, round robin;
    iterations continue while the next is expected to end within
    ``seconds``, and every replica runs at least once. Set-up and eval run
    in blocks of at least ``BLOCK_S`` seconds, so that their samples come
    from every iteration of the run, not from one stretch of it. Each
    block and each train starts from a collected heap, so that garbage
    left by earlier iterations does not decide when a full collection
    lands inside a timed command.
    """
    start = time.perf_counter()
    setups, trains, evals, ndcgs = [], [], [], []
    first: dict[int, tuple] = {}
    i = 0
    while True:
        began = time.perf_counter()
        replica = replicas[i % len(replicas)]
        setups += repeat(replica.setup, 2, BLOCK_S, 50)
        gc.collect()
        report, train_s = replica.train("run")
        trains.append(train_s)
        payloads = repeat(lambda: replica.evaluate("run"), 3, BLOCK_S, 100)
        evals += [s for _, s in payloads]
        outputs = (deterministic_part(report),
                   {json.dumps(p, sort_keys=True) for p, _ in payloads})
        if i < len(replicas):
            ndcg10 = payloads[0][0]["ndcg"]["10"]
            replica.check(report, ndcg10)
            ndcgs.append(ndcg10)
            first[i] = outputs
        if outputs != first[i % len(replicas)] or len(outputs[1]) != 1:
            raise RunFailed("repeated train/eval outputs differ")
        i += 1
        now = time.perf_counter()
        if i >= len(replicas) and now - start + (now - began) > seconds:
            break
    metrics = {
        "setup_s": statistics.median(setups),
        "train_s": statistics.median(trains),
        "eval_s": statistics.median(evals),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "test_ndcg10": statistics.fmean(ndcgs),
    }
    samples = {"setup_s": setups, "train_s": trains, "eval_s": evals,
               "test_ndcg10": ndcgs}
    return metrics, samples


def traced_run(replica: Replica) -> tuple[dict, dict]:
    """Per-layer metrics of one replica: an untraced pass, then the same
    commands traced. Reports, checkpoints and eval outputs must match byte
    for byte (the report's wall-clock field aside)."""
    mods = replica.mods
    replica.setup()
    plain, plain_train_s = replica.train("plain")
    plain_eval, _ = replica.evaluate("plain")
    replica.check(plain, plain_eval["ndcg"]["10"])

    tracer = Tracer()
    coverage: list[float] = []

    def observe_refresh(args, kwargs, result):
        trainable = (kwargs["trainable_users"] if "trainable_users" in kwargs
                     else args[3])
        coverage.append(len(result.positives) / max(1, len(trainable)))

    backbone, dataset = mods["backbone"], mods["dataset"]
    with tracer.installed(
            [mods[name] for name in PROGRAM_MODULES],
            methods=[(backbone.Propagator, "__init__",
                      "backbone.Propagator.build"),
                     (backbone.Propagator, "apply",
                      "backbone.Propagator.apply")],
            counters=[(dataset.InteractionGraph, "has_edge",
                       "dataset.InteractionGraph.has_edge")],
            observers={"triplet_forge.refresh": observe_refresh}):
        replica.setup()
        traced, traced_train_s = replica.train("traced")
        traced_eval, _ = replica.evaluate("traced")

    if deterministic_part(plain) != deterministic_part(traced):
        raise RunFailed("traced report differs from the untraced report")
    work = replica.work
    if ((work / "report-plain.ckpt").read_bytes()
            != (work / "report-traced.ckpt").read_bytes()):
        raise RunFailed("traced checkpoint differs from the untraced one")
    if plain_eval != traced_eval:
        raise RunFailed("traced eval output differs from the untraced one")

    np.savez_compressed(work / "spans.npz", **tracer.arrays())
    metrics = layer_metrics(tracer, traced, coverage)
    metrics["trace.train_overhead_s"] = traced_train_s - plain_train_s
    return metrics, {"train_s": {"untraced": plain_train_s,
                                 "traced": traced_train_s}}


def layer_metrics(tracer: Tracer, report: dict,
                  coverage: list[float]) -> dict:
    summary = tracer.summary(roots=("cli.cmd_prepare", "cli.cmd_train",
                                    "cli.cmd_eval"))
    calls, secs = summary["calls"], summary["seconds"]
    entry_self = summary["entry_self_seconds"]
    layer_self = summary["layer_self_seconds"]
    # Dataset-layer time directly under the prepare command.
    a = tracer.arrays()
    names = list(a["names"])
    parent_name = np.where(a["parent"] >= 0, a["name"][a["parent"]], -1)
    dataset_ids = [j for j, nm in enumerate(names)
                   if nm.startswith("dataset.")]
    mask = ((parent_name == names.index("cli.cmd_prepare"))
            & np.isin(a["name"], dataset_ids))
    prepare_s = float((a["end"] - a["start"])[mask].sum())

    # Epochs the report's search candidates went through: candidate c has
    # min(trigger, epochs) warm-up epochs; a run without a trigger is all
    # warm-up (BPR-only) epochs. Warm-up prefixes repeat across
    # candidates, so the distinct warm-up work is the longest prefix.
    # trainer.train_epoch.calls counts the epochs actually trained.
    warm, joint, longest = 0, 0, 0
    for cand in report["warmup"]["candidates"]:
        epochs = cand["stopped_epoch"] + 1
        trig = cand["trigger_epoch"]
        w = epochs if trig is None else min(trig, epochs)
        warm, joint, longest = warm + w, joint + epochs - w, max(longest, w)

    def value_or_minus_one(v):
        return -1 if v is None else v

    probes = summary["counts"]["dataset.InteractionGraph.has_edge"]
    computed = {
        "dataset.prepare.s": prepare_s,
        "dataset.negative.accept_ratio":
            calls.get("dataset.sample_negative", 0) / probes if probes
            else 0.0,
        "backbone.Propagator.builds": calls["backbone.Propagator.build"],
        "triplet_forge.coverage":
            float(np.mean(coverage)) if coverage else 0.0,
        "warmup.trigger_epoch":
            value_or_minus_one(report["warmup"]["resolved_trigger"]),
        "warmup.dynamic_estimate":
            value_or_minus_one(report["warmup"]["dynamic_estimate"]),
        "trainer.epochs.warmup": warm,
        "trainer.epochs.joint": joint,
        "trainer.epochs.warmup_distinct": longest,
        "trainer.search.distinct_epoch_ratio":
            (joint + longest) / (warm + joint),
        "cli.train.self_s": entry_self.get("cli.cmd_train", 0.0),
        "cli.eval.self_s": entry_self.get("cli.cmd_eval", 0.0),
        "trace.spans": summary["spans"],
        "src.lines": src_lines(ROOT),
    }
    # A function a later version drops reads as 0 calls and 0 seconds.
    metrics = {}
    for name in PER_LAYER:
        if name in computed:
            metrics[name] = computed[name]
        elif name.endswith(".self_s"):
            metrics[name] = layer_self.get(name[:-len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            metrics[name] = calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".s"):
            metrics[name] = secs.get(name[:-len(".s")], 0.0)
    return metrics


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        mods = import_program()
    except (RunFailed, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / (f"{workload.name}-seed{args.seed}-"
                        f"trace{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    units = PER_LAYER if args.trace else END_TO_END
    cli = Cli(mods["cli"])
    metrics, samples, problem = {}, {}, None
    try:
        count = 1 if args.trace else workload.replicas
        replicas = [Replica(workload, args.seed, r, work / f"r{r}", mods, cli)
                    for r in range(count)]
        if args.trace:
            metrics, samples = traced_run(replicas[0])
        else:
            metrics, samples = timed_run(replicas, args.seconds)
        if set(metrics) != set(units):
            raise RunFailed(f"metric set mismatch: "
                            f"{sorted(set(metrics) ^ set(units))}")
    except RunFailed as exc:
        problem = str(exc)
        print(f"perfbench: {problem}", file=sys.stderr)
    # A run that fails before its first command counts as one failed
    # attempt, so that "attempted" is never 0.
    attempted, failed = ((cli.attempted, cli.failed) if cli.attempted
                         else (1, 1))
    result = {
        "correct": problem is None and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    info = {"workload": workload.name, "seed": args.seed,
            "trace": args.trace, "env": environment(), "samples": samples,
            "problem": problem}
    (work / "result.json").write_text(
        json.dumps({"info": info, "result": result}, indent=2) + "\n",
        encoding="utf-8")
    for replica in work.glob("r*"):
        for name in ("raw", "bundle"):
            shutil.rmtree(replica / name, ignore_errors=True)
        for path in replica.glob("report-*.ckpt"):
            path.unlink()
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

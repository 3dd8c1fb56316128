"""Compare the outputs of two mdvt checkouts, file by file.

Usage (from the repository root):

    python3 tools/compare_outputs.py OLD_CHECKOUT NEW_CHECKOUT --work DIR

Both checkouts run the same commands on the same inputs, each command in
a fresh ``python -m mdvt.cli`` process with that checkout's ``src/`` on
``PYTHONPATH`` and BLAS pinned to one thread:

* ``prepare`` of every perfbench input set (all three workloads, seeds
  0-2, every replica), generated once by ``perfbench.workloads`` of this
  checkout, plus one search-small set with 40 one-interaction users added
  (some become cold users);
* ``train`` with the workload's perfbench config, then ``eval --k 5 10
  20 --out``, on every set;
* the same ``train`` and ``eval`` for every entry of ``VARIANTS`` on the
  seed-0, replica-0 set of each workload;
* a 4-cell ``sweep --workers 2`` on the seed-0 search-small set.

Every output file is compared: bundles, reports (less
``wall_clock_seconds``), checkpoints, eval files, sweep cells and
summaries, and each command's exit code, stdout and stderr (stderr lines
sorted for the two-worker sweep, whose cells log side by side). The tool
prints every file that differs or exists on one side only, and exits 1
if any does. ``VARIANTS`` is the one list of what "byte-identical
outputs" covers.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.workloads import WORKLOADS, generate  # noqa: E402

SEEDS = (0, 1, 2)

# Config overrides, each trained on the seed-0, replica-0 set of every
# workload: every strategy, constructor, norm, readout, score mode and
# ablation flag, plus lam 0 and weight decay.
VARIANTS = {
    "static": {"strategy": "static", "static_set": [0, 1, 3]},
    "dynamic": {"strategy": "dynamic"},
    "hybrid": {"strategy": "hybrid", "s": 1},
    "disabled": {"mdvt_enabled": False},
    "lam_0": {"lam": 0.0},
    "threshold": {"constructor": "threshold", "sim_threshold": 0.5},
    "threshold_topn": {"constructor": "threshold_topn",
                       "sim_threshold": 0.5},
    "interval": {"constructor": "interval", "sim_threshold": 0.6,
                 "n_floor": 1, "top_n": 3},
    "freq_f1": {"constructor": "freq_f1"},
    "freq_f2": {"constructor": "freq_f2"},
    "sym_mean_2": {"norm": "sym", "readout": "mean", "num_layers": 2},
    "layers_0": {"num_layers": 0},
    "fused": {"score_mode": "fused"},
    "fused_wo_aggr": {"score_mode": "fused", "wo_aggr": True,
                      "lam": 1.0},
    "wo_aggr": {"wo_aggr": True},
    "wo_scale": {"wo_scale": True},
    "include_seen": {"include_seen": True},
    "per_distinct_user": {"per_distinct_user": True},
    "mask_visual": {"modality_mask": ["visual"]},
    "mask_repeat": {"modality_mask": ["visual", "id", "visual"]},
    "weight_decay": {"weight_decay": 0.001},
}

SWEEP_GRID = {"lam": [0.1, 0.2], "top_n": [1, 2]}
COLD_USERS = 40


def input_sets(work: Path) -> dict[str, tuple[str, int, Path]]:
    """Generate every input set once; tag -> (workload, seed, directory)."""
    sets = {}
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            for replica in range(workload.replicas):
                tag = f"{name}-s{seed}-r{replica}"
                generate(workload, seed, replica, work / "inputs" / tag)
                sets[tag] = (name, seed, work / "inputs" / tag)
    # Users with one interaction each, on existing items: the split puts
    # some of them outside train, so they are cold.
    cold = work / "inputs" / "search-small-cold"
    raw = generate(WORKLOADS["search-small"], 0, 0, cold)
    lines = raw.interactions.read_text(encoding="utf-8").splitlines()
    with raw.interactions.open("a", encoding="utf-8") as out:
        out.writelines(f"cold{k}\t{line.split()[1]}\n"
                       for k, line in enumerate(lines[:COLD_USERS]))
    sets["search-small-cold"] = ("search-small", 0, cold)
    return sets


def commands(sets: dict[str, tuple[str, int, Path]]) -> list[tuple]:
    """Every command as ``(tag, argv, files, sort_stderr)``, where
    ``files`` maps each JSON input the command reads to its content; paths
    are relative to the side's output directory."""
    out = []
    for tag, (name, seed, raw) in sets.items():
        features = [f"--feature={m}=../inputs/{raw.name}/{m}.feat"
                    for m, _, _ in WORKLOADS[name].modalities]
        out.append((f"{tag}/prepare", ["prepare", "--interactions",
                    f"../inputs/{raw.name}/interactions.tsv", *features,
                    "--out", f"{tag}/bundle"], {}, False))
        base = {**WORKLOADS[name].config, "seed": seed}
        runs = {"config": base}
        if tag.endswith("-s0-r0"):
            runs.update({v: {**base, **o} for v, o in VARIANTS.items()})
        for run, config in runs.items():
            at = f"{tag}/{run}"
            out.append((f"{at}/train", ["train", "--bundle", f"{tag}/bundle",
                        "--config", f"{at}/config.json",
                        "--out", f"{at}/run.json"],
                        {f"{at}/config.json": config}, False))
            out.append((f"{at}/eval", ["eval", "--bundle", f"{tag}/bundle",
                        "--checkpoint", f"{at}/run.ckpt",
                        "--k", "5", "10", "20", "--out", f"{at}/eval.json"],
                        {}, False))
    tag = "search-small-s0-r0"
    at = f"{tag}/sweep"
    out.append((f"{at}/sweep", ["sweep", "--bundle", f"{tag}/bundle",
                "--config", f"{at}/config.json", "--grid", f"{at}/grid.json",
                "--out", f"{at}/out", "--workers", "2"],
                {f"{at}/config.json": {**WORKLOADS["search-small"].config,
                                       "seed": 0},
                 f"{at}/grid.json": SWEEP_GRID}, True))
    return out


def run_side(checkout: Path, side: Path, cmds: list[tuple]) -> None:
    """Run every command with ``checkout``'s mdvt, one process each."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"),
           "PYTHONHASHSEED": "0"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    side.mkdir(parents=True)
    for tag, argv, files, sort_stderr in cmds:
        for rel, content in files.items():
            (side / rel).parent.mkdir(parents=True, exist_ok=True)
            (side / rel).write_text(json.dumps(content), encoding="utf-8")
        done = subprocess.run([sys.executable, "-m", "mdvt.cli", *argv],
                              cwd=side, env=env, capture_output=True,
                              text=True)
        stderr = done.stderr.splitlines(keepends=True)
        log = side / f"{tag}.log"
        log.parent.mkdir(parents=True, exist_ok=True)
        log.write_text(f"exit {done.returncode}\n--- stdout\n{done.stdout}"
                       "--- stderr\n"
                       + "".join(sorted(stderr) if sort_stderr else stderr),
                       encoding="utf-8")


def comparable(path: Path) -> bytes:
    """A file's bytes, less ``wall_clock_seconds`` in a train report."""
    data = path.read_bytes()
    if path.suffix == ".json":
        try:
            report = json.loads(data)
        except ValueError:
            return data
        if isinstance(report, dict) and "wall_clock_seconds" in report:
            del report["wall_clock_seconds"]
            return json.dumps(report, sort_keys=True).encode()
    return data


def differences(old: Path, new: Path) -> tuple[int, list[str]]:
    """The number of files compared, and each that differs or is missing
    on one side."""
    files = {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
    files |= {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    out = []
    for rel in sorted(files):
        a, b = old / rel, new / rel
        if not (a.is_file() and b.is_file()):
            out.append(f"{rel} (only in {'new' if b.is_file() else 'old'})")
        elif comparable(a) != comparable(b):
            out.append(str(rel))
    return len(files), out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path, help="first checkout")
    parser.add_argument("new", type=Path, help="second checkout")
    parser.add_argument("--work", type=Path, required=True,
                        help="empty or absent directory for inputs and "
                             "outputs")
    args = parser.parse_args()
    work = args.work.resolve()
    if work.exists() and any(work.iterdir()):
        parser.error(f"--work {work} is not empty")
    cmds = commands(input_sets(work))
    sides = [work / "old", work / "new"]
    # One thread per side; each runs its commands one after another.
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        list(pool.map(run_side, [args.old.resolve(), args.new.resolve()],
                      sides, [cmds, cmds]))
    count, differ = differences(*sides)
    print(f"{len(cmds)} commands a side, {count} files compared, "
          f"{len(differ)} differ")
    for line in differ:
        print(f"  {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

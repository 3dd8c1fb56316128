"""Command-line surface: prepare / train / sweep / eval.

Exit codes: 0 ok, 1 config, 2 data, 3 checkpoint, 4 runtime.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import logging
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__, trainer
from .dataset import (load_bundle, load_interactions, load_modality_features,
                      save_bundle, split_dataset, write_atomic,
                      ModalityBundle)
from .errors import CheckpointError, ConfigError, DataError, MdvtError
from .trainer import RunConfig

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mdvt", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="ingest interactions and features "
                                       "into a dataset bundle")
    p.add_argument("--interactions", required=True,
                   help="user<TAB>item text file")
    p.add_argument("--feature", action="append", default=[],
                   metavar="NAME=PATH",
                   help="modality feature file (repeatable)")
    p.add_argument("--out", required=True, help="bundle output directory")
    p.add_argument("--seed", type=int, default=0, help="split seed")

    p = sub.add_parser("train", help="run a warm-up strategy search and "
                                     "write a run report")
    p.add_argument("--bundle", required=True)
    p.add_argument("--config", required=True, help="JSON run config")
    p.add_argument("--out", required=True, help="run report path (JSON)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")

    p = sub.add_parser("sweep", help="grid sweep over config values")
    p.add_argument("--bundle", required=True)
    p.add_argument("--config", required=True, help="base JSON config")
    p.add_argument("--grid", required=True,
                   help="JSON mapping config keys to value lists")
    p.add_argument("--out", required=True, help="sweep output directory")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--resume", action="store_true",
                   help="skip cells whose report already exists")

    p = sub.add_parser("eval", help="test metrics for a saved checkpoint")
    p.add_argument("--bundle", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--k", type=int, nargs="+", default=[5, 10])
    p.add_argument("--out", default=None, help="optional JSON output path")
    return parser


def _read_json(path: str, what: str):
    """Parse a JSON input file; ConfigError naming the file if it is
    missing, not UTF-8 or not JSON."""
    file = Path(path)
    if not file.exists():
        raise ConfigError(f"{what} file not found: {file}")
    try:
        return json.loads(file.read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise ConfigError(f"{what} file {file} is not valid UTF-8 JSON: "
                          f"{exc}") from exc


def _load_config(path: str, seed_override: int | None = None) -> RunConfig:
    data = _read_json(path, "config")
    if not isinstance(data, dict):
        raise ConfigError("config JSON must be an object of flat keys")
    config = RunConfig.from_dict(data)
    if seed_override is not None:
        config = dataclasses.replace(config, seed=seed_override)
    return config


def cmd_prepare(args) -> int:
    interactions = load_interactions(args.interactions)
    split = split_dataset(interactions, args.seed)
    features = {}
    names = ["id"]
    for spec in args.feature:
        if "=" not in spec:
            raise ConfigError(f"--feature must be NAME=PATH, got {spec!r}")
        name, path = spec.split("=", 1)
        if name == "id":
            raise ConfigError('"id" is implicit and carries no feature file')
        features[name] = load_modality_features(
            path, name, interactions.num_items,
            item_index=interactions.item_index)
        names.append(name)
    modalities = ModalityBundle(tuple(names), features,
                                num_items=interactions.num_items)
    stats = save_bundle(args.out, split, modalities,
                        interactions.duplicates_dropped)
    print(json.dumps(stats, sort_keys=True, indent=2))
    return 0


def build_run_report(bundle_stats: dict, config: RunConfig,
                     warnings: list[str], result: trainer.SearchResult,
                     test_metrics, wall_clock: float) -> dict:
    return {
        "tool_version": __version__,
        "config": config.to_dict(),
        "config_warnings": warnings,
        "dataset": {
            "num_users": bundle_stats["num_users"],
            "num_items": bundle_stats["num_items"],
            "num_interactions": bundle_stats["num_interactions"],
            "sparsity": bundle_stats["sparsity"],
        },
        "warmup": {
            "strategy": result.strategy,
            "candidates": result.candidates,
            "resolved_trigger": result.resolved_trigger,
            "dynamic_estimate": result.dynamic_estimate,
        },
        "history": result.best_history.to_dict(),
        "metrics": {
            "validation": result.best_validation.to_dict(),
            "test": test_metrics.to_dict(),
        },
        "wall_clock_seconds": wall_clock,
    }


def _execute_train(bundle_dir: str, config: RunConfig, out_path: str) -> dict:
    start = time.perf_counter()
    bundle = load_bundle(bundle_dir)
    warnings = config.off_grid_warnings()
    for message in warnings:
        log.warning("config: %s", message)
    result = trainer.run_strategy_search(bundle, config)
    test_metrics = trainer.evaluate_split(result.best_state, bundle,
                                          result.best_config, "test",
                                          with_buckets=True)
    report = build_run_report(bundle.stats, config, warnings, result,
                              test_metrics,
                              time.perf_counter() - start)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(out, json.dumps(report, sort_keys=True, indent=2) + "\n")
    trainer.save_checkpoint(out.with_suffix(".ckpt"), result.best_state,
                            result.best_config, bundle.fingerprint)
    return report


def cmd_train(args) -> int:
    config = _load_config(args.config, args.seed)
    report = _execute_train(args.bundle, config, args.out)
    test = report["metrics"]["test"]
    print(f"test recall@10={test['recall']['10']:.6f} "
          f"ndcg@10={test['ndcg']['10']:.6f} "
          f"(report: {args.out})")
    return 0


def _sweep_cell(bundle_dir: str, config_dict: dict, out_path: str) -> dict:
    config = RunConfig.from_dict(config_dict)
    return _execute_train(bundle_dir, config, out_path)


def _summary_row(overrides: dict, config: RunConfig, report: dict,
                 resumed: bool) -> dict:
    return {
        "config_hash": config.config_hash()[:16],
        "overrides": overrides,
        "val_ndcg10": report["metrics"]["validation"]["ndcg"]["10"],
        "val_recall10": report["metrics"]["validation"]["recall"]["10"],
        "test_ndcg10": report["metrics"]["test"]["ndcg"]["10"],
        "test_recall10": report["metrics"]["test"]["recall"]["10"],
        "resumed": resumed,
    }


def cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1 (got {args.workers})")
    base = _load_config(args.config)
    grid = _read_json(args.grid, "grid")
    if not isinstance(grid, dict) or not grid:
        raise ConfigError("grid must be a non-empty JSON object")
    for key, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid values for {key!r} must be a "
                              "non-empty list")

    keys = sorted(grid)
    cells = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        overrides = dict(zip(keys, combo))
        cfg_dict = base.to_dict()
        cfg_dict.update(overrides)
        config = RunConfig.from_dict(cfg_dict)
        cells.append((overrides, config))

    out_dir = Path(args.out)
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    pending, summary = [], []
    for overrides, config in cells:
        cell_path = runs_dir / f"cell-{config.config_hash()[:16]}.json"
        if args.resume and cell_path.exists():
            try:
                report = json.loads(cell_path.read_text(encoding="utf-8"))
                summary.append(_summary_row(overrides, config, report, True))
                continue
            except (ValueError, KeyError, TypeError) as exc:
                log.warning("%s is unreadable (%r); running the cell again",
                            cell_path, exc)
        pending.append((overrides, config, cell_path))

    if args.workers > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            futures = [
                (overrides, config, pool.submit(
                    _sweep_cell, args.bundle, config.to_dict(),
                    str(cell_path)))
                for overrides, config, cell_path in pending]
            for overrides, config, fut in futures:
                summary.append(_summary_row(overrides, config, fut.result(),
                                            False))
    else:
        for overrides, config, cell_path in pending:
            report = _sweep_cell(args.bundle, config.to_dict(),
                                 str(cell_path))
            summary.append(_summary_row(overrides, config, report, False))

    summary.sort(key=lambda r: (-r["val_ndcg10"], r["config_hash"]))
    write_atomic(out_dir / "summary.json",
                 json.dumps(summary, sort_keys=True, indent=2) + "\n")
    table = io.StringIO(newline="")
    writer = csv.writer(table)
    writer.writerow(["config_hash", "overrides", "val_ndcg10",
                     "val_recall10", "test_ndcg10", "test_recall10",
                     "resumed"])
    for row in summary:
        writer.writerow([row["config_hash"],
                         json.dumps(row["overrides"], sort_keys=True),
                         row["val_ndcg10"], row["val_recall10"],
                         row["test_ndcg10"], row["test_recall10"],
                         row["resumed"]])
    write_atomic(out_dir / "summary.csv", table.getvalue())
    print(f"{len(summary)} cells "
          f"({sum(1 for r in summary if r['resumed'])} resumed); "
          f"best val ndcg@10={summary[0]['val_ndcg10']:.6f}")
    return 0


def cmd_eval(args) -> int:
    config, stored_fp, tables = trainer.load_checkpoint(args.checkpoint)
    bundle = load_bundle(args.bundle)
    if stored_fp != bundle.fingerprint:
        raise CheckpointError(
            f"checkpoint was trained on a different bundle "
            f"(stored {stored_fp[:12]}, bundle {bundle.fingerprint[:12]})")
    state = trainer.state_from_tables(tables, config.embed_dim,
                                      config.modality_mask)
    ks = tuple(sorted(set(args.k)))
    metrics = trainer.evaluate_split(state, bundle, config, "test",
                                     with_buckets=True, ks=ks)
    payload = metrics.to_dict()
    for k in ks:
        print(f"recall@{k}={payload['recall'][str(k)]:.6f} "
              f"ndcg@{k}={payload['ndcg'][str(k)]:.6f}")
    for bucket in payload["buckets"]:
        hi = bucket["hi"] if bucket["hi"] is not None else "+"
        print(f"bucket [{bucket['lo']}-{hi}] users={bucket['count']}")
    if args.out:
        write_atomic(args.out,
                     json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "prepare": cmd_prepare,
            "train": cmd_train,
            "sweep": cmd_sweep,
            "eval": cmd_eval,
        }[args.command]
        return handler(args)
    except MdvtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())

import csv
import dataclasses
import hashlib
import json
import os
import pathlib
import resource
import shutil
import signal
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import write_raw_features
from mdvt import backbone, dataset, objective, trainer
from mdvt.cli import main
from mdvt.dataset import load_bundle, load_interactions, write_atomic
from mdvt.errors import DataError
from mdvt.trainer import load_checkpoint, save_checkpoint, state_from_tables


def write_interactions(path, num_users=12, num_items=10, per_user=4,
                       seed=5):
    rng = np.random.default_rng(seed)
    lines = []
    for u in range(num_users):
        items = rng.choice(num_items, size=per_user, replace=False)
        for i in items:
            lines.append(f"user{u}\titem{i}\n")
    path.write_text("".join(lines), encoding="utf-8")
    return num_items


def prepare_bundle(tmp_path, with_features=True, seed=7):
    tmp_path.mkdir(parents=True, exist_ok=True)
    inter = tmp_path / "interactions.tsv"
    num_items = write_interactions(inter)
    argv = ["prepare", "--interactions", str(inter),
            "--out", str(tmp_path / "bundle"), "--seed", str(seed)]
    if with_features:
        rng = np.random.default_rng(1)
        feat_path = tmp_path / "visual.feat"
        item_ids = [f"item{i}" for i in range(num_items)]
        write_raw_features(feat_path,
                           rng.normal(size=(num_items, 4)).astype(np.float32),
                           item_ids=item_ids)
        argv += ["--feature", f"visual={feat_path}"]
    assert main(argv) == 0
    return tmp_path / "bundle"


def base_config(tmp_path, **overrides):
    config = {
        "embed_dim": 4, "num_layers": 1, "lam": 0.2, "top_n": 2,
        "batch_size": 16, "learning_rate": 0.05, "max_epochs": 4,
        "patience": 4, "seed": 3, "strategy": "dynamic", "g": 0.2,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


FORKING = dict(strategy="hybrid", s=2, max_epochs=8, patience=8)


def train_outputs(out) -> tuple[str, bytes]:
    """A run's report less its wall clock, and its checkpoint bytes."""
    report = json.loads(out.read_text(encoding="utf-8"))
    report.pop("wall_clock_seconds")
    return json.dumps(report, sort_keys=True), \
        out.with_suffix(".ckpt").read_bytes()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Characters that str.splitlines breaks lines on, other than \n and \r:
# a raw id may hold them.
LINE_BREAKING = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                 "\u2029"]

REPORT_FIELDS = {"tool_version", "config", "config_warnings", "dataset",
                 "warmup", "history", "metrics", "wall_clock_seconds"}


class TestPrepare:
    def test_toy_bundle_stats(self, tmp_path, capsys):
        inter = tmp_path / "toy.tsv"
        inter.write_text("a\tx\na\ty\nb\tx\nb\ty\nc\tx\nc\ty\n"
                         "d\tx\nd\ty\ne\tx\ne\ty\n", encoding="utf-8")
        assert main(["prepare", "--interactions", str(inter),
                     "--out", str(tmp_path / "b"), "--seed", "0"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["num_users"] == 5
        assert stats["num_items"] == 2

    def test_missing_feature_file_exit_2(self, tmp_path, capsys):
        inter = tmp_path / "toy.tsv"
        write_interactions(inter)
        missing = tmp_path / "none.feat"
        code = main(["prepare", "--interactions", str(inter),
                     "--feature", f"visual={missing}",
                     "--out", str(tmp_path / "b")])
        assert code == 2
        assert str(missing) in single_error_line(capsys)

    def test_interrupted_rewrite_leaves_no_stats_json(self, tmp_path,
                                                      monkeypatch, capsys):
        # A re-prepare with another seed that fails after train.tsv must not
        # leave the old stats.json beside the new split.
        bundle = prepare_bundle(tmp_path)
        write_tsv = dataset._write_tsv

        def failing(path, part):
            if path.name == "val.tsv":
                raise OSError(28, "No space left on device")
            write_tsv(path, part)

        monkeypatch.setattr(dataset, "_write_tsv", failing)
        assert main(["prepare", "--interactions",
                     str(tmp_path / "interactions.tsv"),
                     "--out", str(bundle), "--seed", "1"]) == 2
        monkeypatch.undo()
        assert not (bundle / "stats.json").exists()
        capsys.readouterr()
        assert main(["train", "--bundle", str(bundle), "--config",
                     str(base_config(tmp_path)),
                     "--out", str(tmp_path / "run.json")]) == 2
        assert "missing stats.json" in single_error_line(capsys)

    @pytest.mark.parametrize("char", LINE_BREAKING,
                             ids=[f"U+{ord(c):04X}" for c in LINE_BREAKING])
    def test_ids_round_trip(self, tmp_path, char):
        # Through the raw file, the feature sidecar and the id tables.
        inter = tmp_path / "toy.tsv"
        write_interactions(inter)
        inter.write_text(inter.read_text(encoding="utf-8").replace(
            "0\t", f"{char}0\t").replace("m1", f"m{char}1"),
            encoding="utf-8")
        raw = load_interactions(inter)
        assert any(char in i for i in raw.user_ids) and \
            any(char in i for i in raw.item_ids)
        feat = tmp_path / "visual.feat"
        matrix = np.arange(raw.num_items * 2, dtype=np.float32).reshape(-1, 2)
        write_raw_features(feat, matrix, item_ids=raw.item_ids[::-1])
        assert main(["prepare", "--interactions", str(inter),
                     "--feature", f"visual={feat}",
                     "--out", str(tmp_path / "bundle")]) == 0
        bundle = load_bundle(tmp_path / "bundle")
        assert bundle.split.train.user_ids == raw.user_ids
        assert bundle.split.train.item_ids == raw.item_ids
        assert np.array_equal(bundle.features["visual"],
                              matrix[::-1])
        assert main(["train", "--bundle", str(tmp_path / "bundle"),
                     "--config", str(base_config(tmp_path)),
                     "--out", str(tmp_path / "run.json")]) == 0

    def test_rerun_byte_identical(self, tmp_path):
        bundle_a = prepare_bundle(tmp_path / "a")
        bundle_b = prepare_bundle(tmp_path / "b")
        for name in ("stats.json", "train.tsv", "val.tsv", "test.tsv",
                     "users.txt", "items.txt"):
            assert (bundle_a / name).read_bytes() == \
                (bundle_b / name).read_bytes()

    def test_bundle_text_is_written_with_bare_newlines(self, tmp_path,
                                                       monkeypatch):
        # Text mode on Windows writes each "\n" as "\r\n", and a split file
        # holding "\r" does not load. With write_text doing the same here,
        # the raw interactions file is CRLF and no bundle file may be.
        write_text = pathlib.Path.write_text

        def crlf(self, data, encoding=None, errors=None, newline=None):
            if newline is None:
                data = data.replace("\n", "\r\n")
            return write_text(self, data, encoding, errors, newline)

        monkeypatch.setattr(pathlib.Path, "write_text", crlf)
        bundle = prepare_bundle(tmp_path)
        assert b"\r\n" in (tmp_path / "interactions.tsv").read_bytes()
        for name in ("stats.json", "train.tsv", "val.tsv", "test.tsv",
                     "users.txt", "items.txt", "../visual.feat.ids"):
            data = (bundle / name).read_bytes()
            assert b"\n" in data and b"\r" not in data, name
        assert load_bundle(bundle).split.train.user_ids[0] == "user0"

    def test_negative_seed_exit_1(self, tmp_path, capsys):
        inter = tmp_path / "toy.tsv"
        write_interactions(inter)
        assert main(["prepare", "--interactions", str(inter),
                     "--out", str(tmp_path / "b"), "--seed", "-1"]) == 1
        assert "seed" in single_error_line(capsys)
        assert not (tmp_path / "b").exists()

    def test_missing_interactions_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "none.tsv"
        assert main(["prepare", "--interactions", str(missing),
                     "--out", str(tmp_path / "b")]) == 2
        assert str(missing) in single_error_line(capsys)

    def test_non_utf8_interactions_exit_2(self, tmp_path, capsys):
        inter = tmp_path / "x.tsv"
        inter.write_bytes(b"\xff\xfeu1\ti1\n")
        assert main(["prepare", "--interactions", str(inter),
                     "--out", str(tmp_path / "b")]) == 2
        assert "x.tsv: not UTF-8" in single_error_line(capsys)

    def prepare_with_sidecar(self, tmp_path, matrix, sidecar: bytes):
        inter = tmp_path / "toy.tsv"
        num_items = write_interactions(inter)
        feat = tmp_path / "visual.feat"
        write_raw_features(feat, matrix(num_items))
        (tmp_path / "visual.feat.ids").write_bytes(sidecar)
        return main(["prepare", "--interactions", str(inter),
                     "--feature", f"visual={feat}",
                     "--out", str(tmp_path / "b")])

    def test_non_utf8_sidecar_exit_2(self, tmp_path, capsys):
        ids = "".join(f"item{i}\n" for i in range(9)).encode() + b"\xff\n"
        assert self.prepare_with_sidecar(
            tmp_path, lambda n: np.ones((n, 2), np.float32), ids) == 2
        assert "visual.feat.ids: not UTF-8" in single_error_line(capsys)

    def test_zero_column_features_exit_2(self, tmp_path, capsys):
        ids = "".join(f"item{i}\n" for i in range(10)).encode()
        assert self.prepare_with_sidecar(
            tmp_path, lambda n: np.ones((n, 0), np.float32), ids) == 2
        assert "no feature columns" in single_error_line(capsys)

    def test_repeated_feature_name_exit_1(self, tmp_path, capsys):
        inter = tmp_path / "toy.tsv"
        num_items = write_interactions(inter)
        feat = tmp_path / "visual.feat"
        ids = [f"item{i}" for i in range(num_items)]
        write_raw_features(feat, np.ones((num_items, 2), np.float32),
                           item_ids=ids)
        capsys.readouterr()
        assert main(["prepare", "--interactions", str(inter),
                     "--feature", f"visual={feat}",
                     "--feature", f"visual={feat}",
                     "--out", str(tmp_path / "b")]) == 1
        assert "--feature 'visual' given twice" in single_error_line(capsys)
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("name", ["", "a/b", "id", "a\0b"])
    def test_bad_feature_name_exit_1(self, tmp_path, capsys, name):
        # Checked before any input is read: neither input exists.
        capsys.readouterr()
        assert main(["prepare", "--interactions", str(tmp_path / "no.tsv"),
                     "--feature", f"{name}={tmp_path / 'no.feat'}",
                     "--out", str(tmp_path / "b")]) == 1
        assert "path separator" in single_error_line(capsys)
        assert not (tmp_path / "b").exists()

    def test_repeated_sidecar_id_exit_2(self, tmp_path, capsys):
        ids = "".join(f"item{i}\n" for i in (0, 1, 2, 1, 4, 5, 6, 7, 8, 9))
        assert self.prepare_with_sidecar(
            tmp_path, lambda n: np.ones((n, 2), np.float32),
            ids.encode()) == 2
        assert "visual.feat.ids:4: duplicate item id 'item1'" in \
            single_error_line(capsys)


class TestTrain:
    def test_report_schema_and_checkpoint(self, tmp_path):
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path)
        out = tmp_path / "run.json"
        assert main(["train", "--bundle", str(bundle),
                     "--config", str(config), "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert set(report) == REPORT_FIELDS
        assert set(report["dataset"]) == {"num_users", "num_items",
                                          "num_interactions", "sparsity"}
        assert set(report["warmup"]) == {"strategy", "candidates",
                                         "resolved_trigger",
                                         "dynamic_estimate"}
        assert set(report["metrics"]) == {"validation", "test"}
        assert set(report["history"]) == {"l_bpr", "l_vbpr", "l_total",
                                          "val_recall", "val_ndcg",
                                          "trigger_epoch", "best_epoch",
                                          "stopped_epoch"}
        assert (tmp_path / "run.ckpt").exists()

    def test_report_parent_is_a_file_fails_before_training(
            self, tmp_path, monkeypatch, capsys):
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path)
        trained, train_epoch = [], trainer.train_epoch

        def counted(*args, **kwargs):
            trained.append(1)
            return train_epoch(*args, **kwargs)

        monkeypatch.setattr(trainer, "train_epoch", counted)
        capsys.readouterr()
        assert main(["train", "--bundle", str(bundle), "--config",
                     str(config), "--out", str(config / "run.json")]) == 2
        assert "File exists" in single_error_line(capsys)
        assert trained == []

    def test_unknown_config_key_exit_1(self, tmp_path):
        bundle = prepare_bundle(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lmabda": 0.1}), encoding="utf-8")
        assert main(["train", "--bundle", str(bundle),
                     "--config", str(config),
                     "--out", str(tmp_path / "o.json")]) == 1

    def test_invalid_value_exit_1(self, tmp_path):
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path, lam=1.5)
        assert main(["train", "--bundle", str(bundle),
                     "--config", str(config),
                     "--out", str(tmp_path / "o.json")]) == 1

    @pytest.mark.parametrize("key, value, expected", [
        ("lam", "0.2", "a number"),
        ("embed_dim", 8.5, "a whole number"),
        ("static_set", 5, "a list of whole numbers"),
        ("eval_ks", [10, "5"], "a list of whole numbers"),
        ("top_n", True, "a whole number"),
        ("modality_mask", "visual", "a list of strings or null"),
    ])
    def test_wrong_type_exit_1(self, tmp_path, capsys, key, value,
                               expected):
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path, **{key: value})
        capsys.readouterr()
        assert main(["train", "--bundle", str(bundle),
                     "--config", str(config),
                     "--out", str(tmp_path / "o.json")]) == 1
        line = single_error_line(capsys)
        assert f"{key!r} must be {expected}" in line

    @pytest.mark.parametrize("key, overrides", [
        ("learning_rate", {"learning_rate": float("nan")}),
        ("learning_rate", {"learning_rate": float("inf")}),
        ("weight_decay", {"weight_decay": float("nan")}),
        ("weight_decay", {"weight_decay": -5.0}),
        ("n_floor", {"constructor": "interval", "sim_threshold": 0.5,
                     "n_floor": -2}),
        ("n_cap", {"constructor": "interval", "sim_threshold": 0.5,
                   "n_floor": 1, "n_cap": -1}),
        ("static_set", {"strategy": "hybrid", "static_set": [-3]}),
        ("static_set", {"strategy": "static", "static_set": [-3]}),
        ("eval_ks", {"eval_ks": [0, 10]}),
        ("patience", {"patience": 0}),
        ("seed", {"seed": -1}),
    ])
    def test_out_of_range_exit_1(self, tmp_path, capsys, key, overrides):
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path, **overrides)
        capsys.readouterr()
        assert main(["train", "--bundle", str(bundle),
                     "--config", str(config),
                     "--out", str(tmp_path / "o.json")]) == 1
        assert key in single_error_line(capsys)
        assert not (tmp_path / "o.json").exists()

    def test_negative_seed_override_exit_1(self, tmp_path, capsys):
        bundle = prepare_bundle(tmp_path)
        capsys.readouterr()
        assert main(["train", "--bundle", str(bundle),
                     "--config", str(base_config(tmp_path)),
                     "--out", str(tmp_path / "o.json"),
                     "--seed", "-1"]) == 1
        assert "seed" in single_error_line(capsys)

    def test_non_utf8_config_exit_1(self, tmp_path, capsys):
        config = base_config(tmp_path)
        config.write_bytes(b"\xff\xfe" + config.read_bytes())
        capsys.readouterr()
        assert main(["train", "--bundle", str(tmp_path / "bundle"),
                     "--config", str(config),
                     "--out", str(tmp_path / "o.json")]) == 1
        assert "config.json" in single_error_line(capsys)

    def test_int_for_float_kept_as_given(self, tmp_path):
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path, learning_rate=1, weight_decay=0)
        out = tmp_path / "run.json"
        assert main(["train", "--bundle", str(bundle),
                     "--config", str(config), "--out", str(out)]) == 0
        echo = json.loads(out.read_text(encoding="utf-8"))["config"]
        assert echo["learning_rate"] == 1
        assert isinstance(echo["learning_rate"], int)

    def test_failed_write_keeps_old_outputs(self, tmp_path, monkeypatch):
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path)
        out = tmp_path / "run.json"
        argv = ["train", "--bundle", str(bundle), "--config", str(config),
                "--out", str(out)]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.glob("run.*")}
        write_bytes = pathlib.Path.write_bytes

        def torn(self, data):
            write_bytes(self, data[:len(data) // 2])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(pathlib.Path, "write_bytes", torn)
        assert main(argv) == 2
        monkeypatch.undo()
        after = {p.name: p.read_bytes() for p in tmp_path.glob("run.*")}
        assert after == before
        assert not list(tmp_path.glob(".run.*"))

    @pytest.mark.parametrize("failing", ["mdvt.trainer.save_checkpoint",
                                         "mdvt.cli.write_atomic"])
    def test_failed_write_leaves_no_report_of_another_checkpoint(
            self, tmp_path, monkeypatch, failing):
        # A second train into one --out, whose checkpoint (or report)
        # cannot be written: any report left there is that of the
        # checkpoint beside it.
        bundle = prepare_bundle(tmp_path)
        out = tmp_path / "run.json"
        argv = ["train", "--bundle", str(bundle), "--out", str(out),
                "--config"]
        assert main(argv + [str(base_config(tmp_path, lam=0.5))]) == 0

        def full_disk(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(failing, full_disk)
        assert main(argv + [str(base_config(tmp_path, lam=0.1))]) == 2
        monkeypatch.undo()
        config, _, _ = load_checkpoint(out.with_suffix(".ckpt"))
        if failing.endswith("save_checkpoint"):  # the old pair stays
            report = json.loads(out.read_text(encoding="utf-8"))
            assert report["config"] == config.to_dict()
            assert config.lam == 0.5
        else:  # the new checkpoint, and no report
            assert config.lam == 0.1 and not out.exists()

    def test_off_grid_lambda_warns_but_runs(self, tmp_path):
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path, lam=0.7)
        out = tmp_path / "run.json"
        assert main(["train", "--bundle", str(bundle),
                     "--config", str(config), "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert any("lam" in w for w in report["config_warnings"])

    def test_warmup_candidate_key_exit_1(self, tmp_path, capsys):
        # The strategy search picks the trigger: neither a config nor a
        # sweep grid sets it.
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path, warmup_candidate=3)
        capsys.readouterr()
        assert main(["train", "--bundle", str(bundle), "--config",
                     str(config), "--out", str(tmp_path / "o.json")]) == 1
        assert single_error_line(capsys) == (
            "error: unknown config keys: warmup_candidate")
        config = base_config(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"warmup_candidate": [0, 3]}),
                        encoding="utf-8")
        assert main(["sweep", "--bundle", str(bundle), "--config",
                     str(config), "--grid", str(grid),
                     "--out", str(tmp_path / "s")]) == 1
        assert single_error_line(capsys) == (
            "error: unknown config keys: warmup_candidate")
        assert not (tmp_path / "o.json").exists()
        assert not (tmp_path / "s").exists()

    def test_repeat_identical_modulo_wall_clock(self, tmp_path):
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path)
        reports = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["train", "--bundle", str(bundle),
                         "--config", str(config), "--out", str(out)]) == 0
            report = json.loads(out.read_text(encoding="utf-8"))
            report.pop("wall_clock_seconds")
            reports.append(report)
        assert reports[0] == reports[1]

    def test_validation_ranked_once_per_epoch(self, tmp_path, monkeypatch):
        # The report's validation block is the best epoch's ranking made
        # during training; after the search only the test split is ranked.
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path)
        splits = []
        evaluate = trainer.evaluate_split

        def recorded(*args, **kwargs):
            splits.append(args[3])
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(trainer, "evaluate_split", recorded)
        out = tmp_path / "run.json"
        assert main(["train", "--bundle", str(bundle),
                     "--config", str(config), "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        epochs = report["history"]["stopped_epoch"] + 1
        assert splits == ["validation"] * epochs + ["test"]

    @pytest.mark.parametrize("overrides", [
        dict(strategy="static", static_set=[0, 2]),
        dict(strategy="hybrid", s=1, num_layers=2, readout="mean"),
        dict(strategy="hybrid", s=1, score_mode="fused",
             modality_mask=["id", "visual", "visual"],
             per_distinct_user=True, wo_aggr=True)],
        ids=["static", "hybrid", "hybrid_fused"])
    def test_local_step_same_bytes(self, tmp_path, monkeypatch, overrides):
        # The toy operator sits below the size rule, so training takes the
        # full step; a rule of 0 sends every batch through the local one.
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path, **overrides)
        compact = []
        forward_pass = backbone.forward_pass

        def recorded(*args, **kwargs):
            reps = forward_pass(*args, **kwargs)
            compact.append(reps.rows is not None)
            return reps

        monkeypatch.setattr(backbone, "forward_pass", recorded)
        outputs = []
        for name, rule in (("full", trainer.LOCAL_STEP_MIN_WORK),
                           ("local", 0)):
            monkeypatch.setattr(trainer, "LOCAL_STEP_MIN_WORK", rule)
            compact.clear()
            out = tmp_path / f"{name}.json"
            assert main(["train", "--bundle", str(bundle),
                         "--config", str(config), "--out", str(out)]) == 0
            assert any(compact) == (name == "local")
            outputs.append(train_outputs(out))
        assert outputs[0] == outputs[1]

    def test_seed_override_changes_run(self, tmp_path):
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path)
        outs = []
        for seed, name in ((3, "a.json"), (4, "b.json")):
            out = tmp_path / name
            assert main(["train", "--bundle", str(bundle),
                         "--config", str(config), "--out", str(out),
                         "--seed", str(seed)]) == 0
            outs.append(json.loads(out.read_text(encoding="utf-8")))
        assert outs[0]["config"]["seed"] == 3
        assert outs[1]["config"]["seed"] == 4
        assert outs[0]["history"] != outs[1]["history"]


class TestSweep:
    def test_grid_cells_and_summary(self, tmp_path):
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lam": [0.1, 0.2], "top_n": [2]}),
                        encoding="utf-8")
        out = tmp_path / "sweep"
        assert main(["sweep", "--bundle", str(bundle),
                     "--config", str(config), "--grid", str(grid),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json")
                             .read_text(encoding="utf-8"))
        assert len(summary) == 2
        with open(out / "summary.csv", newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f)
            rows = list(reader)
        assert reader.fieldnames == [
            "config_hash", "overrides", "val_ndcg10", "val_recall10",
            "test_ndcg10", "test_recall10", "resumed"]
        assert [{**row, "overrides": json.loads(row["overrides"]),
                 "resumed": row["resumed"] == "True",
                 **{key: float(row[key]) for key in reader.fieldnames
                    if key.startswith(("val_", "test_"))}}
                for row in rows] == summary
        assert len(list((out / "runs").glob("cell-*.json"))) == 2
        ndcgs = [row["val_ndcg10"] for row in summary]
        assert ndcgs == sorted(ndcgs, reverse=True)

    def test_resume_skips_completed_cells(self, tmp_path):
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lam": [0.1, 0.2]}), encoding="utf-8")
        out = tmp_path / "sweep"
        assert main(["sweep", "--bundle", str(bundle), "--config",
                     str(config), "--grid", str(grid),
                     "--out", str(out)]) == 0
        cells = sorted((out / "runs").glob("cell-*.json"))
        stamps = {c.name: c.stat().st_mtime_ns for c in cells}
        assert main(["sweep", "--bundle", str(bundle), "--config",
                     str(config), "--grid", str(grid), "--out", str(out),
                     "--resume"]) == 0
        summary = json.loads((out / "summary.json")
                             .read_text(encoding="utf-8"))
        assert all(row["resumed"] for row in summary)
        for cell in sorted((out / "runs").glob("cell-*.json")):
            assert stamps[cell.name] == cell.stat().st_mtime_ns

    def test_resume_reruns_a_torn_cell(self, tmp_path, caplog):
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lam": [0.1, 0.2]}), encoding="utf-8")
        out = tmp_path / "sweep"
        argv = ["sweep", "--bundle", str(bundle), "--config", str(config),
                "--grid", str(grid), "--out", str(out)]
        assert main(argv) == 0
        torn, kept = sorted((out / "runs").glob("cell-*.json"))
        whole = json.loads(torn.read_text(encoding="utf-8"))
        torn.write_bytes(torn.read_bytes()[:100])
        assert main(argv + ["--resume"]) == 0
        assert torn.name in caplog.text and "again" in caplog.text
        again = json.loads(torn.read_text(encoding="utf-8"))
        whole.pop("wall_clock_seconds")
        again.pop("wall_clock_seconds")
        assert again == whole
        summary = json.loads((out / "summary.json")
                             .read_text(encoding="utf-8"))
        resumed = {row["config_hash"]: row["resumed"] for row in summary}
        assert resumed == {torn.stem[5:]: False, kept.stem[5:]: True}

    def test_resume_with_another_bundle_retrains(self, tmp_path, caplog):
        bundle = prepare_bundle(tmp_path / "a")
        other = prepare_bundle(tmp_path / "b", seed=9)
        config = base_config(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lam": [0.1, 0.2]}), encoding="utf-8")

        def sweep(bundle, out, *flags):
            assert main(["sweep", "--bundle", str(bundle), "--config",
                         str(config), "--grid", str(grid), "--out", str(out),
                         *flags]) == 0
            return {cell.name: train_outputs(cell)
                    for cell in (out / "runs").glob("cell-*.json")}

        sweep(bundle, tmp_path / "s")
        resumed = sweep(other, tmp_path / "s", "--resume")
        assert resumed == sweep(other, tmp_path / "fresh")
        assert caplog.text.count("different bundle") == 2
        summary = json.loads((tmp_path / "s" / "summary.json")
                             .read_text(encoding="utf-8"))
        assert not any(row["resumed"] for row in summary)

    def test_resume_reruns_a_cell_without_checkpoint(self, tmp_path,
                                                     caplog):
        # A run killed between its report and its checkpoint leaves this.
        bundle = prepare_bundle(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lam": [0.1, 0.2]}), encoding="utf-8")
        out = tmp_path / "sweep"
        argv = ["sweep", "--bundle", str(bundle), "--config",
                str(base_config(tmp_path)), "--grid", str(grid),
                "--out", str(out)]
        assert main(argv) == 0
        lost, kept = sorted((out / "runs").glob("cell-*.json"))
        before = train_outputs(lost)
        lost.with_suffix(".ckpt").unlink()
        assert main(argv + ["--resume"]) == 0
        assert lost.name in caplog.text and "again" in caplog.text
        assert train_outputs(lost) == before
        summary = json.loads((out / "summary.json")
                             .read_text(encoding="utf-8"))
        resumed = {row["config_hash"]: row["resumed"] for row in summary}
        assert resumed == {lost.stem[5:]: False, kept.stem[5:]: True}

    def test_repeated_cell_exit_1(self, tmp_path, capsys):
        bundle = prepare_bundle(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lam": [0.2, 0.1, 0.2]}),
                        encoding="utf-8")
        capsys.readouterr()
        assert main(["sweep", "--bundle", str(bundle), "--config",
                     str(base_config(tmp_path)), "--grid", str(grid),
                     "--out", str(tmp_path / "s")]) == 1
        assert '{"lam": 0.2} and {"lam": 0.2}' in single_error_line(capsys)
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exit_1(self, tmp_path, capsys, workers):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lam": [0.1]}), encoding="utf-8")
        assert main(["sweep", "--bundle", str(tmp_path / "none"),
                     "--config", str(base_config(tmp_path)),
                     "--grid", str(grid), "--out", str(tmp_path / "s"),
                     "--workers", workers]) == 1
        assert "--workers" in single_error_line(capsys)
        assert not (tmp_path / "s").exists()

    def test_empty_grid_exit_1(self, tmp_path):
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text("{}", encoding="utf-8")
        assert main(["sweep", "--bundle", str(bundle), "--config",
                     str(config), "--grid", str(grid),
                     "--out", str(tmp_path / "s")]) == 1

    def test_unknown_grid_key_exit_1(self, tmp_path, capsys):
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"bogus": [1]}), encoding="utf-8")
        capsys.readouterr()
        assert main(["sweep", "--bundle", str(bundle), "--config",
                     str(config), "--grid", str(grid),
                     "--out", str(tmp_path / "s")]) == 1
        assert "unknown config keys: bogus" in single_error_line(capsys)

    @pytest.mark.parametrize("blob", [b"{not json", b'\xff\xfe{"lam": [0.2]}'])
    def test_malformed_grid_exit_1(self, tmp_path, capsys, blob):
        grid = tmp_path / "grid.json"
        grid.write_bytes(blob)
        capsys.readouterr()
        assert main(["sweep", "--bundle", str(tmp_path / "bundle"),
                     "--config", str(base_config(tmp_path)),
                     "--grid", str(grid), "--out", str(tmp_path / "s")]) == 1
        assert "grid.json" in single_error_line(capsys)


class TestEval:
    def test_headline_numbers(self, tmp_path, capsys):
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path)
        out = tmp_path / "run.json"
        assert main(["train", "--bundle", str(bundle), "--config",
                     str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["eval", "--bundle", str(bundle), "--checkpoint",
                     str(tmp_path / "run.ckpt"), "--k", "5", "10"]) == 0
        printed = capsys.readouterr().out
        assert "recall@5=" in printed and "ndcg@10=" in printed

    def test_single_cutoff_without_10(self, tmp_path, capsys):
        # The train-time rule "eval_ks must include 10" does not bind eval.
        bundle = prepare_bundle(tmp_path)
        assert main(["train", "--bundle", str(bundle), "--config",
                     str(base_config(tmp_path)),
                     "--out", str(tmp_path / "run.json")]) == 0
        capsys.readouterr()
        assert main(["eval", "--bundle", str(bundle), "--checkpoint",
                     str(tmp_path / "run.ckpt"), "--k", "5"]) == 0
        printed = capsys.readouterr().out
        metric_lines = [ln for ln in printed.splitlines() if "@" in ln]
        assert len(metric_lines) == 1
        assert metric_lines[0].startswith("recall@5=")
        assert "ndcg@5=" in metric_lines[0]

    def test_cutoff_above_item_count_ranks_every_item(self, tmp_path):
        # Ten items: a cutoff of 100000 reads the last rank. Ranking that
        # deep would hold users x 100000 metric arrays (13 MiB traced).
        bundle = prepare_bundle(tmp_path)
        assert main(["train", "--bundle", str(bundle), "--config",
                     str(base_config(tmp_path)),
                     "--out", str(tmp_path / "run.json")]) == 0
        out = tmp_path / "eval.json"
        tracemalloc.start()
        try:
            assert main(["eval", "--bundle", str(bundle), "--checkpoint",
                         str(tmp_path / "run.ckpt"), "--k", "10", "100000",
                         "--out", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        payload = json.loads(out.read_text(encoding="utf-8"))
        for name in ("recall", "ndcg"):
            assert payload[name]["100000"] == payload[name]["10"]
            for bucket in payload["buckets"]:
                assert bucket[name]["100000"] == bucket[name]["10"]

    def test_stale_checkpoint_exit_3(self, tmp_path):
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path)
        out = tmp_path / "run.json"
        assert main(["train", "--bundle", str(bundle), "--config",
                     str(config), "--out", str(out)]) == 0
        other = prepare_bundle(tmp_path / "other", seed=9)
        assert main(["eval", "--bundle", str(other), "--checkpoint",
                     str(tmp_path / "run.ckpt")]) == 3

    @pytest.mark.parametrize("name", ["train.tsv", "features/visual.feat"])
    def test_edited_bundle_content_exit_3(self, tmp_path, name):
        # stats.json is untouched: the fingerprint covers the content.
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path)
        out = tmp_path / "run.json"
        assert main(["train", "--bundle", str(bundle), "--config",
                     str(config), "--out", str(out)]) == 0
        path = bundle / name
        if name == "train.tsv":
            lines = path.read_text(encoding="utf-8").splitlines()
            user, item = lines[0].split("\t")
            taken = {ln for split in ("train.tsv", "val.tsv", "test.tsv")
                     for ln in (bundle / split).read_text(
                         encoding="utf-8").splitlines()}
            lines[0] = next(f"{user}\t{i}" for i in range(10)
                            if f"{user}\t{i}" not in taken)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            load_bundle(bundle)  # still a valid bundle
        else:
            blob = bytearray(path.read_bytes())
            blob[-1] ^= 0x01
            path.write_bytes(bytes(blob))
        assert main(["eval", "--bundle", str(bundle), "--checkpoint",
                     str(tmp_path / "run.ckpt")]) == 3

    def test_stray_feature_file_keeps_the_fingerprint(self, tmp_path):
        # A file that stats.json does not name (left by an earlier prepare,
        # say) is not part of the bundle.
        bundle = prepare_bundle(tmp_path)
        assert main(["train", "--bundle", str(bundle), "--config",
                     str(base_config(tmp_path)),
                     "--out", str(tmp_path / "run.json")]) == 0
        fingerprint = load_bundle(bundle).fingerprint
        (bundle / "features" / "text.feat").write_bytes(
            (bundle / "features" / "visual.feat").read_bytes())
        assert load_bundle(bundle).fingerprint == fingerprint
        assert main(["eval", "--bundle", str(bundle), "--checkpoint",
                     str(tmp_path / "run.ckpt")]) == 0

    def test_stray_sidecar_is_not_read(self, tmp_path, capsys):
        # prepare never writes features/<name>.feat.ids; a bundle's feature
        # rows are in dense order whatever such a file says.
        outputs = []
        for name in ("plain", "stray"):
            bundle = prepare_bundle(tmp_path / name)
            if name == "stray":
                items = (bundle / "items.txt").read_text(encoding="utf-8")
                (bundle / "features" / "visual.feat.ids").write_text(
                    "".join(f"{i}\n" for i in items.split()[::-1]),
                    encoding="utf-8")
            out = tmp_path / name / "run.json"
            assert main(["train", "--bundle", str(bundle), "--config",
                         str(base_config(tmp_path)), "--out", str(out)]) == 0
            capsys.readouterr()
            assert main(["eval", "--bundle", str(bundle), "--checkpoint",
                         str(out.with_suffix(".ckpt")), "--out",
                         str(tmp_path / name / "eval.json")]) == 0
            outputs.append((train_outputs(out), capsys.readouterr().out,
                            (tmp_path / name / "eval.json").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_masked_modality_missing_from_checkpoint_exit_3(self, tmp_path,
                                                            capsys):
        # The config hash covers only the config echo, not the tables.
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path, modality_mask=["id", "visual"])
        assert main(["train", "--bundle", str(bundle), "--config",
                     str(config), "--out", str(tmp_path / "run.json")]) == 0
        ckpt = tmp_path / "run.ckpt"
        run_config, fingerprint, tables = load_checkpoint(ckpt)
        state = state_from_tables(tables, load_bundle(bundle), 4)
        id_only = dataclasses.replace(state, tables={"id": state.tables["id"]})
        save_checkpoint(ckpt, id_only, run_config, fingerprint)
        capsys.readouterr()
        assert main(["eval", "--bundle", str(bundle), "--checkpoint",
                     str(ckpt)]) == 3
        assert "['visual']" in single_error_line(capsys)

    @pytest.mark.parametrize("fault, named", [
        ("nan_value", "non-finite value"),
        ("trailing_bytes", "4 bytes after the tables"),
        ("short_tables",
         "misshapen tables ['user.id (9, 4)', 'user.visual (9, 4)']"),
        ("missing_modality", "missing modalities ['visual']"),
        ("repeated_table", "table user.id repeated")])
    def test_bad_tables_exit_3(self, tmp_path, capsys, fault, named):
        # The config hash covers only the config echo, and every edit but
        # the first two keeps the bundle's fingerprint.
        bundle = prepare_bundle(tmp_path)
        assert main(["train", "--bundle", str(bundle), "--config",
                     str(base_config(tmp_path)),
                     "--out", str(tmp_path / "run.json")]) == 0
        ckpt = tmp_path / "run.ckpt"
        blob = bytearray(ckpt.read_bytes())
        run_config, fingerprint, tables = load_checkpoint(ckpt)
        state = state_from_tables(tables, load_bundle(bundle), 4)
        if fault == "nan_value":
            # The first value of item.visual: past its name and header.
            at = blob.index(b"item.visual") + len(b"item.visual") + 16
            blob[at:at + 4] = np.float32(np.nan).tobytes()
            ckpt.write_bytes(bytes(blob))
        elif fault == "trailing_bytes":
            ckpt.write_bytes(bytes(blob) + b"\0" * 4)
        elif fault == "repeated_table":
            # A second, all-zero user.id record, counted in the header: the
            # layout check alone would accept the tables it replaced.
            first = blob.index(b"\x07\0\0\0user.id")
            count = int.from_bytes(blob[first - 4:first], "little")
            blob[first - 4:first] = (count + 1).to_bytes(4, "little")
            ckpt.write_bytes(bytes(blob) + blob[first:first + 11]
                             + dataset.pack_matrix(
                                 np.zeros_like(tables["user.id"])))
        elif fault == "short_tables":
            short = dataclasses.replace(
                state, tables={m: t[3:] for m, t in state.tables.items()},
                num_users=state.num_users - 3)
            save_checkpoint(ckpt, short, run_config, fingerprint)
        else:
            id_only = dataclasses.replace(state,
                                          tables={"id": state.tables["id"]})
            save_checkpoint(ckpt, id_only, run_config, fingerprint)
        capsys.readouterr()
        assert main(["eval", "--bundle", str(bundle), "--checkpoint",
                     str(ckpt)]) == 3
        assert named in single_error_line(capsys)

    @pytest.mark.parametrize("overrides", [FORKING,
                                           dict(score_mode="fused")],
                             ids=["hybrid_forking", "fused"])
    def test_out_equals_the_report_test_metrics(self, tmp_path, overrides):
        # train ranks the tables its checkpoint stores, so eval of the
        # checkpoint gives the report's test metrics exactly.
        bundle = prepare_bundle(tmp_path)
        out = tmp_path / "run.json"
        assert main(["train", "--bundle", str(bundle), "--config",
                     str(base_config(tmp_path, **overrides)),
                     "--out", str(out)]) == 0
        evaluated = tmp_path / "made" / "eval.json"
        assert main(["eval", "--bundle", str(bundle), "--checkpoint",
                     str(tmp_path / "run.ckpt"),
                     "--out", str(evaluated)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert json.loads(evaluated.read_text(encoding="utf-8")) == \
            report["metrics"]["test"]

    def test_out_parent_is_a_file_fails_before_ranking(
            self, tmp_path, monkeypatch, capsys):
        bundle = prepare_bundle(tmp_path)
        assert main(["train", "--bundle", str(bundle), "--config",
                     str(base_config(tmp_path)),
                     "--out", str(tmp_path / "run.json")]) == 0
        ranked, evaluate_split = [], trainer.evaluate_split

        def counted(*args, **kwargs):
            ranked.append(1)
            return evaluate_split(*args, **kwargs)

        monkeypatch.setattr(trainer, "evaluate_split", counted)
        capsys.readouterr()
        assert main(["eval", "--bundle", str(bundle), "--checkpoint",
                     str(tmp_path / "run.ckpt"), "--out",
                     str(tmp_path / "run.json" / "eval.json")]) == 2
        assert "File exists" in single_error_line(capsys)
        assert ranked == []

    def test_echo_with_a_warmup_candidate(self, tmp_path, capsys):
        # Earlier versions echoed the winner's trigger as warmup_candidate:
        # such a checkpoint evaluates as before. An echo that is not a JSON
        # object, its hash matching, is a checkpoint error.
        bundle = prepare_bundle(tmp_path)
        assert main(["train", "--bundle", str(bundle), "--config",
                     str(base_config(tmp_path)),
                     "--out", str(tmp_path / "run.json")]) == 0
        ckpt = tmp_path / "run.ckpt"
        blob = ckpt.read_bytes()
        start = 8 + 4 + 64 + 4  # magic, hash record, config record's size
        (size,) = struct.unpack_from("<I", blob, start - 4)
        echo = json.loads(blob[start:start + size])

        def with_echo(name, value):
            config_blob = json.dumps(value, sort_keys=True).encode("utf-8")
            digest = hashlib.sha256(config_blob).hexdigest().encode()
            path = tmp_path / name
            path.write_bytes(b"".join([
                blob[:8], struct.pack("<I", len(digest)), digest,
                struct.pack("<I", len(config_blob)), config_blob,
                blob[start + size:]]))
            return path

        older = with_echo("older.ckpt", {**echo, "warmup_candidate": 3})
        assert load_checkpoint(older)[0] == load_checkpoint(ckpt)[0]
        printed = []
        for path in (ckpt, older):
            capsys.readouterr()
            assert main(["eval", "--bundle", str(bundle),
                         "--checkpoint", str(path)]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert main(["eval", "--bundle", str(bundle), "--checkpoint",
                     str(with_echo("list.ckpt", [echo]))]) == 3
        assert "not a JSON object" in single_error_line(capsys)

    def test_same_checkpoint_identical_output(self, tmp_path, capsys):
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path)
        out = tmp_path / "run.json"
        assert main(["train", "--bundle", str(bundle), "--config",
                     str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["eval", "--bundle", str(bundle), "--checkpoint",
                     str(tmp_path / "run.ckpt")]) == 0
        first = capsys.readouterr().out
        assert main(["eval", "--bundle", str(bundle), "--checkpoint",
                     str(tmp_path / "run.ckpt")]) == 0
        assert capsys.readouterr().out == first


def single_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert len(lines) == 1
    return lines[0]


class TestMalformedFiles:
    def train(self, tmp_path, bundle):
        return main(["train", "--bundle", str(bundle), "--config",
                     str(base_config(tmp_path)),
                     "--out", str(tmp_path / "run.json")])

    @pytest.mark.parametrize("line", ["0\t1\t2", "999\t0", "0\t-1",
                                      "0\tx"])
    def test_malformed_train_tsv_exit_2(self, tmp_path, capsys, line):
        bundle = prepare_bundle(tmp_path)
        with (bundle / "train.tsv").open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        capsys.readouterr()
        assert self.train(tmp_path, bundle) == 2
        assert "train.tsv" in single_error_line(capsys)

    @pytest.mark.parametrize("text", [
        "{not json", "[]", '{"num_users": 12, "num_items": 10}',
        '{"num_users": 12, "num_items": 10, "split_seed": 7, '
        '"modalities": ["visual", "visual"]}'])
    def test_malformed_stats_json_exit_2(self, tmp_path, capsys, text):
        bundle = prepare_bundle(tmp_path)
        (bundle / "stats.json").write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert self.train(tmp_path, bundle) == 2
        assert "stats.json" in single_error_line(capsys)

    # Each edit of a line of train.tsv, and whether it is the last line.
    @pytest.mark.parametrize("edit, last", [
        (lambda ln: ln[:-1] + "\r\n", False),
        (lambda ln: "\n" + ln, False),
        (lambda ln: "+" + ln, False),
        (lambda ln: "0_" + ln, False),
        (lambda ln: " " + ln, False),
        (lambda ln: chr(0x660 + int(ln[0])) + ln[1:], False),
        (lambda ln: ln[:-1], True),
    ], ids=["crlf", "blank_line", "plus_sign", "underscore", "leading_space",
            "arabic_indic_digit", "no_final_newline"])
    def test_split_line_out_of_form_exit_2(self, tmp_path, capsys, edit,
                                           last):
        # Each loaded before the split files were read only in the form
        # prepare writes.
        bundle = prepare_bundle(tmp_path)
        path = bundle / "train.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        at = len(lines) - 1 if last else 1
        lines[at] = edit(lines[at])
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert self.train(tmp_path, bundle) == 2
        assert f"train.tsv:{at + 1}: expected" in single_error_line(capsys)

    @pytest.mark.parametrize("name", ["../x", "a/b", "", "id", "a\0b"])
    def test_bad_stats_modality_name_exit_2(self, tmp_path, capsys, name):
        # Where a path can be made of the name, it holds a feature file.
        bundle = prepare_bundle(tmp_path)
        stats = json.loads((bundle / "stats.json").read_text(encoding="utf-8"))
        stats["modalities"][name] = stats["modalities"].pop("visual")
        if name != "id" and "\0" not in name:
            target = bundle / "features" / f"{name}.feat"
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(bundle / "features" / "visual.feat", target)
        (bundle / "stats.json").write_text(json.dumps(stats),
                                           encoding="utf-8")
        capsys.readouterr()
        assert self.train(tmp_path, bundle) == 2
        assert "stats.json" in single_error_line(capsys)

    def test_stats_json_disagreeing_with_files_exit_2(self, tmp_path,
                                                      capsys):
        # Before stats.json was checked against the files, this bundle
        # trained and its report said num_interactions 1.
        bundle = prepare_bundle(tmp_path)
        assert self.train(tmp_path, bundle) == 0
        path = bundle / "stats.json"
        stats = json.loads(path.read_text(encoding="utf-8"))
        stats["num_interactions"] = 1
        stats["modalities"]["visual"] = 99
        path.write_text(json.dumps(stats, sort_keys=True, indent=2) + "\n",
                        encoding="utf-8")
        for argv in (["train", "--config", str(base_config(tmp_path)),
                      "--out", str(tmp_path / "again.json")],
                     ["eval", "--checkpoint", str(tmp_path / "run.ckpt")]):
            capsys.readouterr()
            assert main(argv + ["--bundle", str(bundle)]) == 2
            line = single_error_line(capsys)
            assert "stats.json" in line
            assert "modalities, num_interactions" in line

    # Edits that equal the true value in Python but not in JSON form, an
    # added key and a missing one.
    @pytest.mark.parametrize("key, edit", [
        ("num_users", float), ("cold_users", bool),
        ("note", lambda _: None), ("split_sizes", None)])
    def test_stats_json_value_out_of_form_exit_2(self, tmp_path, capsys,
                                                 key, edit):
        bundle = prepare_bundle(tmp_path)
        path = bundle / "stats.json"
        stats = json.loads(path.read_text(encoding="utf-8"))
        if edit is None:
            del stats[key]
        else:
            stats[key] = edit(stats.get(key))
        path.write_text(json.dumps(stats, sort_keys=True, indent=2) + "\n",
                        encoding="utf-8")
        capsys.readouterr()
        assert self.train(tmp_path, bundle) == 2
        assert single_error_line(capsys).endswith(
            f"stats.json: disagrees with the bundle files on {key}")

    @pytest.mark.parametrize("name", ["users.txt", "items.txt"])
    def test_id_table_split_by_carriage_return_exit_2(self, tmp_path, capsys,
                                                      name):
        # An id table is split on "\n" only, never on "\r".
        bundle = prepare_bundle(tmp_path)
        path = bundle / name
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
        capsys.readouterr()
        assert self.train(tmp_path, bundle) == 2
        assert "id tables disagree" in single_error_line(capsys)

    @pytest.mark.parametrize("name", ["train.tsv", "val.tsv", "test.tsv",
                                      "users.txt", "items.txt"])
    def test_non_utf8_file_exit_2(self, tmp_path, capsys, name):
        bundle = prepare_bundle(tmp_path)
        path = bundle / name
        path.write_bytes(b"\xff\xfe" + path.read_bytes())
        with pytest.raises(DataError, match="UTF-8"):
            load_bundle(bundle)
        capsys.readouterr()
        assert self.train(tmp_path, bundle) == 2
        assert name in single_error_line(capsys)

    @pytest.mark.parametrize("name", ["users.txt", "items.txt"])
    def test_missing_id_table_exit_2(self, tmp_path, capsys, name):
        bundle = prepare_bundle(tmp_path)
        (bundle / name).unlink()
        with pytest.raises(DataError, match=name):
            load_bundle(bundle)
        capsys.readouterr()
        assert self.train(tmp_path, bundle) == 2
        assert name in single_error_line(capsys)

    @pytest.mark.parametrize("name", ["train.tsv", "val.tsv", "test.tsv"])
    def test_duplicate_line_exit_2(self, tmp_path, capsys, name):
        bundle = prepare_bundle(tmp_path)
        path = bundle / name
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines + [lines[0]]) + "\n",
                        encoding="utf-8")
        capsys.readouterr()
        assert self.train(tmp_path, bundle) == 2
        assert f"{name}:{len(lines) + 1}: duplicate" in \
            single_error_line(capsys)

    def test_truncated_checkpoint_exit_3(self, tmp_path, capsys):
        bundle = prepare_bundle(tmp_path)
        assert self.train(tmp_path, bundle) == 0
        ckpt = tmp_path / "run.ckpt"
        blob = ckpt.read_bytes()
        for cut in (10, 40, 200, len(blob) // 2, len(blob) - 1):
            ckpt.write_bytes(blob[:cut])
            capsys.readouterr()
            assert main(["eval", "--bundle", str(bundle),
                         "--checkpoint", str(ckpt)]) == 3
            single_error_line(capsys)


class TestArgErrors:
    def test_bad_subcommand_exit_1(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv, code", [
        (["train", "--config", "DIR", "--out", "OUT"], 1),
        (["sweep", "--config", "CONFIG", "--grid", "DIR", "--out", "OUT"], 1),
        (["eval", "--checkpoint", "DIR"], 3),
    ], ids=["train-config", "sweep-grid", "eval-checkpoint"])
    def test_directory_input_exit_code(self, tmp_path, capsys, argv, code):
        # The input's own exit code, not the generic one for OS errors.
        (tmp_path / "adir").mkdir()
        paths = {"DIR": str(tmp_path / "adir"), "OUT": str(tmp_path / "out"),
                 "CONFIG": str(base_config(tmp_path))}
        capsys.readouterr()
        assert main([argv[0], "--bundle", str(tmp_path / "bundle")]
                    + [paths.get(arg, arg) for arg in argv[1:]]) == code
        assert "adir" in single_error_line(capsys)

    def test_missing_required_flag_exit_1(self):
        assert main(["train", "--bundle", "x"]) == 1

    def test_out_of_memory_exit_4(self, tmp_path, capsys):
        # The 80 TiB embedding table is refused at once. The address-space
        # limit makes sure of that under every overcommit policy.
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path, embed_dim=10 ** 12)
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (min(2 ** 45, hard), hard))
        try:
            code = main(["train", "--bundle", str(bundle), "--config",
                         str(config), "--out", str(tmp_path / "run.json")])
        finally:
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        assert code == 4
        assert single_error_line(capsys).startswith("error: out of memory")
        assert not (tmp_path / "run.json").exists()

    def test_missing_config_exit_1(self, tmp_path, capsys):
        missing = tmp_path / "none.json"
        assert main(["train", "--bundle", str(tmp_path / "bundle"),
                     "--config", str(missing),
                     "--out", str(tmp_path / "out")]) == 1
        assert str(missing) in single_error_line(capsys)


class TestSweepGrids:
    def test_paper_lambda_times_n_grid_is_20_runs(self, tmp_path):
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path, max_epochs=1, patience=1)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lam": [0.1, 0.2, 0.3, 0.4, 0.5],
                                    "top_n": [1, 2, 4, 8]}),
                        encoding="utf-8")
        out = tmp_path / "sweep"
        assert main(["sweep", "--bundle", str(bundle), "--config",
                     str(config), "--grid", str(grid),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json")
                             .read_text(encoding="utf-8"))
        assert len(summary) == 20
        assert len(list((out / "runs").glob("cell-*.json"))) == 20

    def test_parallel_workers_match_sequential(self, tmp_path):
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path, max_epochs=2, patience=2)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lam": [0.1, 0.2]}), encoding="utf-8")
        seq_out = tmp_path / "seq"
        par_out = tmp_path / "par"
        assert main(["sweep", "--bundle", str(bundle), "--config",
                     str(config), "--grid", str(grid),
                     "--out", str(seq_out)]) == 0
        assert main(["sweep", "--bundle", str(bundle), "--config",
                     str(config), "--grid", str(grid),
                     "--out", str(par_out), "--workers", "2"]) == 0
        seq = json.loads((seq_out / "summary.json")
                         .read_text(encoding="utf-8"))
        par = json.loads((par_out / "summary.json")
                         .read_text(encoding="utf-8"))
        assert seq == par


class TestCandidateProcesses:
    """Forked candidates trained in child processes give the bytes, and the
    failures, of training them one after another in this process."""

    def train(self, tmp_path, config, monkeypatch, processes):
        monkeypatch.setattr(trainer, "candidate_processes",
                            lambda: processes)
        out = tmp_path / f"run-{processes}.json"
        code = main(["train", "--bundle", str(tmp_path / "bundle"),
                     "--config", str(config), "--out", str(out)])
        return code, out

    @pytest.mark.parametrize("overrides", [
        dict(strategy="static", static_set=[0, 2]),
        dict(strategy="hybrid", s=1, num_layers=2, readout="mean"),
        dict(strategy="hybrid", s=1, score_mode="fused",
             modality_mask=["id", "visual", "visual"],
             per_distinct_user=True, wo_aggr=True),
        FORKING],
        ids=["static", "hybrid", "hybrid_fused", "hybrid_wide"])
    def test_same_bytes(self, tmp_path, monkeypatch, overrides):
        prepare_bundle(tmp_path)
        config = base_config(tmp_path, **overrides)
        forks, fork = [], os.fork

        def counted():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        outputs = []
        for processes in (1, 3):
            forks.clear()
            code, out = self.train(tmp_path, config, monkeypatch, processes)
            assert code == 0
            assert bool(forks) == (processes > 1)
            outputs.append(train_outputs(out))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("overrides", [
        FORKING,
        # The takeover fails in this process before the error of the
        # forked static:0, which failed first in serial order, is read.
        dict(strategy="static", static_set=[0, 2], max_epochs=8,
             patience=8)], ids=["hybrid", "static"])
    def test_failing_candidate_same_error(self, tmp_path, monkeypatch,
                                          capsys, overrides):
        prepare_bundle(tmp_path)
        config = base_config(tmp_path, **overrides)
        step = trainer.TrainingRun.step

        def poisoned(run):
            # Non-finite tables, so a non-finite loss, at every run's
            # second joint epoch.
            if run.trigger is not None and run.epoch == run.trigger + 1:
                for table in run.state.tables.values():
                    table[:] = np.nan
            step(run)

        monkeypatch.setattr(trainer.TrainingRun, "step", poisoned)
        capsys.readouterr()
        failures = []
        for processes in (1, 3):
            code, _ = self.train(tmp_path, config, monkeypatch, processes)
            failures.append((code, single_error_line(capsys)))
            assert_no_child_left()
        assert failures[0] == failures[1]
        assert failures[0][0] == 4
        assert "non-finite loss" in failures[0][1]

    def test_killed_child_one_error_line(self, tmp_path, monkeypatch,
                                         capsys):
        prepare_bundle(tmp_path)
        config = base_config(tmp_path, **FORKING)
        parent, step = os.getpid(), trainer.TrainingRun.step

        def killed(run):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            step(run)

        def hung(signum, frame):
            raise TimeoutError("the search still waits for its children")

        monkeypatch.setattr(trainer.TrainingRun, "step", killed)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            code, _ = self.train(tmp_path, config, monkeypatch, 3)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 4
        assert single_error_line(capsys) == (
            "error: the process training candidate dynamic_probe ended "
            "without a result (signal 9)")
        assert_no_child_left()

    def test_pool_cells_train_candidates_in_turn(self, tmp_path,
                                                 monkeypatch):
        # Cells on a --workers pool already fill the cores, so they never
        # ask for candidate processes; the cells' bytes do not change.
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path, **FORKING)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"lam": [0.1, 0.2]}), encoding="utf-8")
        asked = tmp_path / "asked"

        def processes():
            asked.touch()  # seen from the pool's processes too
            return 3

        monkeypatch.setattr(trainer, "candidate_processes", processes)
        cells = {}
        for workers in ("1", "2"):
            out = tmp_path / f"workers-{workers}"
            assert main(["sweep", "--bundle", str(bundle), "--config",
                         str(config), "--grid", str(grid), "--out", str(out),
                         "--workers", workers]) == 0
            assert asked.exists() == (workers == "1")
            asked.unlink(missing_ok=True)
            cells[workers] = [train_outputs(path) for path in
                              sorted((out / "runs").glob("cell-*.json"))]
        assert len(cells["1"]) == 2
        assert cells["1"] == cells["2"]


class TestSplitEpochs:
    """An epoch split by modality across this process and a forked worker
    writes the bytes, and fails with the errors, of a serial epoch."""

    def train(self, tmp_path, config, monkeypatch, split, tag=""):
        monkeypatch.setattr(trainer, "candidate_processes", lambda: 2)
        monkeypatch.setattr(trainer, "SPLIT_MIN_WORK",
                            -1 if split else 10 ** 18)
        out = tmp_path / f"run-{split}{tag}.json"
        code = main(["train", "--bundle", str(tmp_path / "bundle"),
                     "--config", str(config), "--out", str(out)])
        return code, out

    @pytest.mark.parametrize("overrides", [
        dict(strategy="dynamic"),
        dict(mdvt_enabled=False, weight_decay=0.01),
        dict(strategy="static", static_set=[0], score_mode="fused",
             modality_mask=["visual"], wo_aggr=True),
        dict(lam=0.0, num_layers=2, readout="mean")],
        ids=["dynamic", "bpr", "fused_mask", "lam_0"])
    def test_same_bytes(self, tmp_path, monkeypatch, overrides):
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path, **overrides)
        forks, fork = [], os.fork

        def counted():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        outputs = []
        for split in (True, False):
            forks.clear()
            code, out = self.train(tmp_path, config, monkeypatch, split)
            assert code == 0
            # Every epoch of the run splits (no candidate forks here).
            report = json.loads(out.read_text(encoding="utf-8"))
            assert len(forks) == (len(report["history"]["l_total"])
                                  if split else 0)
            evaluated = tmp_path / f"eval-{split}.json"
            assert main(["eval", "--bundle", str(bundle), "--checkpoint",
                         str(out.with_suffix(".ckpt")), "--k", "5", "10",
                         "20", "--out", str(evaluated)]) == 0
            outputs.append((train_outputs(out), evaluated.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_killed_worker_one_error_line(self, tmp_path, monkeypatch,
                                          capsys):
        prepare_bundle(tmp_path)
        config = base_config(tmp_path)
        adam_step = objective.adam_step

        def killed(state, opt, grads, config, peer=None):
            if trainer._in_child and opt.step == 2:
                os.kill(os.getpid(), signal.SIGKILL)
            adam_step(state, opt, grads, config, peer)

        def hung(signum, frame):
            raise TimeoutError("the epoch still waits for its worker")

        monkeypatch.setattr(objective, "adam_step", killed)
        capsys.readouterr()
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            code, _ = self.train(tmp_path, config, monkeypatch, True)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 4
        assert single_error_line(capsys) == (
            "error: the process training modalities visual ended without "
            "a result (signal 9)")
        assert trainer.ForkPool.live == 0
        assert_no_child_left()


class TestSweepCells:
    """Sweep cells trained in child processes fail as they do one after
    another in this process."""

    def sweep(self, tmp_path, grid, workers):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid), encoding="utf-8")
        out = tmp_path / f"workers-{workers}"
        code = main(["sweep", "--bundle", str(tmp_path / "bundle"),
                     "--config", str(tmp_path / "config.json"),
                     "--grid", str(path), "--out", str(out),
                     "--workers", workers])
        return code, out

    def test_killed_cell_one_error_line(self, tmp_path, monkeypatch,
                                        capsys):
        prepare_bundle(tmp_path)
        config = base_config(tmp_path, **FORKING)
        first = trainer.RunConfig.from_dict(
            {**json.loads(config.read_text(encoding="utf-8")), "lam": 0.1})
        parent, step = os.getpid(), trainer.TrainingRun.step

        def killed(run):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            step(run)

        def hung(signum, frame):
            raise TimeoutError("the sweep still waits for its cells")

        monkeypatch.setattr(trainer.TrainingRun, "step", killed)
        capsys.readouterr()
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            code, _ = self.sweep(tmp_path, {"lam": [0.1, 0.2]}, "2")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 4
        assert single_error_line(capsys) == (
            f"error: the process training cell-{first.config_hash()[:16]} "
            "ended without a result (signal 9)")
        assert_no_child_left()

    def test_failing_first_cell_writes_no_cell(self, tmp_path, capsys):
        # The first cell fails; the cells after it train for much longer.
        prepare_bundle(tmp_path)
        base_config(tmp_path, **FORKING)
        grid = {"lam": [0.1, 0.2, 0.3], "modality_mask": [["nope"], ["id"]]}
        capsys.readouterr()
        failures = []
        for workers in ("1", "2"):
            code, out = self.sweep(tmp_path, grid, workers)
            failures.append((code, single_error_line(capsys)))
            assert list((out / "runs").glob("cell-*.json")) == []
            assert_no_child_left()
        assert failures[0] == failures[1]
        assert failures[0][0] == 1
        assert "['nope']" in failures[0][1]


class TestReportEcho:
    def test_echoed_config_reproduces_numbers(self, tmp_path):
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path)
        first_out = tmp_path / "first.json"
        assert main(["train", "--bundle", str(bundle), "--config",
                     str(config), "--out", str(first_out)]) == 0
        first = json.loads(first_out.read_text(encoding="utf-8"))
        echo_path = tmp_path / "echo.json"
        echo_path.write_text(json.dumps(first["config"]), encoding="utf-8")
        second_out = tmp_path / "second.json"
        assert main(["train", "--bundle", str(bundle), "--config",
                     str(echo_path), "--out", str(second_out)]) == 0
        second = json.loads(second_out.read_text(encoding="utf-8"))
        first.pop("wall_clock_seconds")
        second.pop("wall_clock_seconds")
        assert first == second


class TestWriteAtomic:
    def test_replaces_the_target(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old", encoding="utf-8")
        write_atomic(target, "new")
        assert target.read_text(encoding="utf-8") == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failure_midway_keeps_the_old_target(self, tmp_path,
                                                 monkeypatch):
        target = tmp_path / "out.ckpt"
        target.write_bytes(b"old bytes")

        def torn(self, data):
            with self.open("wb") as fh:
                fh.write(data[:3])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(pathlib.Path, "write_bytes", torn)
        with pytest.raises(OSError):
            write_atomic(target, b"new bytes")
        assert target.read_bytes() == b"old bytes"
        assert [p.name for p in tmp_path.iterdir()] == ["out.ckpt"]

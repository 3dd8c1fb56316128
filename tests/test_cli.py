import json
import pathlib

import numpy as np
import pytest

from mdvt import backbone, trainer
from mdvt.cli import main
from mdvt.dataset import load_bundle, write_atomic, write_modality_features
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
        write_modality_features(feat_path,
                                rng.normal(size=(num_items, 4))
                                .astype(np.float32),
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

    def test_missing_feature_file_exit_2(self, tmp_path):
        inter = tmp_path / "toy.tsv"
        write_interactions(inter)
        code = main(["prepare", "--interactions", str(inter),
                     "--feature", "visual=/nonexistent.feat",
                     "--out", str(tmp_path / "b")])
        assert code == 2

    def test_rerun_byte_identical(self, tmp_path):
        bundle_a = prepare_bundle(tmp_path / "a")
        bundle_b = prepare_bundle(tmp_path / "b")
        for name in ("stats.json", "train.tsv", "val.tsv", "test.tsv",
                     "users.txt", "items.txt"):
            assert (bundle_a / name).read_bytes() == \
                (bundle_b / name).read_bytes()

    def test_negative_seed_exit_1(self, tmp_path, capsys):
        inter = tmp_path / "toy.tsv"
        write_interactions(inter)
        assert main(["prepare", "--interactions", str(inter),
                     "--out", str(tmp_path / "b"), "--seed", "-1"]) == 1
        assert "seed" in single_error_line(capsys)
        assert not (tmp_path / "b").exists()

    def test_missing_interactions_exit_2(self, tmp_path):
        assert main(["prepare", "--interactions",
                     str(tmp_path / "none.tsv"),
                     "--out", str(tmp_path / "b")]) == 2

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
        write_modality_features(feat, matrix(num_items))
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
        ("warmup_candidate", {"warmup_candidate": -1}),
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

    def test_off_grid_lambda_warns_but_runs(self, tmp_path):
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path, lam=0.7)
        out = tmp_path / "run.json"
        assert main(["train", "--bundle", str(bundle),
                     "--config", str(config), "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert any("lam" in w for w in report["config_warnings"])

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
            report = json.loads(out.read_text(encoding="utf-8"))
            report.pop("wall_clock_seconds")
            outputs.append((json.dumps(report, sort_keys=True),
                            out.with_suffix(".ckpt").read_bytes()))
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
        assert (out / "summary.csv").exists()
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

    def test_masked_modality_missing_from_checkpoint_exit_3(self, tmp_path,
                                                            capsys):
        # The config hash covers only the config echo, not the tables.
        bundle = prepare_bundle(tmp_path)
        config = base_config(tmp_path, modality_mask=["id", "visual"])
        assert main(["train", "--bundle", str(bundle), "--config",
                     str(config), "--out", str(tmp_path / "run.json")]) == 0
        ckpt = tmp_path / "run.ckpt"
        run_config, fingerprint, tables = load_checkpoint(ckpt)
        id_only = {k: v for k, v in tables.items() if k.endswith(".id")}
        save_checkpoint(ckpt, state_from_tables(id_only, 4), run_config,
                        fingerprint)
        capsys.readouterr()
        assert main(["eval", "--bundle", str(bundle), "--checkpoint",
                     str(ckpt)]) == 3
        assert "['visual']" in single_error_line(capsys)

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

    def test_missing_required_flag_exit_1(self):
        assert main(["train", "--bundle", "x"]) == 1


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

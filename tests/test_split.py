"""Split epochs: a forked worker trains the later modality tables of an
epoch beside this process, with the bits of a serial epoch, the errors of
a serial epoch, and only where two processes fit the cores."""

import dataclasses
import os
import signal

import numpy as np
import pytest

from planted import planted_bundle
from mdvt import objective, trainer
from mdvt.dataset import _bundle_stats
from mdvt.errors import MdvtError
from mdvt.trainer import RunConfig, TrainingRun


def bundle_with(modalities: int):
    """A planted bundle with ``modalities`` tables: id, visual (and text)."""
    bundle = planted_bundle(1, num_users=60, num_items=40, feature_dim=8)
    features = dict(bundle.features)
    if modalities == 3:
        features["text"] = np.ascontiguousarray(
            features["visual"][:, ::-1] * 0.5)
    return dataclasses.replace(
        bundle, features=features,
        stats=_bundle_stats(bundle.split, features, 0), propagators={})


def split_config(**overrides) -> RunConfig:
    base = dict(embed_dim=8, num_layers=1, lam=0.2, top_n=2, batch_size=64,
                learning_rate=0.02, seed=3)
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(autouse=True)
def deadline():
    """Fail a test whose two processes wait on each other for good."""
    def hung(signum, frame):
        raise TimeoutError("a split epoch still waits")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def splits(monkeypatch):
    """Force the size rule and two cores; record each split's worker
    modalities and the pool children alive when it forked."""
    record = []
    add = trainer.ForkPool.add

    def noted(pool, what, *args, **kwargs):
        if what.startswith("modalities "):
            record.append((what.removeprefix("modalities "),
                           trainer.ForkPool.live))
        return add(pool, what, *args, **kwargs)

    monkeypatch.setattr(trainer.ForkPool, "add", noted)
    monkeypatch.setattr(trainer, "candidate_processes", lambda: 2)
    monkeypatch.setattr(trainer, "SPLIT_MIN_WORK", -1)
    return record


def serially(monkeypatch):
    monkeypatch.setattr(trainer, "SPLIT_MIN_WORK", 10 ** 18)


def trained(bundle, config, epochs=3, trigger=1) -> TrainingRun:
    """Epoch 0 warm-up, later epochs joint from ``trigger``."""
    run = TrainingRun(bundle, config, trigger)
    for _ in range(epochs):
        run.step()
    return run


def assert_same_run(got: TrainingRun, want: TrainingRun) -> None:
    for m in want.state.tables:
        assert np.array_equal(got.state.tables[m], want.state.tables[m]), m
        assert np.array_equal(got.opt.m[m], want.opt.m[m]), m
        assert np.array_equal(got.opt.v[m], want.opt.v[m]), m
    assert got.opt.step == want.opt.step
    for rng in ("rng_shuffle", "rng_negative"):
        assert (getattr(got, rng).bit_generator.state
                == getattr(want, rng).bit_generator.state)
    # The epochs' LossReports, and the validations that followed them.
    assert got.history.to_dict() == want.history.to_dict()


class TestSplitBitIdentity:
    @pytest.mark.parametrize("overrides", [
        {}, {"score_mode": "fused"}, {"wo_aggr": True}, {"wo_scale": True},
        {"modality_mask": ("visual", "id")}, {"modality_mask": ("id",)},
        {"readout": "mean", "num_layers": 2}, {"num_layers": 0},
        {"weight_decay": 0.01}, {"lam": 1.0},
        {"score_mode": "fused", "wo_aggr": True, "readout": "mean"}],
        ids=["default", "fused", "wo_aggr", "wo_scale", "mask", "mask_id",
             "mean_2_layers", "0_layers", "weight_decay", "lam_1",
             "fused_wo_aggr_mean"])
    @pytest.mark.parametrize("modalities", [2, 3])
    @pytest.mark.parametrize("local", [False, True], ids=["full", "local"])
    def test_split_equals_serial(self, monkeypatch, splits, overrides,
                                 modalities, local):
        monkeypatch.setattr(trainer, "LOCAL_STEP_MIN_WORK",
                            -1 if local else 10 ** 18)
        bundle = bundle_with(modalities)
        if modalities == 3 and overrides.get("modality_mask", ())[:1] == (
                "visual",):
            # A repeated entry, and a worker table first.
            overrides = {**overrides, "modality_mask": ("text", "visual",
                                                        "text")}
        config = split_config(**overrides)
        got = trained(bundle, config)
        # One split per epoch; the worker trains the later half in table
        # order.
        assert splits == [("visual" if modalities == 2 else "text", 0)] * 3
        serially(monkeypatch)
        assert_same_run(got, trained(bundle, config))

    def test_train_epoch_report(self, monkeypatch, splits):
        bundle = bundle_with(3)
        config = split_config(loss_reporting="sum")
        reports = []
        for split in (True, False):
            if not split:
                serially(monkeypatch)
            run = trained(bundle, config, epochs=1)
            virtual = trainer.triplet_forge.refresh(
                trainer.backbone.forward_pass(run.state, run.prop, config),
                config, bundle.split.train.adjacency,
                bundle.split.trained_users,
                item_counts=bundle.graph.degrees[bundle.num_users:])
            reports.append(trainer.train_epoch(
                run.state, run.opt, run.prop, bundle, config, 1, virtual,
                run.rng_shuffle, run.rng_negative))
        assert len(splits) == 2
        assert reports[0] == reports[1]
        assert reports[0].l_vbpr is not None


class TestSplitFailures:
    def epoch(self, bundle, config):
        """Train one warm-up epoch of a fresh run; return the run and a
        copy of its tables and moments from before the epoch."""
        run = TrainingRun(bundle, config)
        before = (run.state.copy(),
                  {m: a.copy() for m, a in run.opt.m.items()},
                  {m: a.copy() for m, a in run.opt.v.items()})
        with pytest.raises(MdvtError) as info:
            trainer.train_epoch(run.state, run.opt, run.prop, bundle, config,
                                0, None, run.rng_shuffle, run.rng_negative)
        return run, before, str(info.value)

    def assert_unmoved(self, run, before):
        state, m, v = before
        for key in state.tables:
            assert np.array_equal(run.state.tables[key], state.tables[key])
            assert np.array_equal(run.opt.m[key], m[key])
            assert np.array_equal(run.opt.v[key], v[key])

    @pytest.mark.parametrize("modality", ["visual", "id"])
    def test_non_finite_gradient(self, monkeypatch, splits, tmp_path,
                                 modality):
        # A NaN in the first step's gradient of one item table: the worker's
        # (visual) or this process's (id). The message is the serial one,
        # and no table or moment moves here; the worker never updates.
        table_grads, adam_step = objective._table_grads, objective.adam_step

        def poisoned(reps, *args):
            grads = table_grads(reps, *args)
            if modality in grads:
                grads[modality][reps.num_users] = np.nan
            return grads

        def watched(state, opt, grads, config, peer=None):
            adam_step(state, opt, grads, config, peer)
            if trainer._in_child:
                (tmp_path / f"worker-step-{opt.step}").touch()

        monkeypatch.setattr(objective, "_table_grads", poisoned)
        monkeypatch.setattr(objective, "adam_step", watched)
        bundle, config = bundle_with(2), split_config()
        messages = []
        for split in (True, False):
            if not split:
                serially(monkeypatch)
            run, before, message = self.epoch(bundle, config)
            self.assert_unmoved(run, before)
            assert run.opt.step == 1
            messages.append(message)
        assert len(splits) == 1
        assert messages[0] == messages[1] == (
            f"non-finite gradient for table item.{modality} "
            "at optimizer step 1")
        assert not list(tmp_path.iterdir())
        assert trainer.ForkPool.live == 0

    def test_worker_error_is_raised_here(self, monkeypatch, splits):
        # An error the worker raises mid-step reaches this process as it
        # was raised, as a forked candidate's does.
        table_grads = objective._table_grads

        def failing(*args):
            if trainer._in_child:
                raise MdvtError("worker failed")
            return table_grads(*args)

        monkeypatch.setattr(objective, "_table_grads", failing)
        run, before, message = self.epoch(bundle_with(2), split_config())
        assert message == "worker failed"
        assert len(splits) == 1
        self.assert_unmoved(run, before)
        assert trainer.ForkPool.live == 0

    def test_non_finite_loss_kills_the_worker(self, monkeypatch, splits):
        bundle, config = bundle_with(2), split_config()
        init = trainer.backbone.init_embeddings

        def poisoned(*args):
            state = init(*args)
            state.tables["id"][:] = np.nan  # this process's table
            return state

        monkeypatch.setattr(trainer.backbone, "init_embeddings", poisoned)
        messages = []
        for split in (True, False):
            if not split:
                serially(monkeypatch)
            messages.append(self.epoch(bundle, config)[2])
        assert len(splits) == 1
        assert messages[0] == messages[1]
        assert messages[0].startswith("non-finite loss at epoch 0, batch 0")
        # Killed and reaped (the autouse fixture checks that none is left).
        assert trainer.ForkPool.live == 0


class TestSplitRule:
    def state_and_prop(self):
        run = TrainingRun(bundle_with(2), split_config())
        return run.state, run.prop

    def test_size_rule(self, monkeypatch):
        monkeypatch.setattr(trainer, "candidate_processes", lambda: 2)
        state, prop = self.state_and_prop()
        work = prop.matrix.nnz * state.embed_dim
        monkeypatch.setattr(trainer, "SPLIT_MIN_WORK", work)
        assert not trainer._split_epoch(state, prop)
        monkeypatch.setattr(trainer, "SPLIT_MIN_WORK", work - 1)
        assert trainer._split_epoch(state, prop)

    def test_measured_workloads(self):
        # search-small (3.6e4) and joint-mid (5.1e6) stay serial; bpr-wide
        # (1.5e7) splits.
        assert 5.1e6 < trainer.SPLIT_MIN_WORK < 1.5e7

    @pytest.mark.parametrize("case", [
        "one_modality", "one_core", "no_fork", "in_child", "live_child"])
    def test_stays_off(self, monkeypatch, case):
        monkeypatch.setattr(trainer, "SPLIT_MIN_WORK", -1)
        monkeypatch.setattr(trainer, "candidate_processes", lambda: 2)
        state, prop = self.state_and_prop()
        assert trainer._split_epoch(state, prop)
        if case == "one_modality":
            state = dataclasses.replace(
                state, tables={"id": state.tables["id"]})
        elif case == "one_core":
            monkeypatch.setattr(trainer, "candidate_processes", lambda: 1)
        elif case == "no_fork":
            monkeypatch.delattr(os, "fork")
        elif case == "in_child":
            monkeypatch.setattr(trainer, "_in_child", True)
        else:
            monkeypatch.setattr(trainer.ForkPool, "live", 1)
        assert not trainer._split_epoch(state, prop)

    def test_search_splits_only_without_live_children(self, monkeypatch,
                                                      splits):
        # Forked candidates train beside the trunk: the trunk's epochs that
        # run while one lives stay serial, so at most two processes train.
        bundle = bundle_with(2)
        config = split_config(strategy="hybrid", s=2, g=0.2, max_epochs=8,
                              patience=8)
        got = trainer.run_strategy_search(bundle, config)
        assert splits and all(live == 0 for _, live in splits)
        forked = len(splits)
        serially(monkeypatch)
        want = trainer.run_strategy_search(bundle, config)
        assert len(splits) == forked
        assert got.candidates == want.candidates
        assert got.best_history.to_dict() == want.best_history.to_dict()
        for m in want.best_state.tables:
            assert np.array_equal(got.best_state.tables[m],
                                  want.best_state.tables[m])

import dataclasses
import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_bundle
from oracles import independent_search
from planted import planted_bundle
from mdvt import backbone, objective, trainer, triplet_forge
from mdvt.dataset import make_batches
from mdvt.errors import CheckpointError, ConfigError
from mdvt.trainer import (RunConfig, evaluate_split,
                          load_checkpoint, run_strategy_search,
                          save_checkpoint, state_from_tables, train_run)


def quick_config(**overrides) -> RunConfig:
    base = dict(embed_dim=4, num_layers=1, lam=0.2, top_n=2, batch_size=8,
                learning_rate=0.05, max_epochs=6, patience=3, seed=11,
                strategy="dynamic", g=0.2)
    base.update(overrides)
    return RunConfig(**base)


# Each key gets its default (so that a share of the configs is valid), a
# plausible value or an arbitrary JSON-like one, NaN and infinities included.
_SCALARS = st.one_of(st.integers(), st.floats(), st.booleans(),
                     st.text(max_size=6), st.none(),
                     st.integers(0, 20), st.floats(0.0, 1.0),
                     st.sampled_from(("topn", "interval", "static", "hybrid",
                                      "sum", "mean", "dual", "id")))
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3),
                    st.sampled_from(([10], [5, 10], [0, 3], [])))
_ENTRIES = st.tuples(st.sampled_from(dataclasses.fields(RunConfig)),
                     st.booleans(), _VALUES).map(
    lambda e: (e[0].name, e[0].default if e[1] else e[2]))
_CONFIG_DICTS = st.lists(_ENTRIES, max_size=5).map(dict)


def history_dict(bundle, config):
    _, history = train_run(bundle, config)
    return history.to_dict()


class TestRunConfig:
    def test_validate_lists_every_problem(self):
        with pytest.raises(ConfigError) as err:
            quick_config(embed_dim=0, lam=3.0, norm="bogus")
        message = str(err.value)
        assert "embed_dim" in message
        assert "lam" in message
        assert "norm" in message

    def test_batch_size_below_one_rejected(self):
        # make_batches trusts the config's batch size.
        with pytest.raises(ConfigError, match="batch_size must be >= 1"):
            quick_config(batch_size=0)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="lmabda"):
            RunConfig.from_dict({"lmabda": 0.2})

    def test_off_grid_values_warn_only(self):
        warnings = quick_config(lam=0.7).off_grid_warnings()
        assert any("lam" in w for w in warnings)

    def test_round_trip(self):
        config = quick_config(modality_mask=("id",))
        again = RunConfig.from_dict(config.to_dict())
        assert again == config
        assert again.config_hash() == config.config_hash()

    @settings(max_examples=200, deadline=None)
    @given(_CONFIG_DICTS)
    def test_from_dict_fuzz(self, data):
        # Either a valid config or ConfigError, never another exception;
        # a config that exists round-trips exactly.
        try:
            config = RunConfig.from_dict(data)
        except ConfigError:
            return
        again = RunConfig.from_dict(config.to_dict())
        assert again == config
        assert again.config_hash() == config.config_hash()
        assert all(isinstance(w, str) for w in config.off_grid_warnings())

    def test_hash_changes_with_values(self):
        assert quick_config(lam=0.1).config_hash() != \
            quick_config(lam=0.2).config_hash()


class TestTrainRun:
    def test_warmup_epochs_have_no_virtual_loss(self, rng):
        bundle = make_bundle(rng, num_users=6, num_items=10, extra_edges=6)
        config = quick_config(strategy="static", static_set=(3,),
                              max_epochs=5, patience=5)
        _, history = train_run(bundle, config)
        assert history.trigger_epoch == 3
        assert all(v is None for v in history.l_vbpr[:3])
        assert all(v is not None for v in history.l_vbpr[3:])

    def test_joint_epoch_weighting(self, rng):
        bundle = make_bundle(rng, num_users=6, num_items=10, extra_edges=6)
        config = quick_config(strategy="static", static_set=(0,), lam=0.2,
                              max_epochs=2, patience=5)
        _, history = train_run(bundle, config)
        for e in range(len(history.l_total)):
            assert history.l_total[e] == pytest.approx(
                0.8 * history.l_bpr[e] + 0.2 * history.l_vbpr[e], rel=1e-12)

    @pytest.mark.parametrize("overrides, trigger", [
        (dict(strategy="static", static_set=(0,)), 0),
        (dict(strategy="static", static_set=(0, 2, 4)), None),
        (dict(strategy="hybrid", g=0.3, s=1), None)])
    def test_returns_the_search_winner(self, rng, overrides, trigger):
        bundle = make_bundle(rng, num_users=6, num_items=10, extra_edges=6)
        config = quick_config(max_epochs=6, patience=6, **overrides)
        state, history = train_run(bundle, config)
        result = run_strategy_search(bundle, config)
        assert history.to_dict() == result.best_history.to_dict()
        assert tables(state) == tables(result.best_state)
        assert history.trigger_epoch == result.resolved_trigger
        if trigger is not None:
            assert history.trigger_epoch == trigger

    def test_same_seed_same_history(self, rng):
        bundle = make_bundle(rng, num_users=6, num_items=10, extra_edges=6)
        a = history_dict(bundle, quick_config())
        b = history_dict(bundle, quick_config())
        assert a == b

    def test_lambda_zero_equals_disabled(self, rng):
        bundle = make_bundle(rng, num_users=6, num_items=10, extra_edges=6)
        lam0 = history_dict(bundle, quick_config(lam=0.0))
        off = history_dict(bundle, quick_config(mdvt_enabled=False))
        assert lam0 == off

    def test_early_stopping_bound(self, rng):
        bundle = make_bundle(rng, num_users=6, num_items=10, extra_edges=6)
        config = quick_config(max_epochs=60, patience=3,
                              mdvt_enabled=False)
        _, history = train_run(bundle, config)
        assert history.stopped_epoch - history.best_epoch <= 3
        assert len(history.l_bpr) <= 60

    def test_best_epoch_restoration(self, rng):
        bundle = make_bundle(rng, num_users=6, num_items=10, extra_edges=6)
        config = quick_config(max_epochs=8, patience=4)
        state, history = train_run(bundle, config)
        again = evaluate_split(state, bundle, config, "validation")
        assert again.ndcg[10] == pytest.approx(history.best_val_ndcg10(),
                                               abs=1e-12)

    def test_phase_boundary_is_trigger_epoch(self, rng):
        bundle = make_bundle(rng, num_users=6, num_items=10, extra_edges=6)
        config = quick_config(strategy="dynamic", g=0.3, max_epochs=10,
                              patience=10)
        _, history = train_run(bundle, config)
        if history.trigger_epoch is not None:
            t = history.trigger_epoch
            assert all(v is None for v in history.l_vbpr[:t])
            assert history.l_vbpr[t] is not None


class TestFloat32:
    def test_one_step_keeps_every_array_float32(self, rng, tmp_path):
        # A stray float64 operand would widen a result (or silently round
        # it back into a float32 buffer): every array a step keeps or
        # returns, and every checkpoint table, stays float32.
        bundle = make_bundle(rng, num_users=6, num_items=10, extra_edges=6)
        config = quick_config(strategy="static", static_set=(0,))
        run = trainer.TrainingRun(bundle, config, trigger=0)
        run.step()
        state, prop = run.state, run.prop
        arrays = [prop.matrix, *state.tables.values(), *run.opt.m.values(),
                  *run.opt.v.values(), *run.best_state.tables.values()]
        full = backbone.forward_pass(state, prop, config)
        seen = bundle.split.train.adjacency
        virtual = triplet_forge.refresh(
            full, config, seen, np.flatnonzero(seen.row_lengths),
            item_counts=bundle.graph.degrees[bundle.num_users:])
        batch = next(make_batches(bundle.split.train, bundle.graph, 8, rng,
                                  rng))
        rows = objective.batch_vertices(batch, virtual, state.num_users,
                                        bundle.graph.num_vertices)
        modes = [dataclasses.replace(config, score_mode=score_mode)
                 for score_mode in backbone.SCORE_MODES]
        for reps in (full, backbone.forward_pass(state, prop, config,
                                                 rows=rows)):
            arrays += [*reps.finals.values(), reps.fused]
            for mode in modes:
                _, grads = objective.backward(batch, virtual, reps, prop,
                                              mode)
                arrays += grads.values()
        for mode in modes:
            arrays.append(backbone.score_matrix(full, np.arange(3), mode))
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, run.best_state, config, "fp")
        arrays += load_checkpoint(path)[2].values()
        assert len(arrays) == 29
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}


class TestStrategySearch:
    def test_dynamic_is_one_run(self, rng):
        bundle = make_bundle(rng, num_users=6, num_items=10, extra_edges=6)
        result = run_strategy_search(bundle, quick_config())
        assert len(result.candidates) == 1

    def test_static_runs_per_candidate(self, rng):
        bundle = make_bundle(rng, num_users=6, num_items=10, extra_edges=6)
        config = quick_config(strategy="static", static_set=(0, 2, 4),
                              max_epochs=5, patience=5)
        result = run_strategy_search(bundle, config)
        assert [c["candidate"] for c in result.candidates] == [0, 2, 4]

    def test_default_static_set_is_six_runs(self, rng):
        bundle = make_bundle(rng, num_users=6, num_items=10, extra_edges=6)
        config = quick_config(strategy="static", max_epochs=2, patience=2)
        result = run_strategy_search(bundle, config)
        assert len(result.candidates) == 6

    def test_hybrid_probe_reuse(self, rng):
        bundle = make_bundle(rng, num_users=6, num_items=10, extra_edges=6)
        config = quick_config(strategy="hybrid", g=0.3, s=2, max_epochs=10,
                              patience=10)
        result = run_strategy_search(bundle, config)
        estimate = result.dynamic_estimate
        assert estimate is not None
        expected = list(range(max(0, estimate - 2), estimate + 3))
        assert sorted(c["candidate"] for c in result.candidates) == expected
        # The probe was reused: exactly one candidate is labelled dynamic.
        probe_rows = [c for c in result.candidates
                      if c["label"] == "dynamic_probe"]
        assert len(probe_rows) == 1
        assert probe_rows[0]["candidate"] == estimate

    def test_winner_has_best_validation_ndcg(self, rng):
        bundle = make_bundle(rng, num_users=6, num_items=10, extra_edges=6)
        config = quick_config(strategy="static", static_set=(0, 2),
                              max_epochs=5, patience=5)
        result = run_strategy_search(bundle, config)
        best = max(c["val_ndcg10"] for c in result.candidates)
        assert result.best_history.best_val_ndcg10() == pytest.approx(best)

    @pytest.mark.parametrize("overrides", [
        dict(strategy="static", static_set=(0, 2)),
        dict(mdvt_enabled=False)])
    def test_best_validation_ranks_the_best_state(self, rng, overrides):
        # The report's validation block is the best epoch's own ranking:
        # ranking the returned state again gives the same metrics.
        bundle = make_bundle(rng, num_users=8, num_items=10, extra_edges=8)
        config = quick_config(learning_rate=0.02, **overrides)
        result = run_strategy_search(bundle, config)
        assert result.best_history.best_epoch > 0  # not the first report
        again = evaluate_split(result.best_state, bundle, config,
                               "validation")
        assert result.best_validation.to_dict() == again.to_dict()
        assert len(again.buckets) == 4
        assert (result.best_validation.ndcg[10]
                == result.best_history.best_val_ndcg10())

    def test_disabled_is_single_baseline(self, rng):
        bundle = make_bundle(rng, num_users=6, num_items=10, extra_edges=6)
        result = run_strategy_search(bundle,
                                     quick_config(mdvt_enabled=False))
        assert result.strategy == "disabled"
        assert len(result.candidates) == 1


def tables(state):
    return [(key, table.tobytes()) for key, table in state.param_items()]


def shared(search) -> list[int]:
    """Candidates that never triggered: they are the trunk's own run."""
    return [c["candidate"] for c in search.candidates
            if c["trigger_epoch"] is None]


def search_config(**overrides) -> RunConfig:
    base = dict(embed_dim=8, num_layers=1, lam=0.2, top_n=2, batch_size=64,
                learning_rate=0.02, max_epochs=12, patience=12, seed=3,
                strategy="hybrid", g=0.2, s=2)
    base.update(overrides)
    return RunConfig(**base)


class TestTrunkSearch:
    """The shared-trunk search equals one independent run per candidate
    bit for bit, and trains each warm-up epoch once, whether forked
    candidates train in this process or in child processes."""

    def search(self, config, monkeypatch):
        bundle = planted_bundle(1, num_users=40, num_items=32, feature_dim=8)
        want, want_runs = independent_search(bundle, config)
        runs, forked, epochs, children = [], [], [], []
        add, gather = trainer.ForkPool.add, trainer.ForkPool.gather
        train_epoch, fork, waitpid = trainer.train_epoch, os.fork, os.waitpid

        # Candidates are recorded where the parent gathers them: a forked
        # candidate trains in a child process, out of this process's sight.
        def recorded(pool):
            runs[:] = gather(pool)
            return runs

        def noted(pool, what, *args, **kwargs):
            if kwargs.get("fork") and pool.processes > 1:
                forked.append(what.removeprefix("candidate "))
            return add(pool, what, *args, **kwargs)

        def counted(*args, **kwargs):
            epochs.append(1)
            return train_epoch(*args, **kwargs)

        def forking():
            children.append(1)
            return fork()

        def reaping(pid, options):
            children.append(-1)
            return waitpid(pid, options)

        monkeypatch.setattr(trainer.ForkPool, "gather", recorded)
        monkeypatch.setattr(trainer.ForkPool, "add", noted)
        monkeypatch.setattr(trainer, "train_epoch", counted)
        monkeypatch.setattr(os, "fork", forking)
        monkeypatch.setattr(os, "waitpid", reaping)
        warm, joint = [], 0
        for cand in want.candidates:
            trained = cand["stopped_epoch"] + 1
            trigger = cand["trigger_epoch"]
            warm.append(trained if trigger is None else min(trigger, trained))
            joint += trained - warm[-1]
        for processes in (1, 3):
            for record in (runs, forked, epochs, children):
                record.clear()
            monkeypatch.setattr(trainer, "candidate_processes",
                                lambda: processes)
            got = run_strategy_search(bundle, config)

            assert got.candidates == want.candidates
            assert (got.strategy, got.resolved_trigger,
                    got.dynamic_estimate) == (want.strategy,
                                              want.resolved_trigger,
                                              want.dynamic_estimate)
            assert got.best_history.to_dict() == want.best_history.to_dict()
            assert tables(got.best_state) == tables(want.best_state)
            assert (got.best_validation.to_dict()
                    == want.best_validation.to_dict())
            by_label = {run.label: run for run in runs}
            assert sorted(by_label) == sorted(r.label for r in want_runs)
            for ref in want_runs:
                run = by_label[ref.label]
                assert run.history.to_dict() == ref.history.to_dict()
                assert tables(run.state) == tables(ref.state)
                assert run.validation.to_dict() == ref.validation.to_dict()

            # The parent trains every epoch but the forked candidates'
            # joint epochs, which their children train.
            in_children = sum(c["stopped_epoch"] + 1 - c["candidate"]
                              for c in want.candidates
                              if c["label"] in forked)
            assert len(epochs) == max(warm) + joint - in_children
            self.most_children = max(itertools.accumulate(children),
                                     default=0)
            assert children.count(1) == len(forked)
            assert self.most_children <= processes
        self.forked = forked
        return want

    def test_static_candidate_zero_and_duplicates(self, monkeypatch):
        want = self.search(search_config(strategy="static",
                                         static_set=(6, 0, 3, 3)),
                           monkeypatch)
        assert [c["candidate"] for c in want.candidates] == [0, 3, 6]
        assert self.forked == ["static:0", "static:3"]

    def test_static_candidates_past_the_trunk(self, monkeypatch):
        # The warm-up-only trunk stops early at epoch 3: candidates 4 and 6
        # never trigger, nor do 12 and 15 (at or past max_epochs).
        want = self.search(search_config(strategy="static", seed=1,
                                         patience=1,
                                         static_set=(0, 2, 4, 6, 12, 15)),
                           monkeypatch)
        assert shared(want) == [4, 6, 12, 15]
        assert self.forked == ["static:0", "static:2"]

    def test_hybrid_window_below_zero(self, monkeypatch):
        want = self.search(search_config(seed=0, patience=2, s=5),
                           monkeypatch)
        assert want.dynamic_estimate - 5 < 0
        assert sorted(c["candidate"] for c in want.candidates) == \
            list(range(0, want.dynamic_estimate + 6))
        # More forks than the three child slots: the oldest is waited for.
        assert self.forked == [c["label"] for c in want.candidates[:-1]]
        assert self.most_children == 3

    def test_hybrid_trunk_stops_before_the_top(self, monkeypatch):
        # Estimate 2; the trunk stops early at epoch 3, so 4..7 share it.
        want = self.search(search_config(seed=1, patience=1, s=5),
                           monkeypatch)
        assert want.dynamic_estimate == 2
        assert shared(want) == [4, 5, 6, 7]

    def test_hybrid_top_past_max_epochs(self, monkeypatch):
        want = self.search(search_config(seed=1, patience=2, s=5,
                                         learning_rate=0.05), monkeypatch)
        assert want.dynamic_estimate == 8
        assert shared(want) == [12, 13]

    def test_probe_never_fires(self, monkeypatch):
        want = self.search(search_config(g=0.001), monkeypatch)
        assert want.dynamic_estimate is None
        assert [c["label"] for c in want.candidates] == ["dynamic_probe"]

    @pytest.mark.parametrize("overrides", [
        {"strategy": "dynamic"}, {"lam": 0.0}, {"mdvt_enabled": False},
        {"lam": 0.0, "strategy": "static"}])
    def test_single_run_paths(self, monkeypatch, overrides):
        self.search(search_config(**overrides), monkeypatch)
        assert self.forked == []

    @pytest.mark.parametrize("overrides, estimate, stopped", [
        (dict(g=0.001), None, 11),
        # The rule holds at the start of epoch 8: a run of 9 epochs trains
        # it as its one joint epoch; a run of 8 has stopped and never fires.
        (dict(seed=1, patience=2, learning_rate=0.05, max_epochs=9), 8, 8),
        (dict(seed=1, patience=2, learning_rate=0.05, max_epochs=8), None,
         7)], ids=["never_fires", "fires_on_the_last_epoch", "too_late"])
    def test_dynamic(self, monkeypatch, overrides, estimate, stopped):
        # The dynamic run is the trunk, taken over at its estimate (the
        # fired case of the default config is a single_run_paths case).
        want = self.search(search_config(strategy="dynamic", **overrides),
                           monkeypatch)
        assert want.dynamic_estimate == want.resolved_trigger == estimate
        assert [(c["label"], c["candidate"], c["trigger_epoch"],
                 c["stopped_epoch"]) for c in want.candidates] == [
            ("dynamic", estimate, estimate, stopped)]
        assert self.forked == []


class TestCheckpoint:
    def test_round_trip(self, rng, tmp_path):
        bundle = make_bundle(rng, num_users=5, num_items=8, extra_edges=4)
        config = quick_config(max_epochs=2, patience=2)
        state, _ = train_run(bundle, config)
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, state, config, "fp-123")
        loaded_config, fp, tables = load_checkpoint(path)
        assert fp == "fp-123"
        assert loaded_config == config
        rebuilt = state_from_tables(tables, bundle, config.embed_dim)
        for key, table in state.param_items():
            role, m = key.split(".", 1)
            got = rebuilt.user[m] if role == "user" else rebuilt.item[m]
            assert np.allclose(got, table, atol=1e-6)

    def test_mismatched_tables_rejected(self, rng):
        bundle = make_bundle(rng, num_users=2, num_items=3, extra_edges=0,
                             with_features=False)
        good = {"user.id": np.zeros((2, 4)), "item.id": np.zeros((3, 4))}
        for bad in ({}, {**good, "user.id": np.zeros((2, 5))},
                    {**good, "user.v": np.zeros((1, 4)),
                     "item.v": np.zeros((3, 4))},
                    {**good, "user_v": np.zeros((2, 4))},
                    {**good, "role.v": np.zeros((2, 4))}):
            with pytest.raises(CheckpointError):
                state_from_tables(bad, bundle, 4)
        assert state_from_tables(good, bundle, 4).tables["id"].shape == \
            (5, 4)

    def test_byte_stable(self, rng, tmp_path):
        bundle = make_bundle(rng, num_users=5, num_items=8, extra_edges=4)
        config = quick_config(max_epochs=2, patience=2)
        state, _ = train_run(bundle, config)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, state, config, "fp")
        save_checkpoint(b, state, config, "fp")
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"JUNKJUNK" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_corrupt_config_detected(self, rng, tmp_path):
        bundle = make_bundle(rng, num_users=5, num_items=8, extra_edges=4)
        config = quick_config(max_epochs=1, patience=1)
        state, _ = train_run(bundle, config)
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, state, config, "fp")
        blob = bytearray(path.read_bytes())
        # Flip a byte inside the config blob (past magic + hash record).
        blob[8 + 4 + 64 + 4 + 10] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="hash"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.ckpt")


class TestStateViews:
    """``user[m]``/``item[m]`` are views of the object's own ``tables[m]``
    however a state was made; writing through them moves that object's
    forward pass and nothing else."""

    def check_own_views(self, state, other, prop):
        untouched = {m: t.copy() for m, t in other.tables.items()}
        for m in state.modalities:
            for view in (state.user[m], state.item[m]):
                assert np.shares_memory(view, state.tables[m])
                assert not np.shares_memory(view, other.tables[m])
            before = backbone.forward_pass(state, prop,
                                           RunConfig()).finals[m]
            state.user[m][0] += 1.0
            state.item[m][-1] -= 1.0
            after = backbone.forward_pass(state, prop, RunConfig()).finals[m]
            assert not np.array_equal(before[0], after[0])
            assert not np.array_equal(before[-1], after[-1])
        for m, table in other.tables.items():
            assert np.array_equal(table, untouched[m])

    def test_copy(self, rng):
        bundle = make_bundle(rng)
        prop = trainer.propagator(bundle, "dual")
        state = trainer.TrainingRun(bundle, quick_config()).state
        copied = state.copy()
        self.check_own_views(copied, state, prop)
        self.check_own_views(state, copied, prop)

    def test_fork(self, rng):
        bundle = make_bundle(rng)
        trunk = trainer.TrainingRun(bundle, quick_config(), trigger=6)
        trunk.step()
        fork = trunk.fork(1)
        self.check_own_views(fork.state, trunk.state, trunk.prop)
        self.check_own_views(trunk.state, fork.state, trunk.prop)
        for m in trunk.state.modalities:
            assert not np.shares_memory(fork.opt.m[m], trunk.opt.m[m])
        # Training the fork (a joint epoch) leaves the trunk where it was.
        kept = tables(trunk.state), trunk.opt.step
        fork.step()
        assert (tables(trunk.state), trunk.opt.step) == kept
        assert tables(fork.state) != kept[0]

    def test_checkpoint(self, rng, tmp_path):
        bundle = make_bundle(rng)
        config = quick_config()
        state = trainer.TrainingRun(bundle, config).state
        save_checkpoint(tmp_path / "run.ckpt", state, config, "fp")
        loaded = [state_from_tables(load_checkpoint(tmp_path / "run.ckpt")[2],
                                    bundle, config.embed_dim)
                  for _ in range(2)]
        prop = trainer.propagator(bundle, config.norm)
        self.check_own_views(loaded[0], loaded[1], prop)
        self.check_own_views(loaded[1], state, prop)


class TestEvaluateSplit:
    def test_test_mask_includes_validation(self, rng):
        bundle = make_bundle(rng, num_users=6, num_items=10, extra_edges=6)
        config = quick_config(max_epochs=1, patience=1)
        state, _ = train_run(bundle, config)
        report = evaluate_split(state, bundle, config, "test")
        assert report.num_users_evaluated > 0
        assert set(report.recall) == {5, 10}
        assert len(report.buckets) == 4

    def test_repeated_calls_build_the_operator_once(self, rng, monkeypatch):
        bundle = make_bundle(rng, num_users=6, num_items=10, extra_edges=6)
        config = quick_config(max_epochs=3, patience=3)
        builds = []
        build = backbone.Propagator.__init__

        def counted(self, *args, **kwargs):
            builds.append(args)
            build(self, *args, **kwargs)

        monkeypatch.setattr(backbone.Propagator, "__init__", counted)
        state, _ = train_run(bundle, config)  # one evaluation per epoch
        first = evaluate_split(state, bundle, config, "test").to_dict()
        again = evaluate_split(state, bundle, config, "test").to_dict()
        evaluate_split(state, bundle, config, "validation")
        assert len(builds) == 1
        assert first == again
        mask = bundle.split.train_and_validation
        assert mask is bundle.split.train_and_validation
        for u in range(bundle.num_users):
            assert set(mask[u].tolist()) == (
                set(bundle.split.train.adjacency[u].tolist())
                | set(bundle.split.validation.adjacency[u].tolist()))

    def test_unknown_split_rejected(self, rng):
        bundle = make_bundle(rng, num_users=5, num_items=8, extra_edges=4)
        config = quick_config(max_epochs=1, patience=1)
        state, _ = train_run(bundle, config)
        with pytest.raises(ConfigError):
            evaluate_split(state, bundle, config, "holdout")


class TestReportingOptions:
    def test_sum_reporting_scales_by_train_size(self, rng):
        bundle = make_bundle(rng, num_users=6, num_items=10, extra_edges=6)
        mean_cfg = quick_config(mdvt_enabled=False, max_epochs=2, patience=2)
        sum_cfg = dataclasses.replace(mean_cfg, loss_reporting="sum")
        _, mean_hist = train_run(bundle, mean_cfg)
        _, sum_hist = train_run(bundle, sum_cfg)
        n = len(bundle.split.train)
        for a, b in zip(mean_hist.l_bpr, sum_hist.l_bpr):
            assert b == pytest.approx(n * a, rel=1e-12)

    def test_max_epochs_caps_run(self, rng):
        bundle = make_bundle(rng, num_users=6, num_items=10, extra_edges=6)
        _, history = train_run(bundle, quick_config(max_epochs=3,
                                                    patience=99))
        assert len(history.l_bpr) == 3

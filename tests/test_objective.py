import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_set
from planted import bundle_with
from gradtools import (as_float64, batch_losses, finite_difference,
                       max_relative_error, total_loss)
from mdvt import objective
from mdvt.backbone import Propagator, forward_pass, init_embeddings
from mdvt.dataset import TripletBatch, build_graph, make_batches
from mdvt.errors import ConfigError, MdvtError
from mdvt.objective import (OptimizerState, adam_step, backward,
                            batch_vertices, softplus)
from mdvt.trainer import RunConfig
from mdvt.triplet_forge import refresh
from oracles import (adam_step_whole_table, aggregate_virtual,
                     backward_add_at, bpr_loss, groups_of, make_virtual,
                     virtual_branch_oracle, virtual_bpr_loss)

LN2 = float(np.log(2.0))


def bounded_records(rng, num_users, num_items, max_user_degree):
    """Covered bipartite edges with a per-user degree cap, so every user
    keeps enough free items for top-n selection."""
    pairs = {(i % num_users, i) for i in range(num_items)}
    degrees = {u: sum(1 for p in pairs if p[0] == u)
               for u in range(num_users)}
    for u in range(num_users):
        while degrees[u] < 1:
            pairs.add((u, int(rng.integers(num_items))))
            degrees[u] = sum(1 for p in pairs if p[0] == u)
    for _ in range(num_users):
        u = int(rng.integers(num_users))
        if degrees[u] >= max_user_degree:
            continue
        pairs.add((u, int(rng.integers(num_items))))
        degrees[u] = sum(1 for p in pairs if p[0] == u)
    return sorted(pairs)


def make_instance(rng, num_users=4, num_items=8, d=3, layers=1,
                  mask=("id", "visual"), n=2, batch=6, float64=False):
    """Graph + state + reps + batch + virtual set for gradient work; with
    ``float64`` the tables (and so the reps) are cast to float64."""
    records = bounded_records(rng, num_users, num_items,
                              max_user_degree=num_items - 2 * n)
    train = make_set(records, num_users, num_items)
    graph = build_graph(train)
    feats = rng.normal(size=(num_items, d + 1)).astype(np.float32)
    state = init_embeddings({"visual": feats}, num_users, num_items, d,
                            seed=int(rng.integers(1e6)))
    if float64:
        state = as_float64(state)
    prop = Propagator(graph)
    config = RunConfig(num_layers=layers, modality_mask=mask, top_n=n)
    reps = forward_pass(state, prop, config)
    users = rng.integers(num_users, size=batch)
    pos = np.array([graph.adjacency[u][rng.integers(len(graph.adjacency[u]))]
                    for u in users])
    neg = np.array([
        int(rng.choice([i for i in range(num_items)
                        if not graph.has_edge(int(u), i)]))
        for u in users])
    triplets = TripletBatch(users=users.astype(np.int64),
                            pos_items=pos.astype(np.int64),
                            neg_items=neg.astype(np.int64))
    trainable = np.flatnonzero(train.adjacency.row_lengths)
    virtual = refresh(reps, config, train.adjacency, trainable,
                      item_counts=graph.degrees[num_users:])
    return state, prop, graph, reps, triplets, virtual


def random_virtual(rng, num_users, num_items, max_group):
    """Disjoint groups of 1..max_group items; about a fifth of the users
    stay uncovered."""
    pos, neg = {}, {}
    for u in range(num_users):
        if rng.random() < 0.2:
            continue
        n = int(rng.integers(1, max_group + 1))
        items = rng.permutation(num_items)[:2 * n]
        pos[u], neg[u] = items[:n], items[n:]
    return make_virtual(pos, neg)


class TestBprLoss:
    def test_zero_gap_is_ln2(self):
        assert bpr_loss(np.array([1.0]), np.array([1.0])) == \
            pytest.approx(LN2, abs=1e-9)

    def test_large_gap_finite_and_tiny(self):
        value = bpr_loss(np.array([100.0]), np.array([0.0]))
        assert np.isfinite(value)
        assert 0.0 <= value <= 1e-40

    def test_mean_over_batch(self):
        value = bpr_loss(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        assert value == pytest.approx(LN2, abs=1e-9)

    def test_large_negative_gap_no_overflow(self):
        value = bpr_loss(np.array([0.0]), np.array([500.0]))
        assert np.isfinite(value)
        assert value == pytest.approx(500.0, rel=1e-9)

    def test_monotone_in_positive_score(self):
        base = bpr_loss(np.array([0.2]), np.array([0.1]))
        higher = bpr_loss(np.array([0.3]), np.array([0.1]))
        assert higher < base


class TestAggregateVirtual:
    def test_single_item_group(self):
        items = np.array([[1.0, 2.0], [3.0, 4.0]])
        vset = make_virtual({0: np.array([1])}, {0: np.array([0])})
        plus, minus = aggregate_virtual(0, vset, items)
        assert plus.tolist() == [3.0, 4.0]
        assert minus.tolist() == [1.0, 2.0]

    def test_two_item_mean(self):
        # Groups of a user have equal sizes (rank-matched pairs).
        items = np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0], [7.0, 7.0]])
        vset = make_virtual({0: np.array([0, 1])}, {0: np.array([2, 3])})
        plus, _ = aggregate_virtual(0, vset, items)
        assert plus.tolist() == [0.5, 0.5]

    def test_zero_vectors(self):
        items = np.zeros((2, 3))
        vset = make_virtual({0: np.array([0])}, {0: np.array([1])})
        plus, minus = aggregate_virtual(0, vset, items)
        assert not plus.any() and not minus.any()

    def test_missing_user_rejected(self):
        vset = make_virtual({0: np.array([0])}, {0: np.array([1])})
        with pytest.raises(KeyError):
            aggregate_virtual(3, vset, np.zeros((2, 2)))


class TestVirtualBprLoss:
    def test_equal_groups_give_ln2(self):
        items = np.array([[1.0, 0.0], [1.0, 0.0]])
        users = np.array([[0.3, 0.4]])
        vset = make_virtual({0: np.array([0])}, {0: np.array([1])})
        value = virtual_bpr_loss(np.array([0]), vset, users, items)
        assert value == pytest.approx(LN2, abs=1e-9)

    def test_orthogonal_user_gives_ln2(self):
        items = np.array([[1.0, 0.0], [0.5, 0.0]])
        users = np.array([[0.0, 2.0]])
        vset = make_virtual({0: np.array([0])}, {0: np.array([1])})
        value = virtual_bpr_loss(np.array([0]), vset, users, items)
        assert value == pytest.approx(LN2, abs=1e-9)

    def test_wo_aggr_single_pair_identical(self, rng):
        items = rng.normal(size=(4, 3))
        users = rng.normal(size=(2, 3))
        vset = make_virtual({0: np.array([2]), 1: np.array([0])},
                            {0: np.array([1]), 1: np.array([3])})
        batch_users = np.array([0, 1, 0])
        default = virtual_bpr_loss(batch_users, vset, users, items)
        ablated = virtual_bpr_loss(batch_users, vset, users, items,
                                   wo_aggr=True)
        assert default == pytest.approx(ablated, abs=1e-15)


class TestCombinedLoss:
    """``backward``'s ``l_total`` weighting of its ``l_bpr`` and ``l_vbpr``,
    to the last bit."""

    def losses(self, rng, warmup=False, **kv):
        state, prop, _, reps, batch, virtual = make_instance(rng)
        report, _ = backward(batch, None if warmup else virtual, reps, prop,
                             RunConfig(num_layers=1, **kv))
        return report

    def test_lambda_zero(self, rng):
        report = self.losses(rng, lam=0.0)
        assert report.l_vbpr is not None
        assert report.l_total == report.l_bpr

    def test_align_scaled(self, rng):
        report = self.losses(rng, lam=0.2)
        assert report.l_vbpr is not None
        assert report.l_total == (1.0 - 0.2) * report.l_bpr \
            + 0.2 * report.l_vbpr

    def test_wo_scale(self, rng):
        report = self.losses(rng, lam=0.2, wo_scale=True)
        assert report.l_total == report.l_bpr + 0.2 * report.l_vbpr

    def test_warmup_passthrough(self, rng):
        report = self.losses(rng, lam=0.3, warmup=True)
        assert report.l_vbpr is None
        assert report.l_total == report.l_bpr

    def test_lambda_out_of_range(self):
        # RunConfig rejects it; backward does not re-check it per batch.
        with pytest.raises(ConfigError, match="lam must lie"):
            RunConfig(lam=1.2)


class TestBackwardValues:
    def test_warmup_total_equals_bpr(self, rng):
        state, prop, _, reps, batch, virtual = make_instance(rng)
        report, _ = backward(batch, None, reps, prop,
                             RunConfig(lam=0.2, num_layers=1))
        assert report.l_vbpr is None
        assert report.l_total == report.l_bpr

    def test_joint_weighting(self, rng):
        state, prop, _, reps, batch, virtual = make_instance(rng)
        report, _ = backward(batch, virtual, reps, prop,
                             RunConfig(lam=0.2, num_layers=1))
        assert report.l_vbpr is not None
        assert report.l_total == pytest.approx(
            0.8 * report.l_bpr + 0.2 * report.l_vbpr, abs=1e-12)

    def test_wo_scale_formula_exact(self, rng):
        state, prop, _, reps, batch, virtual = make_instance(rng)
        report, _ = backward(batch, virtual, reps, prop,
                             RunConfig(lam=0.3, num_layers=1, wo_scale=True))
        assert report.l_total == report.l_bpr + 0.3 * report.l_vbpr

    def test_wo_aggr_n1_identical_losses_and_grads(self, rng):
        state, prop, _, reps, batch, virtual = make_instance(rng, n=1)
        config = RunConfig(lam=0.3, num_layers=1)
        base, gbase = backward(batch, virtual, reps, prop, config)
        ablt, gablt = backward(batch, virtual, reps, prop,
                               dataclasses.replace(config, wo_aggr=True))
        assert base.l_vbpr == pytest.approx(ablt.l_vbpr, abs=1e-12)
        assert base.l_total == pytest.approx(ablt.l_total, abs=1e-12)
        for m in gbase:
            assert np.allclose(gbase[m], gablt[m], atol=1e-12)

    def test_lambda_zero_matches_pure_bpr_gradients(self, rng):
        state, prop, _, reps, batch, virtual = make_instance(rng)
        config = RunConfig(lam=0.0, num_layers=1)
        _, g_joint = backward(batch, virtual, reps, prop, config)
        _, g_warm = backward(batch, None, reps, prop, config)
        for m in g_joint:
            assert np.array_equal(g_joint[m], g_warm[m])

    def test_gradient_touches_only_reachable_tables(self, rng):
        # L=0: gradients live exactly on the batch/virtual vertices.
        state, prop, _, _, _, _ = make_instance(rng)
        config = RunConfig(num_layers=0, modality_mask=("id", "visual"),
                           lam=0.0)
        reps = forward_pass(state, prop, config)
        batch = TripletBatch(users=np.array([0]), pos_items=np.array([1]),
                             neg_items=np.array([2]))
        report, grads = backward(batch, None, reps, prop, config)
        for m in grads:
            touched = np.flatnonzero(np.abs(grads[m]).sum(axis=1))
            # Vertex rows: user 0, items 1 and 2 after the state's users.
            nu = state.num_users
            assert set(touched.tolist()) <= {0, nu + 1, nu + 2}

    def test_loss_gap_derivative_at_zero(self):
        # d softplus(-g)/dg at g=0 is -(1 - sigmoid(0)) = -0.5.
        h = 1e-6
        lo = softplus(np.array([h]))[0]
        hi = softplus(np.array([-h]))[0]
        assert (hi - lo) / (2 * h) == pytest.approx(-0.5, abs=1e-6)

    def test_batch_losses_matches_backward(self, rng):
        state, prop, _, reps, batch, virtual = make_instance(rng)
        config = RunConfig(lam=0.4, num_layers=1, wo_aggr=True)
        report, _ = backward(batch, virtual, reps, prop, config)
        light = batch_losses(batch, virtual, reps, config)
        assert light.l_bpr == report.l_bpr
        assert light.l_vbpr == report.l_vbpr
        assert light.l_total == report.l_total


class TestGradientCheck:
    def gradcheck(self, rng, local=False, **kv):
        layers = kv.pop("layers", 1)
        mask = kv.pop("mask", ("id", "visual"))
        state, prop, _, reps, batch, virtual = make_instance(
            rng, layers=layers, mask=mask, float64=True,
            **{k: v for k, v in kv.items() if k in ("n", "d")})
        vset = virtual if kv.get("joint", True) else None
        config = RunConfig(num_layers=layers, modality_mask=mask,
                           lam=kv.get("lam", 0.3),
                           wo_aggr=kv.get("wo_aggr", False),
                           wo_scale=kv.get("wo_scale", False),
                           score_mode=kv.get("score_mode", "per_modality"))
        if local:  # the batch-local step's compact pass
            rows = batch_vertices(batch, vset, state.num_users,
                                  prop.matrix.shape[0])
            reps = forward_pass(state, prop, config, rows=rows)
        _, analytic = backward(batch, vset, reps, prop, config)
        numeric = finite_difference(
            lambda s: total_loss(s, prop, batch, vset, config), state)
        return max_relative_error(analytic, numeric)

    def test_bpr_only(self, rng):
        assert self.gradcheck(rng, joint=False) <= 1e-4

    def test_joint_default(self, rng):
        assert self.gradcheck(rng) <= 1e-4

    def test_joint_wo_aggr(self, rng):
        assert self.gradcheck(rng, wo_aggr=True) <= 1e-4

    def test_joint_wo_scale(self, rng):
        assert self.gradcheck(rng, wo_scale=True) <= 1e-4

    def test_fused_scoring(self, rng):
        assert self.gradcheck(rng, score_mode="fused") <= 1e-4

    def test_id_only_mask(self, rng):
        assert self.gradcheck(rng, mask=("id",)) <= 1e-4

    def test_no_propagation(self, rng):
        assert self.gradcheck(rng, layers=0) <= 1e-4

    def test_two_layers(self, rng):
        assert self.gradcheck(rng, layers=2) <= 1e-4

    @pytest.mark.parametrize("kv", [
        dict(joint=False), {}, dict(wo_aggr=True), dict(wo_scale=True),
        dict(score_mode="fused"), dict(mask=("id",)), dict(layers=0),
        dict(layers=2), dict(layers=3)],
        ids=["bpr_only", "joint", "wo_aggr", "wo_scale", "fused", "id_only",
             "layers0", "layers2", "layers3"])
    def test_local_step(self, rng, kv):
        assert self.gradcheck(rng, local=True, **kv) <= 1e-4


class TestAdam:
    def make_state(self, rng):
        return init_embeddings({}, 2, 3, 2, seed=int(rng.integers(1e6)))

    def zero_grads(self, state):
        return {m: np.zeros_like(t) for m, t in state.tables.items()}

    def test_zero_gradient_keeps_parameters(self, rng):
        state = self.make_state(rng)
        before = {k: t.copy() for k, t in state.param_items()}
        opt = OptimizerState.for_state(state)
        adam_step(state, opt, self.zero_grads(state),
                  RunConfig(learning_rate=0.1))
        for key, table in state.param_items():
            assert np.array_equal(before[key], table)

    def test_first_step_magnitude_is_lr(self, rng):
        state = self.make_state(rng)
        before = {k: t.copy() for k, t in state.param_items()}
        opt = OptimizerState.for_state(state)
        grads = self.zero_grads(state)
        grads["id"][:state.num_users] = 0.7
        adam_step(state, opt, grads, RunConfig(learning_rate=0.05))
        delta = before["user.id"] - state.user["id"]
        assert np.allclose(delta, 0.05, rtol=1e-6)

    def test_two_runs_identical(self, rng):
        seed = int(rng.integers(1e6))
        results = []
        for _ in range(2):
            state = init_embeddings({}, 2, 3, 2, seed=seed)
            opt = OptimizerState.for_state(state)
            grads = self.zero_grads(state)
            grads["id"][state.num_users:] = -0.3
            for _ in range(5):
                adam_step(state, opt, grads, RunConfig(learning_rate=0.01))
            results.append(state.item["id"].copy())
        assert np.array_equal(results[0], results[1])

    def test_nan_gradient_aborts_with_table_name(self, rng):
        state = self.make_state(rng)
        opt = OptimizerState.for_state(state)
        grads = self.zero_grads(state)
        grads["id"][0, 0] = np.nan
        with pytest.raises(MdvtError, match="user.id"):
            adam_step(state, opt, grads, RunConfig(learning_rate=0.01))


    @pytest.mark.parametrize("modality", ["id", "visual"])
    @pytest.mark.parametrize("row", [0, -1])
    def test_non_finite_gradient_moves_nothing(self, rng, modality, row):
        # Every gradient is checked before any table or moment moves; an
        # item row (-1) names the item table.
        state = init_embeddings({"visual": rng.normal(size=(3, 2))}, 2, 3, 2,
                                seed=int(rng.integers(1e6)))
        opt = OptimizerState.for_state(state)
        config = RunConfig(learning_rate=0.01)
        grads = {m: np.full_like(t, 0.5) for m, t in state.tables.items()}
        adam_step(state, opt, grads, config)
        before = [t.copy() for t in (*state.tables.values(),
                                     *opt.m.values(), *opt.v.values())]
        grads[modality][row, 1] = np.inf if row else np.nan
        role = "user" if row == 0 else "item"
        with pytest.raises(MdvtError,
                           match=f"table {role}.{modality} at optimizer "
                                 "step 2"):
            adam_step(state, opt, grads, config)
        after = [*state.tables.values(), *opt.m.values(), *opt.v.values()]
        for want, got in zip(before, after):
            assert np.array_equal(want, got)

    @pytest.mark.parametrize("block, num_users, num_items",
                             [(3, 3, 5), (None, 300, 700)])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_blocks_match_whole_table_oracle(self, rng, monkeypatch, block,
                                             num_users, num_items,
                                             weight_decay):
        # 8 rows in blocks of 3, and 1000 rows in the default blocks: the
        # last block is short in both.
        if block is not None:
            monkeypatch.setattr(objective, "ROW_BLOCK", block)
        assert (num_users + num_items) % objective.ROW_BLOCK
        features = {"visual": rng.normal(size=(num_items, 3))}
        config = RunConfig(learning_rate=0.01, weight_decay=weight_decay)
        runs = []
        for _ in range(2):
            state = init_embeddings(features, num_users, num_items, 3,
                                    seed=21)
            runs.append((state, OptimizerState.for_state(state)))
        for _ in range(4):
            grads = {m: rng.normal(size=t.shape)
                     for m, t in runs[0][0].tables.items()}
            adam_step(*runs[0], {m: g.copy() for m, g in grads.items()},
                      config)
            adam_step_whole_table(*runs[1], grads, config)
        (state, opt), (want_state, want_opt) = runs
        assert opt.step == want_opt.step == 4
        for got, want in ((state.tables, want_state.tables),
                          (opt.m, want_opt.m), (opt.v, want_opt.v)):
            for m in got:
                assert got[m].tobytes() == want[m].tobytes()

    def test_non_finite_in_a_later_block_moves_nothing(self, rng,
                                                       monkeypatch):
        # The check covers every block of every table before the first
        # block moves.
        monkeypatch.setattr(objective, "ROW_BLOCK", 3)
        state = init_embeddings({"visual": rng.normal(size=(5, 2))}, 3, 5, 2,
                                seed=4)
        opt = OptimizerState.for_state(state)
        config = RunConfig(learning_rate=0.01)
        grads = {m: np.full_like(t, 0.5) for m, t in state.tables.items()}
        adam_step(state, opt, grads, config)
        before = [t.copy() for t in (*state.tables.values(),
                                     *opt.m.values(), *opt.v.values())]
        grads["visual"][7, 1] = np.inf
        with pytest.raises(MdvtError,
                           match="table item.visual at optimizer step 2"):
            adam_step(state, opt, grads, config)
        after = [*state.tables.values(), *opt.m.values(), *opt.v.values()]
        for want, got in zip(before, after):
            assert np.array_equal(want, got)


class TestOptionSwitches:
    def test_virtual_loss_consistent_with_backward(self, rng):
        state, prop, _, reps, batch, virtual = make_instance(rng,
                                                             float64=True)
        for wo_aggr in (False, True):
            standalone = virtual_bpr_loss(batch.users, virtual,
                                          reps.fused_users,
                                          reps.fused_items, wo_aggr=wo_aggr)
            report, _ = backward(batch, virtual, reps, prop,
                                 RunConfig(lam=0.5, num_layers=1,
                                           wo_aggr=wo_aggr))
            assert standalone == pytest.approx(report.l_vbpr, abs=1e-12)

    def test_gradcheck_sym_norm_and_mean_readout(self, rng):
        from mdvt.backbone import Propagator as P
        records = bounded_records(rng, 4, 8, max_user_degree=4)
        train = make_set(records, 4, 8)
        graph = build_graph(train)
        feats = rng.normal(size=(8, 4)).astype(np.float32)
        state = as_float64(init_embeddings({"visual": feats}, 4, 8, 3,
                                           seed=5))
        prop = P(graph, norm="sym")
        config = RunConfig(num_layers=2, modality_mask=("id", "visual"),
                           readout="mean", lam=0.3)
        reps = forward_pass(state, prop, config)
        users = np.array([0, 1, 2])
        pos = np.array([graph.adjacency[u][0] for u in users])
        neg = np.array([
            int(rng.choice([i for i in range(8)
                            if not graph.has_edge(int(u), i)]))
            for u in users])
        batch = TripletBatch(users=users, pos_items=pos, neg_items=neg)
        trainable = np.flatnonzero(train.adjacency.row_lengths)
        virtual = refresh(reps, config, train.adjacency, trainable,
                          item_counts=graph.degrees[4:])
        _, analytic = backward(batch, virtual, reps, prop, config)
        numeric = finite_difference(
            lambda s: total_loss(s, prop, batch, virtual, config), state)
        assert max_relative_error(analytic, numeric) <= 1e-4

    def test_per_distinct_user_dedupes_entries(self, rng):
        # The virtual term depends only on the batch users, so placeholder
        # items are fine here.
        state, prop, _, reps, _, virtual = make_instance(rng)
        users = np.array([0, 0, 0, 1], dtype=np.int64)
        batch = TripletBatch(users=users,
                             pos_items=np.zeros(4, dtype=np.int64),
                             neg_items=np.ones(4, dtype=np.int64))
        config = RunConfig(lam=1.0, num_layers=1)
        default, _ = backward(batch, virtual, reps, prop, config)
        deduped, _ = backward(
            batch, virtual, reps, prop,
            dataclasses.replace(config, per_distinct_user=True))
        # User 0 appears three times: its term is weighted 3/4 in the
        # default mode but 1/2 when deduplicated.
        assert default.l_vbpr != pytest.approx(deduped.l_vbpr)

    def test_gradcheck_per_distinct_user(self, rng):
        state, prop, _, reps, _, virtual = make_instance(rng, float64=True)
        users = np.array([0, 0, 1, 2, 2, 2], dtype=np.int64)
        pos = np.array([int(np.random.default_rng(1).choice(
            [i for i in range(8)])) for _ in users], dtype=np.int64)
        batch = TripletBatch(users=users, pos_items=pos,
                             neg_items=(pos + 1) % 8)
        config = RunConfig(num_layers=1, modality_mask=("id", "visual"),
                           lam=0.4, per_distinct_user=True)
        _, analytic = backward(batch, virtual, reps, prop, config)
        numeric = finite_difference(
            lambda s: total_loss(s, prop, batch, virtual, config), state)
        assert max_relative_error(analytic, numeric) <= 1e-4

    def test_weight_decay_shrinks_parameters(self, rng):
        state = init_embeddings({}, 2, 3, 2, seed=8)
        opt = OptimizerState.for_state(state)
        config = RunConfig(learning_rate=0.01, weight_decay=0.1)
        grads = {m: np.zeros_like(t) for m, t in state.tables.items()}
        norm_before = np.linalg.norm(state.user["id"])
        for _ in range(20):
            adam_step(state, opt, grads, config)
        assert np.linalg.norm(state.user["id"]) < norm_before


class TestVirtualBranchOracle:
    """The batched virtual branch against the one-user-at-a-time loop:
    with lam=1, no propagation and one fused modality, the table gradients
    are exactly the fused-matrix gradient of the virtual loss. The loop
    computes in the tables' dtype, float32 as trained or float64."""

    @pytest.mark.parametrize("max_group", [1, 2, 5])
    @pytest.mark.parametrize("wo_aggr", [False, True])
    @pytest.mark.parametrize("per_distinct_user", [False, True])
    def test_matches_per_user_loop(self, rng, max_group, wo_aggr,
                                   per_distinct_user):
        config = RunConfig(num_layers=0, modality_mask=("id",), lam=1.0,
                           wo_aggr=wo_aggr,
                           per_distinct_user=per_distinct_user)
        for float64 in (False, True) * 5:
            state, prop, _, _, _, _ = make_instance(rng, num_users=7,
                                                    num_items=12,
                                                    float64=float64)
            reps = forward_pass(state, prop, config)
            virtual = random_virtual(rng, 7, 12, max_group)
            users = rng.integers(7, size=12)  # repeats and uncovered users
            batch = TripletBatch(users=users,
                                 pos_items=np.zeros(12, dtype=np.int64),
                                 neg_items=np.ones(12, dtype=np.int64))
            report, grads = backward(batch, virtual, reps, prop, config)
            want_loss, want_grad = virtual_branch_oracle(
                users, virtual, reps.fused, reps.num_users, 1.0, wo_aggr,
                per_distinct_user)
            if want_loss is None:
                assert report.l_vbpr is None
                continue
            assert abs(report.l_vbpr - want_loss) <= 1e-12
            assert np.max(np.abs(grads["id"] - want_grad)) <= 1e-12

    def test_uncovered_batch_has_no_virtual_loss(self, rng):
        state, prop, _, reps, batch, _ = make_instance(rng)
        virtual = make_virtual({99: [0]}, {99: [1]})
        report, _ = backward(batch, virtual, reps, prop,
                             RunConfig(lam=0.3, num_layers=1))
        assert report.l_vbpr is None
        assert report.l_total == 0.7 * report.l_bpr

    @pytest.mark.parametrize("wo_aggr", [False, True])
    @pytest.mark.parametrize("per_distinct_user", [False, True])
    def test_gradcheck_variable_groups(self, rng, wo_aggr,
                                       per_distinct_user):
        state, prop, _, reps, batch, _ = make_instance(rng, num_items=10,
                                                       batch=8, float64=True)
        virtual = random_virtual(rng, 4, 10, 4)
        config = RunConfig(num_layers=1, modality_mask=("id", "visual"),
                           lam=0.4, wo_aggr=wo_aggr,
                           per_distinct_user=per_distinct_user)
        _, analytic = backward(batch, virtual, reps, prop, config)
        numeric = finite_difference(
            lambda s: total_loss(s, prop, batch, virtual, config), state)
        assert max_relative_error(analytic, numeric) <= 1e-4


class TestScatterOracle:
    """``backward``'s selection-CSR scatters against ``np.add.at`` into
    zeroed arrays (``oracles.backward_add_at``): losses and every gradient
    bit for bit, on batches that repeat users and items, at float32 as
    trained and on float64 tables."""

    @pytest.mark.parametrize("norm", ["dual", "sym"])
    @pytest.mark.parametrize("readout_mode", ["sum", "mean"])
    @pytest.mark.parametrize("score_mode", ["per_modality", "fused"])
    def test_matches_add_at(self, rng, norm, readout_mode, score_mode):
        num_users, num_items = 7, 12
        graph = build_graph(make_set(
            bounded_records(rng, num_users, num_items, 6), num_users,
            num_items))
        prop = Propagator(graph, norm)
        features = {
            "visual": rng.normal(size=(num_items, 5)).astype(np.float32)}
        state = init_embeddings(features, num_users, num_items, 4, seed=3)
        cases = 0
        for (layers, mask), tables in itertools.product(
                ((0, ("id", "visual")), (1, ("visual",)),
                 (2, ("id", "visual")), (1, ("id", "visual", "visual"))),
                (state, as_float64(state))):
            reps = forward_pass(tables, prop, RunConfig(
                num_layers=layers, modality_mask=mask, readout=readout_mode))
            batch = TripletBatch(
                users=rng.integers(num_users, size=20),
                pos_items=rng.integers(num_items, size=20),
                neg_items=rng.integers(num_items, size=20))
            virtual = random_virtual(rng, num_users, num_items, 3)
            for vset, lam, wo_aggr, wo_scale, per_distinct_user in (
                    itertools.product((None, virtual), (0.3, 1.0),
                                      (False, True), (False, True),
                                      (False, True))):
                config = RunConfig(
                    lam=lam, num_layers=layers, modality_mask=mask,
                    wo_aggr=wo_aggr, wo_scale=wo_scale,
                    score_mode=score_mode, readout=readout_mode,
                    per_distinct_user=per_distinct_user)
                got, grads = backward(batch, vset, reps, prop, config)
                want, want_grads = backward_add_at(batch, vset, reps, prop,
                                                   config)
                assert (got.l_bpr, got.l_vbpr, got.l_total) == (
                    want.l_bpr, want.l_vbpr, want.l_total)
                assert grads.keys() == want_grads.keys()
                for m, g in grads.items():
                    assert g.tobytes() == want_grads[m].tobytes()
                cases += 1
        assert cases == 256


class TestLossBounds:
    def test_losses_nonnegative_on_random_instances(self, rng):
        for _ in range(20):
            state, prop, _, reps, batch, virtual = make_instance(rng)
            report, _ = backward(batch, virtual, reps, prop,
                                 RunConfig(lam=0.4, num_layers=1))
            assert report.l_bpr >= 0.0
            assert report.l_vbpr >= 0.0

    def test_all_zero_gaps_give_ln2(self):
        gaps = np.zeros(5)
        assert float(np.mean(softplus(-gaps))) == pytest.approx(LN2)


class TestLocalStep:
    """The batch-local step against the full one: ``forward_pass`` over
    ``batch_vertices`` gives the full pass's rows, and ``backward`` on it
    gives the full pass's losses and gradients, bit for bit, at float32
    as trained and on float64 tables."""

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           layers=st.sampled_from([0, 1, 2, 3]),
           readout_mode=st.sampled_from(["sum", "mean"]),
           score_mode=st.sampled_from(["per_modality", "fused"]),
           norm=st.sampled_from(["dual", "sym"]),
           mask=st.sampled_from([("id", "visual"), ("visual",),
                                 ("id", "visual", "visual")]),
           joint=st.booleans(), lam=st.sampled_from([0.3, 1.0]),
           wo_aggr=st.booleans(), wo_scale=st.booleans(),
           per_distinct_user=st.booleans(), float64=st.booleans())
    def test_matches_full_step(self, seed, layers, readout_mode, score_mode,
                               norm, mask, joint, lam, wo_aggr, wo_scale,
                               per_distinct_user, float64):
        rng = np.random.default_rng(seed)
        num_users = int(rng.integers(2, 8))
        num_items = int(rng.integers(4, 12))
        graph = build_graph(make_set(
            bounded_records(rng, num_users, num_items, num_items - 2),
            num_users, num_items))
        prop = Propagator(graph, norm)
        features = {
            "visual": rng.normal(size=(num_items, 4)).astype(np.float32)}
        state = init_embeddings(features, num_users, num_items, 3,
                                seed=int(rng.integers(1e6)))
        if float64:
            state = as_float64(state)
        size = int(rng.integers(1, 10))
        batch = TripletBatch(users=rng.integers(num_users, size=size),
                             pos_items=rng.integers(num_items, size=size),
                             neg_items=rng.integers(num_items, size=size))
        virtual = (random_virtual(rng, num_users, num_items,
                                  min(3, num_items // 2)) if joint else None)

        rows = batch_vertices(batch, virtual, num_users, graph.num_vertices)
        want_rows = {*batch.users.tolist(),
                     *(batch.pos_items + num_users).tolist(),
                     *(batch.neg_items + num_users).tolist()}
        for u, (pos, neg) in (groups_of(virtual) if joint else {}).items():
            if u in batch.users:
                want_rows.update(i + num_users for i in (*pos, *neg))
        assert rows.tolist() == sorted(want_rows)

        config = RunConfig(
            num_layers=layers, modality_mask=mask, readout=readout_mode,
            lam=lam, wo_aggr=wo_aggr, wo_scale=wo_scale,
            score_mode=score_mode, per_distinct_user=per_distinct_user)
        full = forward_pass(state, prop, config)
        local = forward_pass(state, prop, config, rows)
        for m, f in full.finals.items():
            assert local.finals[m].tobytes() == f[rows].tobytes()
        assert local.fused.tobytes() == full.fused[rows].tobytes()

        got, grads = backward(batch, virtual, local, prop, config)
        want, want_grads = backward(batch, virtual, full, prop, config)
        assert (got.l_bpr, got.l_vbpr, got.l_total) == (
            want.l_bpr, want.l_vbpr, want.l_total)
        assert grads.keys() == want_grads.keys()
        for m, g in grads.items():
            assert g.tobytes() == want_grads[m].tobytes()


class TestVirtualStepBuffer:
    """A joint batch writes its virtual steps once: the steps scattered
    into the fused matrix are the buffer that ``_virtual_loss`` filled."""

    @pytest.mark.parametrize("score_mode", ["per_modality", "fused"])
    def test_scattered_steps_are_the_virtual_buffer(self, monkeypatch,
                                                    score_mode):
        bundle = bundle_with(3)
        config = RunConfig(embed_dim=8, batch_size=64, score_mode=score_mode)
        state = init_embeddings(bundle.features, bundle.num_users,
                                bundle.num_items, config.embed_dim, 3)
        prop = Propagator(bundle.graph, config.norm)
        full = forward_pass(state, prop, config)
        train = bundle.split.train
        virtual = refresh(full, config, train.adjacency,
                          bundle.split.trained_users,
                          bundle.graph.degrees[bundle.num_users:])
        rng = np.random.default_rng(0)
        batch = next(make_batches(train, bundle.graph, 64, rng, rng))
        rows = objective.batch_vertices(batch, virtual, bundle.num_users,
                                        bundle.graph.num_vertices)
        buffers, scattered = [], []
        virtual_loss, selection = objective._virtual_loss, objective._selection

        def watched_loss(*args):
            out = virtual_loss(*args)
            buffers.append(out[2])
            return out

        class Watched:
            def __init__(self, matrix):
                self.matrix = matrix

            def __matmul__(self, steps):
                scattered.append(steps)
                return self.matrix @ steps

        monkeypatch.setattr(objective, "_virtual_loss", watched_loss)
        monkeypatch.setattr(objective, "_selection",
                            lambda *args: Watched(selection(*args)))
        for reps in (full, forward_pass(state, prop, config, rows=rows)):
            backward(batch, virtual, reps, prop, config)
        assert len(buffers) == 2
        assert [any(s is b for s in scattered) for b in buffers] == [True] * 2

import numpy as np
import pytest

from conftest import covered_random_records, make_set
from mdvt.backbone import (EmbeddingState, Propagator, forward_pass,
                           init_embeddings, score_matrix)
from mdvt.dataset import build_graph
from mdvt.errors import ConfigError
from mdvt.trainer import RunConfig


def state_of(tables, num_users):
    """An EmbeddingState holding the given (V, d) tables."""
    return EmbeddingState(tables=tables, num_users=num_users,
                          embed_dim=next(iter(tables.values())).shape[1])


def make_reps(user_finals, item_finals, mask=None):
    """Representations straight from explicit per-modality matrices: a
    zero-layer forward pass over them."""
    tables = {m: np.vstack([u, i])
              for (m, u), i in zip(user_finals.items(),
                                   item_finals.values())}
    num_users = next(iter(user_finals.values())).shape[0]
    return forward_pass(state_of(tables, num_users), None,
                        RunConfig(num_layers=0, modality_mask=mask))


def final_of(x0, prop, num_layers, readout_mode="sum", num_users=1):
    """The final representation of one id table ``x0`` (users first)."""
    reps = forward_pass(state_of({"id": x0}, num_users), prop,
                        RunConfig(num_layers=num_layers, readout=readout_mode))
    return reps.finals["id"]


class TestInitEmbeddings:
    def test_same_seed_identical(self, rng):
        feats = rng.normal(size=(5, 3)).astype(np.float32)
        a = init_embeddings({"visual": feats}, 4, len(feats), 4, seed=9)
        b = init_embeddings({"visual": feats}, 4, len(feats), 4, seed=9)
        for (ka, ta), (kb, tb) in zip(a.param_items(), b.param_items()):
            assert ka == kb
            assert np.array_equal(ta, tb)

    def test_square_projection_is_identity(self, rng):
        feats = rng.normal(size=(5, 4)).astype(np.float32)
        state = init_embeddings({"visual": feats}, 3, len(feats), 4, seed=0)
        assert np.array_equal(state.item["visual"],
                              feats.astype(np.float64))

    def test_random_tables_within_range(self):
        state = init_embeddings({}, 5, 7, 16, seed=1)
        bound = 0.5 / np.sqrt(16)
        for _, table in state.param_items():
            assert np.all(table >= -bound)
            assert np.all(table < bound)

    def test_rectangular_projection_shape_and_determinism(self, rng):
        feats = rng.normal(size=(6, 10)).astype(np.float32)
        a = init_embeddings({"visual": feats}, 4, len(feats), 4, seed=2)
        b = init_embeddings({"visual": feats}, 4, len(feats), 4, seed=2)
        assert a.item["visual"].shape == (6, 4)
        assert np.array_equal(a.item["visual"], b.item["visual"])


class TestPropagate:
    def test_single_edge_unit_degrees(self):
        graph = build_graph(make_set([(0, 0)], 1, 1))
        prop = Propagator(graph)
        x0 = np.array([[2.0], [5.0]])
        # User picks up the item's layer-0 value and vice versa.
        layer1 = final_of(x0, prop, 1) - x0
        assert layer1[0, 0] == pytest.approx(5.0)
        assert layer1[1, 0] == pytest.approx(2.0)

    def test_two_item_mean(self):
        graph = build_graph(make_set([(0, 0), (0, 1)], 1, 2))
        prop = Propagator(graph)
        x0 = np.array([[0.0], [4.0], [8.0]])
        assert final_of(x0, prop, 1)[0, 0] == pytest.approx((4.0 + 8.0) / 2)

    def test_layer_zero_only(self):
        graph = build_graph(make_set([(0, 0)], 1, 1))
        x0 = np.ones((2, 3))
        final = final_of(x0, Propagator(graph), 0)
        assert np.array_equal(final, x0)
        assert not np.shares_memory(final, x0)

    def test_matches_dense_operator(self, rng):
        # Oracle: explicit D^-1 A D^-1 (or the sqrt variant) built densely.
        for norm in ("dual", "sym"):
            for _ in range(10):
                nu = int(rng.integers(2, 6))
                ni = int(rng.integers(2, 7))
                records = covered_random_records(rng, nu, ni, 4)
                graph = build_graph(make_set(records, nu, ni))
                v = nu + ni
                adj = np.zeros((v, v))
                for u, i in records:
                    adj[u, nu + i] = 1.0
                    adj[nu + i, u] = 1.0
                deg = adj.sum(axis=1)
                if norm == "dual":
                    dense = adj / np.outer(deg, deg)
                else:
                    dense = adj / np.sqrt(np.outer(deg, deg))
                x = rng.normal(size=(v, 3))
                got = Propagator(graph, norm).apply(x)
                assert np.allclose(got, dense @ x, atol=1e-12)

    def test_linearity(self, rng):
        records = covered_random_records(rng, 4, 5, 5)
        prop = Propagator(build_graph(make_set(records, 4, 5)))
        x = rng.normal(size=(9, 3))
        y = rng.normal(size=(9, 3))
        a, b = rng.normal(size=2)
        lhs = prop.apply(a * x + b * y)
        rhs = a * prop.apply(x) + b * prop.apply(y)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_permutation_equivariance(self, rng):
        nu, ni = 3, 5
        records = covered_random_records(rng, nu, ni, 4)
        perm = rng.permutation(ni)
        relabeled = sorted((u, int(perm[i])) for u, i in records)
        x_items = rng.normal(size=(ni, 2))
        x_users = rng.normal(size=(nu, 2))
        base = final_of(np.vstack([x_users, x_items]),
                        Propagator(build_graph(make_set(records, nu, ni))),
                        2, num_users=nu)
        x_items_p = np.empty_like(x_items)
        x_items_p[perm] = x_items
        moved = final_of(np.vstack([x_users, x_items_p]),
                         Propagator(build_graph(make_set(relabeled, nu, ni))),
                         2, num_users=nu)
        assert np.allclose(base[:nu], moved[:nu], atol=1e-12)
        assert np.allclose(base[nu:], moved[nu + perm], atol=1e-12)

    def test_negative_layers_rejected(self):
        # RunConfig rejects it; forward_pass no longer re-checks per call.
        with pytest.raises(ConfigError, match="num_layers must be >= 0"):
            RunConfig(num_layers=-1)


class TestReadout:
    def single_edge(self):
        return Propagator(build_graph(make_set([(0, 0)], 1, 1)))

    def test_single_layer_identity(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(final_of(x, self.single_edge(), 0), x)

    def test_sum_of_layers(self):
        got = final_of(np.array([[1.0], [0.5]]), self.single_edge(), 1)
        assert got[0, 0] == pytest.approx(1.5)

    def test_mean_mode(self):
        got = final_of(np.array([[1.0], [0.5]]), self.single_edge(), 1,
                       readout_mode="mean")
        assert got[0, 0] == pytest.approx(0.75)

    def test_zero_layers_zero_readout(self):
        got = final_of(np.zeros((2, 2)), self.single_edge(), 2)
        assert np.array_equal(got, np.zeros((2, 2)))


class TestFuse:
    def test_single_modality_identity(self, rng):
        f = rng.normal(size=(4, 3))
        reps = make_reps({"id": f[:1]}, {"id": f[1:]})
        assert np.array_equal(reps.fused, f)

    def test_two_modality_mean(self):
        reps = make_reps({"a": np.array([[1.0, 0.0]]),
                          "b": np.array([[0.0, 1.0]])},
                         {"a": np.zeros((1, 2)), "b": np.zeros((1, 2))})
        assert np.allclose(reps.fused_users, [[0.5, 0.5]])

    def test_empty_mask_rejected(self):
        # RunConfig rejects it; forward_pass no longer re-checks per call.
        with pytest.raises(ConfigError, match="at least one modality"):
            RunConfig(modality_mask=())

    def test_mask_selects_subset(self):
        reps = make_reps({"a": np.full((1, 2), 2.0),
                          "b": np.full((1, 2), 4.0)},
                         {"a": np.zeros((1, 2)), "b": np.zeros((1, 2))},
                         mask=("b",))
        assert np.allclose(reps.fused_users, 4.0)


def user_scores(reps, user, mode="per_modality"):
    return score_matrix(reps, np.array([user]), RunConfig(score_mode=mode))[0]


class TestScores:
    def test_unit_vector_dot(self):
        reps = make_reps({"id": np.array([[1.0, 0.0]])},
                         {"id": np.array([[1.0, 0.0]])})
        assert user_scores(reps, 0)[0] == pytest.approx(1.0)

    def test_sum_over_modalities(self):
        u = {"a": np.array([[1.0, 0.0]]), "b": np.array([[0.0, 1.0]])}
        i = {"a": np.array([[1.0, 0.0]]), "b": np.array([[0.0, 1.0]])}
        reps = make_reps(u, i)
        assert user_scores(reps, 0)[0] == pytest.approx(2.0)

    def test_orthogonal_zero(self):
        reps = make_reps({"id": np.array([[1.0, 0.0]])},
                         {"id": np.array([[0.0, 1.0]])})
        assert user_scores(reps, 0)[0] == pytest.approx(0.0)

    def test_score_independent_of_mask(self):
        u = {"a": np.array([[1.0, 0.0]]), "b": np.array([[0.0, 2.0]])}
        i = {"a": np.array([[1.0, 0.0]]), "b": np.array([[0.0, 3.0]])}
        full = user_scores(make_reps(u, i, mask=("a", "b")), 0)
        masked = user_scores(make_reps(u, i, mask=("a",)), 0)
        assert full[0] == pytest.approx(masked[0]) == pytest.approx(7.0)

    def test_fused_mode_uses_mask(self):
        u = {"a": np.array([[2.0]]), "b": np.array([[0.0]])}
        i = {"a": np.array([[3.0]]), "b": np.array([[0.0]])}
        reps = make_reps(u, i, mask=("a", "b"))
        assert user_scores(reps, 0, mode="fused")[0] == \
            pytest.approx(1.0 * 1.5)

    def test_three_modalities_add_left_to_right(self, rng):
        # float32 sums are not associative: the block must be
        # (s0 + s1) + s2 exactly, as modality products added in order.
        u = {m: rng.normal(size=(5, 8)).astype(np.float32) for m in "abc"}
        i = {m: rng.normal(size=(40, 8)).astype(np.float32) for m in "abc"}
        users = np.array([4, 0, 2])
        s0, s1, s2 = (u[m][users] @ i[m].T for m in "abc")
        got = score_matrix(make_reps(u, i), users, RunConfig())
        assert got.dtype == np.float32
        assert np.array_equal(got, (s0 + s1) + s2)

    def test_matrix_and_pairwise_agree(self, rng):
        records = covered_random_records(rng, 4, 6, 5)
        graph = build_graph(make_set(records, 4, 6))
        feats = rng.normal(size=(6, 3)).astype(np.float32)
        state = init_embeddings({"visual": feats}, 4, len(feats), 3, seed=4)
        reps = forward_pass(state, Propagator(graph),
                            RunConfig(num_layers=2,
                                      modality_mask=("id", "visual")))
        users = np.array([0, 2, 3])
        mat = score_matrix(reps, users, RunConfig())
        fused = score_matrix(reps, users, RunConfig(score_mode="fused"))
        for row, u in enumerate(users):
            for i in range(6):
                pair = sum(float(reps.users(m)[u] @ reps.items(m)[i])
                           for m in reps.finals)
                assert mat[row, i] == pytest.approx(pair)
                assert fused[row, i] == pytest.approx(
                    float(reps.fused_users[u] @ reps.fused_items[i]))


class TestForwardPass:
    def test_l0_single_modality_identity(self, rng):
        records = covered_random_records(rng, 3, 4, 3)
        graph = build_graph(make_set(records, 3, 4))
        state = init_embeddings({}, 3, 4, 5, seed=7)
        reps = forward_pass(state, Propagator(graph),
                            RunConfig(num_layers=0, modality_mask=("id",)))
        assert np.array_equal(reps.fused_users, state.user["id"])
        assert np.array_equal(reps.fused_items, state.item["id"])

    @pytest.mark.parametrize("readout_mode", ["sum", "mean"])
    def test_finals_are_layer_sums_per_modality(self, rng, readout_mode):
        # Each modality's (V, d) table is propagated as it is; its final is
        # x + Px + P(Px) (divided by L+1 for "mean"), added in that order.
        records = covered_random_records(rng, 3, 4, 3)
        prop = Propagator(build_graph(make_set(records, 3, 4)))
        feats = rng.normal(size=(4, 2)).astype(np.float32)
        state = init_embeddings({"visual": feats}, 3, len(feats), 2, seed=3)
        reps = forward_pass(state, prop,
                            RunConfig(num_layers=2, readout=readout_mode,
                                      modality_mask=("id", "visual")))
        for m, table in state.tables.items():
            assert table.shape == (7, 2)
            want = table + prop.apply(table)
            want += prop.apply(prop.apply(table))
            if readout_mode == "mean":
                want /= 3
            assert np.array_equal(reps.finals[m], want)

    def test_compact_pass_refuses_whole_views(self, rng):
        # A pass over some rows must not stand in for a whole matrix:
        # ranking or selecting from it would read the wrong rows.
        records = covered_random_records(rng, 3, 4, 3)
        prop = Propagator(build_graph(make_set(records, 3, 4)))
        feats = rng.normal(size=(4, 2)).astype(np.float32)
        state = init_embeddings({"visual": feats}, 3, len(feats), 2, seed=3)
        rows = np.array([0, 2, 4])
        config = RunConfig(num_layers=1, modality_mask=("id", "visual"))
        reps = forward_pass(state, prop, config, rows=rows)
        full = forward_pass(state, prop, config)
        assert np.array_equal(reps.fused, full.fused[rows])
        assert np.array_equal(reps.locate(np.array([4, 0])), [2, 0])
        views = (lambda: reps.users("id"), lambda: reps.items("visual"),
                 lambda: reps.fused_users, lambda: reps.fused_items,
                 lambda: score_matrix(reps, np.array([0]), config),
                 lambda: score_matrix(reps, np.array([0]),
                                      RunConfig(score_mode="fused")))
        for view in views:
            with pytest.raises(ValueError, match="compact"):
                view()
        with pytest.raises(IndexError):  # vertex 1 is not one of the rows
            reps.fused[reps.locate(np.array([1]))]

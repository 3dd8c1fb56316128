import numpy as np
import pytest

from conftest import covered_random_records, make_set
from mdvt.backbone import Propagator, forward_pass, init_embeddings
from mdvt.dataset import build_graph
from mdvt.errors import ConfigError, SelectionError, TrainingCollapseError
from mdvt.trainer import RunConfig
from mdvt.triplet_forge import cosine_rows, refresh, select
from oracles import (adjacency_of, cosine_row, groups_of, refresh_oracle,
                     select_frequency, select_one, select_threshold,
                     select_topn)


# --- definitional oracles (python sort/filter, independent of the
# --- lexsort-based implementation) -----------------------------------------

def oracle_desc(values, candidates):
    return sorted(candidates, key=lambda i: (-values[i], i))


def oracle_asc(values, candidates):
    return sorted(candidates, key=lambda i: (values[i], i))


def oracle_topn(values, n, exclusion=None):
    exclusion = exclusion or set()
    candidates = [i for i in range(len(values)) if i not in exclusion]
    positives = oracle_desc(values, candidates)[:n]
    rest = [i for i in range(len(values)) if i not in set(positives)]
    negatives = oracle_asc(values, rest)[:n]
    return positives, negatives


def oracle_threshold(values, threshold, cap=None, floor=None, exclusion=None):
    exclusion = exclusion or set()
    candidates = [i for i in range(len(values)) if i not in exclusion]
    ordered = oracle_desc(values, candidates)
    positives = [i for i in ordered if values[i] >= threshold]
    if cap is not None:
        positives = positives[:cap]
    if floor is not None and len(positives) < floor:
        positives = ordered[:min(floor, len(ordered))]
    rest = [i for i in range(len(values)) if i not in set(positives)]
    negatives = oracle_asc(values, rest)[:len(positives)]
    return positives, negatives


def oracle_frequency(values, n, counts, mode, exclusion=None):
    exclusion = exclusion or set()
    candidates = [i for i in range(len(values)) if i not in exclusion]

    def pop_desc(pool):
        return sorted(pool, key=lambda i: (-counts[i], i))

    def pop_asc(pool):
        return sorted(pool, key=lambda i: (counts[i], i))

    if mode == "f1":
        positives = pop_desc(candidates)[:n]
    else:
        sim_pool = oracle_desc(values, candidates)[:2 * n]
        positives = pop_desc(sim_pool)[:n]
    rest = [i for i in range(len(values)) if i not in set(positives)]
    if mode == "f1":
        negatives = pop_asc(rest)[:n]
    else:
        neg_pool = oracle_asc(values, rest)[:2 * n]
        negatives = pop_asc(neg_pool)[:n]
    return positives, negatives


def random_row(rng, num_items):
    """Random similarities with deliberate ties now and then."""
    if rng.random() < 0.4:
        levels = rng.choice([-0.8, -0.2, 0.0, 0.3, 0.3, 0.7, 0.7, 0.9],
                            size=num_items)
        return np.asarray(levels, dtype=float)
    return rng.uniform(-1.0, 1.0, num_items)


class TestCosineRow:
    def test_parallel_is_one(self):
        row = cosine_row(np.array([1.0, 0.0]), np.array([[1.0, 0.0]]))
        assert row[0] == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        row = cosine_row(np.array([1.0, 0.0]), np.array([[0.0, 1.0]]))
        assert row[0] == pytest.approx(0.0)

    def test_45_degrees(self):
        row = cosine_row(np.array([1.0, 1.0]), np.array([[1.0, 0.0]]))
        assert row[0] == pytest.approx(0.7071068, abs=1e-6)

    def test_zero_norm_item_maps_to_zero(self):
        row = cosine_row(np.array([1.0, 0.0]),
                         np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert row[0] == 0.0
        assert row[1] == pytest.approx(1.0)

    def test_zero_norm_user_rejected(self):
        with pytest.raises(TrainingCollapseError):
            cosine_row(np.zeros(2), np.ones((3, 2)), user=5)

    def test_values_bounded(self, rng):
        u = rng.normal(size=4)
        items = rng.normal(size=(50, 4))
        row = cosine_row(u, items)
        assert np.all(np.abs(row) <= 1.0 + 1e-6)


class TestSelectTopN:
    def test_spec_example(self):
        pos, neg = select_topn(np.array([0.9, 0.1, -0.5, 0.7]), 2)
        assert pos.tolist() == [0, 3]
        assert neg.tolist() == [2, 1]

    def test_tie_breaks_by_index(self):
        pos, neg = select_topn(np.array([0.5, 0.5, 0.5, -1.0]), 1)
        assert pos.tolist() == [0]
        assert neg.tolist() == [3]

    def test_too_few_candidates(self):
        with pytest.raises(SelectionError):
            select_topn(np.array([0.1, 0.2, 0.3]), 2)

    def test_exclusion_applies_to_positives_only(self):
        values = np.array([0.9, 0.8, 0.1, -0.5])
        pos, neg = select_topn(values, 1, exclusion={0})
        assert pos.tolist() == [1]
        assert neg.tolist() == [3]

    def test_oracle_equivalence_1000_rows(self, rng):
        for _ in range(1000):
            num_items = int(rng.integers(4, 50))
            values = random_row(rng, num_items)
            n = int(rng.integers(1, max(2, num_items // 2 - 1)))
            exclusion = set(
                int(i) for i in
                rng.choice(num_items,
                           size=int(rng.integers(0, num_items - 2 * n + 1)),
                           replace=False)) \
                if num_items - 2 * n > 0 and rng.random() < 0.5 else set()
            if num_items - len(exclusion) < 2 * n:
                continue
            pos, neg = select_topn(values, n, exclusion)
            opos, oneg = oracle_topn(values, n, exclusion)
            assert pos.tolist() == opos
            assert neg.tolist() == oneg
            assert not set(pos.tolist()) & set(neg.tolist())

    def test_scale_invariance(self, rng):
        values_u = rng.normal(size=5)
        items = rng.normal(size=(20, 5))
        base = cosine_row(values_u, items)
        scaled_u = cosine_row(3.7 * values_u, items)
        items_scaled = items.copy()
        items_scaled[4] *= 42.0
        scaled_i = cosine_row(values_u, items_scaled)
        for n in (1, 3):
            assert select_topn(base, n)[0].tolist() == \
                select_topn(scaled_u, n)[0].tolist()
            assert select_topn(base, n)[1].tolist() == \
                select_topn(scaled_u, n)[1].tolist()
            # Positive per-item rescales keep the ordering as well.
            got = select_topn(scaled_i, n)
            exp = oracle_topn(scaled_i, n)
            assert got[0].tolist() == exp[0]


class TestSelectThreshold:
    def test_plain_filter(self):
        pos, neg = select_threshold(np.array([0.95, 0.6, -0.2]), 0.9)
        assert pos.tolist() == [0]
        assert neg.tolist() == [2]

    def test_floor_pads_from_top(self):
        pos, neg = select_threshold(np.array([0.3, 0.2, -0.5]), 0.9, floor=1)
        assert pos.tolist() == [0]
        assert neg.tolist() == [2]

    def test_cap_truncates(self):
        pos, _ = select_threshold(np.array([0.95, 0.92, 0.91, -0.9]), 0.9,
                                  cap=2)
        assert pos.tolist() == [0, 1]

    def test_empty_when_nothing_qualifies(self):
        pos, neg = select_threshold(np.array([0.3, 0.1, -0.2]), 0.9)
        assert pos.size == 0 and neg.size == 0

    def test_threshold_bounds(self):
        with pytest.raises(ConfigError):
            select_threshold(np.array([0.5, 0.1]), 1.5)

    def test_degenerates_to_topn_on_positive_rows(self, rng):
        for _ in range(50):
            values = rng.uniform(0.05, 1.0, int(rng.integers(6, 20)))
            n = int(rng.integers(1, len(values) // 2))
            t_pos, t_neg = select_topn(values, n)
            s_pos, s_neg = select_threshold(values, 1e-9, cap=n, floor=n)
            assert t_pos.tolist() == s_pos.tolist()
            assert t_neg.tolist() == s_neg.tolist()

    def test_oracle_equivalence_1000_rows(self, rng):
        for _ in range(1000):
            num_items = int(rng.integers(4, 50))
            values = random_row(rng, num_items)
            threshold = float(rng.uniform(0.05, 0.95))
            cap = int(rng.integers(1, 5)) if rng.random() < 0.5 else None
            floor = int(rng.integers(0, 3)) if rng.random() < 0.5 else None
            try:
                pos, neg = select_threshold(values, threshold, cap=cap,
                                            floor=floor)
            except SelectionError:
                continue
            opos, oneg = oracle_threshold(values, threshold, cap=cap,
                                          floor=floor)
            assert pos.tolist() == opos
            assert neg.tolist() == oneg
            assert not set(pos.tolist()) & set(neg.tolist())


class TestSelectFrequency:
    POP = np.array([5, 1, 3, 0])

    def test_f1_spec_example(self):
        pos, neg = select_frequency(np.zeros(4), 1, self.POP, "f1")
        assert pos.tolist() == [0]
        assert neg.tolist() == [3]

    def test_f2_spec_example(self):
        counts = np.array([1, 9, 1, 1])
        pos, _ = select_frequency(np.array([0.9, 0.8, 0.7, 0.1]), 1,
                                  counts, "f2")
        assert pos.tolist() == [1]

    def test_f1_ignores_similarity(self, rng):
        for _ in range(20):
            values = rng.uniform(-1, 1, 4)
            pos, neg = select_frequency(values, 1, self.POP, "f1")
            assert pos.tolist() == [0]
            assert neg.tolist() == [3]

    def test_oracle_equivalence_1000_rows(self, rng):
        for _ in range(1000):
            num_items = int(rng.integers(4, 50))
            values = random_row(rng, num_items)
            counts = rng.integers(0, 8, size=num_items)
            mode = "f1" if rng.random() < 0.5 else "f2"
            n = int(rng.integers(1, max(2, num_items // 3)))
            if num_items < 2 * n:
                continue
            pos, neg = select_frequency(values, n, counts, mode)
            opos, oneg = oracle_frequency(values, n, counts, mode)
            assert pos.tolist() == opos
            assert neg.tolist() == oneg
            assert not set(pos.tolist()) & set(neg.tolist())


def small_reps(rng, num_users=5, num_items=12):
    records = covered_random_records(rng, num_users, num_items, 6)
    train = make_set(records, num_users, num_items)
    graph = build_graph(train)
    feats = rng.normal(size=(num_items, 3)).astype(np.float32)
    state = init_embeddings({"visual": feats}, num_users, num_items, 3,
                            seed=21)
    config = RunConfig(num_layers=1, modality_mask=("id", "visual"))
    reps = forward_pass(state, Propagator(graph), config)
    return reps, train


def popularity(train):
    """Every item's train degree."""
    return np.bincount(train.items, minlength=train.num_items)


class TestRefresh:
    def test_deterministic_for_fixed_reps(self, rng):
        reps, train = small_reps(rng)
        config = RunConfig(top_n=2)
        users = np.unique(train.users)
        seen = train.adjacency
        a = refresh(reps, config, seen, users, popularity(train))
        b = refresh(reps, config, seen, users, popularity(train))
        assert groups_of(a) == groups_of(b)

    def test_seen_items_excluded_from_positives(self, rng):
        reps, train = small_reps(rng)
        users = np.unique(train.users)
        seen = train.adjacency
        vset = refresh(reps, RunConfig(top_n=2), seen, users,
                       popularity(train))
        for u, (pos, _) in groups_of(vset).items():
            assert not set(pos) & set(seen[u].tolist())

    def test_include_seen_flag_disables_exclusion(self, rng):
        reps, train = small_reps(rng)
        users = np.unique(train.users)
        seen = train.adjacency
        include = refresh(reps, RunConfig(top_n=2, include_seen=True), seen,
                          users, popularity(train))
        exclude = refresh(reps, RunConfig(top_n=2), seen, users,
                          popularity(train))
        with_seen, without = groups_of(include), groups_of(exclude)
        assert any(with_seen[u][0] != without[u][0] for u in with_seen)


ALL_CONFIGS = [
    RunConfig(constructor="topn", top_n=2),
    RunConfig(constructor="topn", top_n=1, include_seen=True),
    RunConfig(constructor="threshold", sim_threshold=0.7),
    RunConfig(constructor="threshold_topn", top_n=2, sim_threshold=0.2),
    RunConfig(constructor="interval", top_n=3, sim_threshold=0.6, n_floor=2),
    RunConfig(constructor="interval", top_n=1, sim_threshold=0.1, n_floor=1,
              n_cap=2),
    RunConfig(constructor="freq_f1", top_n=2),
    RunConfig(constructor="freq_f2", top_n=2),
]


def per_user_groups(config, sim, seen, pop):
    """select_one row by row, as {row: (positives, negatives)}."""
    out = {}
    for r in range(len(sim)):
        exclusion = None if seen is None else seen[r]
        pos, neg = select_one(config, sim[r], pop, exclusion)
        out[r] = (pos.tolist(), neg.tolist())
    return out


def per_user_error(config, sim, seen, pop):
    try:
        per_user_groups(config, sim, seen, pop)
    except SelectionError as exc:
        return str(exc)
    return None


class TestSelectBlock:
    """The batched selection against the per-user selectors, on blocks of
    rows with heavy ties."""

    @pytest.mark.parametrize("config", ALL_CONFIGS,
                             ids=lambda c: f"{c.constructor}-{c.top_n}")
    def test_matches_per_user_selectors(self, rng, config):
        checked = 0
        for _ in range(150):
            rows, cols = int(rng.integers(1, 9)), int(rng.integers(4, 40))
            sim = np.stack([random_row(rng, cols) for _ in range(rows)])
            excluded = None if config.include_seen else adjacency_of(
                {r: set(rng.choice(cols, size=int(rng.integers(0, cols // 2)),
                                   replace=False).tolist())
                 for r in range(rows)}, rows)
            pop = rng.integers(0, 5, size=cols)
            users, collapsed = np.arange(rows), np.zeros(rows, dtype=bool)
            error = per_user_error(config, sim, excluded, pop)
            if error is not None:
                with pytest.raises(SelectionError) as caught:
                    select(config, sim, excluded, pop, users, collapsed)
                assert str(caught.value) == error
                continue
            pos, neg = select(config, sim, excluded, pop, users,
                              collapsed)
            want = per_user_groups(config, sim, excluded, pop)
            for r in range(rows):
                assert (pos[r].tolist(), neg[r].tolist()) == want[r]
            checked += 1
        assert checked >= 50


class TestRefreshOracle:
    @pytest.mark.parametrize("config", ALL_CONFIGS,
                             ids=lambda c: f"{c.constructor}-{c.top_n}")
    def test_matches_per_user_loop(self, rng, config):
        for _ in range(5):
            reps, train = small_reps(rng, num_users=9, num_items=16)
            users = np.flatnonzero(train.adjacency.row_lengths)
            pop = rng.integers(0, 4, size=16)
            try:
                want = refresh_oracle(reps, config, users,
                                      seen_items=train.adjacency,
                                      item_counts=pop)
            except SelectionError as exc:
                with pytest.raises(SelectionError) as caught:
                    refresh(reps, config, train.adjacency, users, pop)
                assert str(caught.value) == str(exc)
                continue
            got = refresh(reps, config, train.adjacency, users, pop)
            assert groups_of(got) == want

    def test_cosine_rows_match_one_user_rows(self, rng):
        users = rng.normal(size=(300, 16))
        items = rng.normal(size=(70, 16))
        items[3] = 0.0
        norms = np.linalg.norm(items, axis=1)
        sim, collapsed = cosine_rows(users, items, norms)
        assert not collapsed.any()
        for u in range(300):
            assert np.array_equal(sim[u], cosine_row(users[u], items))

    @pytest.mark.parametrize("first", ["collapse", "selection"])
    def test_first_failing_user_decides_the_error(self, rng, first):
        reps, train = small_reps(rng, num_users=6, num_items=12)
        users = np.arange(6)
        # User 4 collapses; user 2 (or 5) sees all but 3 items, too few
        # for top-2.
        reps.fused[4] = 0.0
        crowded = 2 if first == "selection" else 5
        seen = adjacency_of({u: set(range(9)) if u == crowded else
                             set(train.adjacency[u].tolist())
                             for u in users}, 6)
        config = RunConfig(top_n=2)
        kind = SelectionError if first == "selection" \
            else TrainingCollapseError
        with pytest.raises(kind) as want:
            refresh_oracle(reps, config, users, seen_items=seen)
        with pytest.raises(kind) as got:
            refresh(reps, config, seen, users, popularity(train))
        assert str(got.value) == str(want.value)

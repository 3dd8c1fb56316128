import numpy as np
import pytest

from conftest import make_set, pairs_of, write_raw_features
from mdvt.dataset import (FEATURE_MAGIC, build_graph, load_interactions,
                          load_modality_features, make_batches,
                          sample_negatives, split_dataset)
from mdvt.errors import DataError


def write_lines(tmp_path, lines, name="inter.tsv"):
    path = tmp_path / name
    path.write_text("".join(f"{ln}\n" for ln in lines), encoding="utf-8")
    return path


class TestLoadInteractions:
    def test_basic_counts(self, tmp_path):
        path = write_lines(tmp_path, ["a\tx", "a\ty", "b\tx"])
        got = load_interactions(path)
        assert got.num_users == 2
        assert got.num_items == 2
        assert len(got) == 3

    def test_duplicates_dropped_and_counted(self, tmp_path):
        path = write_lines(tmp_path, ["a\tx", "a\tx"])
        got = load_interactions(path)
        assert len(got) == 1
        assert got.duplicates_dropped == 1

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = write_lines(tmp_path, ["a"])
        with pytest.raises(DataError, match=":1:"):
            load_interactions(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write_lines(tmp_path, [])
        with pytest.raises(DataError):
            load_interactions(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = write_lines(tmp_path, ["# header", "", "a\tx"])
        assert len(load_interactions(path)) == 1

    def test_first_appearance_remap(self, tmp_path):
        path = write_lines(tmp_path, ["b\ty", "a\tx", "b\tx"])
        got = load_interactions(path)
        assert got.user_ids == ("b", "a")
        assert got.item_ids == ("y", "x")
        assert pairs_of(got) == [(0, 0), (1, 1), (0, 1)]

    def test_remap_stable_across_runs(self, tmp_path):
        path = write_lines(tmp_path, ["b\ty", "a\tx", "c\tz"])
        first = load_interactions(path)
        second = load_interactions(path)
        assert first.user_ids == second.user_ids
        assert pairs_of(first) == pairs_of(second)


class TestSplitDataset:
    def test_sizes_8_1_1(self):
        full = make_set([(u % 5, i) for u, i in
                         ((k, k % 7) for k in range(10))], 5, 7)
        full = make_set([(k % 5, k % 7) for k in range(10)], 5, 7)
        split = split_dataset(full, seed=3)
        assert len(split.test) == 1
        assert len(split.validation) == 1
        assert len(split.train) == 8

    def test_deterministic_for_seed(self):
        full = make_set([(k % 4, k % 6) for k in range(20)], 4, 6)
        a = split_dataset(full, seed=7)
        b = split_dataset(full, seed=7)
        assert pairs_of(a.train) == pairs_of(b.train)
        assert pairs_of(a.validation) == pairs_of(b.validation)
        assert pairs_of(a.test) == pairs_of(b.test)

    def test_too_small_rejected(self):
        full = make_set([(k % 3, k % 3) for k in range(9)], 3, 3)
        with pytest.raises(DataError):
            split_dataset(full, seed=0)

    def test_partition_round_trip(self):
        records = [(u, i) for u in range(6) for i in range(9)]
        full = make_set(records, 6, 9)
        split = split_dataset(full, seed=11)
        train = set(pairs_of(split.train))
        val = set(pairs_of(split.validation))
        test = set(pairs_of(split.test))
        assert train | val | test == set(records)
        assert not train & val and not train & test and not val & test

    def test_cold_users_reported(self):
        # User 5 appears once; with enough seeds it lands outside train.
        records = [(k % 5, k % 8) for k in range(19)] + [(5, 7)]
        records = sorted(set(records))
        full = make_set(records, 6, 8)
        found = False
        for seed in range(40):
            split = split_dataset(full, seed)
            trained = set(split.train.users.tolist())
            if 5 not in trained:
                assert split.trained_users.tolist() == sorted(trained)
                found = True
                break
        assert found, "no seed isolated the rare user; fixture too easy"


class TestBuildGraph:
    def test_single_edge_degrees(self):
        graph = build_graph(make_set([(0, 0)], 1, 1))
        assert graph.degrees.tolist() == [1, 1]

    def test_user_degree_counts_items(self):
        graph = build_graph(make_set([(0, 0), (0, 1)], 1, 2))
        assert graph.degrees[0] == 2

    def test_item_degree_counts_users(self):
        graph = build_graph(make_set([(0, 0), (1, 0)], 2, 1))
        assert graph.degrees[graph.num_users + 0] == 2

    def test_bidirectional_adjacency(self):
        graph = build_graph(make_set([(0, 1), (1, 0)], 2, 2))
        assert graph.adjacency[0].tolist() == [1]
        assert graph.has_edge(0, 1) and graph.has_edge(1, 0)
        assert not graph.has_edge(0, 0) and not graph.has_edge(1, 1)
        users, items = graph.edges()
        assert users[items == 1].tolist() == [0]
        assert users[items == 0].tolist() == [1]

    def test_isolated_items_flagged(self):
        graph = build_graph(make_set([(0, 0)], 1, 3))
        assert set(graph.isolated_items.tolist()) == {1, 2}

    def test_empty_train_rejected(self):
        with pytest.raises(DataError):
            build_graph(make_set([], 1, 1))

    def test_has_edge_vectorised_matches_records(self, rng):
        records = sorted({(int(rng.integers(30)), int(rng.integers(20)))
                          for _ in range(200)})
        graph = build_graph(make_set(records, 30, 20))
        users = rng.integers(30, size=500)
        items = rng.integers(20, size=500)
        got = graph.has_edge(users, items)
        edges = set(records)
        assert got.tolist() == [(int(u), int(i)) in edges
                                for u, i in zip(users, items)]


class TestAdjacency:
    def test_rows_sorted_and_complete(self, rng):
        records = sorted({(int(rng.integers(15)), int(rng.integers(25)))
                          for _ in range(120)})
        train = make_set(records[::-1], 16, 25)
        adj = train.adjacency
        assert adj.indptr.tolist()[0] == 0 and adj.indptr[-1] == len(records)
        for u in range(16):
            assert adj[u].tolist() == sorted(i for v, i in records if v == u)
        assert adj.row_lengths[15] == 0

    def test_take_head_and_entry_rows(self, rng):
        records = sorted({(int(rng.integers(15)), int(rng.integers(25)))
                          for _ in range(120)})
        adj = make_set(records, 16, 25).adjacency
        assert len(adj) == 16
        assert adj.entry_rows.tolist() == [u for u, _ in records]
        rows = np.array([5, 15, 0, 5])
        taken = adj.take(rows)
        assert len(taken) == 4
        for r, u in enumerate(rows):
            assert taken[r].tolist() == adj[u].tolist()
        lengths = np.minimum(adj.row_lengths, rng.integers(0, 4, size=16))
        head = adj.head(lengths)
        for u in range(16):
            assert head[u].tolist() == adj[u][:lengths[u]].tolist()

    @pytest.mark.parametrize("bad", [(3, 0), (-1, 0), (0, 5), (0, -2)])
    def test_out_of_range_index_rejected(self, bad):
        with pytest.raises(DataError, match="outside"):
            make_set([(0, 0), bad], 3, 5).adjacency


def scalar_negatives(users, records, num_items, rng):
    """Reference sampler: per entry, one ``rng.integers(num_items)`` per
    attempt until the item is not a train edge of the entry's user."""
    edges = set(records)
    out = []
    for u in users:
        while True:
            j = int(rng.integers(num_items))
            if (int(u), j) not in edges:
                out.append(j)
                break
    return out


def sparse_records(rng):
    return sorted({(int(rng.integers(300)), int(rng.integers(200)))
                   for _ in range(900)}), 300, 200


def one_free_item_records(rng):
    records = {(0, i) for i in range(11)}
    records |= {(int(rng.integers(1, 40)), int(rng.integers(12)))
                for _ in range(60)}
    return sorted(records), 40, 12


def dense_records(rng):
    # 80% of a 50 x 12 matrix, each user keeping at least one free item.
    records = set()
    for u in range(50):
        row = np.flatnonzero(rng.random(12) < 0.8)
        if len(row) == 12:
            row = row[1:]
        records |= {(u, int(i)) for i in row}
    return sorted(records), 50, 12


class TestSampleNegative:
    def test_forced_choice(self):
        graph = build_graph(make_set([(0, 0), (0, 1), (1, 2)], 2, 3))
        rng = np.random.default_rng(0)
        got = sample_negatives(np.zeros(20, dtype=np.int64), graph, rng)
        assert got.tolist() == [2] * 20

    def test_exhausted_user_rejected(self):
        graph = build_graph(make_set([(0, 0), (0, 1), (0, 2)], 1, 3))
        with pytest.raises(DataError):
            sample_negatives(np.array([0]), graph, np.random.default_rng(0))

    def test_uniform_over_free_items(self):
        # Two free items out of four; counts should be near 500 each.
        graph = build_graph(make_set([(0, 0), (0, 1), (1, 2), (1, 3)], 2, 4))
        rng = np.random.default_rng(99)
        got = sample_negatives(np.zeros(1000, dtype=np.int64), graph, rng)
        assert set(got.tolist()) == {2, 3}
        assert abs(int(np.sum(got == 2)) - 500) <= 100
        assert abs(int(np.sum(got == 3)) - 500) <= 100

    def test_never_returns_interacted(self, rng):
        for trial in range(30):
            nu = int(rng.integers(2, 6))
            ni = int(rng.integers(3, 9))
            records = sorted({(int(rng.integers(nu)), int(rng.integers(ni)))
                              for _ in range(nu * 2)})
            graph = build_graph(make_set(records, nu, ni))
            users = np.repeat(np.flatnonzero(graph.degrees[:nu] < ni), 5)
            neg = sample_negatives(users, graph, rng)
            assert not set(zip(users.tolist(), neg.tolist())) & set(records)

    @pytest.mark.parametrize("make_records", [sparse_records,
                                              one_free_item_records,
                                              dense_records])
    @pytest.mark.parametrize("batch_size", [7, 64, 100, 5000])
    def test_make_batches_matches_scalar_rejection_loop(self, make_records,
                                                        batch_size):
        records, nu, ni = make_records(np.random.default_rng(batch_size))
        train = make_set(records, nu, ni)
        graph = build_graph(train)
        neg_rng = np.random.default_rng(11)
        got = [b.neg_items.tolist()
               for b in make_batches(train, graph, batch_size,
                                     np.random.default_rng(10), neg_rng)]
        ref_rng = np.random.default_rng(11)
        users = train.users[np.random.default_rng(10)
                                 .permutation(len(train))]
        want = [scalar_negatives(users[k:k + batch_size], records, ni,
                                 ref_rng)
                for k in range(0, len(users), batch_size)]
        assert got == want
        assert neg_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_shared_generator_matches_scalar_rejection_loop(self):
        records, nu, ni = dense_records(np.random.default_rng(3))
        train = make_set(records, nu, ni)
        rng = np.random.default_rng(4)
        got = [b.neg_items.tolist()
               for b in make_batches(train, build_graph(train), 50, rng,
                                     rng)]
        ref = np.random.default_rng(4)
        users = train.users[ref.permutation(len(train))]
        want = [scalar_negatives(users[k:k + 50], records, ni, ref)
                for k in range(0, len(users), 50)]
        assert got == want
        assert rng.bit_generator.state == ref.bit_generator.state


class TestMakeBatches:
    def test_batch_sizes(self):
        train = make_set([(k % 3, k) for k in range(5)], 3, 5)
        graph = build_graph(train)
        rng = np.random.default_rng(1)
        sizes = [len(b) for b in make_batches(train, graph, 2, rng, rng)]
        assert sizes == [2, 2, 1]

    def test_single_full_batch(self):
        records = sorted({(k % 64, (k * 7) % 40) for k in range(2048)})
        train = make_set(records, 64, 40)
        graph = build_graph(train)
        rng = np.random.default_rng(2)
        batches = list(make_batches(train, graph, 2048, rng, rng))
        assert len(batches) == 1

    def test_deterministic_order(self):
        train = make_set([(k % 4, k % 6) for k in range(12)], 4, 6)
        train = make_set(sorted(set(pairs_of(train))), 4, 6)
        graph = build_graph(train)
        a = [(b.users.tolist(), b.pos_items.tolist(), b.neg_items.tolist())
             for b in make_batches(train, graph, 4,
                                   np.random.default_rng(5),
                                   np.random.default_rng(6))]
        b = [(b.users.tolist(), b.pos_items.tolist(), b.neg_items.tolist())
             for b in make_batches(train, graph, 4,
                                   np.random.default_rng(5),
                                   np.random.default_rng(6))]
        assert a == b

    def test_epoch_covers_every_record_once(self):
        records = sorted({(k % 5, (k * 3) % 7) for k in range(30)})
        train = make_set(records, 5, 7)
        graph = build_graph(train)
        seen = []
        rng = np.random.default_rng(8)
        for batch in make_batches(train, graph, 4, rng, rng):
            seen.extend(zip(batch.users.tolist(), batch.pos_items.tolist()))
        assert sorted(seen) == records


def item_index(num_items):
    """The raw-id map of ``make_set``'s items."""
    return {f"i{k}": k for k in range(num_items)}


class TestFeatures:
    def test_round_trip_bit_exact(self, tmp_path):
        mat = np.array([[1.5, -2.25], [0.125, 3.0]], dtype=np.float32)
        path = tmp_path / "visual.feat"
        write_raw_features(path, mat)
        got = load_modality_features(path, "visual", 2, item_index(2))
        assert got.dtype == np.float32
        assert np.array_equal(got, mat)

    def test_row_count_mismatch(self, tmp_path):
        mat = np.zeros((3, 2), dtype=np.float32)
        path = tmp_path / "v.feat"
        write_raw_features(path, mat)
        with pytest.raises(DataError, match="3 feature rows"):
            load_modality_features(path, "v", 4, item_index(4))

    def test_nan_names_cell(self, tmp_path):
        mat = np.array([[1.0, np.nan], [2.0, 3.0]], dtype=np.float32)
        path = tmp_path / "v.feat"
        write_raw_features(path, mat)
        with pytest.raises(DataError, match=r"\(0, 1\)"):
            load_modality_features(path, "v", 2, item_index(2))

    def test_magic_mismatch(self, tmp_path):
        path = tmp_path / "v.feat"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 8)
        with pytest.raises(DataError, match="magic"):
            load_modality_features(path, "v", 1, item_index(1))

    def test_truncated_body(self, tmp_path):
        mat = np.zeros((2, 2), dtype=np.float32)
        path = tmp_path / "v.feat"
        write_raw_features(path, mat)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DataError, match="bytes"):
            load_modality_features(path, "v", 2, item_index(2))

    def test_sidecar_remap(self, tmp_path):
        # File rows ordered y, x; dense order is x=0, y=1.
        mat = np.array([[10.0, 0.0], [20.0, 0.0]], dtype=np.float32)
        path = tmp_path / "v.feat"
        write_raw_features(path, mat, item_ids=["y", "x"])
        got = load_modality_features(path, "v", 2,
                                     item_index={"x": 0, "y": 1})
        assert got[0, 0] == 20.0
        assert got[1, 0] == 10.0

    def test_magic_constant(self):
        assert FEATURE_MAGIC == b"MDVTFEAT"


class TestPopularity:
    """Train interaction counts are the graph's degrees: users first, then
    items."""

    def test_item_counts(self):
        degrees = build_graph(make_set([(0, 0), (1, 0)], 2, 2)).degrees
        assert degrees[2:].tolist() == [2, 0]
        assert degrees.dtype == np.int64

    def test_user_counts(self):
        degrees = build_graph(make_set([(0, 0)], 2, 1)).degrees
        assert degrees[:2].tolist() == [1, 0]

    def test_totals_match(self):
        records = sorted({(k % 4, k % 5) for k in range(15)})
        degrees = build_graph(make_set(records, 4, 5)).degrees
        assert degrees[4:].sum() == len(records)
        assert degrees[:4].sum() == len(records)

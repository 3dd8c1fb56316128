import math

import numpy as np
import pytest

from mdvt.evaluator import (evaluate_rankings, sparsity_breakdown,
                            top_k, SPARSITY_BUCKETS)
from mdvt.errors import ConfigError
from mdvt.trainer import TrainHistory
from oracles import adjacency_of, ndcg_at_k, rank_items, recall_at_k


def convergence_summary(histories) -> list[dict]:
    """Plot-ready per-run convergence rows."""
    rows = []
    for idx, history in enumerate(histories):
        rows.append({
            "run": idx,
            "epochs_to_best": history.best_epoch + 1,
            "epochs_to_stop": history.stopped_epoch + 1,
            "final_l_bpr": history.l_bpr[-1],
            "final_l_total": history.l_total[-1],
            "trigger_epoch": history.trigger_epoch,
        })
    return rows


# Definitional brute-force metrics, in the style of a hand-rolled harness.

def brute_recall(ranked, relevant, k):
    hits = 0
    for item in list(ranked)[:k]:
        if item in relevant:
            hits += 1
    return hits / len(relevant)


def brute_ndcg(ranked, relevant, k):
    dcg = 0.0
    for position, item in enumerate(list(ranked)[:k], start=1):
        if item in relevant:
            dcg += 1.0 / math.log(position + 1, 2)
    idcg = 0.0
    for position in range(1, min(k, len(relevant)) + 1):
        idcg += 1.0 / math.log(position + 1, 2)
    return dcg / idcg


class TestRankItems:
    def test_descending_order(self):
        got = rank_items(np.array([0.1, 0.9, 0.5]))
        assert got.tolist() == [1, 2, 0]

    def test_mask_removed_before_ranking(self):
        got = rank_items(np.array([0.1, 0.9, 0.5]), masked={1})
        assert got.tolist() == [2, 0]

    def test_ties_by_index(self):
        got = rank_items(np.array([0.5, 0.5]))
        assert got.tolist() == [0, 1]

    def test_masked_items_never_appear(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 30))
            scores = rng.normal(size=n)
            masked = {int(i) for i in
                      rng.choice(n, size=int(rng.integers(0, n)),
                                 replace=False)}
            ranked = rank_items(scores, masked)
            assert not set(ranked.tolist()) & masked
            assert len(ranked) == n - len(masked)


def random_scores(rng, rows, cols):
    """Continuous scores, or a few levels so that ties are everywhere."""
    if rng.random() < 0.5:
        return rng.integers(0, 4, size=(rows, cols)) / 4.0
    return rng.normal(size=(rows, cols))


def random_subsets(rng, rows, cols, max_share=1.0):
    return {r: {int(i) for i in rng.choice(
        cols, size=int(rng.integers(0, int(max_share * cols) + 1)),
        replace=False)} for r in range(rows)}


def assert_top_k_matches_oracle(scores, k, masked):
    """``top_k`` equals the per-row ``rank_items`` oracle; ``masked`` maps
    rows to excluded columns, or is None for no exclusion."""
    rows = len(scores)
    got = top_k(scores, k, None if masked is None
                else adjacency_of(masked, rows))
    assert len(got) == rows
    for r in range(rows):
        want = rank_items(scores[r], None if masked is None else masked[r])
        assert got[r].tolist() == want[:k].tolist()


class TestTopK:
    def test_ties_by_ascending_index(self):
        got = top_k(np.array([[0.5, 0.5, 0.5, 1.0]]), 2)
        assert got[0].tolist() == [3, 0]

    def test_short_row_keeps_every_unmasked_item(self):
        got = top_k(np.array([[0.1, 0.9, 0.5, 0.3]]), 3,
                    adjacency_of({0: {0, 1, 2}}, 1))
        assert got[0].tolist() == [3]
        assert got.row_lengths.tolist() == [1]

    def test_zero_k_is_empty(self):
        got = top_k(np.ones((2, 3)), 0)
        assert got.row_lengths.tolist() == [0, 0]

    def test_matches_rank_items_oracle(self, rng):
        # k from 0 past the item count: full rankings, fully masked rows
        # and rows with fewer unmasked items than k all occur.
        for _ in range(500):
            rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 30))
            scores = random_scores(rng, rows, cols)
            masked = random_subsets(rng, rows, cols)
            k = int(rng.integers(0, cols + 3))
            excluded = adjacency_of(masked, rows) if rng.random() < 0.8 \
                else None
            assert_top_k_matches_oracle(scores, k, masked if excluded
                                        else None)

    def test_wide_rows_match_rank_items_oracle(self, rng):
        # Wider than RANK_GROUPS and mostly not a multiple of the group
        # count, so the threshold stage and its leftover columns run.
        for case in range(300):
            rows, cols = int(rng.integers(0, 6)), int(rng.integers(129, 700))
            kind = case % 5
            if kind == 0:
                scores = rng.normal(size=(rows, cols)).astype(np.float32)
            elif kind == 1:
                scores = rng.integers(0, 5, size=(rows, cols))
            elif kind == 2:
                scores = np.round(rng.normal(size=(rows, cols)), 1)
            elif kind == 3:  # +0.0 and -0.0 tie with each other
                scores = rng.integers(-1, 2, size=(rows, cols)) * 0.0
            else:  # freq_f1: read-only broadcast train degrees
                scores = np.broadcast_to(rng.integers(0, 9, size=cols),
                                         (rows, cols))
            k = int(rng.choice([1, 2, 10, 20, 150, cols + 5]))
            masked = (random_subsets(rng, rows, cols,
                                     max_share=rng.choice([0.05, 1.0]))
                      if case % 3 else None)
            assert_top_k_matches_oracle(scores, k, masked)

    @pytest.mark.parametrize("k", [1, 10, 300, 2000])
    def test_fully_tied_rows_take_the_lowest_columns(self, k):
        got = top_k(np.ones((3, 1001)), k, adjacency_of({1: {0, 5}}, 3))
        assert got[0].tolist() == list(range(min(k, 1001)))
        assert got[1].tolist() == [c for c in range(1001)
                                   if c not in (0, 5)][:k]

    def test_fully_excluded_wide_rows_are_empty(self, rng):
        scores = rng.normal(size=(3, 300))
        got = top_k(scores, 10, adjacency_of({0: set(range(300)),
                                              2: set(range(295))}, 3))
        assert got.row_lengths.tolist() == [0, 10, 5]
        assert got[2].tolist() == rank_items(scores[2],
                                             set(range(295))).tolist()

    @pytest.mark.parametrize("k", [0, 3])
    def test_zero_row_block(self, k):
        got = top_k(np.zeros((0, 500), dtype=np.float32), k,
                    adjacency_of({}, 0))
        assert len(got) == 0 and got.indices.size == 0


class TestRecall:
    def test_hit_at_rank_one(self):
        assert recall_at_k(np.array([7, 1, 2]), {7}, 5) == 1.0

    def test_partial_hit(self):
        assert recall_at_k(np.array([7, 1, 2]), {7, 9}, 3) == 0.5

    def test_miss_below_cutoff(self):
        assert recall_at_k(np.array([1, 2, 3]), {3}, 2) == 0.0

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k(np.array([1]), set(), 1)


class TestNdcg:
    def test_relevant_at_rank_one(self):
        assert ndcg_at_k(np.array([4, 1]), {4}, 2) == pytest.approx(1.0)

    def test_relevant_at_rank_two(self):
        got = ndcg_at_k(np.array([1, 4]), {4}, 2)
        assert got == pytest.approx(0.63093, abs=1e-5)

    def test_no_hit_is_zero(self):
        assert ndcg_at_k(np.array([1, 2]), {9}, 2) == 0.0

    def test_perfect_prefix_is_one(self):
        assert ndcg_at_k(np.array([3, 5, 1]), {3, 5}, 2) == pytest.approx(1.0)


class TestMetricOracle:
    def test_1000_random_cases(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 30))
            scores = rng.normal(size=n)
            ranked = rank_items(scores)
            relevant = {int(i) for i in
                        rng.choice(n, size=int(rng.integers(1, n)),
                                   replace=False)}
            k = int(rng.integers(1, 15))
            assert recall_at_k(ranked, relevant, k) == pytest.approx(
                brute_recall(ranked.tolist(), relevant, k), abs=1e-12)
            assert ndcg_at_k(ranked, relevant, k) == pytest.approx(
                brute_ndcg(ranked.tolist(), relevant, k), abs=1e-12)

    def test_bounds_and_k_monotonicity(self, rng):
        for _ in range(200):
            n = int(rng.integers(12, 30))
            ranked = rank_items(rng.normal(size=n))
            relevant = {int(i) for i in
                        rng.choice(n, size=int(rng.integers(1, 6)),
                                   replace=False)}
            r5 = recall_at_k(ranked, relevant, 5)
            r10 = recall_at_k(ranked, relevant, 10)
            n5 = ndcg_at_k(ranked, relevant, 5)
            n10 = ndcg_at_k(ranked, relevant, 10)
            assert 0.0 <= r5 <= r10 <= 1.0
            assert 0.0 <= n5 <= 1.0 and 0.0 <= n10 <= 1.0


class TestEvaluateRankings:
    counts = np.ones(3, dtype=np.int64)  # each user's train count

    def scores(self, chunk):
        table = np.array([
            [0.9, 0.8, 0.1, 0.0],
            [0.0, 0.1, 0.8, 0.9],
            [0.5, 0.5, 0.5, 0.5],
        ])
        return table[chunk]

    def test_averages_over_users(self):
        relevant = adjacency_of({0: {0}, 1: {3}}, 3)
        masked = adjacency_of({}, 3)
        report = evaluate_rankings(self.scores, [0, 1], relevant, masked,
                                   (1, 2), self.counts)
        assert report.num_users_evaluated == 2
        assert report.recall[1] == pytest.approx(1.0)

    def test_masking_changes_ranking(self):
        relevant = adjacency_of({0: {1}}, 3)
        report = evaluate_rankings(self.scores, [0], relevant,
                                   adjacency_of({0: {0}}, 3), (1,),
                                   self.counts)
        assert report.recall[1] == pytest.approx(1.0)

    def test_cutoff_below_one_rejected(self):
        with pytest.raises(ConfigError, match="cutoffs"):
            evaluate_rankings(self.scores, [0], adjacency_of({0: {0}}, 3),
                              adjacency_of({}, 3), (0, 10), self.counts)

    def test_users_without_relevant_skipped(self):
        report = evaluate_rankings(self.scores, [0, 2],
                                   adjacency_of({0: {0}, 2: set()}, 3),
                                   adjacency_of({}, 3), (1,), self.counts)
        assert report.num_users_evaluated == 1

    def test_global_equals_weighted_bucket_mean(self, rng):
        users = list(range(40))
        scores = rng.normal(size=(40, 12))
        relevant = adjacency_of({u: {int(rng.integers(12))} for u in users},
                                40)
        masked = adjacency_of({}, 40)
        counts = rng.integers(1, 30, size=40)
        report = evaluate_rankings(lambda c: scores[c], users, relevant,
                                   masked, (5, 10), counts)
        for k in (5, 10):
            total = 0.0
            weight = 0
            for bucket in report.buckets:
                if bucket["count"]:
                    total += bucket["ndcg"][str(k)] * bucket["count"]
                    weight += bucket["count"]
            assert weight == report.num_users_evaluated
            assert total / weight == pytest.approx(report.ndcg[k], abs=1e-12)


class TestEvaluateRankingsOracle:
    def test_bit_identical_to_per_user_loop(self, rng):
        # Up to 600 users: several row blocks.
        for _ in range(12):
            num_users = int(rng.integers(1, 600))
            num_items = int(rng.integers(2, 40))
            scores = random_scores(rng, num_users, num_items)
            masked = random_subsets(rng, num_users, num_items, 0.5)
            relevant = {u: set(rng.choice(
                sorted(set(range(num_items)) - masked[u]),
                size=int(rng.integers(0, 4)))) for u in range(num_users)
                if len(masked[u]) < num_items}
            counts = rng.integers(1, 30, size=num_users)
            ks = (1, 5, 10)
            report = evaluate_rankings(
                lambda block: scores[block], np.arange(num_users),
                adjacency_of(relevant, num_users),
                adjacency_of(masked, num_users), ks, counts)
            per_user = {}
            for u in range(num_users):
                rel = {int(i) for i in relevant.get(u, ())}
                if rel:
                    ranked = rank_items(scores[u], masked[u])
                    per_user[u] = {k: (recall_at_k(ranked, rel, k),
                                       ndcg_at_k(ranked, rel, k)) for k in ks}
            assert report.num_users_evaluated == len(per_user)
            for j, name in enumerate(("recall", "ndcg")):
                got = getattr(report, name)
                for k in ks:
                    want = [m[k][j] for m in per_user.values()]
                    assert got[k] == (float(np.mean(want)) if want else 0.0)
                for bucket in report.buckets:
                    members = [u for u in per_user
                               if bucket["lo"] <= counts[u] and
                               (bucket["hi"] is None
                                or counts[u] <= bucket["hi"])]
                    assert bucket["count"] == len(members)
                    for k in ks:
                        want = (float(np.mean([per_user[u][k][j]
                                               for u in members]))
                                if members else None)
                        assert bucket[name][str(k)] == want


class TestSparsityBreakdown:
    def test_bucket_edges(self):
        assert SPARSITY_BUCKETS[0] == (1, 5)
        assert SPARSITY_BUCKETS[1] == (6, 10)
        values = {10: np.array([1.0, 0.0, 0.5])}
        counts = np.array([3, 6, 25])
        buckets = sparsity_breakdown(counts, values, values, (10,))
        assert buckets[0]["count"] == 1 and buckets[0]["recall"]["10"] == 1.0
        assert buckets[1]["count"] == 1
        assert buckets[3]["count"] == 1

    def test_empty_bucket_null_metrics(self):
        values = {10: np.array([1.0])}
        buckets = sparsity_breakdown(np.array([2]), values, values, (10,))
        empty = buckets[2]
        assert empty["count"] == 0
        assert empty["recall"]["10"] is None and empty["ndcg"]["10"] is None


class TestConvergenceSummary:
    def history(self, best, stop):
        h = TrainHistory()
        h.l_bpr = [1.0] * (stop + 1)
        h.l_total = [1.0] * (stop + 1)
        h.best_epoch = best
        h.stopped_epoch = stop
        return h

    def test_best_and_stop(self):
        rows = convergence_summary([self.history(29, 49)])
        assert rows[0]["epochs_to_best"] == 30
        assert rows[0]["epochs_to_stop"] == 50

    def test_one_row_per_run(self):
        rows = convergence_summary([self.history(0, 1), self.history(2, 3)])
        assert [r["run"] for r in rows] == [0, 1]

    def test_single_epoch_run(self):
        rows = convergence_summary([self.history(0, 0)])
        assert rows[0]["epochs_to_best"] == 1
        assert rows[0]["epochs_to_stop"] == 1

"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers (run with ``pytest -s`` to see them inline).
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from conftest import make_bundle, write_raw_features
from gradtools import finite_difference, max_relative_error, total_loss
from planted import planted_bundle
from test_objective import make_instance
from mdvt import objective
from mdvt.cli import main
from mdvt.evaluator import evaluate_rankings
from mdvt.trainer import (RunConfig, evaluate_split, run_strategy_search,
                          train_run)
from mdvt.triplet_forge import select
from mdvt.warmup import dynamic_trigger, hybrid_candidates
from oracles import adjacency_of
from test_triplet_forge import (oracle_frequency, oracle_threshold,
                                oracle_topn, random_row)
from test_evaluator import brute_ndcg, brute_recall


def select_row(config, values, item_counts=None):
    """The production selection of one similarity row."""
    pos, neg = select(config, values[None, :], None, item_counts,
                      np.zeros(1, dtype=np.int64), np.zeros(1, dtype=bool))
    return pos[0], neg[0]


def metrics_of(scores, relevant, k):
    """Production Recall@k and NDCG@k of one user with nothing masked."""
    report = evaluate_rankings(lambda block: scores[None, :], [0],
                               adjacency_of({0: relevant}, 1),
                               adjacency_of({}, 1), (k,),
                               np.zeros(1, dtype=np.int64))
    return report.recall[k], report.ndcg[k]


def test_criterion_1_gradient_suite():
    """Analytic gradients of the real, virtual, and combined losses match
    central finite differences on >= 20 random instances."""
    start = time.monotonic()
    rng = np.random.default_rng(20240817)
    worst = {"bpr": 0.0, "vbpr": 0.0, "combined": 0.0}
    instances = 0
    for repeat in range(2):
        for layers in (0, 1, 2):
            for mask in (("id",), ("id", "visual")):
                for wo_aggr in (False, True):
                    num_users = int(rng.integers(3, 7))
                    num_items = int(rng.integers(6, 9))
                    d = int(rng.integers(2, 5))
                    state, prop, _, reps, batch, virtual = make_instance(
                        rng, num_users=num_users, num_items=num_items,
                        d=d, layers=layers, mask=mask, n=2, batch=5,
                        float64=True)
                    wo_scale = bool(rng.integers(2))
                    cases = {
                        "bpr": dict(lam=0.0, wo_scale=False,
                                    vset=None),
                        "vbpr": dict(lam=1.0, wo_scale=False,
                                     vset=virtual),
                        "combined": dict(lam=0.3, wo_scale=wo_scale,
                                         vset=virtual),
                    }
                    for name, case in cases.items():
                        config = RunConfig(num_layers=layers,
                                           modality_mask=mask,
                                           lam=case["lam"], wo_aggr=wo_aggr,
                                           wo_scale=case["wo_scale"])
                        _, analytic = objective.backward(
                            batch, case["vset"], reps, prop, config)
                        numeric = finite_difference(
                            lambda s: total_loss(s, prop, batch,
                                                 case["vset"], config),
                            state, h=1e-4)
                        err = max_relative_error(analytic, numeric)
                        worst[name] = max(worst[name], err)
                    instances += 1
    elapsed = time.monotonic() - start
    assert instances >= 20
    for name, err in worst.items():
        assert err <= 1e-4, f"{name} gradient error {err}"
    assert elapsed < 60.0
    print(f"\nACCEPTANCE PASS [1] gradient suite: {instances} instances, "
          f"max rel err bpr={worst['bpr']:.2e} vbpr={worst['vbpr']:.2e} "
          f"combined={worst['combined']:.2e}, {elapsed:.1f}s")


def test_criterion_2_selection_oracle():
    """All three selector families (top-n, threshold with cap/floor,
    frequency) match brute-force sort/filter oracles on 1000 random rows
    each, ties included, with zero mismatches."""
    from mdvt.errors import SelectionError

    rng = np.random.default_rng(77)
    mismatches = 0

    compared = 0
    while compared < 1000:
        num_items = int(rng.integers(4, 50))
        values = random_row(rng, num_items)
        n = int(rng.integers(1, max(2, num_items // 2)))
        if num_items < 2 * n:
            n = max(1, num_items // 2)
        pos, neg = select_row(RunConfig(top_n=n), values)
        opos, oneg = oracle_topn(values, n)
        mismatches += pos.tolist() != opos or neg.tolist() != oneg
        compared += 1

    compared = 0
    while compared < 1000:
        num_items = int(rng.integers(4, 50))
        values = random_row(rng, num_items)
        threshold = float(rng.uniform(0.05, 0.95))
        cap = int(rng.integers(1, 5)) if rng.random() < 0.5 else None
        floor = int(rng.integers(0, 3)) if rng.random() < 0.5 else None
        if floor is not None:  # a cap of num_items never truncates
            config = RunConfig(constructor="interval", top_n=cap or num_items,
                               sim_threshold=threshold, n_floor=floor)
        elif cap is not None:
            config = RunConfig(constructor="threshold_topn", top_n=cap,
                               sim_threshold=threshold)
        else:
            config = RunConfig(constructor="threshold",
                               sim_threshold=threshold)
        try:
            pos, neg = select_row(config, values)
        except SelectionError:
            # Guard regime: more than half the items qualify, so no
            # matching negative count exists. Draw a fresh row instead.
            continue
        opos, oneg = oracle_threshold(values, threshold, cap=cap,
                                      floor=floor)
        mismatches += pos.tolist() != opos or neg.tolist() != oneg
        compared += 1

    compared = 0
    while compared < 1000:
        num_items = int(rng.integers(4, 50))
        values = random_row(rng, num_items)
        counts = rng.integers(0, 8, size=num_items)
        mode = "f1" if rng.random() < 0.5 else "f2"
        n = int(rng.integers(1, max(2, num_items // 3)))
        if num_items < 2 * n:
            continue
        pos, neg = select_row(RunConfig(constructor=f"freq_{mode}", top_n=n),
                              values, counts)
        opos, oneg = oracle_frequency(values, n, counts, mode)
        mismatches += pos.tolist() != opos or neg.tolist() != oneg
        compared += 1

    assert mismatches == 0
    print("\nACCEPTANCE PASS [2] selection oracle: 3x1000 rows, "
          "0 mismatches")


def test_criterion_3_metric_oracle():
    """Recall@K and NDCG@K match definitional brute force on 1000 cases."""
    rng = np.random.default_rng(3)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 31))
        scores = rng.normal(size=n)
        ranked = sorted(range(n), key=lambda i: (-scores[i], i))
        relevant = {int(i) for i in
                    rng.choice(n, size=int(rng.integers(1, n)),
                               replace=False)}
        k = int(rng.integers(1, 15))
        recall, ndcg = metrics_of(scores, relevant, k)
        if not math.isclose(recall, brute_recall(ranked, relevant, k),
                            abs_tol=1e-12):
            mismatches += 1
        if not math.isclose(ndcg, brute_ndcg(ranked, relevant, k),
                            abs_tol=1e-12):
            mismatches += 1
    assert mismatches == 0
    _, pinned = metrics_of(np.array([0.0, 1.0]), {0}, 2)
    assert abs(pinned - 0.63093) <= 1e-5
    print(f"\nACCEPTANCE PASS [3] metric oracle: 1000 cases, 0 mismatches, "
          f"rank-2 NDCG@2={pinned:.6f}")


def test_criterion_4_warmup_analytics():
    """Geometric-curve trigger law and hybrid candidate windows."""
    for rho in (0.5, 0.85, 0.95):
        history = [rho ** t for t in range(1, 12)]
        for g in (0.1, 0.2, 0.3, 0.4):
            fired = dynamic_trigger(history, g)
            if 1.0 - rho < g:
                assert fired == 2, (rho, g, fired)
            else:
                assert fired is None, (rho, g, fired)
    for s in (1, 2, 3, 4, 5):
        for t_cur in (0, 1, 3, 10, 40):
            got = hybrid_candidates(t_cur, s)
            assert got == list(range(max(0, t_cur - s), t_cur + s + 1))
    print("\nACCEPTANCE PASS [4] warm-up analytics: geometric trigger law "
          "(3 rhos x 4 gs) and hybrid windows (s=1..5)")


def test_criterion_5_lambda_zero_equivalence():
    """A run with the virtual loss weighted to zero is bit-identical to a
    run with the machinery disabled."""
    rng = np.random.default_rng(55)
    bundle = make_bundle(rng, num_users=8, num_items=12, extra_edges=10)
    base = RunConfig(embed_dim=4, num_layers=1, lam=0.0, top_n=2,
                     batch_size=8, learning_rate=0.05, max_epochs=8,
                     patience=8, seed=17, strategy="dynamic", g=0.2)
    state_a, hist_a = train_run(bundle, base)
    state_b, hist_b = train_run(
        bundle, dataclasses.replace(base, mdvt_enabled=False, lam=0.3))
    assert hist_a.to_dict() == hist_b.to_dict()
    test_a = evaluate_split(state_a, bundle, base, "test").to_dict()
    test_b = evaluate_split(state_b, bundle, base, "test").to_dict()
    assert test_a == test_b
    for key, table in state_a.param_items():
        role, m = key.split(".", 1)
        other = state_b.user[m] if role == "user" else state_b.item[m]
        assert np.array_equal(table, other)
    print("\nACCEPTANCE PASS [5] lambda=0 equivalence: history, test "
          "metrics, and parameter tables bit-identical")


def test_criterion_6_ablation_identities():
    """w/o-Aggr at n=1 equals the default per batch; w/o-Scale follows the
    unscaled sum exactly."""
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(10):
        state, prop, _, reps, batch, virtual = make_instance(rng, n=1)
        config = RunConfig(lam=0.25, num_layers=1)
        default, _ = objective.backward(batch, virtual, reps, prop, config)
        ablated, _ = objective.backward(
            batch, virtual, reps, prop,
            dataclasses.replace(config, wo_aggr=True))
        worst = max(worst, abs(default.l_vbpr - ablated.l_vbpr),
                    abs(default.l_total - ablated.l_total))
    assert worst <= 1e-12

    for _ in range(10):
        state, prop, _, reps, batch, virtual = make_instance(rng, n=2)
        report, _ = objective.backward(
            batch, virtual, reps, prop,
            RunConfig(lam=0.3, num_layers=1, wo_scale=True))
        assert report.l_total == report.l_bpr + 0.3 * report.l_vbpr
    print(f"\nACCEPTANCE PASS [6] ablation identities: w/o-Aggr n=1 max "
          f"diff {worst:.1e} (<=1e-12); w/o-Scale formula exact")


def test_criterion_7_end_to_end_directional():
    """On planted-group data, the hybrid-strategy run beats or ties the
    BPR-only baseline on test NDCG@10 in >= 7 of 10 seeds."""
    start = time.monotonic()
    wins = 0
    margins = []
    for seed in range(10):
        bundle = planted_bundle(seed)
        config = RunConfig(embed_dim=16, num_layers=1, lam=0.2, top_n=2,
                           batch_size=256, learning_rate=0.02,
                           max_epochs=80, patience=20, seed=seed,
                           strategy="hybrid", g=0.1, s=2)
        result = run_strategy_search(bundle, config)
        mdvt_ndcg = evaluate_split(result.best_state, bundle,
                                   config, "test").ndcg[10]
        off_state, _ = train_run(
            bundle, dataclasses.replace(config, mdvt_enabled=False))
        base_ndcg = evaluate_split(off_state, bundle, config,
                                   "test").ndcg[10]
        wins += mdvt_ndcg >= base_ndcg
        margins.append(mdvt_ndcg - base_ndcg)
    elapsed = time.monotonic() - start
    assert wins >= 7, f"only {wins}/10 seeds at or above baseline"
    assert elapsed < 600.0
    print(f"\nACCEPTANCE PASS [7] end-to-end directional: {wins}/10 seeds, "
          f"mean margin {np.mean(margins):+.4f}, {elapsed:.0f}s")


def test_criterion_8_determinism(tmp_path):
    """Two identical train invocations produce byte-identical reports
    except for the wall-clock field."""
    rng = np.random.default_rng(88)
    inter = tmp_path / "interactions.tsv"
    lines = []
    for u in range(14):
        for i in rng.choice(12, size=4, replace=False):
            lines.append(f"u{u}\ti{i}\n")
    inter.write_text("".join(lines), encoding="utf-8")
    feat = tmp_path / "visual.feat"
    write_raw_features(feat, rng.normal(size=(12, 4)).astype(np.float32),
                       item_ids=[f"i{k}" for k in range(12)])
    bundle_dir = tmp_path / "bundle"
    assert main(["prepare", "--interactions", str(inter), "--feature",
                 f"visual={feat}", "--out", str(bundle_dir),
                 "--seed", "1"]) == 0
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "embed_dim": 4, "num_layers": 1, "lam": 0.2, "top_n": 2,
        "batch_size": 16, "learning_rate": 0.05, "max_epochs": 5,
        "patience": 5, "seed": 2, "strategy": "hybrid", "g": 0.2, "s": 2,
    }), encoding="utf-8")
    blobs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        assert main(["train", "--bundle", str(bundle_dir), "--config",
                     str(config_path), "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        report.pop("wall_clock_seconds")
        blobs.append(json.dumps(report, sort_keys=True))
    assert blobs[0] == blobs[1]
    print("\nACCEPTANCE PASS [8] determinism: repeated train reports "
          "byte-identical excluding wall clock")

import pytest

from conftest import make_bundle
from mdvt.errors import ConfigError, MdvtError
from mdvt.trainer import RunConfig, TrainingRun
from mdvt.warmup import (dynamic_trigger, hybrid_candidates,
                         static_candidates,
                         DEFAULT_G, DEFAULT_S, DEFAULT_STATIC_SET)


class TestDynamicTrigger:
    def test_halving_does_not_fire(self):
        assert dynamic_trigger([100.0, 50.0], 0.1) is None

    def test_small_relative_change_fires(self):
        assert dynamic_trigger([100.0, 50.0, 47.0], 0.1) == 3

    def test_increase_cannot_fire(self):
        # The 1% rebound at epoch 2 is skipped; the small decrease at
        # epoch 3 (|delta|/prev ~ 0.005) fires.
        assert dynamic_trigger([100.0, 101.0, 100.5], 0.1) == 3

    def test_first_firing_epoch_wins(self):
        assert dynamic_trigger([10.0, 9.99, 5.0, 4.999], 0.1) == 2

    def test_strictly_increasing_never_fires(self):
        assert dynamic_trigger([1.0, 1.001, 1.002, 1.003], 0.1) is None

    def test_oscillating_curve_fires_on_small_down_move(self):
        assert dynamic_trigger([100.0, 99.0, 100.0, 99.0], 0.1) == 2

    def test_short_history_never_fires(self):
        assert dynamic_trigger([5.0], 0.1) is None
        assert dynamic_trigger([], 0.1) is None

    def test_non_positive_loss_rejected(self):
        with pytest.raises(MdvtError):
            dynamic_trigger([1.0, -0.5], 0.1)

    def test_g_bounds(self):
        # The config boundary guarantees the g the rule is called with.
        for strategy in ("dynamic", "hybrid"):
            with pytest.raises(ConfigError, match="g must lie"):
                RunConfig(strategy=strategy, g=1.5)

    def test_monotone_in_g(self):
        # Smaller g can only delay the trigger (None counts as "never").
        history = [100.0, 70.0, 55.0, 50.0, 48.5, 48.0]
        never = float("inf")
        fired = [dynamic_trigger(history, g) or never
                 for g in (0.05, 0.1, 0.2, 0.3, 0.5)]
        assert all(a >= b for a, b in zip(fired, fired[1:]))

    def test_geometric_curve_analytics(self):
        # On L^t = rho^t the ratio is constantly 1 - rho, so the trigger is
        # epoch 2 exactly when 1 - rho < g and never otherwise.
        for rho in (0.5, 0.85, 0.95):
            history = [rho ** t for t in range(1, 11)]
            for g in (0.1, 0.2, 0.3, 0.4):
                fired = dynamic_trigger(history, g)
                if 1.0 - rho < g:
                    assert fired == 2
                else:
                    assert fired is None


class TestStaticCandidates:
    def test_default_set(self):
        assert static_candidates(DEFAULT_STATIC_SET) == [0, 5, 10, 20, 40, 80]

    def test_dedup_and_sort(self):
        assert static_candidates({5, 5, 0}) == [0, 5]

    def test_empty_rejected(self):
        with pytest.raises(ConfigError, match="non-empty static_set"):
            RunConfig(strategy="static", static_set=())

    def test_negative_rejected(self):
        for strategy in ("static", "dynamic", "hybrid"):
            with pytest.raises(ConfigError, match="static_set entries"):
                RunConfig(strategy=strategy, static_set=(-1, 3))


class TestHybridCandidates:
    def test_interior_window(self):
        assert hybrid_candidates(10, 2) == [8, 9, 10, 11, 12]

    def test_clipped_at_zero(self):
        assert hybrid_candidates(1, 2) == [0, 1, 2, 3]

    def test_full_width(self):
        assert len(hybrid_candidates(20, 5)) == 11

    def test_count_bound(self):
        for t_cur in range(0, 12):
            for s in range(1, 6):
                count = len(hybrid_candidates(t_cur, s))
                assert count == t_cur + s - max(0, t_cur - s) + 1
                assert count <= 2 * s + 1

    def test_defaults(self):
        assert DEFAULT_G == 0.1
        assert DEFAULT_S == 2


def run_with(rng, trigger) -> TrainingRun:
    bundle = make_bundle(rng, num_users=6, num_items=10, extra_edges=6)
    return TrainingRun(bundle, RunConfig(embed_dim=4, batch_size=8),
                       trigger=trigger)


def is_joint(run: TrainingRun, epoch: int) -> bool:
    """Whether ``run`` trains epoch ``epoch`` with a virtual-triplet set:
    trains it and reads whether the epoch reports a virtual loss."""
    run.epoch = epoch
    run.step()
    return run.history.l_vbpr[-1] is not None


class TestIsJointPhase:
    def test_static_candidate_boundary(self, rng):
        run = run_with(rng, 20)
        assert not is_joint(run, 19)
        assert is_joint(run, 20)

    def test_candidate_zero_joint_from_first_epoch(self, rng):
        run = run_with(rng, 0)
        assert run.epoch == 0 and is_joint(run, 0)

    def test_dynamic_latches(self, rng):
        losses = [100.0, 50.0, 47.0]
        run = run_with(rng, dynamic_trigger(losses, 0.1))
        assert run.trigger == 3
        # A later loss jump cannot un-trigger.
        run.history.l_total = losses + [500.0, 20.0]
        for epoch in range(3, 9):
            assert is_joint(run, epoch)
        assert run.history.trigger_epoch == 3

    def test_dynamic_not_fired_yet(self, rng):
        run = run_with(rng, dynamic_trigger([100.0], 0.1))
        assert not is_joint(run, 1)
        assert run.trigger is None

    def test_plan_validation(self):
        for bad in (dict(strategy="nope"), dict(strategy="dynamic", g=2.0),
                    dict(strategy="static", static_set=()),
                    dict(strategy="static", warmup_candidate=3)):
            with pytest.raises(ConfigError):
                RunConfig.from_dict(bad)

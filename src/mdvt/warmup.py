"""Warm-up threshold strategies: when virtual triplets join training.

Epoch bookkeeping: training epochs are 0-indexed. ``dynamic_trigger``
speaks in terms of the loss sequence (its epoch t uses the losses of
epochs t-1 and t, 1-indexed); the value it returns is exactly the first
0-indexed training epoch able to act on the fired condition, so the
resolved trigger is always the first joint epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, MdvtError

STRATEGIES = ("static", "dynamic", "hybrid")
DEFAULT_STATIC_SET = (0, 5, 10, 20, 40, 80)
DEFAULT_G = 0.1
DEFAULT_S = 2


@dataclass
class WarmupPlan:
    """Strategy selection and the resolved trigger epoch for one run."""

    strategy: str = "hybrid"
    static_set: tuple[int, ...] = DEFAULT_STATIC_SET
    g: float = DEFAULT_G
    s: int = DEFAULT_S
    resolved_trigger: int | None = None

    def validate(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown warm-up strategy {self.strategy!r}")
        if self.strategy == "static" and not self.static_set:
            raise ConfigError("static strategy requires a non-empty "
                              "candidate set")
        if self.strategy in ("dynamic", "hybrid"):
            if not 0.0 < self.g < 1.0:
                raise ConfigError(f"g must lie in (0, 1), got {self.g}")
        if self.strategy == "hybrid" and self.s < 1:
            raise ConfigError(f"s must be >= 1, got {self.s}")
        if self.resolved_trigger is not None and self.resolved_trigger < 0:
            raise ConfigError("resolved trigger must be a non-negative epoch")


def dynamic_trigger(loss_history: list[float], g: float) -> int | None:
    """First epoch t >= 2 whose loss-decrease ratio falls below g.

    The ratio at t is |L^{t-1} - L^t| / L^{t-1} over consecutive entries of
    ``loss_history``. Only non-increasing steps can fire: a rebound is not
    convergence, however small, while oscillating curves still trigger on
    their small down-moves. Returns None if the condition never holds.
    """
    if not 0.0 < g < 1.0:
        raise ConfigError(f"g must lie in (0, 1), got {g}")
    for k in range(1, len(loss_history)):
        prev, cur = loss_history[k - 1], loss_history[k]
        if prev <= 0.0 or cur <= 0.0:
            raise MdvtError(f"non-positive loss in history at position {k}")
        if cur <= prev and abs(prev - cur) / prev < g:
            return k + 1
    return None


def static_candidates(static_set) -> list[int]:
    """Sorted, deduplicated warm-up epoch candidates."""
    values = sorted(set(int(c) for c in static_set))
    if not values:
        raise ConfigError("static candidate set is empty")
    if values[0] < 0:
        raise ConfigError(f"static candidates must be non-negative: {values}")
    return values


def hybrid_candidates(t_cur: int, s: int) -> list[int]:
    """Integer range [max(0, t_cur - s), t_cur + s] around the dynamic
    estimate."""
    if t_cur < 0:
        raise ConfigError(f"dynamic estimate must be >= 0, got {t_cur}")
    if s < 1:
        raise ConfigError(f"s must be >= 1, got {s}")
    return list(range(max(0, t_cur - s), t_cur + s + 1))


def is_joint_phase(plan: WarmupPlan, epoch: int,
                   loss_history: list[float]) -> bool:
    """Whether ``epoch`` trains with the virtual loss.

    A preset ``resolved_trigger`` (static / hybrid candidate runs, or an
    already-latched dynamic run) compares directly; otherwise the dynamic
    rule is evaluated on the completed-epoch loss history and latched the
    first time it fires.
    """
    plan.validate()
    if plan.resolved_trigger is None and plan.strategy in ("dynamic",
                                                           "hybrid"):
        fired = dynamic_trigger(loss_history, plan.g)
        if fired is not None:
            plan.resolved_trigger = fired
    if plan.resolved_trigger is None:
        return False
    return epoch >= plan.resolved_trigger

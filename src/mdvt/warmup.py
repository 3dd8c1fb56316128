"""Warm-up threshold strategies: when virtual triplets join training.

Epoch bookkeeping: training epochs are 0-indexed. ``dynamic_trigger``
speaks in terms of the loss sequence (its epoch t uses the losses of
epochs t-1 and t, 1-indexed); the value it returns is exactly the first
0-indexed training epoch able to act on the fired condition, so the
resolved trigger is always the first joint epoch.
"""

from __future__ import annotations

from .errors import MdvtError

STRATEGIES = ("static", "dynamic", "hybrid")
DEFAULT_STATIC_SET = (0, 5, 10, 20, 40, 80)
DEFAULT_G = 0.1
DEFAULT_S = 2


def dynamic_trigger(loss_history: list[float], g: float) -> int | None:
    """First epoch t >= 2 whose loss-decrease ratio falls below g.

    The ratio at t is |L^{t-1} - L^t| / L^{t-1} over consecutive entries of
    ``loss_history``. Only non-increasing steps can fire: a rebound is not
    convergence, however small, while oscillating curves still trigger on
    their small down-moves. Returns None if the condition never holds.
    """
    for k in range(1, len(loss_history)):
        prev, cur = loss_history[k - 1], loss_history[k]
        if prev <= 0.0 or cur <= 0.0:
            raise MdvtError(f"non-positive loss in history at position {k}")
        if cur <= prev and abs(prev - cur) / prev < g:
            return k + 1
    return None


def static_candidates(static_set) -> list[int]:
    """Sorted, deduplicated warm-up epoch candidates."""
    return sorted(set(static_set))


def hybrid_candidates(t_cur: int, s: int) -> list[int]:
    """Integer range [max(0, t_cur - s), t_cur + s] around the dynamic
    estimate."""
    return list(range(max(0, t_cur - s), t_cur + s + 1))

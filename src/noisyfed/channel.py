"""Channel noise schedules and power accounting.

A schedule maps a communication round k to a per-coordinate noise variance.
``poly_decay`` divides the base variance by (k+1)**p, so round 0 is always
defined, and can additionally divide by E**2 (the downlink control policy).
Scale-down policies act on the variance, not the amplitude. The noise
itself is drawn by the round loops (``fedavg._cohort_draws``): unit-variance
draws of keyed streams, scaled by the square root of the round's variance.

Power accounting treats a variance scale-down as an equivalent transmit
amplification: realizing variance v(k) instead of the base variance costs a
factor base/v(k) in round-k power, so the cumulative budget of a schedule
is sum_k base/v(k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DIRECTIONS = ("uplink", "downlink")
KINDS = ("off", "constant", "poly_decay")


class InfiniteBudgetError(ValueError):
    """Power budget requested for a schedule with a zero-variance round."""


@dataclass(frozen=True)
class NoiseSchedule:
    direction: str
    kind: str = "off"
    base_std: float = 0.0
    decay_exponent: float = 0.0
    e_squared_scaling: bool = False

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if not (math.isfinite(self.base_std) and math.isfinite(self.decay_exponent)):
            raise ValueError("base_std and decay_exponent must be finite")
        if self.base_std < 0 or self.decay_exponent < 0:
            raise ValueError("base_std and decay_exponent must be >= 0")
        if not math.isfinite(self.base_std * self.base_std):
            raise ValueError("base_std squared must be finite")
        if self.kind != "off" and self.base_std == 0:
            raise ValueError("non-off schedules need base_std > 0")
        if self.kind == "off" and (self.base_std or self.decay_exponent or self.e_squared_scaling):
            raise ValueError("off schedules take no other parameters")
        if self.kind == "constant" and (self.decay_exponent or self.e_squared_scaling):
            raise ValueError("constant schedules take no decay_exponent or e_squared_scaling")

    @property
    def off(self) -> bool:
        return self.kind == "off"


def variance_at(schedule: NoiseSchedule, k: int, E: int = 1) -> float:
    """Per-coordinate noise variance at round k (k >= 0, E >= 1)."""
    if k < 0 or E < 1:
        raise ValueError("need k >= 0 and E >= 1")
    if schedule.kind == "off":
        return 0.0
    v = schedule.base_std ** 2
    if schedule.kind == "poly_decay":
        try:
            v /= float(k + 1) ** schedule.decay_exponent
        except OverflowError:  # (k+1)**p is beyond float range: v / inf is 0.0
            v = 0.0
        if schedule.e_squared_scaling:
            v /= float(E) ** 2
    return v


def power_budget(schedule: NoiseSchedule, K: int, E: int = 1) -> float:
    """Cumulative amplification factor sum_k base_var / variance_at(k)."""
    if K < 1:
        raise ValueError("need K >= 1")
    if schedule.kind == "off":
        raise InfiniteBudgetError("an off channel has no finite power budget")
    base = schedule.base_std ** 2
    total = 0.0
    for k in range(K):
        v = variance_at(schedule, k, E)
        if v == 0.0:
            raise InfiniteBudgetError(f"zero variance at round {k}")
        total += base / v
    return total


@dataclass(frozen=True)
class PolicyComparison:
    uplink_budget: float
    downlink_budget: float
    prior_uplink_budget: float
    prior_downlink_budget: float

    @property
    def uplink_ratio(self) -> float:
        return self.uplink_budget / self.prior_uplink_budget

    @property
    def downlink_ratio(self) -> float:
        return self.downlink_budget / self.prior_downlink_budget

    @property
    def total_ratio(self) -> float:
        return (self.uplink_budget + self.downlink_budget) / (
            self.prior_uplink_budget + self.prior_downlink_budget)


def compare_policies(K: int, E: int) -> PolicyComparison:
    """Power budgets of the asymmetric control policy versus symmetric 1/k.

    The asymmetric policy decays the uplink variance like 1/sqrt(k+1) and
    the downlink variance like 1/(E^2 (k+1)); the symmetric reference decays
    both like 1/(k+1). Budgets are variance-scale free (unit base). The
    uplink ratio is below 1 (the power saving); the downlink ratio carries
    the extra E^2 factor.
    """
    up = NoiseSchedule("uplink", "poly_decay", 1.0, 0.5, False)
    dn = NoiseSchedule("downlink", "poly_decay", 1.0, 1.0, True)
    sym = NoiseSchedule("uplink", "poly_decay", 1.0, 1.0, False)
    return PolicyComparison(
        uplink_budget=power_budget(up, K, E),
        downlink_budget=power_budget(dn, K, E),
        prior_uplink_budget=power_budget(sym, K, E),
        prior_downlink_budget=power_budget(sym, K, E),
    )

"""The decay-rule cutoff radius of a radial envelope r**power * exp(-rate*r)."""

from __future__ import annotations

import math


def decay_cutoff(power: float, rate: float, *, drop=1e-18) -> float:
    """Radius where r**power * exp(-rate*r) has fallen to drop times its peak.

    Used to truncate radial normalization integrals; power is the combined
    exponent of the integrand envelope and rate its decay constant.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    peak_r = max(power, 0.0) / rate

    def log_env(r):
        return power * math.log(r) - rate * r

    target = (log_env(peak_r) if peak_r > 0 else 0.0) + math.log(drop)
    lo = max(peak_r, 1.0 / rate)
    hi = 2.0 * lo
    while log_env(hi) > target:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if log_env(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi

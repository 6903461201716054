"""Recurrence-based special function kernels (no scipy.special at runtime).

Each polynomial comes back as (sign, log|P|).  The recurrences (DLMF 18.9)
divide both carried values by a power of two at each step, which is exact,
and sum the exponents apart, so no value leaves the float range.
"""

import math

import numpy as np

_LOG2 = math.log(2.0)


def _recur(n, x, p_prev, p, step):
    """(sign, log|P_n|) from P_0 = p_prev and P_1 = p, with
    P_k = step(k, P_{k-1}, P_{k-2}) for k = 2 .. n."""
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    if n == 0:
        p = p_prev
    exponent = x * 0.0
    for k in range(2, n + 1):
        p, p_prev = step(k, p, p_prev), p
        _, shift = np.frexp(np.maximum(abs(p), abs(p_prev)))
        p, p_prev = np.ldexp(p, -shift), np.ldexp(p_prev, -shift)
        exponent = exponent + shift
    with np.errstate(divide="ignore"):
        return np.sign(p), np.log(abs(p)) + _LOG2 * exponent


def laguerre(n, eta, x):
    """Generalized Laguerre polynomial L_n^(eta)(x) as (sign, log|L|).

    Stable upward in n for eta > -1; x may be a scalar or ndarray.
    """
    return _recur(n, x, x * 0.0 + 1.0, 1.0 + eta - x,
                  lambda k, p, p_prev: ((2.0 * k - 1.0 + eta - x) * p
                                        - (k - 1.0 + eta) * p_prev) / k)


def jacobi(n, aa, bb, x):
    """Jacobi polynomial P_n^(aa,bb)(x) as (sign, log|P|).

    Requires aa, bb > -1 so no recurrence coefficient vanishes.
    """
    def step(k, p, p_prev):
        s = 2.0 * k + aa + bb
        c1 = 2.0 * k * (k + aa + bb) * (s - 2.0)
        c2 = (s - 1.0) * (s * (s - 2.0) * x + aa * aa - bb * bb)
        c3 = 2.0 * (k + aa - 1.0) * (k + bb - 1.0) * s
        return (c2 * p - c3 * p_prev) / c1

    return _recur(n, x, x * 0.0 + 1.0, (aa + 1.0) + (aa + bb + 2.0) * (x - 1.0) / 2.0, step)


def log_power(x, power):
    """log(x**power) = power * log(x), with the 0**0 = 1 convention: 0 where
    power is 0, x = 0 included."""
    if power == 0:
        return x * 0.0
    with np.errstate(divide="ignore"):
        return power * np.log(x)


def log_sin_power(theta, power):
    """log(sin(theta)**power) with the 0**0 = 1 convention at the poles.

    Evaluated as sin(pi - theta) on the upper half so that the representable
    endpoint theta = pi is an exact zero, like theta = 0.
    """
    s = np.where(theta > 0.5 * np.pi, np.sin(np.pi - theta), np.sin(theta))
    if np.ndim(theta) == 0:
        s = float(s)
    return log_power(s, power)

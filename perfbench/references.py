"""Closed-form references for the benchmark's correctness checks.

Written with the standard library alone, apart from ``sdelab``: these are
the independent routes the benchmark compares the program's estimates with.

* ``escape-bridge`` runs ``linear-1d`` (dX = X dB) from x = 1 inside the band
  of levels (1/2, 2).  The level is X^2 and X = exp(B_s - s/2) exactly, so
  the band exit is the exit of B_s - s/2 from (-ln2/2, ln2/2).
* ``hitting-powerlaw`` runs sigma(y) = |y|^(1/2) from y = 1.  Then 4Y is a
  squared Bessel process of dimension 0, absorbed at 0 by time T with
  probability exp(-4y/(2T)) (Feller).
* ``dyadic-diag`` runs sigma = diag(x), b = -x from (1, 1), so that
  X_i = exp(B_i - 3t/2) exactly and the level is 2(X_1^2 + X_2^2).
"""

from __future__ import annotations

import math

# Terms of the image series (each side of zero) and of the eigenfunction
# expansion; both are far past convergence for the bands and times used.
IMAGE_TERMS = 30
EIGEN_TERMS = 400


def norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def two_sided_exit_prob(t: float, half_width: float, drift: float) -> float:
    """P[B_s + drift*s leaves (-half_width, half_width) by time t], from 0.

    Method of images: the killed density of drifted Brownian motion on
    (0, L) is exp(mu (y - x) - mu^2 t / 2) times the driftless image series,
    and each image integrates in closed form against the exponential tilt.
    """
    if t <= 0:
        return 0.0
    L, x, mu = 2.0 * half_width, half_width, drift
    rt = math.sqrt(t)

    def mass(lo, hi):
        return norm_cdf((hi - mu * t) / rt) - norm_cdf((lo - mu * t) / rt)

    survive = 0.0
    for n in range(-IMAGE_TERMS, IMAGE_TERMS + 1):
        shift = 2.0 * n * L
        survive += math.exp(-2.0 * mu * n * L) * mass(shift - x, shift + L - x)
        survive -= (math.exp(-mu * (2.0 * x + shift))
                    * mass(shift + x, shift + L + x))
    return min(max(1.0 - survive, 0.0), 1.0)


def two_sided_exit_prob_eigen(t: float, half_width: float,
                              drift: float) -> float:
    """The same probability by the sine eigenfunction expansion.

    An independent route used only to test :func:`two_sided_exit_prob`.
    """
    L, x, mu = 2.0 * half_width, half_width, drift
    survive = 0.0
    for n in range(1, EIGEN_TERMS + 1):
        k = n * math.pi / L
        tilt = k * (1.0 - (-1.0) ** n * math.exp(mu * L)) / (mu * mu + k * k)
        survive += ((2.0 / L) * math.sin(k * x) * math.exp(-0.5 * k * k * t)
                    * tilt)
    survive *= math.exp(-0.5 * mu * mu * t - mu * x)
    return min(max(1.0 - survive, 0.0), 1.0)


def escape_bridge_reference(t: float) -> float:
    """Exit probability of the level of linear-1d from (1/2, 2) by t, from 1."""
    return two_sided_exit_prob(t, 0.5 * math.log(2.0), -0.5)


def besq0_hitting_bracket(y0: float, horizon: float,
                          eps: float) -> tuple[float, float]:
    """Bracket of P[min level <= eps by T] for sigma(y) = |y|^(1/2), from y0.

    Lower: absorption at 0 by T, exp(-2 y0 / T).  Upper: by the strong
    Markov property at the first passage of eps, for every s > 0,
    P[tau_eps <= T] * exp(-2 eps / s) <= exp(-2 y0 / (T + s)); the infimum
    over s is reached at s = T r / (1 - r) with r = sqrt(eps / y0).
    """
    lower = math.exp(-2.0 * y0 / horizon)
    r = math.sqrt(eps / y0)
    if r >= 1.0:
        return lower, 1.0
    s = horizon * r / (1.0 - r)
    upper = math.exp(-2.0 * y0 / (horizon + s) + 2.0 * eps / s)
    return lower, min(upper, 1.0)


def drifted_min_passage(c: float, drift: float, horizon: float) -> float:
    """P[min_{s<=T} (B_s + drift*s) <= -c] for c >= 0."""
    if c <= 0:
        return 1.0
    rt = math.sqrt(horizon)
    return (norm_cdf((-c - drift * horizon) / rt)
            + math.exp(-2.0 * drift * c)
            * norm_cdf((-c + drift * horizon) / rt))


def _endpoint_level_cdf(b: float, horizon: float, panels: int = 4000) -> float:
    """P[2 (X_1(T)^2 + X_2(T)^2) <= b] with log X_i(T) ~ N(-3T/2, T).

    Conditions on G_1 = log X_1(T) and integrates by Simpson's rule over
    G_1 < log(b/2)/2, where the inner probability is a normal cdf.
    """
    mean, sd = -1.5 * horizon, math.sqrt(horizon)
    top = 0.5 * math.log(b / 2.0)
    bottom = mean - 12.0 * sd
    if top <= bottom:
        return 0.0
    step = (top - bottom) / panels

    def f(g):
        rest = b / 2.0 - math.exp(2.0 * g)
        if rest <= 0:
            return 0.0
        dens = math.exp(-0.5 * ((g - mean) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
        return dens * norm_cdf((0.5 * math.log(rest) - mean) / sd)

    total = f(bottom) + f(top)
    for i in range(1, panels):
        total += (4.0 if i % 2 else 2.0) * f(bottom + i * step)
    return total * step / 3.0


def dyadic_diag_bracket(b: float, horizon: float) -> tuple[float, float]:
    """Bracket of P[level of diag-linear(d=2) reaches b by T], from (1, 1).

    Lower: the level at T is already at or below b.  Upper: the level is at
    least 2 X_1^2, and X_1 = exp(B - 3s/2), so reaching b needs
    min_s (B_s - 3s/2) <= log(b/2)/2.
    """
    lower = _endpoint_level_cdf(b, horizon)
    upper = drifted_min_passage(-0.5 * math.log(b / 2.0), -1.5, horizon)
    return lower, upper

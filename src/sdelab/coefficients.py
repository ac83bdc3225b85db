"""Coefficient fields (sigma, b), their level function, and the built-in catalog.

A field packages the diffusion map sigma: R^d -> R^(d x m) and the drift map
b: R^d -> R^d together with the metadata the estimators need, such as a
Lipschitz bound.
Both maps are written once, on blocks of states: ``sigma`` takes an (n, d)
array to (n, d, m) and ``b`` takes it to (n, d).  A single state is the
block of one row, so the level function ``level`` of one state and
``level_batch`` of a block share one formula, and the Euler-Maruyama step of
one state is the sweep's step on one row.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import InvalidInputError

# Base relative tolerance for declaring the level function "zero".
ZERO_TOL_BASE = 1e-12
# estimate_lipschitz's pairs of each kind, and its factor on the largest
# quotient, since a sampled maximum under-reads the constant
_LIPSCHITZ_SAMPLES = 4000
_LIPSCHITZ_SAFETY = 1.25


@dataclass(frozen=True)
class CoefficientField:
    """Immutable coefficient pair with evaluation helpers.

    ``sigma(X)`` must return an (n, d, m) array and ``b(X)`` an (n, d) array
    for any finite (n, d) block of states ``X``.  ``lipschitz_k`` is a
    declared bound for the Lipschitz constants of both maps, or None when no
    honest global bound exists (the estimators then fall back to an
    empirical estimate).  A state is in the zero set where its level is
    within :func:`resolved_zero_tol` of zero.

    ``abs_level_inverse`` is only set for 1-d fields whose level function is
    a symmetric increasing function of |x|; it maps a level value back to the
    corresponding |x| and enables the Brownian-bridge crossing correction.
    """

    d: int
    m: int
    sigma: Callable[[np.ndarray], np.ndarray]
    b: Callable[[np.ndarray], np.ndarray]
    lipschitz_k: float | None = None
    name: str = "custom"
    abs_level_inverse: Callable[[float], float] | None = None
    catalog_ref: tuple[str, dict] | None = None

    def __post_init__(self):
        if self.d < 1 or self.m < 1:
            raise InvalidInputError("state and noise dimensions must be >= 1")
        if self.lipschitz_k is not None and self.lipschitz_k < 0:
            raise InvalidInputError("lipschitz_k must be nonnegative")


def _check_state(field: CoefficientField, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (field.d,):
        raise InvalidInputError(
            f"state has shape {arr.shape}, field expects ({field.d},)")
    return arr


def _level_of(sig: np.ndarray, drift: np.ndarray) -> np.ndarray:
    # ||sigma||_F^2 + ||b||^2 of each row of an (n, d, m) and an (n, d) block
    return (np.einsum("ijk,ijk->i", sig, sig, optimize=False)
            + np.einsum("ij,ij->i", drift, drift, optimize=False))


def _coefficients_at(field: CoefficientField, x):
    """One state as a (1, d) block, with sigma (1, d, m) and b (1, d) there."""
    row = _check_state(field, x)[None]
    sig = np.asarray(field.sigma(row), dtype=float)
    if sig.shape != (1, field.d, field.m):
        raise InvalidInputError(
            f"sigma returned shape {sig.shape}, expected (1, {field.d}, {field.m})")
    drift = np.asarray(field.b(row), dtype=float)
    if drift.shape != (1, field.d):
        raise InvalidInputError(
            f"b returned shape {drift.shape}, expected (1, {field.d})")
    return row, sig, drift


def level(field: CoefficientField, x) -> float:
    """Squared coefficient magnitude ||sigma(x)||_F^2 + ||b(x)||^2."""
    row, sig, drift = _coefficients_at(field, x)
    lev = float(_level_of(sig, drift)[0])
    if not math.isfinite(lev):
        raise InvalidInputError(f"level at {row[0].tolist()} is not finite")
    return lev


def sigma_batch(field: CoefficientField, states: np.ndarray) -> np.ndarray:
    """Evaluate sigma on an (n, d) block of states, returning (n, d, m)."""
    return field.sigma(states)


def b_batch(field: CoefficientField, states: np.ndarray) -> np.ndarray:
    """Evaluate b on an (n, d) block of states, returning (n, d)."""
    return field.b(states)


def level_batch(field: CoefficientField, states: np.ndarray) -> np.ndarray:
    """Level function on an (n, d) block of states."""
    return _level_of(sigma_batch(field, states), b_batch(field, states))


def resolved_zero_tol(start_level: float) -> float:
    """Absolute zero-set tolerance for a run starting at the given level.

    The tolerance scales with the starting level so that large-level
    scenarios do not spuriously absorb.
    """
    return ZERO_TOL_BASE * max(1.0, start_level)


def in_zero_set(field: CoefficientField, x) -> bool:
    """Whether the level at x is within its zero-set tolerance of zero."""
    lev = level(field, x)
    return lev <= resolved_zero_tol(lev)


def _sample_box(field: CoefficientField, region) -> tuple:
    """The corners (lo, hi) of ``estimate_lipschitz``'s box, checked; each
    message starts with the argument it names."""
    try:
        lo, hi = (np.asarray(b, dtype=float).reshape(field.d) for b in region)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(
            f"region: must be [lo, hi], each a number or a list of {field.d} "
            f"numbers, got {region!r}") from None
    # hi - lo is finite only where both corners are
    if not np.all((hi > lo) & np.isfinite(hi - lo)):
        raise InvalidInputError(
            "region: must be finite with positive volume in every dimension")
    return lo, hi


def estimate_lipschitz(field: CoefficientField, region) -> float:
    """Empirical Lipschitz bound from sampled difference quotients.

    One fixed procedure, with no tuning: ``_LIPSCHITZ_SAMPLES`` random pairs
    in the box ``region = (lo, hi)`` plus as many tightly spaced pairs (which
    probe local steepness), drawn from ``default_rng(0)``; the largest
    difference quotient of sigma (Frobenius) and b (Euclidean), inflated by
    ``_LIPSCHITZ_SAFETY``.  Fields are treated as black boxes; no
    derivatives are used.
    """
    lo, hi = _sample_box(field, region)
    rng = np.random.default_rng(0)
    span = hi - lo
    xs = lo + span * rng.uniform(size=(_LIPSCHITZ_SAMPLES, field.d))
    ys = lo + span * rng.uniform(size=(_LIPSCHITZ_SAMPLES, field.d))
    near = np.clip(xs + 1e-4 * span * rng.standard_normal(size=xs.shape), lo, hi)

    worst = 0.0
    for left, right in ((xs, ys), (xs, near)):
        dx = np.linalg.norm(left - right, axis=1)
        keep = dx > 0
        if not np.any(keep):
            continue
        ds = sigma_batch(field, left[keep]) - sigma_batch(field, right[keep])
        db = b_batch(field, left[keep]) - b_batch(field, right[keep])
        # a difference is NaN or inf where sigma or b is (or is within a
        # factor 2 of the largest float); max() below would skip a NaN
        bad = ~(np.isfinite(ds).all(axis=(1, 2)) & np.isfinite(db).all(axis=1))
        if bad.any():
            i = np.flatnonzero(keep)[np.argmax(bad)]
            raise InvalidInputError(
                f"region: sigma or b is not finite at {left[i].tolist()} or "
                f"{right[i].tolist()}")
        sig_quot = np.sqrt(np.einsum("ijk,ijk->i", ds, ds)) / dx[keep]
        b_quot = np.linalg.norm(db, axis=1) / dx[keep]
        worst = max(worst, float(np.max(sig_quot)), float(np.max(b_quot)))
    return _LIPSCHITZ_SAFETY * worst


# ---------------------------------------------------------------------------
# Built-in catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldCatalogEntry:
    name: str
    field: CoefficientField
    analytic_notes: str


def _linear_1d() -> CoefficientField:
    return CoefficientField(
        d=1, m=1,
        sigma=lambda X: X[:, :, None],
        b=lambda X: np.zeros_like(X),
        lipschitz_k=1.0,
        name="linear-1d",
        abs_level_inverse=lambda ell: float(np.sqrt(ell)),
    )


def _power_law_1d(alpha: float = 0.5,
                  lipschitz_k: float | None = None) -> CoefficientField:
    if lipschitz_k is None and alpha == 1.0:
        lipschitz_k = 1.0

    def abs_level_inverse(ell):
        # inf where the power overflows: for a small alpha the |x| of a
        # level above 1 is past the largest float
        try:
            return float(ell ** (1.0 / (2.0 * alpha)))
        except OverflowError:
            return math.inf

    return CoefficientField(
        d=1, m=1,
        sigma=lambda X: (np.abs(X) ** alpha)[:, :, None],
        b=lambda X: np.zeros_like(X),
        lipschitz_k=lipschitz_k,
        name=f"power-law-1d(alpha={alpha})",
        abs_level_inverse=abs_level_inverse,
    )


def _diag_linear(d: int = 2) -> CoefficientField:
    if not isinstance(d, (int, np.integer)):
        raise InvalidInputError(f"d must be an integer, got {d!r}")
    d = int(d)
    idx = np.arange(d)

    def sigma(X):
        out = np.zeros((X.shape[0], d, d))
        out[:, idx, idx] = X
        return out

    return CoefficientField(
        d=d, m=d,
        sigma=sigma,
        b=lambda X: -X,
        lipschitz_k=1.0,
        name=f"diag-linear(d={d})",
    )


def _constant(sigma0=1.0, b0=0.0) -> CoefficientField:
    sig0 = np.atleast_2d(np.asarray(sigma0, dtype=float))
    d, m = sig0.shape
    bb0 = np.asarray(b0, dtype=float).reshape(-1)
    if bb0.size == 1 and d > 1:
        bb0 = np.full(d, float(bb0[0]))
    if bb0.shape != (d,):
        raise InvalidInputError(f"b0 has shape {bb0.shape}, expected ({d},)")
    return CoefficientField(
        d=d, m=m,
        sigma=lambda X: np.broadcast_to(sig0, (X.shape[0], d, m)),
        b=lambda X: np.broadcast_to(bb0, (X.shape[0], d)),
        lipschitz_k=0.0,
        name="constant",
    )


def _decay_1d(rate: float = 1.0) -> CoefficientField:
    if rate <= 0:
        raise InvalidInputError("rate must be positive")
    return CoefficientField(
        d=1, m=1,
        sigma=lambda X: np.zeros((X.shape[0], 1, 1)),
        b=lambda X: -rate * X,
        lipschitz_k=rate,
        name=f"decay-1d(rate={rate})",
    )


# name -> (builder, notes, documented ranges (low, high] of numeric
# parameters, checked by make_field).
# alpha <= 12 keeps the level |y|^(2 alpha) finite for every state within
# the sweep's blowup limit of 1e12.  diag-linear's sigma is an (n, d, d)
# block per step, 16.8 MB for a chunk of 8192 paths at d = 16; its noise
# buffer of 128 normals per path is 8 MiB there (256 MiB while a block was
# 256 steps of d normals).
_CATALOG: dict[str, tuple[Callable[..., CoefficientField], str, dict]] = {
    "linear-1d": (_linear_1d,
                  ("dX = X dB with zero drift; exact solution "
                   "x*exp(B_t - t/2); Lipschitz constant 1; level(x) = x^2; "
                   "zero set {0}."), {}),
    "power-law-1d": (_power_law_1d,
                     ("sigma(y) = |y|^alpha (0 at y = 0), zero drift; "
                      "0 < alpha <= 12; "
                      "level |y|^(2 alpha); zero set {0}. Not Lipschitz near 0 "
                      "for alpha < 1 and unbounded slope at infinity for "
                      "alpha > 1: a counterexample family. The origin is "
                      "reachable iff alpha < 1 by the 1-d integral test."),
                     {"alpha": (0, 12)}),
    "diag-linear": (_diag_linear,
                    ("sigma(x) = diag(x), b(x) = -x, 0 < d <= 16; componentwise "
                     "dX_i = -X_i dt + X_i dB_i; Lipschitz constant 1; "
                     "level 2*|x|^2; zero set {0}."), {"d": (0, 16)}),
    "constant": (_constant,
                 ("sigma and b constant; level constant; zero set empty "
                  "unless both vanish; Lipschitz constant 0."), {}),
    "decay-1d": (_decay_1d,
                 ("Deterministic exponential decay: sigma = 0, b(x) = "
                  "-rate*x; level rate^2*x^2 halves every ln(2)/(2*rate); "
                  "Lipschitz constant rate; zero set {0}."), {}),
}


def _finite(val) -> bool:
    # False for NaN, inf and ints too large for a float; a value that is not
    # numeric at all passes here, and its builder names the problem
    try:
        return bool(np.isfinite(np.asarray(val, dtype=float)).all())
    except OverflowError:
        return False
    except (TypeError, ValueError):
        return True


def make_field(name: str, /, **params) -> CoefficientField:
    """Build a catalog field by name with numeric parameters."""
    try:
        builder, _, ranges = _CATALOG[name]
    except KeyError:
        raise InvalidInputError(
            f"unknown field {name!r}; catalog: {sorted(_CATALOG)}") from None
    # a name is repr'd until it is known: it may hold a line break
    accepted = inspect.signature(builder).parameters
    for key, val in params.items():
        if key not in accepted:
            raise InvalidInputError(
                f"bad parameters for field {name!r}: unknown parameter "
                f"{key!r}; valid: {list(accepted)}")
        if val is not None and not _finite(val):
            raise InvalidInputError(
                f"bad parameters for field {name!r}: {key} must be finite, got {val!r}")
        if key in ranges:
            low, high = ranges[key]
            real = (isinstance(val, (int, float, np.integer, np.floating))
                    and not isinstance(val, bool))
            if not (real and low < val <= high):
                raise InvalidInputError(
                    f"bad parameters for field {name!r}: {key} must be finite "
                    f"and satisfy {low} < {key} <= {high}, got {val!r}")
    try:
        field = builder(**params)
    except InvalidInputError:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad parameters for field {name!r}: {exc}") from None
    # pool workers rebuild the field with make_field(*catalog_ref)
    return replace(field, catalog_ref=(name, params))


def catalog() -> list[FieldCatalogEntry]:
    """Default-parameter instance of every built-in field, with notes."""
    return [FieldCatalogEntry(name, make_field(name), _CATALOG[name][1])
            for name in sorted(_CATALOG)]

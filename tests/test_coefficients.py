import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import sdelab as sl
from sdelab import InvalidInputError
from sdelab.coefficients import b_batch, level_batch, resolved_zero_tol, sigma_batch


def test_frobenius_examples():
    assert oracles.frobenius_norm(np.eye(2)) == pytest.approx(np.sqrt(2), rel=1e-15)
    assert oracles.frobenius_norm(np.zeros((2, 2))) == 0.0
    assert oracles.frobenius_norm([[1, 2], [3, 4]]) == pytest.approx(np.sqrt(30),
                                                                rel=1e-15)


def test_frobenius_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        oracles.frobenius_norm([[1.0, np.nan]])
    with pytest.raises(InvalidInputError):
        oracles.frobenius_norm([[1.0, np.inf]])
    with pytest.raises(InvalidInputError):
        oracles.frobenius_norm([1.0, 2.0])


@settings(max_examples=50, deadline=None)
@given(st.floats(-1e6, 1e6), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2**31 - 1))
def test_frobenius_scaling(c, d, m, seed):
    mat = np.random.default_rng(seed).normal(size=(d, m))
    assert oracles.frobenius_norm(c * mat) == pytest.approx(
        abs(c) * oracles.frobenius_norm(mat), rel=1e-12, abs=1e-12)


def test_level_examples():
    lin = sl.make_field("linear-1d")
    assert sl.level(lin, [2.0]) == 4.0
    assert sl.level(lin, [0.0]) == 0.0  # zero set

    diag = sl.make_field("diag-linear", d=2)
    assert sl.level(diag, [1.0, 1.0]) == pytest.approx(4.0)

    with pytest.raises(InvalidInputError):
        sl.level(lin, [1.0, 2.0])


def test_level_matches_norm_definition():
    field = sl.make_field("diag-linear", d=3)
    rng = np.random.default_rng(0)
    for x in rng.normal(size=(20, 3)):
        expect = oracles.frobenius_norm(field.sigma(x[None])[0]) ** 2 \
            + np.linalg.norm(field.b(x[None])[0]) ** 2
        assert sl.level(field, x) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("field", [e.field for e in sl.catalog()]
                         + [sl.make_field("diag-linear", d=d) for d in (3, 4, 5)],
                         ids=lambda f: f.name)
def test_level_equals_level_batch_bitwise(field):
    # the level of one state is the level of the one-row block, bit for bit
    rng = np.random.default_rng(17)
    for x in rng.normal(size=(500, field.d)):
        assert sl.level(field, x) == level_batch(field, x[None])[0]


def test_wrong_batch_shapes_are_typed_errors():
    # a sigma written for one state, (d, m), instead of a block, (n, d, m)
    pointwise = sl.CoefficientField(
        d=1, m=1, sigma=lambda X: X.reshape(1, 1), b=lambda X: np.zeros_like(X))
    with pytest.raises(InvalidInputError, match="sigma returned shape"):
        sl.level(pointwise, [1.0])
    with pytest.raises(InvalidInputError, match="sigma returned shape"):
        sl.em_step(pointwise, [1.0], 0.1, [0.0])
    flat_drift = sl.CoefficientField(
        d=2, m=1, sigma=lambda X: np.zeros((X.shape[0], 2, 1)),
        b=lambda X: np.zeros(2))
    with pytest.raises(InvalidInputError, match="b returned shape"):
        sl.level(flat_drift, [1.0, 1.0])


def test_zero_set_membership_tolerance():
    lin = sl.make_field("linear-1d")
    assert sl.in_zero_set(lin, [0.0])
    assert sl.in_zero_set(lin, [1e-8])      # level 1e-16 < resolved tol
    assert not sl.in_zero_set(lin, [1.0])
    # the tolerance scales with the starting level
    assert resolved_zero_tol(100.0) == pytest.approx(1e-10)
    assert resolved_zero_tol(0.5) == pytest.approx(1e-12)


def test_catalog_contains_required_families():
    names = {e.name for e in sl.catalog()}
    assert {"linear-1d", "power-law-1d", "diag-linear", "constant"} <= names


def test_catalog_shapes_and_level_nonnegative():
    rng = np.random.default_rng(3)
    for entry in sl.catalog():
        f = entry.field
        xs = rng.normal(size=(10, f.d))
        assert np.shape(f.sigma(xs)) == (10, f.d, f.m)
        assert np.shape(f.b(xs)) == (10, f.d)
        assert np.all(level_batch(f, xs) >= 0.0)
        for x in xs:
            assert sl.level(f, x) >= 0.0


def test_level_continuity_on_builtins():
    rng = np.random.default_rng(5)
    for name in ("linear-1d", "diag-linear", "constant", "decay-1d"):
        f = sl.make_field(name)
        xs = rng.normal(size=(200, f.d))
        delta = 1e-7 * rng.normal(size=xs.shape)
        lev_a = level_batch(f, xs)
        lev_b = level_batch(f, xs + delta)
        assert np.all(np.abs(lev_a - lev_b) < 1e-4 * (1.0 + lev_a))


@pytest.mark.parametrize("name,params", [
    ("linear-1d", {}), ("diag-linear", {"d": 3}),
    ("constant", {"sigma0": [[1.0, 2.0]], "b0": [3.0]}),
    ("power-law-1d", {"alpha": 1.0}), ("decay-1d", {"rate": 2.0}),
])
def test_declared_lipschitz_bound_holds_on_samples(name, params):
    f = sl.make_field(name, **params)
    assert f.lipschitz_k is not None
    rng = np.random.default_rng(11)
    xs = rng.uniform(-3, 3, size=(300, f.d))
    ys = rng.uniform(-3, 3, size=(300, f.d))
    dx = np.linalg.norm(xs - ys, axis=1)
    keep = dx > 0
    ds = sigma_batch(f, xs) - sigma_batch(f, ys)
    db = b_batch(f, xs) - b_batch(f, ys)
    sig_quot = np.sqrt(np.einsum("ijk,ijk->i", ds, ds))[keep] / dx[keep]
    b_quot = np.linalg.norm(db, axis=1)[keep] / dx[keep]
    bound = f.lipschitz_k * (1 + 1e-9)
    assert np.all(sig_quot <= bound)
    assert np.all(b_quot <= bound)


def test_level_change_chain_bound_on_samples():
    # for level(x) <= L and level(y) <= 2L the level difference is bounded by
    # 2 sqrt(3 L) K |x - y|
    rng = np.random.default_rng(13)
    for name in ("linear-1d", "diag-linear"):
        f = sl.make_field(name)
        xs = rng.uniform(-2, 2, size=(500, f.d))
        ys = rng.uniform(-2, 2, size=(500, f.d))
        lev_x = level_batch(f, xs)
        lev_y = level_batch(f, ys)
        big = np.maximum(lev_x, 1e-12)
        keep = lev_y <= 2 * big
        lhs = np.abs(lev_x - lev_y)[keep]
        rhs = (2.0 * np.sqrt(3.0 * big) * f.lipschitz_k
               * np.linalg.norm(xs - ys, axis=1))[keep]
        assert np.all(lhs <= rhs * (1 + 1e-9))


def test_estimate_lipschitz_linear_field():
    f = sl.make_field("linear-1d")
    est = sl.estimate_lipschitz(f, ([-1.0], [1.0]))
    assert 1.0 <= est <= 1.25 + 1e-12
    # raw maximum (before the safety factor) never exceeds the declared K
    assert est / 1.25 <= f.lipschitz_k * (1 + 1e-12)


def test_estimate_lipschitz_constant_field():
    f = sl.make_field("constant", sigma0=[[2.0]], b0=[3.0])
    assert sl.estimate_lipschitz(f, ([-5.0], [5.0])) == 0.0


def test_estimate_lipschitz_power_law_vs_dense_grid():
    # sup difference quotient of |y|^(1/2) on [0.01, 1] is 1/(2 sqrt(0.01)) = 5;
    # oracle: brute-force maximum over adjacent pairs of a dense grid
    f = sl.make_field("power-law-1d", alpha=0.5)
    grid = np.linspace(0.01, 1.0, 4001)
    vals = grid ** 0.5
    oracle = np.max(np.abs(np.diff(vals)) / np.diff(grid))
    assert oracle == pytest.approx(5.0, rel=2e-2)
    raw = sl.estimate_lipschitz(f, ([0.01], [1.0])) / 1.25
    assert raw >= 0.8 * oracle
    assert raw <= 5.0 * (1 + 1e-9)


def test_estimate_lipschitz_rejects_bad_region():
    f = sl.make_field("linear-1d")
    with pytest.raises(InvalidInputError):
        sl.estimate_lipschitz(f, ([1.0], [1.0]))
    with pytest.raises(InvalidInputError):
        sl.estimate_lipschitz(f, ([0.0], [np.inf]))


def test_make_field_errors():
    with pytest.raises(InvalidInputError, match="catalog"):
        sl.make_field("no-such-field")
    with pytest.raises(InvalidInputError):
        sl.make_field("power-law-1d", alpha=-1.0)
    with pytest.raises(InvalidInputError):
        sl.make_field("linear-1d", bogus=3)
    # a name the builder does not take is named by its repr, on one line
    with pytest.raises(InvalidInputError) as exc:
        sl.make_field("power-law-1d", alpha=0.5, **{"\n": 1.0})
    assert str(exc.value) == (
        "bad parameters for field 'power-law-1d': unknown parameter '\\n'; "
        "valid: ['alpha', 'lipschitz_k']")


@pytest.mark.parametrize("name, params", [
    ("power-law-1d", {"alpha": float("nan")}),
    ("power-law-1d", {"alpha": 0.5, "lipschitz_k": float("inf")}),
    ("decay-1d", {"rate": float("inf")}),
    ("decay-1d", {"rate": 10 ** 400}),
    ("constant", {"sigma0": float("nan")}),
    ("constant", {"sigma0": "nan"}),
    ("constant", {"sigma0": [[1.0, 0.0], [0.0, 1.0]], "b0": [0.0, -float("inf")]}),
    # finite, but outside the documented ranges: the level |y|^(2 alpha)
    # is 0 or inf almost everywhere, and sigma would be n x d x d floats
    ("power-law-1d", {"alpha": 1e308}),
    ("diag-linear", {"d": 1000000}),
])
def test_make_field_rejects_non_finite_params(name, params):
    key = list(params)[-1]
    with pytest.raises(InvalidInputError, match=f"{key} must be finite"):
        sl.make_field(name, **params)


def test_documented_param_ranges_hold_their_ends():
    for alpha in (0.25, 0.5, 1.5, 12):
        assert sl.make_field("power-law-1d", alpha=alpha).d == 1
    for d in (1, 3, 16):
        assert sl.make_field("diag-linear", d=d).d == d
    for name, params in [("power-law-1d", {"alpha": 0}),
                         ("power-law-1d", {"alpha": 12.5}),
                         ("power-law-1d", {"alpha": "a"}),
                         ("diag-linear", {"d": 0}), ("diag-linear", {"d": 17})]:
        with pytest.raises(InvalidInputError, match="must be finite and satisfy"):
            sl.make_field(name, **params)


def test_power_law_extends_by_zero_at_origin():
    f = sl.make_field("power-law-1d", alpha=0.5)
    assert f.sigma(np.array([[0.0]]))[0, 0, 0] == 0.0
    assert sl.level(f, [0.0]) == 0.0

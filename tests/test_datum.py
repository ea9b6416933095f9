"""The cutoff profile, datum coefficients, Sobolev norms, and the
exact-phase solution evaluator."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from weylmax.datum import (
    BOX_GUARD,
    Datum,
    RationalPoint,
    bump,
    datum_coefficients,
    evaluate_solution,
    sobolev_norm_sq,
)
from weylmax.decomp import fold, folded_eval
from weylmax.errors import InputError, ResourceError
from weylmax.numtheory import eval_poly_mod_grid
from weylmax.poly import IntPolynomial, family_diagonal
from weylmax.weyl import roots_of_unity

BUMP_INTEGRAL = 1.125  # integral of the cutoff profile, exact: 1/8 + 1/2 + 1/2

P_SQ = family_diagonal(1, 2)


def _coefficient(f: Datum, n) -> float:
    """phi(n/N); 0 outside the support box."""
    if len(n) != f.d:
        raise InputError(f"point has {len(n)} coordinates, expected {f.d}")
    lo, hi = int(f.axis_n[0]), int(f.axis_n[-1])
    out = 1.0
    for v in n:
        v = int(v)
        if v < lo or v > hi:
            return 0.0
        out *= float(f.axis_psi[v - lo])
    return out


def _within_budget(pt: RationalPoint, N: int, rho: float = 1.0 / 32.0) -> bool:
    """delta inside the scan's perturbation box, |delta_i| <= rho / (d N)."""
    return max(abs(v) for v in pt.delta) <= rho / (pt.d * N) * (1 + 1e-12)


def test_bump_plateau_and_support():
    assert bump(0.75) == 1.0
    assert bump(0.5) == 1.0
    assert bump(1.0) == 1.0
    assert bump(0.1) == 0.0
    assert bump(0.25) == 0.0
    assert bump(2.0) == 0.0
    assert bump(-3.0) == 0.0


def test_bump_transition_midpoints():
    assert abs(bump(0.375) - 0.5) < 1e-15
    assert abs(bump(1.5) - 0.5) < 1e-15


def test_bump_range_and_vectorized():
    x = np.linspace(-1, 3, 4001)
    v = bump(x)
    assert v.shape == x.shape
    assert np.all(v >= 0) and np.all(v <= 1)
    assert np.all(v[(x <= 0.25) | (x >= 2.0)] == 0.0)
    assert np.all(v[(x >= 0.5) & (x <= 1.0)] == 1.0)


def test_bump_fixed_profile_integral():
    total = 0.0
    worst_err = 0.0
    for lo, hi in ((0.25, 0.5), (0.5, 1.0), (1.0, 2.0)):
        val, err = quad(lambda t: bump(float(t)), lo, hi, limit=200)
        total += val
        worst_err = max(worst_err, err)
    assert worst_err < 1e-9
    assert abs(total - BUMP_INTEGRAL) < 1e-9


def test_bump_finite_difference_quotients_bounded():
    # smoothness proxy: no jump artifacts at 1/4, 1/2, 1, 2
    x = np.linspace(0.0, 2.25, 10_001)
    h = x[1] - x[0]
    v = bump(x)
    for order in range(1, 5):
        v = np.diff(v)
        assert np.abs(v / h**order).max() < 1e6
        x = x[:-1]


def test_datum_support_and_values():
    f = datum_coefficients(8, 1)
    assert f.axis_n.tolist() == list(range(3, 16))
    assert _coefficient(f, (4,)) == 1.0
    assert _coefficient(f, (8,)) == 1.0
    assert _coefficient(f, (16,)) == 0.0
    assert _coefficient(f, (2,)) == 0.0


def test_datum_d2_plateau_coefficient():
    f = datum_coefficients(64, 2)
    assert _coefficient(f, (40, 48)) == 1.0


def test_datum_validation_and_guard():
    with pytest.raises(InputError):
        datum_coefficients(4, 1)
    # the datum stores one axis; only the exact evaluator walks the box
    assert len(datum_coefficients(11585, 2).axis_n) ** 2 > BOX_GUARD
    f = datum_coefficients(512, 3)
    with pytest.raises(ResourceError):
        evaluate_solution(family_diagonal(3, 2), f, RationalPoint((1, 2, 3), 5, (0.0,) * 3))


def test_sobolev_zero_order_counts_plateau():
    n = 1024
    f = datum_coefficients(n, 1)
    assert sobolev_norm_sq(f, 0.0) >= n / 2
    assert sobolev_norm_sq(f, 0.0) == f.l2_sq()


def test_sobolev_scaling_d1():
    for n in (2**10, 2**11, 2**12):
        a = sobolev_norm_sq(datum_coefficients(n, 1), 0.25)
        b = sobolev_norm_sq(datum_coefficients(2 * n, 1), 0.25)
        assert abs(math.log2(b / a) - 1.5) < 0.05


def test_sobolev_scaling_d2():
    for n in (2**9, 2**10):
        a = sobolev_norm_sq(datum_coefficients(n, 2), 0.0)
        b = sobolev_norm_sq(datum_coefficients(2 * n, 2), 0.0)
        assert abs(math.log2(b / a) - 2.0) < 0.05


@pytest.mark.parametrize("d,n", [
    pytest.param(1, 12, id="1"),
    pytest.param(2, 12, id="2"),
    pytest.param(3, 12, id="3"),
    pytest.param(4, 12, id="4"),
    # 447 entries per axis: F from its Chebyshev interpolant, not at every row offset
    pytest.param(2, 256, id="2-256"),
])
def test_sobolev_matches_full_box_sum(d, n):
    f = datum_coefficients(n, d)
    grids = np.meshgrid(*[f.axis_n.astype(float)] * d, indexing="ij")
    weights = np.ones_like(grids[0])
    for psi in np.meshgrid(*[f.axis_psi] * d, indexing="ij"):
        weights *= psi**2
    for s in (1 / 3, 0.25, 1.0, -0.25, 2.5):
        want = math.fsum(((1.0 + sum(g**2 for g in grids)) ** s * weights).ravel())
        assert sobolev_norm_sq(f, s) == pytest.approx(want, rel=1e-12)


def _pair_sum(offset, a, w, s, block=1 << 16):
    """Exact oracle: sum over all i, j of w_i w_j (offset + a_i + a_j)^s,
    from the pairs i <= j in row blocks of at most block entries, the
    off-diagonal columns weighted twice."""
    n = len(a)
    total = 0.0
    lo = 0
    while lo < n:
        hi = min(n, lo + max(1, block // (n - lo)))
        rows = np.add.outer(offset + a[lo:hi], a[lo:])
        np.power(rows, s, out=rows)
        cols = w[lo:].copy()
        cols[hi - lo :] *= 2.0
        total += float(np.dot(w[lo:hi], np.dot(rows, cols)))
        lo = hi
    return total


@pytest.mark.parametrize("n", [512, 1024, 2048, 4096])
def test_sobolev_interpolant_matches_pair_sum(monkeypatch, n):
    from weylmax import datum

    f = datum_coefficients(n, 2)
    a = f.axis_n.astype(float) ** 2
    w = f.axis_psi**2
    interpolated = []
    real = datum._barycentric
    monkeypatch.setattr(datum, "_barycentric", lambda fk, x: interpolated.append(len(fk)) or real(fk, x))
    for s in (1 / 3, 0.25, -0.25, 2.5):
        assert sobolev_norm_sq(f, s) == pytest.approx(_pair_sum(1.0, a, w, s), rel=1e-12)
    # every s took the interpolant, on far fewer nodes than row offsets
    assert len(interpolated) == 4 and max(interpolated) < len(a) / 4


def test_sobolev_bound_above_tolerance_raises(monkeypatch):
    from weylmax import datum
    from weylmax.errors import InvariantError

    real = datum._node_count
    monkeypatch.setattr(datum, "_node_count", lambda *args: (4.0, *real(*args)[1:]))
    with pytest.raises(InvariantError, match="Chebyshev bound"):
        sobolev_norm_sq(datum_coefficients(1024, 2), 1 / 3)


@pytest.mark.parametrize("d, n", [(1, 1024), (2, 512)])
@pytest.mark.parametrize("s", [400.0, -400.0])
def test_sobolev_norm_not_finite_positive_raises(d, n, s):
    # the powers (1 + n^2)^s overflow (s = 400) or underflow to 0 (s = -400)
    from weylmax.errors import InvariantError

    with pytest.raises(InvariantError, match="not finite and positive"):
        sobolev_norm_sq(datum_coefficients(n, d), s)


@pytest.mark.parametrize("d, n", [(1, 1024), (2, 512)])
def test_sobolev_norm_finite_at_s_40(d, n):
    value = sobolev_norm_sq(datum_coefficients(n, d), 40.0)
    assert math.isfinite(value) and value > 0


def test_non_finite_delta_phase_refused_before_any_exponential():
    # 2 pi 1e308 overflows to inf before it meets n: the phases would be NaN
    import warnings

    f = datum_coefficients(1024, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for run in (lambda: evaluate_solution(P_SQ, f, RationalPoint((3,), 67, (1e308,))),
                    lambda: fold(f, 67, (1e308,))):
            with pytest.raises(InputError, match="not finite"):
                run()
    # 1e300 keeps every phase finite
    assert math.isfinite(abs(evaluate_solution(P_SQ, f, RationalPoint((3,), 67, (1e300,)))))


def test_rational_point_normalizes_residues():
    pt = RationalPoint(b=(20,), q=17, delta=(0.0,))
    assert pt.b == (3,)
    with pytest.raises(InputError):
        RationalPoint(b=(0,), q=1, delta=(0.0,))
    with pytest.raises(InputError):
        RationalPoint(b=(0, 1), q=5, delta=(0.0,))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_rational_point_rejects_non_finite_delta(bad):
    with pytest.raises(InputError):
        RationalPoint(b=(1, 2), q=5, delta=(0.0, bad))


def test_solution_at_time_zero_is_coefficient_sum():
    # the zero polynomial kills the time phase; at b=0, delta=0 the sum
    # is just sum phi(n/N), a Riemann sum of N * integral of the bump
    n = 256
    f = datum_coefficients(n, 1)
    pt = RationalPoint(b=(0,), q=2, delta=(0.0,))
    u = evaluate_solution(IntPolynomial(1, {}), f, pt)
    assert abs(u.imag) < 1e-12
    assert abs(u.real - f.axis_psi.sum()) < 1e-9
    assert abs(u.real / (BUMP_INTEGRAL * n) - 1.0) < 1e-6


def test_solution_periodic_in_b():
    f = datum_coefficients(64, 1)
    for q in (2, 3, 5, 7, 11, 13):
        for b in range(q):
            u1 = evaluate_solution(P_SQ, f, RationalPoint((b,), q, (0.0,)))
            u2 = evaluate_solution(P_SQ, f, RationalPoint((b + q,), q, (0.0,)))
            assert u1 == u2


def test_solution_matches_fold_path():
    f = datum_coefficients(256, 1)
    pt = RationalPoint(b=(3,), q=17, delta=(0.0,))
    u = evaluate_solution(P_SQ, f, pt)
    z = fold(f, 17, pt.delta)
    v = folded_eval(z, P_SQ, pt.b)
    assert abs(u - v) <= 1e-9 * abs(u)


def test_solution_matches_fold_path_d2_with_delta():
    p = family_diagonal(2, 2)
    f = datum_coefficients(96, 2)
    pt = RationalPoint(b=(4, 9), q=13, delta=(1e-5, -3e-5))
    u = evaluate_solution(p, f, pt)
    v = folded_eval(fold(f, 13, pt.delta), p, pt.b)
    assert abs(u - v) <= 1e-9 * abs(u)


def test_solution_dimension_mismatch():
    f = datum_coefficients(64, 1)
    with pytest.raises(InputError):
        evaluate_solution(family_diagonal(2, 2), f, RationalPoint((1, 2), 5, (0.0, 0.0)))


def test_evolution_preserves_coefficient_l2():
    # evolution multiplies each coefficient by a unimodular phase
    f = datum_coefficients(128, 1)
    q = 11
    residues = eval_poly_mod_grid(P_SQ, ((f.axis_n % q),), q)
    residues = (residues + 4 * (f.axis_n % q)) % q
    evolved = f.axis_psi * roots_of_unity(q)[residues]
    assert abs(float(np.sum(np.abs(evolved) ** 2)) - f.l2_sq()) <= 1e-12 * f.l2_sq()


def test_within_budget_helper():
    pt = RationalPoint(b=(1,), q=7, delta=(1.0 / (32 * 64),))
    assert _within_budget(pt, 64)
    pt2 = RationalPoint(b=(1,), q=7, delta=(1.0 / 64,))
    assert not _within_budget(pt2, 64)

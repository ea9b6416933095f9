import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylmax.errors import InputError
from weylmax.numtheory import (
    GRID_MODULUS_MAX,
    band_start,
    close_fraction_pairs,
    eval_poly_mod,
    eval_poly_mod_grid,
    is_prime,
    lattice_pair_count,
    primes_in_band,
)
from weylmax.poly import IntPolynomial, family_diagonal, family_power_laplacian


def lattice_pair_count_bruteforce(q: int, qp: int, bound: float) -> int:
    """Exhaustive O(q*qp) reference count for lattice_pair_count."""
    if q < 1 or qp < 1:
        raise InputError(f"moduli must be positive, got ({q}, {qp})")
    if not (math.isfinite(bound) and bound >= 0):
        raise InputError(f"bound must be finite and non-negative, got {bound}")
    b = np.arange(1, q + 1, dtype=np.int64)[:, None]
    bp = np.arange(1, qp + 1, dtype=np.int64)[None, :]
    s = np.abs(b * qp - bp * q)
    return int(np.count_nonzero((s > 0) & (s <= bound)))


def test_primes_small_band():
    assert primes_in_band(10, 21) == (11, 13, 17, 19)


def test_primes_tight_band():
    assert primes_in_band(2, 3) == (2,)


def test_primes_dyadic_band_64():
    band = primes_in_band(64, 128)
    assert len(band) == 13
    assert band[0] == 67
    assert band[-1] == 127


@pytest.mark.parametrize("lo,hi", [(5, 5), (10, 3), (1, 10), (0, 4)])
def test_primes_invalid_band(lo, hi):
    with pytest.raises(InputError):
        primes_in_band(lo, hi)


def test_primes_pass_miller_rabin():
    band = primes_in_band(2, 10_000)
    assert all(is_prime(p) for p in band)
    composites = set(range(2, 10_000)) - set(band)
    assert not any(is_prime(n) for n in sorted(composites)[:500])


def test_primes_large_band_spot():
    band = primes_in_band(1_000_000, 1_001_000)
    assert all(is_prime(p) for p in band)
    assert 1_000_003 in band


def test_eval_poly_mod_examples():
    assert eval_poly_mod(family_diagonal(1, 2), (7,), 5) == 4
    assert eval_poly_mod(family_diagonal(2, 3), (2, 3), 7) == 0
    assert eval_poly_mod(family_power_laplacian(2, 2), (1, 2), 11) == 3


def test_eval_poly_mod_negative_point():
    p = family_diagonal(1, 3)
    assert eval_poly_mod(p, (-2,), 7) == (-8) % 7


def test_eval_poly_mod_dimension_mismatch():
    with pytest.raises(InputError):
        eval_poly_mod(family_diagonal(2, 2), (1,), 5)


def test_eval_poly_mod_grid_matches_scalar():
    rng = np.random.default_rng(0)
    p = IntPolynomial(2, {(3, 0): 2, (1, 2): -5, (0, 0): 7})
    pts = rng.integers(-50, 50, size=(40, 2))
    for q in (2, 3, 97, 2**31 - 1):
        grid = eval_poly_mod_grid(p, (pts[:, 0], pts[:, 1]), q)
        for i, n in enumerate(pts):
            assert grid[i] == eval_poly_mod(p, n, q)


def test_lattice_count_examples():
    assert lattice_pair_count(3, 5, 2) == 4
    assert lattice_pair_count(3, 5, 2) <= 2 * 2
    assert lattice_pair_count(2, 3, 100) == 5
    for q, qp in [(1, 1), (4, 6), (17, 17)]:
        assert lattice_pair_count(q, qp, 0) == 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    q=st.integers(1, 256),
    qp=st.integers(1, 256),
    a=st.sampled_from([0.5, 1.0, 2.0, 5.0, 10.0]),
)
def test_lattice_count_fast_equals_brute_and_lemma(q, qp, a):
    fast = lattice_pair_count(q, qp, a)
    assert fast == lattice_pair_count_bruteforce(q, qp, a)
    assert fast <= 2 * a


def test_lattice_count_full_range():
    for q, qp in [(7, 11), (12, 18), (64, 64)]:
        a = q * qp
        fast = lattice_pair_count(q, qp, a)
        assert fast == lattice_pair_count_bruteforce(q, qp, a)
        assert fast <= 2 * a


def test_lattice_count_validation():
    with pytest.raises(InputError):
        lattice_pair_count(0, 5, 1)
    with pytest.raises(InputError):
        lattice_pair_count(5, 5, -1.0)


@pytest.mark.parametrize("bound", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("fn", [lattice_pair_count, lattice_pair_count_bruteforce, close_fraction_pairs])
def test_non_finite_bound_rejected(fn, bound):
    with pytest.raises(InputError):
        fn(5, 7, bound)


def _close_pairs_brute(q, qp, bound):
    out = []
    for b in range(q):
        for bp in range(qp):
            s = abs(b * qp - bp * q)
            if min(s, q * qp - s) <= bound:
                out.append((b, bp))
    return out


def _decoded(close, i):
    """The sorted rows (b, b') of pair i, decoded from its candidate indices."""
    b, bp = close.at(i, np.arange(close.count[i]))
    return sorted(zip(b.tolist(), bp.tolist()))


@pytest.mark.parametrize("q,qp,bound", [
    (7, 11, 0.0), (7, 11, 3.0), (13, 17, 1.0), (5, 5, 0.0),
    (6, 10, 4.0), (31, 37, 25.0), (3, 5, 7.5), (11, 13, 200.0),
])
def test_close_fraction_pairs_matches_brute(q, qp, bound):
    assert _decoded(close_fraction_pairs(q, qp, bound), 0) == _close_pairs_brute(q, qp, bound)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(q=st.integers(1, 48), qp=st.integers(1, 48), data=st.data())
def test_close_fraction_pairs_equals_brute(q, qp, data):
    half = q * qp / 2
    bound = data.draw(st.one_of(
        st.sampled_from([0.0, half - 0.5, half, 1e9]),
        st.fractions(0, int(half) + 1).map(float),
    ))
    assert _decoded(close_fraction_pairs(q, qp, bound), 0) == _close_pairs_brute(q, qp, bound)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(q=st.sampled_from([2, 3, 5, 7, 11, 13, 31, 97]), qp=st.sampled_from([2, 3, 5, 7, 11, 13, 31, 97]),
       data=st.data())
def test_close_fraction_count_is_the_list_length(q, qp, data):
    # same-prime pairs (g = q), coprime ones (g = 1) and bounds on and past q*qp/2, where every pair counts
    half = q * qp / 2
    bound = data.draw(st.one_of(
        st.sampled_from([0.0, 1.0, q - 0.5, float(q), half - 0.5, half, half + 1, 4 * half]),
        st.floats(0, 1.5 * half),
    ))
    assert close_fraction_pairs(q, qp, bound).count[0] == len(_close_pairs_brute(q, qp, bound))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(
    st.sampled_from([(5, 5), (13, 13), (7, 11), (11, 7), (2, 31), (6, 10), (10, 6), (12, 18), (9, 15), (1, 4)]),
    st.one_of(st.sampled_from(["half - 0.5", "half", "1e9"]), st.floats(0, 1.2))),
    min_size=1, max_size=12))
def test_close_fraction_pairs_many_pairs_in_one_call(entries):
    # same primes (g = q), coprime pairs and composites in one broadcast call; a float bound is a share of q*qp/2
    qs, qps = (np.array(v) for v in zip(*(pair for pair, _ in entries)))
    half = qs * qps / 2
    rule = {"half - 0.5": half - 0.5, "half": half, "1e9": np.full(len(qs), 1e9)}
    bound = np.array([rule[w][i] if isinstance(w, str) else w * half[i] for i, (_, w) in enumerate(entries)])
    close = close_fraction_pairs(qs, qps, bound)
    for i, (q, qp, a) in enumerate(zip(qs.tolist(), qps.tolist(), bound.tolist())):
        want = _close_pairs_brute(q, qp, a)
        assert _decoded(close, i) == want and close.count[i] == len(want)


def _close_pairs_lines(q, qp, bound):
    """The line formula in Python integers, valid while 2*bound < q*qp:
    b = k * m'^(-1) (mod m) on each line |k| <= bound/g, b' = (b*m' - k)/m mod q'."""
    g = math.gcd(q, qp)
    m, mp = q // g, qp // g
    kmax = math.floor(bound / g)
    inv = pow(mp, -1, m)
    return sorted((b, (b * mp - k) // m % qp)
                  for k in range(-kmax, kmax + 1)
                  for b in range(k * inv % m, q, m))


@pytest.mark.parametrize("q,qp", [
    (2147483647, 2147483629), (2147483629, 2147483647), (2147483646, 2147483628), (2147483647, 3),
])
@pytest.mark.parametrize("bound", [0.0, 3.5, 100.0])
def test_close_fraction_pairs_in_int64_near_the_modulus_cap(q, qp, bound):
    close = close_fraction_pairs(q, qp, bound)
    assert _decoded(close, 0) == _close_pairs_lines(q, qp, bound)


@pytest.mark.parametrize("q,qp,bound", [
    (0, 5, 1.0), (5, 0, 1.0), (GRID_MODULUS_MAX + 1, 5, 1.0), (5, 2**40, 1.0), (5, 7, -1.0),
])
def test_close_fraction_pairs_rejects_out_of_range(q, qp, bound):
    with pytest.raises(InputError):
        close_fraction_pairs([7, q], [7, qp], [1.0, bound])


def test_band_start_exact_on_cubes():
    # the float formula int(N ** (2/3) + 1e-9) gives m^2 - 1 here
    for m in (10**4, 10**5, 12_345, 2**20):
        assert band_start(m**3, 2) == m * m
        assert band_start(m**3 - 1, 2) == m * m - 1
    assert band_start(10**12, 2) == 10**8
    assert band_start(2**64, 1) == 2**32


def test_band_start_matches_float_formula_on_small_n():
    for d in (1, 2, 3):
        for n in range(1, 5_000):
            assert band_start(n, d) == int(n ** (d / (d + 1)) + 1e-9)


@given(st.integers(1, 10**30), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_band_start_is_largest_root(n, d):
    q = band_start(n, d)
    assert q ** (d + 1) <= n**d < (q + 1) ** (d + 1)


def test_band_start_rejects_nonpositive():
    with pytest.raises(InputError):
        band_start(0, 2)
    with pytest.raises(InputError):
        band_start(8, 0)

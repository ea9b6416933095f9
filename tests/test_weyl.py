"""Complete exponential sums: closed-form values, the Parseval identity,
two-path table agreement, size bounds, good sets, and the exact-phase
kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylmax.errors import InputError, InvariantError, ResourceError
from weylmax.numtheory import band_start, eval_poly_mod, is_prime, primes_in_band
from weylmax.poly import IntPolynomial, family_diagonal, family_power_laplacian
from weylmax.weyl import (
    WeylTable,
    deligne_check,
    good_set,
    good_set_for,
    parseval_defect,
    phase_index,
    weyl_sum_direct,
    weyl_table,
)

P_SQ = family_diagonal(1, 2)
P_CUBE = family_diagonal(1, 3)
# X1^3 + 2 X1 + X2^2 + 3: splits over the axes, parts of different degree
P_MIXED = IntPolynomial(2, {(3, 0): 1, (1, 0): 2, (0, 2): 1, (0, 0): 3})


def test_gauss_sum_q5():
    s = weyl_sum_direct(P_SQ, 5, (0,))
    assert abs(s - math.sqrt(5)) < 1e-12


def test_cubic_sum_q7_closed_form():
    s = weyl_sum_direct(P_CUBE, 7, (0,))
    expected = 1 + 6 * math.cos(2 * math.pi / 7)
    assert abs(s - expected) < 1e-12
    assert abs(s) <= 2 * math.sqrt(7)


def test_constant_term_rotates_phase_only():
    p = IntPolynomial(1, {(2,): 1, (0,): 1})
    s = weyl_sum_direct(p, 5, (0,))
    expected = np.exp(2j * np.pi / 5) * math.sqrt(5)
    assert abs(s - expected) < 1e-12
    assert abs(abs(s) - math.sqrt(5)) < 1e-12


def test_direct_sum_requires_prime():
    with pytest.raises(InputError):
        weyl_sum_direct(P_SQ, 6, (0,))
    with pytest.raises(InputError):
        weyl_table(P_SQ, 9)


def test_table_matches_direct_entrywise():
    t = weyl_table(P_CUBE, 7)
    for b in range(7):
        assert abs(t.values[b] - weyl_sum_direct(P_CUBE, 7, (b,))) < 1e-9 * math.sqrt(7)


def test_gauss_table_constant_modulus():
    t = weyl_table(P_SQ, 5)
    assert np.allclose(np.abs(t.values), math.sqrt(5), rtol=1e-12)


@pytest.mark.parametrize("p,q,tol", [
    (P_SQ, 5, 1e-12),
    (P_CUBE, 7, 1e-12),
    (family_diagonal(2, 3), 11, 1e-10),
])
def test_parseval_examples(p, q, tol):
    assert parseval_defect(weyl_table(p, q)) < tol


def test_two_path_agreement_full_matrix():
    primes = primes_in_band(2, 102)
    for d in (1, 2):
        fams = [family_power_laplacian(d, k) for k in (1, 2, 3, 4)]
        fams += [family_diagonal(d, k) for k in (2, 3, 4)]
        if d == 2:
            fams.append(P_MIXED)
        for p in fams:
            for q in primes:
                t_dft = weyl_table(p, q, method="dft")
                t_dir = weyl_table(p, q, method="direct")
                tol = 1e-9 * q ** (d / 2)
                assert np.abs(t_dft.values - t_dir.values).max() < tol
                assert parseval_defect(t_dft) < 1e-9


def test_gauss_exactness_moderate_primes():
    for q in primes_in_band(3, 200):
        t = weyl_table(P_SQ, q)
        dev = np.abs(np.abs(t.values) - math.sqrt(q)).max()
        assert dev < 1e-9 * math.sqrt(q)


def test_deligne_report_d1():
    rep = deligne_check(weyl_table(P_CUBE, 7), 3)
    assert abs(rep.max_modulus - (1 + 6 * math.cos(2 * math.pi / 7))) < 1e-9
    assert abs(rep.bound - 2 * math.sqrt(7)) < 1e-12
    assert rep.ok


def test_deligne_gauss_equality():
    for q in (5, 13, 101):
        rep = deligne_check(weyl_table(P_SQ, q), 2)
        assert rep.ok
        assert abs(rep.max_modulus - rep.bound) < 1e-9


def test_deligne_check_reads_the_factors():
    # max|S| is the product of the factor maxima: a split table builds no q^d array
    for p in (family_diagonal(2, 2), family_diagonal(2, 3), P_MIXED, family_power_laplacian(2, 2)):
        for q in (5, 7, 13, 31):
            table = weyl_table(p, q)
            rep = deligne_check(table, p.degree())
            assert "values" not in table.__dict__
            want = float(np.abs(weyl_table(p, q, method="direct").values).max())
            assert abs(rep.max_modulus - want) <= 1e-12 * want, (q, rep.max_modulus, want)


def test_deligne_holds_d1_bands():
    quartic = IntPolynomial(1, {(4,): 1, (1,): 1})
    for p, k in ((P_CUBE, 3), (quartic, 4)):
        for q in primes_in_band(5, 500):
            if k % q == 0:
                continue
            rep = deligne_check(weyl_table(p, q), k)
            assert rep.ok, f"degree bound exceeded for q={q}"


def test_good_set_gauss_density_one():
    gs = good_set(weyl_table(P_SQ, 13), 0.5)
    assert gs.density == 1.0
    assert gs.members.shape == (13, 1)


def test_good_set_density_floor_cubic():
    for q in primes_in_band(5, 200):
        gs = good_set(weyl_table(P_CUBE, q), 0.5)
        assert gs.density >= (1 - 0.25) / 4


def test_good_set_threshold_monotone():
    t = weyl_table(P_CUBE, 31)
    prev = None
    for c in (0.9, 0.5, 0.2, 0.05):
        members = {tuple(row) for row in good_set(t, c).members.tolist()}
        if prev is not None:
            assert prev <= members
        prev = members
    nonzero = {(b,) for b in range(31) if abs(t.values[b]) > 0}
    assert {tuple(row) for row in good_set(t, 1e-9).members.tolist()} >= nonzero


def test_good_set_rejects_bad_threshold():
    t = weyl_table(P_SQ, 5)
    for c in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(InputError):
            good_set(t, c)


def test_good_set_for_matches_direct_table():
    for p, q in ((family_diagonal(2, 3), 11), (family_diagonal(2, 3), 31), (family_diagonal(3, 3), 11),
                 (P_MIXED, 13), (P_MIXED, 101)):
        a = good_set_for(p, q, 0.5)
        b = good_set(weyl_table(p, q, method="direct"), 0.5)
        assert np.array_equal(a.members, b.members)
        assert a.density == b.density
        # members are lex sorted, as the divergence-set key index assumes
        keys = np.ravel_multi_index(tuple(a.members.T), (q,) * p.dim)
        assert np.all(np.diff(keys) > 0)


@pytest.mark.parametrize("p, qs", [
    pytest.param(family_diagonal(2, 2), primes_in_band(101, 202), id="squares-1024"),
    pytest.param(family_diagonal(2, 3), primes_in_band(101, 202), id="cubes-1024"),
    pytest.param(IntPolynomial(3, {(3, 0, 0): 1, (0, 2, 0): 2, (0, 0, 3): 1, (0, 0, 1): 5}),
                 (5, 7, 11, 13, 17), id="d3-split"),
])
def test_split_good_sets_match_direct(p, qs):
    # every band prime of N=1024 (Q = 101) for the d=2 diagonals
    k = p.degree()
    for q in qs:
        if k % q == 0:
            continue
        want = good_set(weyl_table(p, q, method="direct"), 0.5)
        out = np.zeros((q,) * p.dim, dtype=bool)
        got = good_set_for(p, q, 0.5, out=out)
        assert got.mask is out
        assert np.array_equal(out, want.mask), q
        assert got.density == want.density and got.threshold == want.threshold
        assert np.array_equal(good_set_for(p, q, 0.5).mask, want.mask)


def test_power_laplacian_good_sets_above_both_bounds():
    # every band prime of (X1^2+X2^2)^2 at N=1024 has max|S| above both
    # degree bounds, so only the Parseval floor checks its good set
    p = family_power_laplacian(2, 2)
    for q in primes_in_band(band_start(1024, 2), 2 * band_start(1024, 2)):
        direct = weyl_table(p, q, method="direct")
        rep = deligne_check(direct, p.degree())
        assert not rep.ok and not rep.classical_ok, q
        assert np.array_equal(good_set_for(p, q, 0.5).mask, good_set(direct, 0.5).mask), q


def test_split_good_set_corrupted_axis_table(monkeypatch):
    from weylmax import weyl

    real = weyl.axis_tables

    def corrupted(poly, q, weights=None):
        tables = [t.copy() for t in real(poly, q, weights)]
        tables[1][3] *= 1.01
        return tables

    monkeypatch.setattr(weyl, "axis_tables", corrupted)
    with pytest.raises(InvariantError, match="Parseval"):
        good_set_for(family_diagonal(2, 2), 101, 0.5)


def test_good_set_classical_floor_d2():
    # max |S| = 15 lies above the per-degree bound 2*5 and below the
    # classical 2^2*5, so the floor (1-c^2)/(k-1)^(2d) = 0.75/16 applies
    values = np.zeros((5, 5), dtype=complex)
    values[1, 2] = 15.0
    table = WeylTable(q=5, d=2, factors=[values])
    rep = deligne_check(table, 3)
    assert not rep.ok and rep.classical_ok
    with pytest.raises(InvariantError):
        good_set(table, 0.5)
    values[1, 2] = 21.0  # above both bounds, still below the Parseval floor 0.75 * 25 / 21^2
    with pytest.raises(InvariantError):
        good_set(table, 0.5)
    values[1, 2] = 25.0  # above both bounds, Parseval-consistent: the floor holds
    assert good_set(table, 0.5).density == 1 / 25


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


# 2^31 - 1, the largest modulus the grid kernel accepts, is prime
@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), q=st.integers(2, 2**31 - 1).map(_next_prime), data=st.data())
def test_phase_index_matches_scalar_oracle(d, q, data):
    big = st.integers(-(2**62), 2**62)
    terms = data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, 5)] * d), st.integers(-(10**12), 10**12),
        min_size=1, max_size=4,
    ))
    p = IntPolynomial(d, terms)
    b = data.draw(st.lists(big, min_size=d, max_size=d))
    pts = data.draw(st.lists(st.lists(big, min_size=d, max_size=d), min_size=1, max_size=6))
    comps = tuple(np.array([r[i] for r in pts], dtype=np.int64) for i in range(d))
    got = phase_index(p, b, q, comps)
    want = [(eval_poly_mod(p, r, q) + sum(bi * ri for bi, ri in zip(b, r))) % q for r in pts]
    assert got.tolist() == want


def _coordinate_arrays(kind, axes):
    """Broadcastable int64 coordinates over the given per-axis values:
    an open grid (np.ix_, as phase_index builds its default grid) or a
    slab (one value on axis 0, each further axis along its own
    dimension, as datum.evaluate_solution passes them)."""
    arrays = [np.array(a, dtype=np.int64) for a in axes]
    if kind == "open":
        return np.ix_(*arrays)
    d = len(arrays)
    head = arrays[0][:1].reshape((1,) * (d - 1))
    return (head,) + tuple(a.reshape((1,) * i + (-1,) + (1,) * (d - 2 - i))
                           for i, a in enumerate(arrays[1:]))


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), q=st.integers(2, 2**31 - 1).map(_next_prime),
       kind=st.sampled_from(["open", "slab"]), symbol=st.sampled_from(["any", "omit", "constant"]),
       data=st.data())
def test_phase_index_broadcast_shapes_match_scalar_oracle(d, q, kind, symbol, data):
    # exponents up to 12, the degree of (X1^2 + X2^2)^6; coefficients beyond int64
    expo = st.integers(0, 12)
    if symbol == "omit":  # the last variable never appears
        exps = st.tuples(*[expo] * (d - 1), st.just(0))
    elif symbol == "constant":
        exps = st.just((0,) * d)
    else:
        exps = st.tuples(*[expo] * d)
    p = IntPolynomial(d, data.draw(st.dictionaries(exps, st.integers(-(10**25), 10**25), max_size=5)))
    big = st.integers(-(2**62), 2**62)
    b = data.draw(st.lists(big, min_size=d, max_size=d) | st.just([]))
    axes = data.draw(st.lists(st.lists(big, min_size=1, max_size=4), min_size=d, max_size=d))
    comps = _coordinate_arrays(kind, axes)
    got = phase_index(p, b, q, comps)
    shape = np.broadcast_shapes(*(c.shape for c in comps))
    assert got.shape == shape and got.dtype == np.int64
    full = [np.broadcast_to(c, shape) for c in comps]
    for idx in np.ndindex(shape):
        r = [int(c[idx]) for c in full]
        want = (eval_poly_mod(p, r, q) + sum(bi * ri for bi, ri in zip(b, r))) % q
        assert got[idx] == want


def test_phase_index_default_grid():
    p = family_power_laplacian(2, 2)
    got = phase_index(p, (3, 5), 7)
    assert got.shape == (7, 7)
    for r in np.ndindex(7, 7):
        assert got[r] == (eval_poly_mod(p, r, 7) + 3 * r[0] + 5 * r[1]) % 7
    assert phase_index(IntPolynomial(2, {(0, 0): 9}), (), 7).tolist() == [[2] * 7] * 7
    with pytest.raises(InputError):
        phase_index(p, (1,), 7)


def test_table_memory_guard():
    with pytest.raises(ResourceError):
        weyl_table(family_diagonal(2, 2), 65537)

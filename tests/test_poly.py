import json

import pytest
from hypothesis import given, settings, strategies as st

from weylmax.errors import InputError
from weylmax.poly import (
    IntPolynomial,
    axis_parts,
    distinct_parts,
    family_diagonal,
    family_power_laplacian,
    parse_polynomial,
    to_json,
)


def _homogeneous_part(p: IntPolynomial) -> IntPolynomial:
    """The sub-polynomial of terms of maximal total degree."""
    if not p.terms:
        raise InputError("empty polynomial has no homogeneous part")
    k = p.degree()
    return IntPolynomial(p.dim, {e: c for e, c in p.terms.items() if sum(e) == k})


def _evaluate(p: IntPolynomial, n) -> int:
    """Exact integer value at an integer point."""
    n = tuple(int(v) for v in n)
    if len(n) != p.dim:
        raise InputError(f"point has {len(n)} coordinates, expected {p.dim}")
    total = 0
    for expo, coeff in p.terms.items():
        t = coeff
        for x, e in zip(n, expo):
            t *= x**e
        total += t
    return total


def test_degree_examples():
    assert family_diagonal(2, 3).degree() == 3
    assert family_power_laplacian(2, 2).degree() == 4
    assert IntPolynomial(1, {(0,): 5}).degree() == 0
    assert IntPolynomial(1, {}).degree() == 0


def test_homogeneous_part():
    p = IntPolynomial(1, {(2,): 1, (1,): 3, (0,): 1})
    assert _homogeneous_part(p).terms == {(2,): 1}
    p2 = IntPolynomial(2, {(3, 0): 1, (0, 3): 1, (1, 1): 1})
    assert _homogeneous_part(p2).terms == {(3, 0): 1, (0, 3): 1}


def test_homogeneous_part_idempotent():
    p = IntPolynomial(2, {(3, 1): 2, (1, 1): -4, (0, 0): 9})
    h = _homogeneous_part(p)
    assert _homogeneous_part(h).terms == h.terms


def test_homogeneous_part_empty_rejected():
    with pytest.raises(InputError):
        _homogeneous_part(IntPolynomial(1, {}))


def test_diagonal_family():
    assert family_diagonal(2, 3).terms == {(3, 0): 1, (0, 3): 1}
    assert family_diagonal(1, 2).terms == {(2,): 1}
    assert family_diagonal(3, 2).terms == {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}


def test_power_laplacian_family():
    assert family_power_laplacian(1, 1).terms == {(2,): 1}
    assert family_power_laplacian(2, 2).terms == {(4, 0): 1, (2, 2): 2, (0, 4): 1}
    p = family_power_laplacian(2, 3)
    assert p.terms == {(6, 0): 1, (4, 2): 3, (2, 4): 3, (0, 6): 1}


def test_family_degrees():
    for d in range(1, 5):
        for k in range(1, 9):
            assert family_power_laplacian(d, k).degree() == 2 * k
            if k >= 2:
                assert family_diagonal(d, k).degree() == k


def test_power_laplacian_evaluates_to_power_of_norm():
    # exhaustive over the integer box |n_i| <= 10
    import itertools

    for d in (1, 2, 3):
        rng = range(-10, 11)
        pts = list(itertools.product(rng, repeat=d))
        for k in (1, 2, 3, 4):
            p = family_power_laplacian(d, k)
            for n in pts:
                assert _evaluate(p, n) == sum(v * v for v in n) ** k


def test_parse_examples():
    p = parse_polynomial('{"d":2,"terms":[{"e":[3,0],"c":1},{"e":[0,3],"c":1}]}')
    assert p.terms == family_diagonal(2, 3).terms
    empty = parse_polynomial('{"d":1,"terms":[]}')
    assert empty.degree() == 0 and empty.terms == {}
    dropped = parse_polynomial('{"d":1,"terms":[{"e":[2],"c":0},{"e":[1],"c":4}]}')
    assert dropped.terms == {(1,): 4}


def test_polynomials_equal_by_value():
    text = '{"d":2,"terms":[{"e":[2,0],"c":1},{"e":[0,2],"c":1}]}'
    assert parse_polynomial(text) == parse_polynomial(text)
    # equal axis parts share one transform
    assert distinct_parts(axis_parts(parse_polynomial(text)))[1] == (0, 0)
    assert repr(IntPolynomial(1, {(2,): 1, (1,): 0})) == "IntPolynomial(dim=1, terms={(2,): 1})"


def test_parse_merges_duplicates():
    p = parse_polynomial('{"d":1,"terms":[{"e":[2],"c":3},{"e":[2],"c":-3},{"e":[1],"c":1}]}')
    assert p.terms == {(1,): 1}


@pytest.mark.parametrize("text", [
    "not json",
    "[]",
    '{"d":1}',
    '{"d":0,"terms":[]}',
    '{"d":1,"terms":[{"e":[1,2],"c":1}]}',
    '{"d":1,"terms":[{"e":[-1],"c":1}]}',
    '{"d":1,"terms":[{"e":[1],"c":1.5}]}',
    '{"d":1,"terms":[{"c":1}]}',
])
def test_parse_rejects_malformed(text):
    with pytest.raises(InputError):
        parse_polynomial(text)


def test_parse_error_mentions_term_index():
    with pytest.raises(InputError, match="term 1"):
        parse_polynomial('{"d":1,"terms":[{"e":[1],"c":1},{"e":[-1],"c":1}]}')


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    d=st.integers(1, 3),
    data=st.data(),
)
def test_serialize_roundtrip(d, data):
    n_terms = data.draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        e = tuple(data.draw(st.integers(0, 8)) for _ in range(d))
        c = data.draw(st.integers(-100, 100))
        terms[e] = c
    p = IntPolynomial(d, terms)
    back = parse_polynomial(to_json(p))
    assert back.dim == p.dim and back.terms == p.terms
    assert json.loads(to_json(back)) == json.loads(to_json(p))


def test_axis_parts_of_diagonal_families():
    for d, k in ((1, 2), (2, 2), (2, 3), (3, 2), (3, 5)):
        parts = axis_parts(family_diagonal(d, k))
        assert [part.terms for part in parts] == [{(k,): 1}] * d
        assert all(part.dim == 1 for part in parts)


def test_axis_parts_keep_linear_and_constant_terms():
    # X1^3 + 2 X1 + X2^2 + 3: the constant goes to the first axis
    p = IntPolynomial(2, {(3, 0): 1, (1, 0): 2, (0, 2): 1, (0, 0): 3})
    assert [part.terms for part in axis_parts(p)] == [{(3,): 1, (1,): 2, (0,): 3}, {(2,): 1}]
    q = IntPolynomial(3, {(0, 0, 4): -1, (0, 1, 0): 5, (2, 0, 0): 7, (0, 0, 0): -2})
    parts = axis_parts(q)
    assert [part.terms for part in parts] == [{(2,): 7, (0,): -2}, {(1,): 5}, {(4,): -1}]
    for r in ((0, 0, 0), (3, -2, 5), (-7, 11, 2)):
        assert _evaluate(q, r) == sum(_evaluate(part, (ri,)) for part, ri in zip(parts, r))
    # an axis with no terms is the zero polynomial
    assert axis_parts(IntPolynomial(2, {(2, 0): 1}))[1].terms == {}


def test_axis_parts_refuse_mixed_monomials():
    for d in (2, 3):
        for k in (2, 3):
            assert axis_parts(family_power_laplacian(d, k)) is None
        assert axis_parts(family_power_laplacian(d, 1)) is not None
    assert axis_parts(IntPolynomial(2, {(2, 0): 1, (0, 2): 1, (1, 1): 1})) is None
    p = family_power_laplacian(1, 3)
    assert [part.terms for part in axis_parts(p)] == [p.terms]

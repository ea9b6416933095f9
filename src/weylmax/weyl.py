"""Complete exponential sums S(b) = sum_r e((P(r) + b.r)/q) over F_q^d.

Tables are built either by exact-phase direct contraction or by FFT;
the two paths must agree. A table is the outer product of its factors
(one per axis for a symbol with no mixed monomial), and every factor is
checked against its Parseval identity sum |S_i|^2 = q^(2 ndim) before
it is used.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .accum import csum_complex
from .errors import InputError, InvariantError, ResourceError
from .numtheory import eval_poly_mod_grid, is_prime
from .poly import IntPolynomial, axis_parts, distinct_parts

TABLE_GUARD = 1 << 28  # max q^d entries for a materialized table
PARSEVAL_TOL = 1e-9


class WeylTable:
    def __init__(self, q: int, d: int, factors: list[np.ndarray]):
        self.q = q
        self.d = d
        self.factors = factors  # complex128, one (q,) per axis or one (q,)*d

    @cached_property
    def values(self) -> np.ndarray:
        """All S(b), shape (q,)*d: the outer product of the factors (the
        one factor itself when there is only one)."""
        return reduce(np.multiply.outer, self.factors)

    def __getitem__(self, b) -> complex:
        return complex(self.values[tuple(int(v) % self.q for v in b)])


class DeligneReport(NamedTuple):
    max_modulus: float
    bound: float  # per-degree (k-1) q^(d/2)
    ok: bool
    classical_bound: float  # (k-1)^d q^(d/2)
    classical_ok: bool


class GoodSet(NamedTuple):
    q: int
    d: int
    c: float
    threshold: float
    mask: np.ndarray  # shape (q,)*d, C-order bool: True where |S(b)| >= threshold
    density: float

    @property
    def members(self) -> np.ndarray:
        """(m, d) residues of the good set, in lex order."""
        return np.argwhere(self.mask)


@lru_cache(maxsize=128)
def roots_of_unity(q: int) -> np.ndarray:
    """e(m/q) for m in [0, q), from exactly reduced arguments 2*pi*m/q."""
    out = np.exp(2j * np.pi * np.arange(q) / q)
    out.setflags(write=False)
    return out


def phase_index(
    poly: IntPolynomial, b, q: int, comps: tuple[np.ndarray, ...] | None = None
) -> np.ndarray:
    """(P(r) + b.r) mod q over broadcastable int64 coordinate arrays:
    eval_poly_mod_grid's one Horner pass, in integers, so
    roots_of_unity(q)[result] gives every phase e(./q) exactly.

    comps defaults to the full residue grid, shape (q,)*d, and b = ()
    gives P(r) mod q alone.
    """
    if comps is None:
        comps = np.ix_(*[np.arange(q, dtype=np.int64)] * poly.dim)
    return eval_poly_mod_grid(poly, comps, q, b)


def weyl_sum_direct(poly: IntPolynomial, q: int, b) -> complex:
    """One complete sum by exact modular phases and compensated accumulation."""
    if not is_prime(q):
        raise InputError(f"modulus {q} is not prime")
    if len(b) != poly.dim:
        raise InputError(f"b has {len(b)} components, polynomial dimension is {poly.dim}")
    return csum_complex(roots_of_unity(q)[phase_index(poly, b, q)])


def transform(poly: IntPolynomial, q: int, weights: np.ndarray | None = None) -> np.ndarray:
    """q^d * ifftn, over the last d axes, of weights * e(P(r)/q), the
    product (or the bare phase grid) transformed in place."""
    d = poly.dim
    values = roots_of_unity(q)[phase_index(poly, (), q)]
    if weights is not None:
        values = weights * values
    values = np.fft.ifftn(values, axes=tuple(range(-d, 0)), out=values)
    values *= float(q) ** d
    return values


def axis_tables(
    poly: IntPolynomial, q: int, weights: np.ndarray | None = None
) -> list[np.ndarray] | None:
    """One transform per axis of a symbol with no mixed monomial, that
    of its one-variable part P_i (poly.axis_parts), equal parts sharing
    one array; None when a monomial mixes variables."""
    parts = axis_parts(poly)
    if parts is None:
        return None
    distinct, which = distinct_parts(parts)
    tables = [transform(p, q, weights) for p in distinct]
    return [tables[i] for i in which]


def _table_direct(grid: np.ndarray, q: int) -> np.ndarray:
    """Axis-by-axis contraction against the exact root-of-unity matrix.

    Independent of the FFT code path: phase indices b*r mod q are formed
    in integers, so no twiddle-factor recurrences are involved.
    """
    w = roots_of_unity(q)[np.outer(np.arange(q), np.arange(q)) % q]
    out = grid
    for axis in range(grid.ndim):
        out = np.moveaxis(np.tensordot(w, out, axes=([1], [axis])), 0, axis)
    return out


def _check_modulus(q: int, d: int) -> None:
    if not is_prime(q):
        raise InputError(f"modulus {q} is not prime")
    if q**d > TABLE_GUARD:
        raise ResourceError(f"table of q^d = {q**d} entries exceeds guard {TABLE_GUARD}")


def weyl_table(poly: IntPolynomial, q: int, method: str = "dft") -> WeylTable:
    """All S(b), b in F_q^d, as factors whose outer product matches
    weyl_sum_direct, each checked against Parseval (sum |S_i|^2 =
    q^(2 ndim), the factors of the full identity).

    "dft": axis_tables(poly, q), one length-q transform per axis, when
    no monomial mixes variables (e(P(r)/q) then factors over the axes);
    otherwise the one transform(poly, q) of the full grid. "direct": the
    exact-phase contraction of the full grid, used as an oracle.
    """
    _check_modulus(q, poly.dim)
    if method == "dft":
        factors = axis_tables(poly, q) or [transform(poly, q)]
    elif method == "direct":
        if q ** max(poly.dim, 2) > TABLE_GUARD:  # the q x q root matrix, at d = 1 too
            raise ResourceError(f"direct table of q^max(d, 2) = {q ** max(poly.dim, 2)} entries "
                                f"exceeds guard {TABLE_GUARD}")
        factors = [_table_direct(roots_of_unity(q)[phase_index(poly, (), q)], q)]
    else:
        raise InputError(f"unknown build method {method!r}")
    for f in factors:
        defect = _parseval_defect(f, q)
        if not defect <= PARSEVAL_TOL:
            raise InvariantError(
                f"Parseval defect {defect:.3e} above {PARSEVAL_TOL} for q={q}, d={f.ndim}")
    return WeylTable(q=q, d=poly.dim, factors=factors)


def _parseval_defect(values: np.ndarray, q: int) -> float:
    target = float(q) ** (2 * values.ndim)
    return abs(float(np.sum(np.abs(values) ** 2)) - target) / target


def parseval_defect(table: WeylTable) -> float:
    """Relative deviation of sum_b |S(b)|^2 from q^(2d)."""
    return _parseval_defect(table.values, table.q)


def _max_modulus(moduli: list[np.ndarray]) -> float:
    """max|S| from the factor moduli: |S| is their outer product."""
    return math.prod(float(m.max()) for m in moduli)


def deligne_check(table: WeylTable, k: int) -> DeligneReport:
    """Compare max_b |S(b)| against the per-degree bound (k-1) q^(d/2)
    and the classical bound (k-1)^d q^(d/2).

    max|S| comes from the factors, so a split table builds no q^d array.
    Report only; violations are the caller's to interpret. Callers are
    expected to have filtered out primes dividing k.
    """
    if k < 2:
        raise InputError(f"degree must be >= 2, got {k}")
    max_mod = _max_modulus([np.abs(f) for f in table.factors])
    root = float(table.q) ** (table.d / 2)
    bound = (k - 1) * root
    classical = float(k - 1) ** table.d * root
    return DeligneReport(
        max_modulus=max_mod, bound=bound, ok=bool(max_mod <= bound * (1 + 1e-12)),
        classical_bound=classical, classical_ok=bool(max_mod <= classical * (1 + 1e-12)),
    )


def good_set(table: WeylTable, c: float, out: np.ndarray | None = None) -> GoodSet:
    """Residues b with |S(b)| >= c * q^(d/2), as a mask over F_q^d
    written into out (a C-order bool array of shape (q,)*d) when one is
    given.

    |S| is the outer product of the moduli of the table's factors, so a
    split table builds no q^d complex array. Parseval (sum |S|^2 = q^(2d))
    bounds the density below by (1-c^2) q^d / max|S|^2 (_max_modulus);
    every set is checked against it.
    """
    if not 0 < c < 1:
        raise InputError(f"threshold constant must be in (0,1), got {c}")
    q, d = table.q, table.d
    moduli = [np.abs(f) for f in table.factors]
    threshold = c * float(q) ** (d / 2)
    mask = np.greater_equal(reduce(np.multiply.outer, moduli), threshold, out=out)
    density = np.count_nonzero(mask) / float(q) ** d
    max_mod = _max_modulus(moduli)
    floor = (1 - c * c) * float(q) ** d
    if not density * max_mod**2 >= floor * (1 - 1e-9):
        raise InvariantError(
            f"good-set density {density:.6f} times max|S|^2 = {max_mod**2:.6g} below the "
            f"Parseval floor (1-c^2) q^d = {floor:.6g} for q={q}, d={d}, c={c}")
    return GoodSet(q=q, d=d, c=c, threshold=threshold, mask=mask, density=density)


def good_set_for(
    poly: IntPolynomial, q: int, c: float, out: np.ndarray | None = None
) -> GoodSet:
    """good_set(weyl_table(poly, q), c, out) for a symbol of degree >= 2."""
    if poly.degree() < 2:
        raise InputError(f"symbol degree must be >= 2, got {poly.degree()}")
    return good_set(weyl_table(poly, q), c, out)

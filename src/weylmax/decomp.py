"""Folding of datum coefficients over residue classes, the main/error
split of the solution at rational points, and the cyclic
summation-by-parts toolkit.

With zeta(n) = phi(n/N) e(delta.n), the fold is
Z(r) = sum_{m} zeta(mq + r) on F_q^d, and at x = b/q + delta, t = 1/q,

    u = sum_r Z(r) e((b.r + P(r))/q) = Zhat(0) S(b) + E,

where Zhat(0) S(b) is the main term and E collects the non-zero
frequencies of Z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datum import Datum, RationalPoint, check_delta_phases
from .errors import InputError
from .poly import IntPolynomial
from .weyl import WeylTable, phase_index, roots_of_unity


@dataclass
class FoldedZ:
    q: int
    d: int
    values: np.ndarray  # shape (q,)*d

    def zhat0(self) -> complex:
        """Mean of Z, the zero Fourier coefficient."""
        return complex(self.values.mean())


@dataclass(frozen=True)
class MainErrorSplit:
    main: complex
    error: complex
    zhat0: complex
    weyl_value: complex

    @property
    def ratio(self) -> float:
        """|E| / |M|."""
        return abs(self.error) / abs(self.main)


def fold_axis(f: Datum, q: int, delta_i: float) -> np.ndarray:
    vals = f.axis_psi * np.exp(2j * np.pi * delta_i * f.axis_n)
    idx = (f.axis_n % q).astype(np.int64)
    out = np.bincount(idx, weights=vals.real, minlength=q).astype(complex)
    out += 1j * np.bincount(idx, weights=vals.imag, minlength=q)
    return out


def fold(f: Datum, q: int, delta) -> FoldedZ:
    """Z(r) = sum over n congruent to r (mod q) of phi(n/N) e(delta.n).

    Phases attach to the coefficients before folding. Both factors are
    tensor products over the axes, so the fold is the outer product of
    the per-axis folds.
    """
    delta = tuple(float(v) for v in delta)
    if len(delta) != f.d:
        raise InputError(f"delta has {len(delta)} components, datum dimension is {f.d}")
    if q >= f.N / 4:
        raise InputError(f"fold needs q < N/4, got q={q}, N={f.N}")
    check_delta_phases(f, delta)
    axes = [fold_axis(f, q, di) for di in delta]
    z = axes[0]
    for a in axes[1:]:
        z = np.multiply.outer(z, a)
    return FoldedZ(q=q, d=f.d, values=z)


def folded_eval(z: FoldedZ, poly: IntPolynomial, b) -> complex:
    """sum_r Z(r) e((b.r + P(r))/q) with exact modular phases."""
    q = z.q
    if len(b) != z.d:
        raise InputError(f"b has {len(b)} components, expected {z.d}")
    return complex(np.sum(z.values * roots_of_unity(q)[phase_index(poly, b, q)]))


def main_error_split(poly: IntPolynomial, f: Datum, pt: RationalPoint, table: WeylTable) -> MainErrorSplit:
    """M = Zhat(0) S(b) and E = (folded solution) - M.

    E equals the sum of Zhat(l) S(b + l) over l != 0 but is computed by
    subtraction, which is exact as an identity and costs O(N^d) instead
    of O(q^2d). M + E reproduces the direct evaluation of the solution
    to relative 1e-9.
    """
    if table.q != pt.q:
        raise InputError(f"table modulus {table.q} does not match point denominator {pt.q}")
    if poly.dim != f.d or pt.d != f.d or table.d != f.d:
        raise InputError("dimension mismatch between polynomial, datum, point, and table")
    z = fold(f, pt.q, pt.delta)
    zhat0 = z.zhat0()
    s_b = table[pt.b]
    main = zhat0 * s_b
    total = folded_eval(z, poly, pt.b)
    return MainErrorSplit(main=main, error=total - main, zhat0=zhat0, weyl_value=s_b)


def discrete_laplacian(g: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Cyclic second difference g(r+e_j) - 2g(r) + g(r-e_j).

    axis=None sums the per-axis differences (the full Laplacian).
    """
    g = np.asarray(g)
    if axis is not None:
        return np.roll(g, -1, axis=axis) + np.roll(g, 1, axis=axis) - 2 * g
    out = np.zeros_like(g)
    for j in range(g.ndim):
        out = out + np.roll(g, -1, axis=j) + np.roll(g, 1, axis=j) - 2 * g
    return out


def sbp_check(g: np.ndarray, h: np.ndarray) -> float:
    """Residual |sum (Lap g) h - sum g (Lap h)|; zero in exact arithmetic."""
    g = np.asarray(g)
    h = np.asarray(h)
    if g.shape != h.shape:
        raise InputError(f"shape mismatch {g.shape} vs {h.shape}")
    lhs = np.sum(discrete_laplacian(g) * h)
    rhs = np.sum(g * discrete_laplacian(h))
    return float(abs(lhs - rhs))

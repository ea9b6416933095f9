"""Frequency-localized initial data on the torus and exact-phase
evaluation of its evolution at rational space-time points.

The datum has Fourier coefficients phi(n/N) = prod_i psi(n_i/N) for a
fixed smooth cutoff psi supported in (1/4, 2) and equal to 1 on
[1/2, 1]. Both the coefficient grid and the attached perturbation
phases factor over the axes, so everything below stores one axis
and forms products on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .accum import csum_complex
from .errors import InputError, InvariantError, ResourceError
from .poly import IntPolynomial
from .weyl import TABLE_GUARD, phase_index, roots_of_unity

BOX_GUARD = 1 << 28  # max entries of a support axis and of the box evaluate_solution walks
SOBOLEV_TOL = 1e-14  # relative error bound of the interpolated d >= 2 Sobolev norm
_POWER_BLOCK = 1 << 16  # max powers (c + a_j)^s held at once
_ELLIPSE_FRACTIONS = np.linspace(0.05, 0.95, 19)  # trial rho, as fractions of rho0 - 1


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """s(t) = g(t) / (g(t) + g(1-t)) with g(t) = exp(-1/t) for t > 0.

    Rises from 0 at t<=0 to 1 at t>=1; s(1/2) = 1/2 by symmetry.
    Underflow of exp(-1/t) near the endpoints is harmless because the
    opposite branch keeps the denominator positive.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    out[t <= 0.0] = 0.0
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    with np.errstate(under="ignore"):
        g = np.exp(-1.0 / tm)
        h = np.exp(-1.0 / (1.0 - tm))
    out[mid] = g / (g + h)
    return out


def bump(x):
    """The fixed cutoff: 0 outside (1/4, 2), 1 on [1/2, 1], smooth joins.

    Rising edge on [1/4, 1/2] is s(4(x - 1/4)); falling edge on [1, 2]
    is s(2 - x).
    """
    arr = np.asarray(x, dtype=float)
    out = np.zeros_like(arr)
    rise = (arr > 0.25) & (arr < 0.5)
    out[rise] = _smoothstep(4.0 * (arr[rise] - 0.25))
    out[(arr >= 0.5) & (arr <= 1.0)] = 1.0
    fall = (arr > 1.0) & (arr < 2.0)
    out[fall] = _smoothstep(2.0 - arr[fall])
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


@dataclass
class Datum:
    """Sparse coefficient map n -> phi(n/N) over the support box.

    The box and the cutoff are identical along every axis, so a single
    integer axis (axis_n) and its psi values (axis_psi) represent the
    full tensor product.
    """

    N: int
    d: int
    axis_n: np.ndarray  # consecutive integers n with N/4 < n < 2N
    axis_psi: np.ndarray  # psi(n/N) on axis_n, all in (0, 1]

    def l2_sq(self) -> float:
        """sum of squared coefficients, exact product over axes."""
        return float(np.sum(self.axis_psi**2)) ** self.d


@dataclass(frozen=True)
class RationalPoint:
    """x = b/q + delta with t = 1/q implied; b is reduced mod q on entry."""

    b: tuple[int, ...]
    q: int
    delta: tuple[float, ...]

    def __post_init__(self):
        if self.q < 2:
            raise InputError(f"denominator must be >= 2, got {self.q}")
        b = tuple(int(v) % self.q for v in self.b)
        delta = tuple(float(v) for v in self.delta)
        if len(delta) != len(b):
            raise InputError(f"delta has {len(delta)} components, b has {len(b)}")
        if not all(math.isfinite(v) for v in delta):
            raise InputError(f"delta components must be finite, got {delta}")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "delta", delta)

    @property
    def d(self) -> int:
        return len(self.b)


def datum_coefficients(N: int, d: int) -> Datum:
    """Coefficients phi(n/N) on the open box (N/4, 2N)^d."""
    if N < 8:
        raise InputError(f"frequency scale must be >= 8, got {N}")
    if d < 1:
        raise InputError(f"dimension must be >= 1, got {d}")
    lo = N // 4 + 1
    hi = 2 * N - 1
    if hi - lo + 1 > BOX_GUARD:
        raise ResourceError(f"support axis of {hi - lo + 1} entries exceeds guard {BOX_GUARD}")
    axis = np.arange(lo, hi + 1, dtype=np.int64)
    psi = bump(axis / N)
    keep = psi > 0.0
    return Datum(N=N, d=d, axis_n=axis[keep], axis_psi=psi[keep])


def _power_sums(c: np.ndarray, a: np.ndarray, w: np.ndarray, s: float) -> np.ndarray:
    """F(c) = sum_j w_j (c + a_j)^s at each entry of c, in row blocks of
    at most _POWER_BLOCK powers."""
    out = np.empty(len(c))
    step = max(1, _POWER_BLOCK // len(a))
    for lo in range(0, len(c), step):
        block = np.add.outer(c[lo : lo + step], a)
        np.power(block, s, out=block)
        out[lo : lo + step] = block @ w
    return out


def _node_count(mid: float, half: float, a: np.ndarray, w: np.ndarray, s: float, f_min: float):
    """(n, rho, M): the smallest Chebyshev degree n, over a fan of trial
    Bernstein ellipses, whose interpolation bound 4 M rho^-n / (rho - 1)
    (Trefethen, ATAP, Thm 8.2) is within SOBOLEV_TOL * f_min.

    In x = (c - mid) / half, F(c) = sum_j w_j (c + a_j)^s is analytic
    off c <= -a_0, which lies at x = -x0 with x0 > 1, so F is analytic
    inside every ellipse E_rho with foci -1, 1 and 1 < rho < rho0 =
    x0 + sqrt(x0^2 - 1). Each term's modulus |c + a_j|^s is largest on
    E_rho at its right vertex mid + A when s > 0 and at its left vertex
    mid - A when s < 0, A = half (rho + 1/rho) / 2, so M = F there.
    """
    x0 = (mid + a[0]) / half
    rho = 1.0 + (x0 + math.sqrt(x0 * x0 - 1.0) - 1.0) * _ELLIPSE_FRACTIONS
    vertex = mid + math.copysign(1.0, s) * half * (rho + 1.0 / rho) / 2.0
    m = _power_sums(vertex, a, w, s)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        n = np.ceil(np.log(4.0 * m / ((rho - 1.0) * SOBOLEV_TOL * f_min)) / np.log(rho))
    n[np.isnan(n)] = np.inf
    best = int(np.argmin(n))
    return max(1.0, float(n[best])), float(rho[best]), float(m[best])


def _chebyshev_points(n: int) -> np.ndarray:
    """x_k = cos(pi k / n), k = 0..n, in the sine form that keeps them
    symmetric about 0."""
    return np.sin(np.pi * np.arange(n, -n - 1, -2) / (2 * n))


def _barycentric(fk: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The interpolant through values fk at _chebyshev_points(n),
    n = len(fk) - 1, at each x in [-1, 1]: the second barycentric
    formula with weights (-1)^k, halved at both ends (Berrut and
    Trefethen, SIAM Review 46, 2004); a point equal to a node takes
    that node's value."""
    n = len(fk) - 1
    nodes = _chebyshev_points(n)
    lam = np.where(np.arange(n + 1) % 2, -1.0, 1.0)
    lam[[0, -1]] *= 0.5
    num = np.zeros_like(x)
    den = np.zeros_like(x)
    hit = np.full(len(x), -1)
    for k in range(n + 1):
        diff = x - nodes[k]
        at = diff == 0.0
        diff[at] = 1.0
        t = lam[k] / diff
        num += t * fk[k]
        den += t
        hit[at] = k
    out = num / den
    out[hit >= 0] = fk[hit[hit >= 0]]
    return out


def _row_sum(offset: float, a: np.ndarray, w: np.ndarray, s: float) -> float:
    """sum_i w_i F(offset + a_i) with F(c) = sum_j w_j (c + a_j)^s, a
    ascending and w > 0.

    F is evaluated at the n + 1 Chebyshev points of [offset + a_0,
    offset + a_(L-1)] and its barycentric interpolant at the L = len(a)
    row offsets, with n from _node_count: each interpolated value is
    then within SOBOLEV_TOL * min F of F, rounding aside, and so, w
    being positive, is the sum within SOBOLEV_TOL of itself. When
    n + 1 >= L, F is
    evaluated at the row offsets themselves. InvariantError when the
    bound at the chosen n is not within tolerance.
    """
    c = offset + a
    lo, hi = float(c[0]), float(c[-1])
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    f_min = float(_power_sums(np.array([hi if s < 0 else lo]), a, w, s)[0])
    n, rho, m = _node_count(mid, half, a, w, s, f_min)
    if n + 1 >= len(a):
        return float(w @ _power_sums(c, a, w, s))
    n = int(n)
    bound = 4.0 * m * rho**-n / (rho - 1.0)
    if not bound <= SOBOLEV_TOL * f_min:
        raise InvariantError(
            f"Chebyshev bound {bound:.3e} at degree {n} exceeds {SOBOLEV_TOL} of "
            f"min F = {f_min:.3e} (rho = {rho:.4f})"
        )
    nodes = mid + half * _chebyshev_points(n)
    return float(w @ _barycentric(_power_sums(nodes, a, w, s), (c - mid) / half))


def sobolev_norm_sq(f: Datum, s: float) -> float:
    """sum_n (1 + |n|^2)^s phi(n/N)^2 over the support box.

    Every axis carries the same n_i^2 and weights psi(n_i/N)^2, so d=1
    is one vector sum and d=2 is sum_i w_i F(1 + n_i^2) with F(c) =
    sum_j w_j (c + n_j^2)^s, which _row_sum takes from a Chebyshev
    interpolant of F, its degree set by a Bernstein-ellipse bound that
    keeps the relative error within SOBOLEV_TOL; d >= 3 recurses over
    the leading axes, part(offset, depth) summing w[i] * part(offset +
    n_i^2, depth - 1) down to _row_sum, with len(axis)^(d-2) of them.
    InvariantError unless the result is finite and positive: at large
    |s| the powers overflow or underflow.
    """
    w = f.axis_psi**2
    nsq = f.axis_n.astype(float) ** 2

    def part(offset, depth: int) -> float:
        if depth == 2:
            return _row_sum(offset, nsq, w, s)
        total = 0.0
        for i in range(len(nsq)):
            total += w[i] * part(offset + nsq[i], depth - 1)
        return total

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is refused below
        if s == 0.0:
            value = f.l2_sq()
        elif f.d == 1:
            value = float(np.sum((1.0 + nsq) ** s * w))
        else:
            value = float(part(1.0, f.d))
    if not (math.isfinite(value) and value > 0.0):
        raise InvariantError(
            f"Sobolev norm^2 {value} at s = {s} (N = {f.N}, d = {f.d}) is not finite and positive")
    return value


def check_delta_phases(f: Datum, delta: Sequence[float]) -> None:
    """InputError unless every phase 2 pi delta_i n of the support axis is
    finite, checked at the largest n before any exponential is taken."""
    n_max = float(f.axis_n.max())
    if not all(math.isfinite(2.0 * math.pi * abs(float(di)) * n_max) for di in delta):
        raise InputError(f"a phase 2 pi delta_i n is not finite for delta = {tuple(delta)}, n <= {n_max:.0f}")


def _delta_phases(f: Datum, delta: Sequence[float]) -> list[np.ndarray]:
    check_delta_phases(f, delta)
    return [np.exp(2j * np.pi * di * f.axis_n) for di in delta]


def evaluate_solution(poly: IntPolynomial, f: Datum, pt: RationalPoint) -> complex:
    """The solution at x = b/q + delta, t = 1/q, as the exact sum
    sum_n phi(n/N) e(((b.n + P(n)) mod q)/q + delta.n).

    The modular part of every phase is computed in integers and only
    then mapped to the unit circle; terms are accumulated in a fixed
    lexicographic order with compensated summation.
    """
    if poly.dim != f.d or pt.d != f.d:
        raise InputError(f"dimension mismatch: polynomial {poly.dim}, datum {f.d}, point {pt.d}")
    if pt.q > TABLE_GUARD:  # roots_of_unity(q) holds q complex entries
        raise ResourceError(f"modulus q = {pt.q} exceeds the table guard {TABLE_GUARD}")
    if len(f.axis_n) ** f.d > BOX_GUARD:
        raise ResourceError(f"support box {len(f.axis_n)}^{f.d} exceeds guard {BOX_GUARD}")
    q = pt.q
    psi = f.axis_psi
    dphases = _delta_phases(f, pt.delta)
    roots = roots_of_unity(q)
    n_mod = (f.axis_n % q).astype(np.int64)
    if f.d == 1:
        return csum_complex(psi * dphases[0] * roots[phase_index(poly, pt.b, q, (n_mod,))])

    # d >= 2: slab over the first axis, lexicographic order preserved
    rest_axes = tuple(
        n_mod.reshape((1,) * i + (-1,) + (1,) * (f.d - 2 - i)) for i in range(f.d - 1)
    )
    rest_coeff = np.ones((1,) * (f.d - 1))
    for i in range(f.d - 1):
        shaped = (psi * dphases[i + 1]).reshape((1,) * i + (-1,) + (1,) * (f.d - 2 - i))
        rest_coeff = rest_coeff * shaped
    parts_re, parts_im = [], []
    for j in range(len(n_mod)):
        comps = (n_mod[j : j + 1].reshape((1,) * (f.d - 1)),) + rest_axes
        slab = (psi[j] * dphases[0][j]) * rest_coeff * roots[phase_index(poly, pt.b, q, comps)]
        s = slab.sum()
        parts_re.append(float(s.real))
        parts_im.append(float(s.imag))
    return complex(math.fsum(parts_re), math.fsum(parts_im))

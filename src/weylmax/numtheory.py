"""Primes in dyadic bands, exact modular polynomial evaluation, and
counting of lattice pairs close to a rational line.

Everything here is exact integer arithmetic; floats enter only as
thresholds (the bound A in the pair counts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Witnesses making Miller-Rabin deterministic for n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# eval_poly_mod_grid keeps intermediates in int64; products of two
# residues must not wrap, so moduli are capped at 2^31 - 1.
GRID_MODULUS_MAX = 2**31 - 1


@dataclass(frozen=True)
class PrimeBand:
    """Ascending primes in the half-open interval [lo, hi)."""

    lo: int
    hi: int
    primes: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.primes)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in_band(lo: int, hi: int) -> PrimeBand:
    """All primes in [lo, hi) by a plain sieve of Eratosthenes."""
    if lo < 2 or lo >= hi:
        raise InputError(f"invalid prime band [{lo}, {hi}): need 2 <= lo < hi")
    sieve = np.ones(hi, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(hi - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    ps = np.flatnonzero(sieve[lo:]) + lo
    return PrimeBand(lo, hi, tuple(int(p) for p in ps))


def band_start(N: int, d: int) -> int:
    """Largest integer Q with Q^(d+1) <= N^d, i.e. floor(N^(d/(d+1))).

    Integer Newton iteration from above, exact for any N; the float
    formula ``int(N ** (d / (d + 1)))`` rounds down at large perfect
    powers (N = 10^12, d = 2 gives 10^8 - 1).
    """
    if N < 1 or d < 1:
        raise InputError(f"band start needs N >= 1 and d >= 1, got N = {N}, d = {d}")
    target, k = int(N) ** d, d + 1
    root = 1 << -(-target.bit_length() // k)  # 2^ceil(bits/k) > the root
    while True:
        step = ((k - 1) * root + target // root ** (k - 1)) // k
        if step >= root:
            return root
        root = step


def eval_poly_mod(poly, n, q: int) -> int:
    """P(n) mod q with every intermediate reduced mod q.

    Monomials are evaluated one by one through pow(., ., q); Python
    integers make the arithmetic exact for any operand size.
    """
    if q < 2:
        raise InputError(f"modulus must be >= 2, got {q}")
    n = tuple(int(v) for v in n)
    if len(n) != poly.dim:
        raise InputError(f"point has {len(n)} coordinates, polynomial has dimension {poly.dim}")
    acc = 0
    for expo, coeff in poly.terms.items():
        t = coeff % q
        for x, e in zip(n, expo):
            if e:
                t = t * pow(x % q, e, q) % q
        acc = (acc + t) % q
    return acc


def _pow_mod_array(base: np.ndarray, e: int, q: int) -> np.ndarray:
    """base**e mod q by square-and-multiply on int64 arrays."""
    result = np.ones_like(base)
    b = base % q
    while e:
        if e & 1:
            result = result * b % q
        e >>= 1
        if e:
            b = b * b % q
    return result


def eval_poly_mod_grid(poly, comps: tuple[np.ndarray, ...], q: int) -> np.ndarray:
    """Vectorized P(n) mod q over broadcastable int64 coordinate arrays.

    Exact as long as q <= 2^31 - 1 (residue products stay below 2^62).
    """
    if q < 2 or q > GRID_MODULUS_MAX:
        raise InputError(f"grid modulus out of range [2, 2^31-1]: {q}")
    if len(comps) != poly.dim:
        raise InputError(f"{len(comps)} coordinate arrays for dimension {poly.dim}")
    comps = tuple(np.asarray(c, dtype=np.int64) % q for c in comps)
    shape = np.broadcast_shapes(*(c.shape for c in comps))
    acc = np.zeros(shape, dtype=np.int64)
    for expo, coeff in poly.terms.items():
        t = np.full(shape, coeff % q, dtype=np.int64)
        for c, e in zip(comps, expo):
            if e:
                t = t * _pow_mod_array(c, e, q) % q
        acc = (acc + t) % q
    return acc


def _line_points(q: int, qp: int, targets, first: int):
    """Lattice points (b, b') with b*qp - b'*q = s for each s in targets,
    b in [first, first + q) and b' in [first, first + qp).

    Every s must be a multiple of g = gcd(q, qp). With m = q/g and
    m' = qp/g coprime, the line s = k*g holds its points at
    b = k * m'^(-1) (mod m), so each line is walked in steps of m.
    """
    g = math.gcd(q, qp)
    m, mp = q // g, qp // g
    inv_mp = pow(mp, -1, m) if m > 1 else 0
    for s in targets:
        b0 = (s // g * inv_mp - first) % m + first
        for b in range(b0, first + q, m):
            bp, rem = divmod(b * qp - s, q)
            if rem == 0 and first <= bp < first + qp:
                yield b, bp


def lattice_pair_count(q: int, qp: int, bound: float) -> int:
    """Number of pairs 1 <= b <= q, 1 <= b' <= qp with 0 < |b*qp - b'*q| <= bound.

    Walks the lines b*qp - b'*q = k*g (g = gcd(q, qp),
    0 < |k| <= bound/g); each line carries at most g admissible points,
    so the total is at most 2*bound. Every pair has |b*qp - b'*q| <
    q*qp, so the bound is clamped there. Cost O(min(bound, q*qp) + log q)
    versus the O(q*qp) exhaustive grid.
    """
    if q < 1 or qp < 1:
        raise InputError(f"moduli must be positive, got ({q}, {qp})")
    if not (math.isfinite(bound) and bound >= 0):
        raise InputError(f"bound must be finite and non-negative, got {bound}")
    g = math.gcd(q, qp)
    kmax = int(math.floor(min(bound, q * qp) / g))
    lines = (k * g for k in range(-kmax, kmax + 1) if k)
    return sum(1 for _ in _line_points(q, qp, lines, 1))


def close_fraction_pairs(q: int, qp: int, bound: float) -> list[tuple[int, int]]:
    """Residue pairs (b, b') in [0,q) x [0,qp) whose fractions b/q and
    b'/qp are within bound/(q*qp) of each other on the circle.

    Equivalent condition: s = b*qp - b'*q satisfies |s| <= bound or
    |s| >= q*qp - bound. Solved line by line like lattice_pair_count;
    s = 0 (coincident centers) is included.
    """
    if q < 1 or qp < 1:
        raise InputError(f"moduli must be positive, got ({q}, {qp})")
    if not math.isfinite(bound):
        raise InputError(f"bound must be finite, got {bound}")
    prod = q * qp
    if 2 * bound >= prod:
        # circle distance is at most 1/2, so every pair qualifies
        return [(b, bp) for b in range(q) for bp in range(qp)]
    g = math.gcd(q, qp)
    targets = set()
    kmax = int(math.floor(bound / g))
    for k in range(-kmax, kmax + 1):
        targets.add(k * g)
    # wrap-around band near +-q*qp
    j = prod - int(math.floor(bound))
    while j <= prod:
        if j % g == 0:
            targets.add(j)
            targets.add(-j)
        j += 1
    return sorted(_line_points(q, qp, targets, 0))

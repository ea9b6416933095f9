"""Primes in dyadic bands, polynomials mod q (in Python integers, or by
one nested Horner pass over int64 grids), and the lattice pairs near a
rational line, each line b*qp - b'*q = k*gcd(q, qp) solved by one modular inverse.

Everything here is exact integer arithmetic; floats enter only as
thresholds (the bound A in the pair counts).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, ResourceError

# Witnesses making Miller-Rabin deterministic for n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# eval_poly_mod_grid works in int64: a Horner step acc * r + c of
# residues stays below q^2 + q < 2^62 + 2^31 under this cap.
GRID_MODULUS_MAX = 2**31 - 1

LINE_GUARD = 1 << 24  # max lattice points lattice_pair_count walks


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


def primes_in_band(lo: int, hi: int) -> tuple[int, ...]:
    """The primes in [lo, hi), ascending, by a plain sieve of Eratosthenes."""
    if lo < 2 or lo >= hi:
        raise InputError(f"invalid prime band [{lo}, {hi}): need 2 <= lo < hi")
    sieve = np.ones(hi, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(hi - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    ps = np.flatnonzero(sieve[lo:]) + lo
    return tuple(int(p) for p in ps)


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


def _horner(terms: dict, comps: tuple[np.ndarray, ...], q: int):
    """sum of c * prod_i comps[i]^e_i mod q over terms {e: c}, c in (0, q):
    Horner in comps[0], whose coefficients, polynomials in the other
    variables, come from the same recursion and span only the axes of
    their own variables (a Python int when they have none)."""
    if not comps or not terms:
        return terms.get((), 0)
    top = max(e[0] for e in terms)
    rows = [{e[1:]: c for e, c in terms.items() if e[0] == i} for i in range(top + 1)]
    acc = _horner(rows[top], comps[1:], q)
    for row in reversed(rows[:top]):
        acc = acc * comps[0] + _horner(row, comps[1:], q) if row else acc * comps[0]
        acc %= q
    return acc


def eval_poly_mod_grid(poly, comps: tuple[np.ndarray, ...], q: int, b=()) -> np.ndarray:
    """(P(n) + b.n) mod q over broadcastable int64 coordinate arrays, in
    their full broadcast shape; b = () gives P(n) mod q alone. One nested
    Horner pass (_horner) over the coordinates reduced mod q, b.n taken
    as degree-one terms and every coefficient reduced mod q first."""
    if q < 2 or q > GRID_MODULUS_MAX:
        raise InputError(f"grid modulus out of range [2, 2^31-1]: {q}")
    if len(comps) != poly.dim or len(b) not in (0, poly.dim):
        raise InputError(f"need {poly.dim} coordinate arrays and 0 or {poly.dim} b components")
    comps = tuple(np.asarray(c, dtype=np.int64) % q for c in comps)
    units = {tuple(int(j == i) for j in range(poly.dim)): int(bi) % q for i, bi in enumerate(b)}
    terms = {e: (poly.terms.get(e, 0) + units.get(e, 0)) % q for e in {*poly.terms, *units}}
    acc = np.asarray(_horner({e: c for e, c in terms.items() if c}, comps, q), dtype=np.int64)
    shape = np.broadcast_shapes(*(c.shape for c in comps))
    return acc if acc.shape == shape else np.broadcast_to(acc, shape).copy()


def lattice_pair_count(q: int, qp: int, bound: float) -> int:
    """Number of pairs 1 <= b <= q, 1 <= b' <= qp with 0 < |b*qp - b'*q| <= bound.

    With g = gcd(q, qp), m = q/g and m' = qp/g, every pair lies on a line
    b*qp - b'*q = k*g, whose points are b = k * m'^(-1) (mod m) with
    b' = (b*m' - k)/m. Each line 0 < |k| <= bound/g holds at most g
    admissible points, so the total is at most 2*bound. Every pair has
    |b*qp - b'*q| < q*qp, so the bound is clamped there, and the walk
    visits about 2*min(bound, q*qp) points: ResourceError when that
    exceeds LINE_GUARD.
    """
    if q < 1 or qp < 1:
        raise InputError(f"moduli must be positive, got ({q}, {qp})")
    if not (math.isfinite(bound) and bound >= 0):
        raise InputError(f"bound must be finite and non-negative, got {bound}")
    g = math.gcd(q, qp)
    m, mp = q // g, qp // g
    kmax = int(math.floor(min(bound, q * qp) / g))
    if 2 * kmax * g > LINE_GUARD:
        raise ResourceError(f"{2 * kmax * g} lattice points to walk exceed guard {LINE_GUARD}")
    inv = pow(mp, -1, m)
    return sum(1 <= (b * mp - k) // m <= qp
               for k in range(-kmax, kmax + 1) if k
               for b in range((k * inv - 1) % m + 1, q + 1, m))


def close_fraction_count(q: int, qp: int, bound: float) -> int:
    """len(close_fraction_pairs(q, qp, bound)) without listing a pair:
    q*qp once every pair qualifies, else g pairs on each of the lines
    |k| <= bound/g."""
    if 2 * bound >= q * qp:
        return q * qp
    g = math.gcd(q, qp)
    return (2 * math.floor(bound / g) + 1) * g


def close_fraction_pairs(q: int, qp: int, bound: float) -> list[tuple[int, int]]:
    """Residue pairs (b, b') in [0,q) x [0,qp), sorted, whose fractions
    b/q and b'/qp are within bound/(q*qp) of each other on the circle;
    s = 0 (coincident centers) is included.

    On the circle the condition is |b*qp - B'*q| <= bound for some
    integer B' = b' (mod qp), so the pairs are the points of the lines
    |k| <= bound/g of lattice_pair_count with b in [0, q) and b' the
    residue of B' = (b*m' - k)/m mod qp. While 2*bound < q*qp, distinct
    lines give distinct pairs; past that every pair qualifies.
    """
    if q < 1 or qp < 1:
        raise InputError(f"moduli must be positive, got ({q}, {qp})")
    if not math.isfinite(bound):
        raise InputError(f"bound must be finite, got {bound}")
    if 2 * bound >= q * qp:
        # circle distance is at most 1/2, so every pair qualifies
        return [(b, bp) for b in range(q) for bp in range(qp)]
    g = math.gcd(q, qp)
    m, mp = q // g, qp // g
    kmax = int(math.floor(bound / g))
    inv = pow(mp, -1, m)
    return sorted((b, (b * mp - k) // m % qp)
                  for k in range(-kmax, kmax + 1)
                  for b in range(k * inv % m, q, m))

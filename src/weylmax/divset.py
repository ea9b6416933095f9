"""The divergence set X_N: cubes of half-width rho/N centered at the
rational points b/q, over primes q in the dyadic band [Q, 2Q) with
Q = floor(N^(d/(d+1))) and residues b in the good set of q.

Measure machinery: exact interval union for d = 1, Monte Carlo with
per-prime center snapping for d >= 2, and disjoint-sum / Cauchy-Schwarz
bounds from the exact overlapping-pair count.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from .errors import InputError, ResourceError
from .numtheory import band_start, close_fraction_pairs, is_prime, primes_in_band
from .poly import IntPolynomial
from .weyl import good_set_for

BITMAP_GUARD = 1 << 29  # max bytes of one set's bitmap, one per residue
_WINDOW = 1 << 16  # bitmap entries per block of balls()


class DivergenceSet(NamedTuple):
    N: int
    d: int
    rho: float
    c: float
    Q: int
    bits: np.ndarray  # the masks of all primes end to end, ascending q
    start: dict[int, int]  # q -> offset of q's mask in bits

    @property
    def ball_count(self) -> int:
        return int(np.count_nonzero(self.bits))

    @property
    def primes(self) -> list[int]:
        return list(self.start)

    def mask(self, q: int) -> np.ndarray:
        """q's entries of ``bits``: its C-order mask, a view of shape (q,)*d."""
        return self.bits[self.start[q] : self.start[q] + q**self.d].reshape((q,) * self.d)

    def balls(self, at: np.ndarray | None = None) -> np.ndarray:
        """(m, 1 + d) int64 rows ``q, b_0 .. b_{d-1}`` of the balls at the
        ascending canonical positions ``at``, or of every ball: the
        blocks of ``ball_blocks`` in one column-major table (readers take
        whole columns)."""
        m = self.ball_count if at is None else len(at)
        out = np.empty((m, 1 + self.d), dtype=np.int64, order="F")
        done = 0
        for block in self.ball_blocks(_WINDOW, at):
            out[done : done + len(block)] = block
            done += len(block)
        return out

    def ball_blocks(self, rows: int, at: np.ndarray | None = None):
        """The rows of the balls at the ascending canonical positions
        ``at`` (primes ascending, residues lex: the order of the set
        entries of ``bits``), or of every ball, in that order: one block
        per window of ``rows`` bitmap entries that holds one of them, so
        a block has at most ``rows`` rows and no whole table is made.
        With ``at``, each window is counted and only those holding a
        wanted position are decoded. A window is decoded one prime's run
        of codes at a time, q a scalar divisor. Each block is column-major."""
        if at is not None:
            at = np.asarray(at, dtype=np.int64)
            if at.size and (at[0] < 0 or at[-1] >= self.ball_count or (np.diff(at) < 0).any()):
                raise IndexError(f"ball positions must ascend in [0, {self.ball_count})")
        primes, starts = np.array(list(self.start.items()), dtype=np.int64).reshape(-1, 2).T
        seen = 0  # the balls before the window
        for lo in range(0, len(self.bits), rows):
            window = self.bits[lo : lo + rows]
            if at is None:
                code = np.flatnonzero(window)
            else:
                n = np.count_nonzero(window)
                first, stop = np.searchsorted(at, (seen, seen + n))
                code = np.flatnonzero(window)[at[first:stop] - seen] if stop > first else at[:0]
                seen += n
            if not code.size:
                continue
            code += lo
            # the window's primes k0..k1 and where each one's run of codes ends
            k0, k1 = np.searchsorted(starts, code[[0, -1]], side="right") - 1
            cuts = [0, *np.searchsorted(code, starts[k0 + 1 : k1 + 1]).tolist(), len(code)]
            out = np.empty((len(code), 1 + self.d), dtype=np.int64, order="F")
            for q, base, a, b in zip(primes[k0 : k1 + 1].tolist(), starts[k0 : k1 + 1].tolist(), cuts, cuts[1:]):
                col = out[a:b]
                np.subtract(code[a:b], base, out=col[:, self.d])  # the codes within q's mask
                for i in range(self.d, 1, -1):  # the residues from the last: code = (b_0 q + b_1) q + ...
                    np.floor_divide(col[:, i], q, out=col[:, i - 1])
                    np.multiply(col[:, i - 1], q, out=col[:, 0])  # column 0 as scratch
                    col[:, i] -= col[:, 0]
                col[:, 0] = q
            yield out

    def ball_list(self) -> list[tuple[int, tuple[int, ...]]]:
        """All (q, b) in canonical order, one Python tuple per ball."""
        return [(q, tuple(b)) for q, *b in self.balls().tolist()]


class MeasureResult(NamedTuple):
    estimate: float
    error: float
    method: str
    upper_bound: float
    lower_bound: float
    overlap_pairs: int
    samples: int = 0
    low_samples: bool = False


def build_divergence_set(
    poly: IntPolynomial, N: int, c: float = 0.5, rho: float = 1.0 / 32.0
) -> DivergenceSet:
    """Good sets for every admissible band prime, one residue mask each."""
    d = poly.dim
    k = poly.degree()
    if k < 2:
        raise InputError(f"symbol degree must be >= 2, got {k}")
    _check_constants(c, rho)
    Q = band_start(N, d)
    if Q < 2:
        raise InputError(f"N={N} too small: band start Q={Q}")
    if 2 * Q - 1 >= N / 4:
        raise InputError(f"band [{Q}, {2*Q}) too close to N/4 = {N/4}; increase N")
    if Q**d > BITMAP_GUARD:  # [Q, 2Q) holds a prime, and its mask alone has >= Q^d bytes
        raise ResourceError(f"band start Q = {Q}: one residue mask of Q^d = {Q**d} bytes "
                            f"exceeds guard {BITMAP_GUARD}")
    band = primes_in_band(Q, 2 * Q)
    admissible = band_primes(band, Q, k)
    dropped = sorted(set(band) - set(admissible))
    if dropped:
        import logging  # here, on this rare path, so that importing the package does not load it

        logging.getLogger(__name__).info("dropping band primes dividing the degree %d: %s", k, dropped)
    if not admissible:
        raise InputError(f"no admissible prime in [{Q}, {2*Q}) for degree {k}")
    x = _empty_set(N, d, rho, c, Q, admissible)
    for q in x.primes:
        good_set_for(poly, q, c, out=x.mask(q))
    return x


def band_primes(primes, Q: int, k: int | None) -> list[int]:
    """The primes of X_N among ``primes``: those in the band [Q, 2Q) that
    do not divide the symbol degree k (with k None, any degree)."""
    return [q for q in primes if Q <= q < 2 * Q and (k is None or k % q != 0)]


def _check_constants(c: float, rho: float) -> None:
    if not 0 < c < 1:
        raise InputError(f"threshold constant must be in (0,1), got {c}")
    if not (math.isfinite(rho) and rho > 0):
        raise InputError(f"radius constant must be finite and positive, got {rho}")


def _empty_set(N: int, d: int, rho: float, c: float, Q: int, primes) -> DivergenceSet:
    """A DivergenceSet over the ascending ``primes`` with every mask clear,
    the C-order masks end to end in one zeroed bitmap; ResourceError when
    they would exceed BITMAP_GUARD bytes in total (one per residue)."""
    sizes = [q**d for q in primes]
    if sum(sizes) > BITMAP_GUARD:
        raise ResourceError(f"residue masks of sum q^d = {sum(sizes)} bytes exceed guard {BITMAP_GUARD}")
    bits = np.zeros(sum(sizes), dtype=bool)
    start = dict(zip(primes, itertools.accumulate(sizes, initial=0)))
    return DivergenceSet(N, d, rho, c, Q, bits, start)


_KEY_BATCH = 1 << 17  # candidate products per batched lookup
PRODUCT_GUARD = 1 << 28  # max d-fold candidate products overlap_edges looks up


def overlap_edges(x: DivergenceSet):
    """Each pair of distinct balls whose centers are within 2*rho/N per
    coordinate on the torus, once, in blocks of bitmap positions
    ``(a, b)`` with ``a < b``.

    Each prime pair q <= q' takes the candidates on its lines of
    close_fraction_pairs (|b*q' - b'*q| <= 2*rho*q*q'/N on the circle),
    multiplied across coordinates; (q, q) enters only when its lines
    reach past k = 0, whose self-pairs J counts, and ``a < b`` drops the
    second order of its pairs. The products are counted against
    PRODUCT_GUARD first, then decoded from their index and looked up in
    the set's bitmap in batches, in O(#prime pairs + _KEY_BATCH) memory.
    """
    qs, starts = np.array([(q, x.start[q]) for q in x.primes if x.mask(q).any()], dtype=np.int64).reshape(-1, 2).T
    i, j = np.triu_indices(len(qs))
    bound = 2.0 * x.rho / x.N * qs[i] * qs[j]
    walked = (i != j) | (np.floor(bound / qs[i]) >= 1)  # else (q, q)'s lines |k| <= bound/q are k = 0 alone
    i, j, bound = i[walked], j[walked], bound[walked]
    if not len(i):
        return
    q, qp = qs[i], qs[j]
    close = close_fraction_pairs(q, qp, bound)
    ends = np.cumsum(close.count.astype(np.float64) ** x.d)  # exact up to 2^53
    over = np.flatnonzero(ends > PRODUCT_GUARD)
    if over.size:
        p = over[0]
        total = (int(ends[p - 1]) if p else 0) + int(close.count[p]) ** x.d
        raise ResourceError(f"{total} candidate products up to primes ({q[p]}, {qp[p]}) "
                            f"exceed guard {PRODUCT_GUARD}")
    ends = ends.astype(np.int64)  # a pair's d-fold products end here
    begins, base_q, base_qp = ends - close.count**x.d, starts[i], starts[j]
    # Product t of a pair takes digit k of t in base n (its candidate count)
    # for coordinate k, _KEY_BATCH products at a time.
    for lo in range(0, int(ends[-1]), _KEY_BATCH):
        t = np.arange(lo, min(lo + _KEY_BATCH, int(ends[-1])), dtype=np.int64)
        p = np.searchsorted(ends, t, side="right")
        t -= begins[p]
        n, qb, qpb = close.count[p], q[p], qp[p]
        a = b = 0
        for _ in range(x.d):
            t, c = np.divmod(t, n)
            row, col = close.at(p, c)
            a, b = a * qb + row, b * qpb + col
        a += base_q[p]
        b += base_qp[p]
        keep = (a < b) & x.bits[a] & x.bits[b]
        if keep.any():
            yield a[keep], b[keep]


def overlap_pair_count(x: DivergenceSet) -> int:
    """Unordered pairs of balls (self-pairs included) whose centers are
    within 2*rho/N per coordinate on the torus: J and the pairs of
    overlap_edges."""
    return x.ball_count + sum(len(a) for a, _ in overlap_edges(x))


def _exact_interval_measure(x: DivergenceSet) -> float:
    """Length of the union of the arcs [b/q - r, b/q + r], split at the
    wrap. A sorted segment starting past the running maximum of the ends
    before it opens a component; the component lengths are added in
    order, so the sum is a sequential merge loop's bit for bit."""
    table = x.balls()
    if not len(table):
        return 0.0
    r = x.rho / x.N
    if 2 * r >= 1.0:
        return 1.0
    lo = (table[:, 1] / table[:, 0] - r) % 1.0
    hi = lo + 2 * r
    wrap = hi > 1.0
    lo = np.concatenate((lo, np.zeros(np.count_nonzero(wrap))))
    hi = np.concatenate((np.minimum(hi, 1.0), hi[wrap] - 1.0))
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    reach = np.maximum.accumulate(hi)
    first = np.flatnonzero(np.concatenate(([True], lo[1:] > reach[:-1])))
    last = np.append(first[1:], len(lo)) - 1
    return float(np.cumsum(reach[last] - lo[first])[-1])


_MC_BLOCK = 1 << 16
MC_SAMPLE_GUARD = 1 << 30  # max Monte Carlo samples (16 384 blocks of _MC_BLOCK)


def _montecarlo_measure(x: DivergenceSet, samples: int, seed) -> tuple[float, float]:
    """Hit fraction of uniform points with its binomial standard error.

    A point hits ball (q, b) when every coordinate lies within
    ``radius`` of ``b_i/q`` on the circle. Per block, each prime tests
    only the points whose first coordinate ``x0`` lies within
    ``radius + 1e-12`` of the grid ``Z/q`` (``|x0 q - rint(x0 q)| <= half q``),
    and a candidate center is a ball when its residue is set in the
    prime's mask. A point inside a ball lies that close to ``b_0/q``;
    the margin is far above the rounding of ``x0 q``, so the hit set
    equals that of testing every point.
    """
    radius = x.rho / x.N
    half = radius + 1e-12
    primes = [q for q in x.primes if x.mask(q).any()]
    n_blocks = (samples + _MC_BLOCK - 1) // _MC_BLOCK
    children = np.random.SeedSequence(seed).spawn(n_blocks)
    rows = min(_MC_BLOCK, samples)  # the block buffers, made once and filled per block
    pts_buf, x0_buf, scaled_buf, frac_buf = np.empty((rows, x.d)), np.empty(rows), np.empty(rows), np.empty(rows)
    near_buf, hit_buf = np.empty(rows, dtype=bool), np.empty(rows, dtype=bool)
    hits = 0
    done = 0
    for blk in range(n_blocks):
        size = min(_MC_BLOCK, samples - done)
        pts = np.random.default_rng(children[blk]).random(out=pts_buf[:size])
        x0, scaled, frac, near, hit = x0_buf[:size], scaled_buf[:size], frac_buf[:size], near_buf[:size], hit_buf[:size]
        x0[:] = pts[:, 0]
        hit[:] = False
        for q in primes:
            np.multiply(x0, q, out=scaled)
            np.rint(scaled, out=frac)
            np.subtract(scaled, frac, out=frac)
            np.abs(frac, out=frac)
            np.less_equal(frac, half * q, out=near)
            rows = np.flatnonzero(near)
            if rows.size == 0:
                continue
            sub = pts[rows]
            jmax = int(math.floor(radius * q + 0.5 + 1e-12))
            nearest = np.rint(sub * q).astype(np.int64)
            for joff in itertools.product(range(-jmax, jmax + 1), repeat=x.d):
                bb = (nearest + np.array(joff, dtype=np.int64)) % q
                dist = np.abs(sub - bb / q)
                dist = np.minimum(dist, 1.0 - dist)
                inside = np.flatnonzero((dist <= radius).all(axis=1))
                if inside.size == 0:
                    continue
                found = inside[x.mask(q)[tuple(bb[inside].T)]]
                hit[rows[found]] = True
        hits += int(hit.sum())
        done += size
    p = hits / samples
    stderr = math.sqrt(p * (1.0 - p) / samples)
    return p, stderr


def measure(
    x: DivergenceSet,
    method: str | None = None,
    samples: int = 200_000,
    seed=0,
) -> MeasureResult:
    """Lebesgue measure of the ball union, with distribution-free bounds.

    "exact" (d = 1 only): sorted interval merge on the circle.
    "montecarlo": hit fraction with binomial standard error. None, the
    default, takes "exact" for d = 1 and "montecarlo" otherwise. Every
    result also carries the disjoint-sum upper bound J*v and the
    Cauchy-Schwarz lower bound J^2*v / (ordered overlap count), where
    v = min(2rho/N, 1)^d is the measure of one ball on the torus.
    """
    if method is None:
        method = "exact" if x.d == 1 else "montecarlo"
    if method == "exact":
        if x.d != 1:
            raise InputError(f"exact measure supports d = 1 only, got d = {x.d}")
    elif method != "montecarlo":
        raise InputError(f"unknown measure method {method!r}")
    elif samples < 1:
        raise InputError(f"sample count must be positive, got {samples}")
    elif samples > MC_SAMPLE_GUARD:
        raise ResourceError(f"{samples} Monte Carlo samples exceed guard {MC_SAMPLE_GUARD}")
    elif seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    j = x.ball_count
    vol = min(2.0 * x.rho / x.N, 1.0) ** x.d  # one ball's measure
    pairs = overlap_pair_count(x)
    ordered = 2 * pairs - j
    upper = j * vol
    lower = (j * j * vol / ordered) if ordered > 0 else 0.0
    if method == "exact":
        est = _exact_interval_measure(x)
        return MeasureResult(est, 0.0, "exact", upper, lower, pairs)
    est, err = _montecarlo_measure(x, samples, seed)
    return MeasureResult(
        est, err, "montecarlo", upper, lower, pairs,
        samples=samples, low_samples=samples < 10_000,
    )


def from_balls(
    N: int, d: int, rho: float, c: float, Q: int,
    balls: np.ndarray | list[tuple[int, tuple[int, ...]]] | Iterable[np.ndarray],
    polynomial: IntPolynomial | None = None,
) -> DivergenceSet:
    """Rebuild a DivergenceSet from stored balls (CLI read-back).

    ``balls`` is a (J, 1 + d) integer array of rows ``q, b_0 .. b_{d-1}``,
    a list of ``(q, b)`` pairs, or an iterator of such arrays, the blocks
    of one table (the CLI reader's); rows come in any order, and
    duplicate balls set the same mask entry. Each block is folded into
    one mask per prime and dropped, so no whole table is held; a
    block that is not ascending in q is sorted by q first.

    Once every block is read, the checks run in this order: the
    parameters must pass the checks of ``build_divergence_set``, every
    modulus must be prime, the masks must fit the resource guard, every
    residue must lie in [0, q) and, with a ``polynomial``, every ball
    must lie in the good set of its prime.
    """
    if N < 1 or d < 1:
        raise InputError(f"need N >= 1 and d >= 1, got N = {N}, d = {d}")
    _check_constants(c, rho)
    if polynomial is not None and polynomial.dim != d:
        raise InputError(f"polynomial dimension {polynomial.dim} does not match d = {d}")
    if isinstance(balls, np.ndarray):
        balls = [balls]
    elif isinstance(balls, list):
        balls = [[(q, *b) for q, b in balls]]
    ranges: dict[int, list[int]] = {}  # q -> [smallest, largest] residue of its rows
    composite: set[int] = set()
    masks: dict[int, np.ndarray] | None = {}  # prime -> its (q,)*d mask; None once sum q^d passes the guard
    size = 0
    for block in balls:
        rows = _ball_rows(block, d)
        if not len(rows):
            continue
        if (rows[1:, 0] < rows[:-1, 0]).any():  # one Python step per run of a prime below
            rows = rows[np.argsort(rows[:, 0], kind="stable")]
        qs, res = rows[:, 0], rows[:, 1:]
        firsts = np.flatnonzero(np.concatenate(([True], qs[1:] != qs[:-1])))
        ends = [*firsts[1:].tolist(), len(qs)]
        # per run of one prime, the smallest and largest residue (column by column: fast on strides)
        lows = np.min([np.minimum.reduceat(col, firsts) for col in res.T], axis=0).tolist()
        highs = np.max([np.maximum.reduceat(col, firsts) for col in res.T], axis=0).tolist()
        for q, lo, hi, a, b in zip(qs[firsts].tolist(), lows, highs, firsts.tolist(), ends):
            if q in ranges:
                ranges[q] = [min(ranges[q][0], lo), max(ranges[q][1], hi)]
            else:
                ranges[q] = [lo, hi]
                if not is_prime(q):
                    composite.add(q)
                elif masks is not None:
                    size += q**d
                    if size > BITMAP_GUARD:
                        masks = None
                    else:
                        masks[q] = np.zeros((q,) * d, dtype=bool)
            if masks is None or q not in masks or lo < 0 or hi >= q:
                continue  # an error is raised below, after the last block
            masks[q][tuple(res[a:b].T)] = True
    if composite:
        raise InputError(f"ball modulus q={min(composite)} is not prime")
    primes = sorted(ranges)
    x = _empty_set(N, d, rho, c, Q, primes)
    for q in primes:
        lo, hi = ranges[q]
        if lo < 0 or hi >= q:
            raise InputError(f"residues for q={q} must lie in [0, {q}), got range [{lo}, {hi}]")
    for q in primes:  # one mask at a time into the set's bitmap, each dropped once copied
        x.mask(q)[...] = masks.pop(q)
    if polynomial is not None:
        for q in primes:
            outside = x.mask(q) & ~good_set_for(polynomial, q, c).mask
            if outside.any():
                b = tuple(np.argwhere(outside)[0].tolist())
                raise InputError(f"ball (q={q}, b={b}) is not in the good set at c={c}")
    return x


def _ball_rows(block, d: int) -> np.ndarray:
    """One block of balls as a (m, 1 + d) int64 array, or InputError."""
    try:
        rows = np.asarray(block, dtype=np.int64)
    except ValueError as exc:
        raise InputError(f"every ball needs 1 + d = {1 + d} integers: {exc}") from exc
    if rows.size == 0:
        rows = rows.reshape(0, 1 + d)
    if rows.ndim != 2 or rows.shape[1] != 1 + d:
        raise InputError(f"balls must form a (J, 1 + d) = (J, {1 + d}) array, got shape {rows.shape}")
    return rows

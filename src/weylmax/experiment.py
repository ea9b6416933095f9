"""Ladder experiments: certified pointwise lower bounds on the evolved
datum over the divergence set, measures, and power-law exponent fits.

For each N the pipeline assembles

    ratio = sup_lb * measure(X_N)^(1/2) / ||f_N||_{H^s},

a lower bound for the L^2 norm of the maximal function restricted to
X_N divided by the Sobolev norm of the datum. Along the coupled ladder
Q = floor(N^(d/(d+1))) the ratio should grow like N^(d/(2(d+1)) - s)
with a (log N)^(-1/2) drag, which the log-corrected fit removes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .datum import Datum, datum_coefficients, sobolev_norm_sq
from .decomp import fold_axis  # noqa: F401 -- unused; perfbench/test_perfbench.py reads experiment.fold_axis
from .divset import DivergenceSet, build_divergence_set, measure
from .errors import InputError, InvariantError, ResourceError
from .poly import IntPolynomial
from .weyl import axis_tables, phase_index, roots_of_unity

CSV_COLUMNS = ["N", "Q", "J", "measure", "measure_err", "sup_lb", "hs_norm", "ratio", "wall_ms"]


@dataclass(frozen=True)
class ExperimentConfig:
    c: float = 0.5
    rho: float = 1.0 / 32.0
    seed: int = 42
    sample_budget: int = 10_000
    mc_samples: int = 200_000
    threads: int = 1


@dataclass(frozen=True)
class ScanResult:
    sup_lb: float
    witness_q: int
    witness_b: tuple[int, ...]
    witness_delta: tuple[float, ...]
    values: tuple[float, ...]  # per sampled ball, in canonical draw order
    n_sampled: int


@dataclass
class ExperimentRow:
    N: int
    Q: int
    d: int
    k: int
    s: float
    J: int
    measure: float
    measure_err: float
    measure_method: str
    sup_lb: float
    hs_norm: float
    ratio: float
    wall_ms: float
    witness_q: int = 0
    witness_b: tuple[int, ...] = ()
    witness_delta: tuple[float, ...] = ()
    failed: bool = False
    fail_reason: str = ""


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residual: float
    n_points: int
    log_corrected_slope: float


TAYLOR_TERMS = 20  # K: moments per axis in the perturbed fold
TAIL_REL_TOL = 1e-12  # certified tail / smallest shifted value
_CONTRACT_ENTRIES = 1 << 20  # per-chunk size of the d >= 2 partial contraction
_MOMENT_ENTRIES = 1 << 16  # entries of the power table the moment folds share


def _taylor_coeffs(delta: np.ndarray, N: int) -> np.ndarray:
    """(m, K) array of (2 pi i delta N)^j / j! for j < K."""
    step = (2j * np.pi * N) * delta[:, None] / np.arange(1, TAYLOR_TERMS)
    return np.cumprod(np.hstack([np.ones((len(delta), 1), dtype=complex), step]), axis=1)


def _moments(f: Datum, primes: list[int]) -> list[np.ndarray]:
    """Per prime q, the (K, q) array M[j, r] = sum over n = r (mod q) of
    psi(n) (n/N)^j.

    The powers psi(n) (n/N)^j depend only on the datum, so they are
    formed once, _MOMENT_ENTRIES at most at a time: a block of j columns
    over the support axis, framed by max(primes) zero rows on each side.
    Each prime folds a block with one view, the rows from the largest
    multiple of q not above axis_n[0] reshaped to (m, q, columns), and a
    sum over m. That adds the terms of each class in order of n, as
    fold_axis's bincount does, and zero rows add exactly, so row 0
    matches that fold bit for bit.
    """
    length = len(f.axis_n)
    pad = max(primes)
    t = f.axis_n / f.N
    w = f.axis_psi.copy()
    cols = max(1, min(TAYLOR_TERMS, _MOMENT_ENTRIES // (length + 2 * pad)))
    table = np.zeros((length + 2 * pad, cols))
    out = [np.empty((TAYLOR_TERMS, q)) for q in primes]
    for j0 in range(0, TAYLOR_TERMS, cols):
        width = min(cols, TAYLOR_TERMS - j0)
        for c in range(width):
            table[pad : pad + length, c] = w
            w *= t
        for q, mom in zip(primes, out):
            off = int(f.axis_n[0]) % q
            m = -(-(off + length) // q)
            block = table[pad - off : pad - off + m * q, :width].reshape(m, q, width)
            mom[j0 : j0 + width] = block.sum(axis=0).T
    return out


def _axis_values(
    u: np.ndarray, r: np.ndarray, delta: np.ndarray, N: int
) -> tuple[np.ndarray, np.ndarray]:
    """|value| of one axis at delta = 0 and at the given deltas, for the
    balls with residues r on that axis: the perturbed value is
    sum_j c_j(delta) U_j(r)."""
    return np.abs(u[0, r]), np.abs(np.sum(_taylor_coeffs(delta, N) * u[:, r].T, axis=1))


def _shifted_values(
    mom: np.ndarray, pg: np.ndarray, rows: np.ndarray, deltas: np.ndarray, N: int
) -> np.ndarray:
    """(2, m) array of |sum_r prod_i Z_i(r_i) e((b.r + P(r))/q)| for the m
    balls of one prime, with exact integer-reduced phases for b.r,
    contracted against the full phase grid pg: row 0 at delta = 0 (axis
    folds Z_i = M[0]), row 1 at deltas (perturbed axis folds Z_i =
    sum_j c_j(delta_i) M[j]). Both rows share each axis's phase gather
    and run in one contraction.
    """
    q = mom.shape[1]
    d = rows.shape[1]
    roots = roots_of_unity(q)
    r = np.arange(q, dtype=np.int64)
    out = np.empty((2, len(rows)))
    step = max(1, _CONTRACT_ENTRIES // (2 * q ** (d - 1)))
    for lo in range(0, len(rows), step):
        sl = slice(lo, lo + step)
        m = len(rows[sl])
        axes = []
        for i in range(d):
            phases = roots[np.multiply.outer(rows[sl, i], r) % q]
            z = np.empty((2 * m, q), dtype=complex)
            np.multiply(mom[0], phases, out=z[:m])
            np.multiply(_taylor_coeffs(deltas[sl, i], N) @ mom, phases, out=z[m:])
            axes.append(z)
        acc = axes[0] @ pg.reshape(q, -1)
        for z in axes[1:]:
            acc = np.einsum("mr,mrk->mk", z, acc.reshape(len(z), q, -1))
        out[:, sl] = np.abs(acc[:, 0]).reshape(2, -1)
    return out


def _log_taylor_tail(x_max: float, l1: float, d: int) -> tuple[float, float]:
    """Logs of the certified tail l1^d ((1 + eta)^d - 1) of d perturbed
    axis folds, eta = x_max^K e^x_max / K! bounding |e(theta) -
    Taylor_K(theta)| for |theta| <= x_max, and of its share 1 - (1 +
    eta)^-d of (l1 (1 + eta))^d, the ceiling on every shifted value; in
    the log domain, so no step overflows, and -inf when the tail is 0."""
    log_eta = x_max - math.lgamma(TAYLOR_TERMS + 1) + (
        TAYLOR_TERMS * math.log(x_max) if x_max > 0 else -math.inf)
    y = d * (max(log_eta, 0.0) + math.log1p(math.exp(-abs(log_eta))))  # d log(1 + eta)
    if not y > 0:
        return -math.inf, -math.inf
    log_share = math.log(-math.expm1(-y))
    return d * math.log(l1) + y + log_share, log_share


def solution_scan(
    poly: IntPolynomial,
    f: Datum,
    x: DivergenceSet,
    sample_budget: int = 10_000,
    seed: int = 0,
) -> ScanResult:
    """|solution| at sampled ball centers, each at its own t = 1/q.

    Every sampled ball is evaluated at delta = 0 and at one random delta
    in the budget box; the per-ball value is the smaller of the two. The
    per-ball values come back in canonical draw order (primes ascending,
    residues lex), and sup_lb, their minimum, is a lower bound for the
    maximal function at each sampled point.

    The K Taylor moments M[j] of the folded coefficients come from one
    power table shared by every drawn prime (_moments); a perturbed axis
    fold is sum_j (2 pi i delta_i N)^j / j! M[j], whose truncation error
    is certified before the scan against the ceiling on every shifted
    value and after it against the smallest one. When no monomial
    of the symbol mixes variables, both values of a ball are products of
    d one-dimensional values, one per axis, and no q^d grid is built:
    axis_tables(poly, q, M) gives each distinct part one K x q moment
    FFT, whose row 0 holds the center values, and each axis gathers its
    rows from its part's table. The same certificate bounds the
    product's tail. Otherwise one exact-phase contraction against the
    phase grid e(P(r)/q) gives every drawn ball's value at delta = 0
    and at its delta.
    """
    total = x.ball_count
    if total == 0:
        raise InputError("divergence set has no balls")
    if sample_budget < 1:
        raise InputError(f"sample budget must be positive, got {sample_budget}")
    budget = x.rho / (f.d * f.N)
    x_max = 2.0 * np.pi * budget * float(f.axis_n.max())
    log_tail, log_share = _log_taylor_tail(x_max, float(f.axis_psi.sum()), f.d)
    if log_share > math.log(TAIL_REL_TOL):
        raise InvariantError(
            f"Taylor tail bound 10^{log_tail / math.log(10):.4g} is {math.exp(log_share):.3g} "
            f"of the ceiling on every shifted value, above {TAIL_REL_TOL} (K = {TAYLOR_TERMS})"
        )
    rng = np.random.default_rng(seed)
    table = x.balls(np.sort(rng.choice(total, size=sample_budget, replace=False))
                    if total > sample_budget else None)
    n_chosen = len(table)
    deltas = rng.uniform(-budget, budget, size=(n_chosen, f.d))

    center_vals = np.ones(n_chosen)
    shifted_vals = np.ones(n_chosen)
    primes, firsts = np.unique(table[:, 0], return_index=True)
    primes = primes.tolist()
    ends = [*firsts[1:].tolist(), n_chosen]
    for q, mom, lo, hi in zip(primes, _moments(f, primes), firsts.tolist(), ends):
        pos, rows = slice(lo, hi), table[lo:hi, 1:]
        tables = axis_tables(poly, q, mom)
        if tables is None:
            pg = roots_of_unity(q)[phase_index(poly, (), q)]
            factors = [_shifted_values(mom, pg, rows, deltas[pos], f.N)]
        else:
            factors = [_axis_values(u, rows[:, i], deltas[pos, i], f.N) for i, u in enumerate(tables)]
        for center, shifted in factors:
            center_vals[pos] *= center
            shifted_vals[pos] *= shifted

    limit = TAIL_REL_TOL * float(shifted_vals.min())
    if not log_tail <= (math.log(limit) if limit > 0 else -math.inf):
        raise InvariantError(
            f"Taylor tail bound 10^{log_tail / math.log(10):.4g} exceeds {TAIL_REL_TOL} of the "
            f"smallest shifted value {float(shifted_vals.min()):.3e} (K = {TAYLOR_TERMS})"
        )

    values = np.minimum(center_vals, shifted_vals)
    imin = int(np.argmin(values))
    q_min, *b_min = table[imin].tolist()
    delta_min = (0.0,) * f.d if center_vals[imin] <= shifted_vals[imin] else tuple(deltas[imin])
    return ScanResult(
        sup_lb=float(values[imin]),
        witness_q=q_min,
        witness_b=tuple(b_min),
        witness_delta=delta_min,
        values=tuple(values.tolist()),
        n_sampled=n_chosen,
    )


def ratio_experiment(
    poly: IntPolynomial,
    s: float,
    n_ladder,
    config: ExperimentConfig | None = None,
) -> list[ExperimentRow]:
    """One ExperimentRow per ladder scale N.

    A row whose pipeline trips a resource guard is marked failed and the
    ladder continues. The ratio uses the measure minus two standard
    errors as a conservative lower bound (the exact d = 1 measure has
    none).
    """
    config = config or ExperimentConfig()
    ladder = [int(n) for n in n_ladder]
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise InputError(f"ladder must be strictly ascending, got {ladder}")
    if not ladder or ladder[0] < 256:
        raise InputError(f"every ladder scale must be >= 256, got {ladder}")
    if not math.isfinite(s):
        raise InputError(f"Sobolev index must be finite, got {s}")
    if config.threads < 1:
        raise InputError(f"thread count must be positive, got {config.threads}")
    if config.seed < 0:
        raise InputError(f"seed must be non-negative, got {config.seed}")
    d = poly.dim
    k = poly.degree()
    if k < 2:
        raise InputError(f"symbol degree must be >= 2, got {k}")
    rows = []
    for n in ladder:
        t0 = time.perf_counter()
        try:
            f = datum_coefficients(n, d)
            x = build_divergence_set(poly, n, config.c, config.rho)
            scan = solution_scan(poly, f, x, config.sample_budget, config.seed)
            m = measure(x, samples=config.mc_samples, seed=config.seed)
            usable = max(m.estimate - 2.0 * m.error, 0.0)
            hs = math.sqrt(sobolev_norm_sq(f, s))
            ratio = scan.sup_lb * math.sqrt(usable) / hs
            rows.append(ExperimentRow(
                N=n, Q=x.Q, d=d, k=k, s=s, J=x.ball_count,
                measure=m.estimate, measure_err=m.error, measure_method=m.method,
                sup_lb=scan.sup_lb, hs_norm=hs, ratio=ratio,
                wall_ms=(time.perf_counter() - t0) * 1e3,
                witness_q=scan.witness_q, witness_b=scan.witness_b,
                witness_delta=scan.witness_delta,
            ))
        except ResourceError as exc:
            rows.append(ExperimentRow(
                N=n, Q=0, d=d, k=k, s=s, J=0,
                measure=float("nan"), measure_err=float("nan"), measure_method="none",
                sup_lb=float("nan"), hs_norm=float("nan"), ratio=float("nan"),
                wall_ms=(time.perf_counter() - t0) * 1e3,
                failed=True, fail_reason=str(exc),
            ))
    return rows


def fit_exponent(rows) -> FitResult:
    """Least-squares slope of log(ratio) against log(N), plus the variant
    with (1/2) log log N added back to remove the logarithmic drag."""
    usable = [r for r in rows if not getattr(r, "failed", False) and math.isfinite(r.ratio) and r.ratio > 0]
    if len(usable) < 3:
        raise InputError(f"exponent fit needs >= 3 successful rows, got {len(usable)}")
    ns = sorted({r.N for r in usable})
    if ns[0] < 2 or len(ns) < 2:
        raise InputError(f"exponent fit needs every N >= 2 and >= 2 distinct N, got N in {ns}")
    xs = np.array([math.log(r.N) for r in usable])
    ys = np.array([math.log(r.ratio) for r in usable])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    ys_corr = ys + 0.5 * np.log(np.log([r.N for r in usable]))
    slope_corr, _ = np.polyfit(xs, ys_corr, 1)
    return FitResult(
        slope=float(slope), intercept=float(intercept), residual=resid,
        n_points=len(usable), log_corrected_slope=float(slope_corr),
    )


def _fmt(x: float) -> str:
    return format(x, ".17g")


def rows_to_csv(rows, header_obj: dict | None = None) -> str:
    """Fixed-column CSV with a single JSON header comment line."""
    buf = io.StringIO()
    if header_obj is not None:
        buf.write("# " + json.dumps(header_obj, sort_keys=True) + "\n")
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow([
            r.N, r.Q, r.J, _fmt(r.measure), _fmt(r.measure_err),
            _fmt(r.sup_lb), _fmt(r.hs_norm), _fmt(r.ratio), _fmt(r.wall_ms),
        ])
    return buf.getvalue()


def rows_from_csv(text: str) -> list[ExperimentRow]:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    reader = csv.DictReader(lines)
    out = []
    for rec in reader:
        try:
            ratio = float(rec["ratio"])
            out.append(ExperimentRow(
                N=int(rec["N"]), Q=int(rec["Q"]), d=0, k=0, s=float("nan"),
                J=int(rec["J"]), measure=float(rec["measure"]),
                measure_err=float(rec["measure_err"]), measure_method="",
                sup_lb=float(rec["sup_lb"]), hs_norm=float(rec["hs_norm"]),
                ratio=ratio, wall_ms=float(rec["wall_ms"]),
                failed=not math.isfinite(ratio),
            ))
        except (KeyError, ValueError, TypeError) as exc:
            raise InputError(f"malformed experiment CSV row {rec!r}: {exc}") from exc
    return out

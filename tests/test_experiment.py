"""Scans, ladder rows, and exponent fitting."""

import math

import pytest

from weylmax.datum import RationalPoint, datum_coefficients
from weylmax.decomp import MainErrorSplit, main_error_split
from weylmax.divset import MeasureResult, build_divergence_set, measure
from weylmax.errors import InputError
from weylmax.experiment import (
    ExperimentConfig,
    ExperimentRow,
    FitResult,
    ScanResult,
    _measure_flag,
    fit_exponent,
    ratio_experiment,
    rows_from_csv,
    rows_to_csv,
    solution_scan,
)
from weylmax.poly import IntPolynomial, family_diagonal, family_power_laplacian
from weylmax.weyl import DeligneReport, weyl_table

from sets import good_rows

P_SQ = family_diagonal(1, 2)
P_UNEQUAL = IntPolynomial(2, {(3, 0): 1, (1, 0): 2, (0, 2): 1, (0, 0): 3})  # X1^3 + 2 X1 + X2^2 + 3
P_SINGULAR = IntPolynomial(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})  # (X1 + X2)^2


def _synthetic_rows(fn, ns=(1024, 2048, 4096, 8192, 16384)):
    return [
        ExperimentRow(
            N=n, Q=0, d=1, k=2, s=0.0, J=0, measure=0.0, measure_err=0.0,
            measure_method="", sup_lb=0.0, hs_norm=0.0, ratio=fn(n), wall_ms=0.0,
        )
        for n in ns
    ]


def test_fit_exact_power_law():
    res = fit_exponent(_synthetic_rows(lambda n: n**0.25))
    assert abs(res.slope - 0.25) < 1e-12
    assert res.residual < 1e-12
    assert res.n_points == 5


def test_fit_log_corrected_removes_drag():
    res = fit_exponent(_synthetic_rows(lambda n: n**0.25 / math.sqrt(math.log(n))))
    assert abs(res.log_corrected_slope - 0.25) < 1e-12


def test_fit_needs_three_rows():
    with pytest.raises(InputError):
        fit_exponent(_synthetic_rows(lambda n: n**0.25, ns=(1024, 2048)))
    with pytest.raises(InputError):
        fit_exponent(_synthetic_rows(lambda n: n**0.25, ns=(1024,)))


def test_fit_skips_failed_rows():
    rows = _synthetic_rows(lambda n: n**0.25)
    rows[0].failed = True
    rows[0].ratio = float("nan")
    res = fit_exponent(rows)
    assert res.n_points == 4
    assert abs(res.slope - 0.25) < 1e-12


def test_scan_full_equals_budgeted_at_j(seed=42):
    f = datum_coefficients(1024, 1)
    x = build_divergence_set(P_SQ, 1024)
    full = solution_scan(P_SQ, f, x, sample_budget=x.ball_count, seed=seed)
    wide = solution_scan(P_SQ, f, x, sample_budget=10 * x.ball_count, seed=seed)
    assert full == wide
    assert full.n_sampled == x.ball_count


def test_scan_budget_subsamples_deterministically():
    f = datum_coefficients(1024, 1)
    x = build_divergence_set(P_SQ, 1024)
    a = solution_scan(P_SQ, f, x, sample_budget=50, seed=7)
    b = solution_scan(P_SQ, f, x, sample_budget=50, seed=7)
    assert a == b
    assert a.n_sampled == 50
    assert a.sup_lb >= solution_scan(P_SQ, f, x, sample_budget=x.ball_count, seed=7).sup_lb


def test_scan_empty_set_rejected():
    import numpy as np
    import weylmax.divset as dv

    x = dv.from_balls(N=1024, d=1, rho=1 / 32, c=0.5, Q=32, balls=np.zeros((0, 2), dtype=np.int64))
    f = datum_coefficients(1024, 1)
    with pytest.raises(InputError):
        solution_scan(P_SQ, f, x, sample_budget=10, seed=0)


def test_scan_lower_bound_strength():
    # every sampled value dominates |M| - |E| at its own ball
    n = 1024
    f = datum_coefficients(n, 1)
    x = build_divergence_set(P_SQ, n)
    scan = solution_scan(P_SQ, f, x, sample_budget=x.ball_count, seed=0)
    floor = None
    for q in x.primes:
        table = weyl_table(P_SQ, q)
        for b in good_rows(x, q)[:, 0]:
            split = main_error_split(P_SQ, f, RationalPoint((b,), q, (0.0,)), table)
            value = abs(split.main) - abs(split.error)
            floor = value if floor is None else min(floor, value)
    assert max(scan.values) >= scan.sup_lb >= 0.9 * floor
    assert scan.sup_lb >= 0.1 * n / math.sqrt(2 * x.Q)


def test_scan_quantiles_ordered():
    # one value per sampled ball, sup_lb their minimum, whole results
    # comparable with ==
    f = datum_coefficients(1024, 1)
    x = build_divergence_set(P_SQ, 1024)
    scan = solution_scan(P_SQ, f, x, sample_budget=300, seed=11)
    assert isinstance(scan.values, tuple) and len(scan.values) == scan.n_sampled == 300
    assert all(math.isfinite(v) and v >= scan.sup_lb > 0 for v in scan.values)
    assert min(scan.values) == scan.sup_lb
    assert scan == solution_scan(P_SQ, f, x, sample_budget=300, seed=11)
    # canonical draw order: with every ball drawn, values follow x.balls()
    full = solution_scan(P_SQ, f, x, sample_budget=x.ball_count, seed=11)
    witness = x.balls().tolist().index([full.witness_q, *full.witness_b])
    assert full.values[witness] == full.sup_lb


@pytest.mark.parametrize("record, field", [
    (IntPolynomial(1, {(2,): 1}), "dim"),
    (RationalPoint(b=(3,), q=17, delta=(0.0,)), "q"),
    (MainErrorSplit(main=1j, error=0j, zhat0=0j, weyl_value=1j), "main"),
    (MeasureResult(0.5, 0.0, "exact", 0.5, 0.5, 1), "estimate"),
    (ExperimentConfig(), "seed"),
    (ScanResult(1.0, 17, (3,), (0.0,), (1.0,), 1), "sup_lb"),
    (FitResult(0.25, 0.0, 0.0, 3, 0.25), "slope"),
    (DeligneReport(1.0, 2.0, True, 2.0, True), "ok"),
], ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_immutable_records_refuse_assignment(record, field):
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


def test_ratio_experiment_leaves_numpy_ma_unimported():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys\n"
        "from weylmax.experiment import ExperimentConfig, ratio_experiment\n"
        "from weylmax.poly import family_diagonal\n"
        "for d in (1, 2):\n"
        "    ratio_experiment(family_diagonal(d, 2), 1 / 3, [512],\n"
        "                     ExperimentConfig(sample_budget=200, mc_samples=1000))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _diagonal_set(p, n):
    """The divergence set of p at scale n; for d = 3, where every usable
    band needs n > 4096, the good sets of a few small primes instead."""
    if p.dim < 3:
        return build_divergence_set(p, n)
    from weylmax.divset import from_balls
    from weylmax.weyl import good_set_for

    primes = [11, 13, 17]
    balls = [(q, tuple(b)) for q in primes for b in good_set_for(p, q, 0.5).members.tolist()]
    return from_balls(n, p.dim, 1 / 32, 0.5, primes[0], balls, p)


@pytest.mark.parametrize("p,n", [
    pytest.param(family_diagonal(2, 2), 512, id="2-2-512"),
    pytest.param(family_diagonal(2, 3), 512, id="2-3-512"),
    pytest.param(family_diagonal(3, 2), 64, id="3-2-64"),
    pytest.param(P_UNEQUAL, 512, id="unequal-parts-512"),
])
def test_split_scan_matches_general_path(monkeypatch, p, n):
    from weylmax import experiment

    d = p.dim
    f = datum_coefficients(n, d)
    x = _diagonal_set(p, n)
    split = solution_scan(p, f, x, sample_budget=400, seed=3)
    monkeypatch.setattr(experiment, "axis_tables", lambda *args: None)
    general = solution_scan(p, f, x, sample_budget=400, seed=3)
    rel = lambda a, b: abs(a - b) / abs(b)
    assert rel(split.sup_lb, general.sup_lb) < 1e-12
    assert len(split.values) == len(general.values) == 400
    assert all(rel(a, b) < 1e-12 for a, b in zip(split.values, general.values))
    assert (split.witness_q, split.witness_b) == (general.witness_q, general.witness_b)
    assert split.witness_delta == general.witness_delta
    assert split.n_sampled == general.n_sampled == 400


def test_ratio_experiment_rejects_non_finite_s():
    for s in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(InputError):
            ratio_experiment(P_SQ, s, [1024, 2048, 4096])


def test_ladder_validation():
    with pytest.raises(InputError):
        ratio_experiment(P_SQ, 0.0, [512, 512])
    with pytest.raises(InputError):
        ratio_experiment(P_SQ, 0.0, [128, 256])
    with pytest.raises(InputError):
        ratio_experiment(P_SQ, 0.0, [])
    with pytest.raises(InputError):
        ratio_experiment(IntPolynomial(1, {(1,): 1}), 0.0, [256, 512, 1024])
    for threads in (0, -3):
        with pytest.raises(InputError):
            ratio_experiment(P_SQ, 0.0, [256, 512, 1024], ExperimentConfig(threads=threads))


def test_unusable_monte_carlo_row_flagged_not_failed():
    # (X1 + X2)^2 is sparse: at seed 42 the N = 1024 estimate (4 hits)
    # lies above the disjoint-sum upper bound, N = 2048's (1 hit) inside
    # the certified bracket
    flagged, inside = ratio_experiment(P_SINGULAR, 0.0, [1024, 2048], ExperimentConfig(sample_budget=200))
    m = measure(build_divergence_set(P_SINGULAR, 1024), samples=200_000, seed=42)
    assert m.estimate > m.upper_bound and flagged.measure == m.estimate
    assert "(4 hits in 200000 samples) is not in the certified" in flagged.fail_reason
    assert inside.fail_reason == ""
    assert not flagged.failed and not inside.failed


def test_fit_sets_the_flagged_row_aside(tmp_path):
    # the flagged (X1 + X2)^2 row at N = 1024, seed 42, between two clean ones
    rows = ratio_experiment(P_SINGULAR, 0.0, [1024, 2048], ExperimentConfig(sample_budget=200))
    flagged = rows[0]
    assert flagged.fail_reason and not flagged.failed
    ladder = [flagged, *_synthetic_rows(lambda n: n**0.25, ns=(512, 2048, 4096))]
    parsed = rows_from_csv(rows_to_csv(ladder, {"seed": 42}))
    assert [(r.fail_reason, r.measure_method) for r in parsed] == \
        [(r.fail_reason, r.measure_method) for r in ladder]
    res = fit_exponent(parsed)
    assert res.set_aside == ((1024, flagged.fail_reason),)
    assert (res.n_points, res.slope) == (3, fit_exponent(ladder[1:]).slope)
    assert fit_exponent(ladder[1:]).set_aside == ()
    # a text without the notes line, as written before it existed, fits every row
    bare = "\n".join(ln for ln in rows_to_csv(ladder).splitlines() if not ln.startswith("#"))
    assert fit_exponent(rows_from_csv(bare)).n_points == 4
    with pytest.raises(InputError, match="notes"):
        rows_from_csv(rows_to_csv(ladder) + '# {"rows": []}\n')


@pytest.mark.parametrize("estimate, method, flagged", [
    (0.0, "montecarlo", True), (1e-6, "montecarlo", True), (3e-6, "montecarlo", False),
    (5e-6, "montecarlo", False), (6e-6, "montecarlo", True), (1e-6, "exact", False),
])
def test_measure_flag(estimate, method, flagged):
    m = MeasureResult(estimate, 0.0, method, upper_bound=5e-6, lower_bound=2e-6, overlap_pairs=9,
                      samples=1_000_000 if method == "montecarlo" else 0)
    assert bool(_measure_flag(m)) == flagged
    assert ("(0 hits in 1000000 samples)" in _measure_flag(m)) == (estimate == 0.0)


@pytest.mark.parametrize("estimate, error, samples, flagged", [
    (5.3e-6, 1e-7, 10**8, False),  # 530 hits, 3 standard errors above the bracket
    (5.5e-6, 1e-7, 10**8, True),  # 5 above
    (1.5e-6, 1e-7, 10**8, True),  # 5 below
    (6e-6, 1e-6, 10**6, True),  # 6 hits: outside, and too few for a standard error
    (6e-6, 1e-6, 10**7, False),  # 60 hits, 1 standard error above
])
def test_measure_flag_allows_sampling_noise(estimate, error, samples, flagged):
    m = MeasureResult(estimate, error, "montecarlo", upper_bound=5e-6, lower_bound=2e-6, overlap_pairs=9,
                      samples=samples)
    assert bool(_measure_flag(m)) == flagged


def test_d2_ladder_rows_within_noise_not_flagged():
    # seed 5, 60 000 samples: each estimate (92 to 120 hits) lies outside a bracket
    # about 0.07 standard errors wide, by 0.11 to 0.77 of them; the fit uses every row
    rows = ratio_experiment(family_diagonal(2, 2), 0.0, [512, 724, 1024],
                            ExperimentConfig(sample_budget=300, mc_samples=60_000, seed=5))
    assert [r.fail_reason for r in rows] == ["", "", ""]
    assert fit_exponent(rows).n_points == 3


def test_rows_deterministic_and_csv_roundtrip():
    cfg = ExperimentConfig(sample_budget=500, seed=9)
    ladder = [256, 512, 1024]
    rows1 = ratio_experiment(P_SQ, 0.0, ladder, cfg)
    rows2 = ratio_experiment(P_SQ, 0.0, ladder, cfg)
    for a, b in zip(rows1, rows2):
        for name in ("N", "Q", "J", "measure", "measure_err", "sup_lb", "hs_norm", "ratio"):
            assert getattr(a, name) == getattr(b, name)
    text = rows_to_csv(rows1, {"seed": 9})
    assert text.startswith("# {")
    parsed = rows_from_csv(text)
    assert [r.N for r in parsed] == ladder
    assert parsed[0].ratio == rows1[0].ratio


def test_ratio_positive_small_d1_ladder():
    rows = ratio_experiment(P_SQ, 0.0, [256, 512, 1024], ExperimentConfig(sample_budget=2000))
    assert all(r.ratio > 0 for r in rows)
    assert all(not r.failed for r in rows)
    # sanity ceiling: sup_lb <= sum of coefficients and measure <= 1, so
    # ratio cannot beat the l1/hs quotient
    for r in rows:
        l1 = float(datum_coefficients(r.N, 1).axis_psi.sum())
        assert r.ratio <= l1 / r.hs_norm


def test_oversized_scale_marks_row_failed_and_continues():
    # the datum axis (about 1.75 N entries) is refused before allocating
    rows = ratio_experiment(P_SQ, 0.0, [256, 10**20, 10**24], ExperimentConfig(sample_budget=10))
    assert [r.failed for r in rows] == [False, True, True]
    assert all("guard" in r.fail_reason for r in rows[1:])


def test_resource_guard_marks_row_failed_and_continues():
    p3 = family_diagonal(3, 2)
    rows = ratio_experiment(p3, 0.0, [4100, 8192], ExperimentConfig(sample_budget=10))
    assert len(rows) == 2
    assert all(r.failed for r in rows)
    assert all(r.fail_reason for r in rows)
    assert all(math.isnan(r.ratio) for r in rows)


def test_sample_guard_marks_row_failed(monkeypatch):
    from weylmax import divset

    monkeypatch.setattr(divset, "MC_SAMPLE_GUARD", 1000)
    cfg = ExperimentConfig(sample_budget=10, mc_samples=1001)
    rows = ratio_experiment(family_diagonal(2, 2), 0.0, [512], cfg)
    assert rows[0].failed and "guard" in rows[0].fail_reason


@pytest.mark.slow
@pytest.mark.parametrize("k", [2, 3])
def test_monotone_positive_slope_d2(k):
    p = family_diagonal(2, k)
    cfg = ExperimentConfig(sample_budget=1500, mc_samples=60_000, seed=5)
    rows = ratio_experiment(p, 0.0, [1024, 2048, 4096], cfg)
    assert all(not r.failed for r in rows)
    res = fit_exponent(rows)
    assert res.slope > 0


@pytest.mark.parametrize("p,n", [
    pytest.param(family_diagonal(1, 2), 2048, id="1-2048"),
    pytest.param(family_diagonal(2, 2), 512, id="2-512"),
    pytest.param(family_power_laplacian(2, 2), 512, id="laplacian2-512"),
])
def test_scan_shifted_values_match_exact_refold(p, n):
    import numpy as np

    from weylmax import experiment
    from weylmax.decomp import fold, folded_eval
    from weylmax.weyl import axis_tables, phase_index, roots_of_unity

    d = p.dim
    f = datum_coefficients(n, d)
    x = build_divergence_set(p, n)
    rng = np.random.default_rng(1)
    budget = x.rho / (d * n)
    worst = 0.0
    for q in x.primes[::4]:
        rows = good_rows(x, q)[:: max(1, len(good_rows(x, q)) // 8)]
        deltas = rng.uniform(-budget, budget, size=rows.shape)
        deltas[::3] = 0.0  # the center values of the contraction path
        mom = experiment._moments(f, [q])[0]
        if d == 1:
            tables = axis_tables(p, q, mom)[0]
            got = experiment._axis_values(tables, rows[:, 0], deltas[:, 0], n)[1]
        else:
            pg = roots_of_unity(q)[phase_index(p, (), q)]
            got = experiment._shifted_values(mom, pg, rows, deltas, n)[1]
        for row, delta, val in zip(rows, deltas, got):
            exact = abs(folded_eval(fold(f, q, delta), p, row))
            worst = max(worst, abs(val - exact) / exact)
    assert worst < 1e-12


@pytest.mark.parametrize("p,n", [
    pytest.param(family_diagonal(1, 2), 2048, id="1-2048"),
    pytest.param(family_diagonal(2, 2), 512, id="2-2-512"),
    pytest.param(family_diagonal(2, 3), 512, id="2-3-512"),
    pytest.param(family_power_laplacian(2, 2), 512, id="laplacian2-512"),
])
def test_scan_witness_reproduces_sup_lb(p, n):
    from weylmax.datum import evaluate_solution

    f = datum_coefficients(n, p.dim)
    x = build_divergence_set(p, n)
    for seed in range(3):
        scan = solution_scan(p, f, x, sample_budget=200, seed=seed)
        pt = RationalPoint(scan.witness_b, scan.witness_q, scan.witness_delta)
        exact = abs(evaluate_solution(p, f, pt))
        assert abs(exact - scan.sup_lb) / scan.sup_lb < 1e-12


def test_scan_flat_sampling_matches_ball_list():
    import numpy as np

    x = build_divergence_set(family_diagonal(2, 2), 512)
    balls = x.ball_list()
    for budget in (1, 700, len(balls), 10 * len(balls)):
        # the draw of solution_scan, decoded by DivergenceSet.balls
        if budget < len(balls):
            idx = np.sort(np.random.default_rng(4).choice(len(balls), size=budget, replace=False))
            table = x.balls(idx)
        else:
            table = x.balls()
        got = [(q, tuple(b)) for q, *b in table.tolist()]
        if budget < len(balls):
            assert got == [balls[int(i)] for i in idx]
        else:
            assert got == balls
        assert (np.diff(table[:, 0]) >= 0).all()  # each prime's rows are one contiguous block


def test_scan_small_taylor_order_trips_tail_check(monkeypatch):
    from weylmax import experiment
    from weylmax.errors import InvariantError

    f = datum_coefficients(1024, 1)
    x = build_divergence_set(P_SQ, 1024)
    solution_scan(P_SQ, f, x, sample_budget=50, seed=0)
    monkeypatch.setattr(experiment, "TAYLOR_TERMS", 3)
    with pytest.raises(InvariantError):
        solution_scan(P_SQ, f, x, sample_budget=50, seed=0)


def test_log_taylor_tail_matches_the_linear_bound():
    from weylmax.experiment import TAYLOR_TERMS, _log_taylor_tail

    for d in (1, 2, 3):
        for l1 in (1.0, 37.5, 3e4):
            for x_max in (1e-3, 0.05, 0.39, 1.0, 7.5, 40.0, 100.0):
                eta = x_max**TAYLOR_TERMS * math.exp(x_max) / math.factorial(TAYLOR_TERMS)
                linear = l1**d * math.expm1(d * math.log1p(eta))
                ceiling = (l1 * (1 + eta)) ** d
                log_tail, log_share = _log_taylor_tail(x_max, l1, d)
                assert log_tail == pytest.approx(math.log(linear), rel=1e-12)
                assert math.exp(log_share) == pytest.approx(linear / ceiling, rel=1e-12)
            # past about 709 the linear form overflows; the log form stays finite
            for x_max in (1e6, 1e300):
                log_tail, log_share = _log_taylor_tail(x_max, l1, d)
                assert math.isfinite(log_tail) and log_share == 0.0
            assert _log_taylor_tail(0.0, l1, d) == (-math.inf, -math.inf)


def _bincount_moments(f, q):
    """The per-prime moment fold the shared power table replaced: K
    np.bincount scatters over the support, kept as the oracle."""
    import numpy as np

    from weylmax.experiment import TAYLOR_TERMS

    idx = (f.axis_n % q).astype(np.int64)
    t = f.axis_n / f.N
    w = f.axis_psi.copy()
    out = np.empty((TAYLOR_TERMS, q))
    for j in range(TAYLOR_TERMS):
        out[j] = np.bincount(idx, weights=w, minlength=q)
        w *= t
    return out


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [2048, 8192])
@pytest.mark.parametrize("blocks", [None, 1, 3, 20])
def test_moments_fold_equals_bincount_oracle(monkeypatch, d, n, blocks):
    import numpy as np

    from weylmax import experiment
    from weylmax.decomp import fold_axis
    from weylmax.numtheory import is_prime

    f = datum_coefficients(n, d)
    primes = [q for q in range(2, int(math.isqrt(n)) + 1) if is_prime(q)]
    # axis_n[0] is 3^3 * 19 at n = 2048 and 7 * 293 at n = 8192
    offsets = {int(f.axis_n[0]) % q for q in primes}
    assert 0 in offsets and len(offsets) > 1
    if blocks is not None:  # None keeps the default budget
        height = len(f.axis_n) + 2 * max(primes)
        # the table holds ceil(K / blocks) columns, so the K columns take `blocks` blocks
        monkeypatch.setattr(experiment, "_MOMENT_ENTRIES", height * -(-experiment.TAYLOR_TERMS // blocks))
    got = experiment._moments(f, primes)
    assert len(got) == len(primes)
    for q, mom in zip(primes, got):
        assert mom.shape == (experiment.TAYLOR_TERMS, q)
        assert np.array_equal(mom, _bincount_moments(f, q))
        assert np.array_equal(mom[0], fold_axis(f, q, 0.0).real)


@pytest.mark.parametrize("p, n", [(P_SQ, 2048), (family_diagonal(2, 2), 512),
                                   (family_power_laplacian(2, 2), 512)], ids=["d1", "d2", "mixed"])
def test_moment_groups_of_one_prime_give_the_same_scan(monkeypatch, p, n):
    from weylmax import experiment

    f = datum_coefficients(n, p.dim)
    x = build_divergence_set(p, n)
    assert experiment._moment_groups(x.primes) == [x.primes]  # the default budget: one group
    want = solution_scan(p, f, x, sample_budget=400, seed=3)
    calls = []
    real = experiment._moments

    def spy(f, primes):
        calls.append(list(primes))
        return real(f, primes)

    monkeypatch.setattr(experiment, "_MOMENT_BYTES", 1)
    monkeypatch.setattr(experiment, "_moments", spy)
    assert solution_scan(p, f, x, sample_budget=400, seed=3) == want
    assert len(calls) > 1 and all(len(group) == 1 for group in calls)


def test_moment_groups_cut_at_the_budget(monkeypatch):
    from weylmax import experiment

    # a budget of exactly the moments of 5 and 7; 23 alone is over it
    monkeypatch.setattr(experiment, "_MOMENT_BYTES", 8 * experiment.TAYLOR_TERMS * 12)
    assert experiment._moment_groups([5, 7, 11, 13, 23, 3]) == [[5, 7], [11], [13], [23], [3]]
    assert experiment._moment_groups([]) == []


def test_scan_tail_checked_before_the_moments(monkeypatch):
    from weylmax import experiment
    from weylmax.errors import InvariantError

    f = datum_coefficients(1024, 1)
    l1, x_scale = float(f.axis_psi.sum()), 2.0 * math.pi * float(f.axis_n.max()) / 1024
    # rho = 0.16: the tail is above 1e-12 of the ceiling (psi_1 (1 + eta))^d on every
    # shifted value, so the scan stops before any moment is formed
    assert math.exp(experiment._log_taylor_tail(0.16 * x_scale, l1, 1)[1]) > experiment.TAIL_REL_TOL
    x = build_divergence_set(P_SQ, 1024, rho=0.16)

    def no_moments(*args):
        raise AssertionError("moments formed before the tail check")

    with monkeypatch.context() as m:
        m.setattr(experiment, "_moments", no_moments)
        with pytest.raises(InvariantError, match="ceiling on every shifted value"):
            solution_scan(P_SQ, f, x, sample_budget=50, seed=0)
    # rho = 0.14: the share is below 1e-12, so only the check after the scan,
    # against the smallest shifted value, trips
    assert math.exp(experiment._log_taylor_tail(0.14 * x_scale, l1, 1)[1]) < experiment.TAIL_REL_TOL
    x = build_divergence_set(P_SQ, 1024, rho=0.14)
    with pytest.raises(InvariantError, match="smallest shifted value"):
        solution_scan(P_SQ, f, x, sample_budget=50, seed=0)


def test_scan_result_fields_are_python_scalars():
    f = datum_coefficients(1024, 1)
    x = build_divergence_set(P_SQ, 1024)
    scan = solution_scan(P_SQ, f, x, sample_budget=50, seed=0)
    assert type(scan.n_sampled) is int and type(scan.witness_q) is int
    assert all(type(v) is int for v in scan.witness_b)

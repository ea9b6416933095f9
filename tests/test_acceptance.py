"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured quantity against its pinned tolerance.

Run as: pytest tests/test_acceptance.py -v -s
"""

import itertools
import math

import numpy as np
import pytest

from weylmax.cli import dispatch
from weylmax.datum import RationalPoint, datum_coefficients, evaluate_solution
from weylmax.decomp import (
    discrete_laplacian,
    fold,
    folded_eval,
    main_error_split,
    sbp_check,
)
from weylmax.divset import build_divergence_set, measure
from weylmax.experiment import ExperimentConfig, fit_exponent, ratio_experiment
from weylmax.numtheory import lattice_pair_count, primes_in_band
from weylmax.poly import IntPolynomial, family_diagonal, family_power_laplacian
from weylmax.weyl import deligne_check, good_set, parseval_defect, weyl_table

from sets import good_rows

P_SQ = family_diagonal(1, 2)
P_CUBE = family_diagonal(1, 3)
P_QUARTIC = IntPolynomial(1, {(4,): 1, (1,): 1})
P_CUBE2 = family_diagonal(2, 3)
P_LAP2 = family_power_laplacian(2, 2)

MATRIX = [P_SQ, P_CUBE, P_QUARTIC, P_CUBE2, P_LAP2]

LADDER = [2**j for j in range(10, 16)]
CONFIG = ExperimentConfig(seed=42, sample_budget=10_000)


def laplacian_symbol(ell, q: int) -> float:
    """Eigenvalue of the cyclic Laplacian on e(-r.l/q): -4 sum_j sin^2(pi l_j / q)."""
    return float(-4.0 * sum(np.sin(np.pi * lj / q) ** 2 for lj in ell))


def report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def ladder_k2():
    return ratio_experiment(P_SQ, 0.0, LADDER, CONFIG)


@pytest.fixture(scope="module")
def ladder_k3():
    return ratio_experiment(P_CUBE, 0.0, LADDER, CONFIG)


@pytest.fixture(scope="module")
def ladder_k2_critical():
    return ratio_experiment(P_SQ, 0.25, LADDER, CONFIG)


def test_00_selftest_prerequisite(capsys):
    code = dispatch(["selftest"])
    out = capsys.readouterr().out
    with capsys.disabled():
        print()
        ok = report(0, "selftest-prerequisite", code == 0, f"exit code {code}")
    assert ok, out


def test_01_parseval_identity():
    worst = 0.0
    tables = 0
    for p in MATRIX:
        k = p.degree()
        for q in primes_in_band(2, 102):
            if k % q == 0:
                continue
            worst = max(worst, parseval_defect(weyl_table(p, q)))
            tables += 1
    ok = report(1, "parseval-identity", worst < 1e-9,
                f"max relative defect {worst:.3e} over {tables} tables")
    assert ok


def test_02_gauss_sum_exactness():
    worst = 0.0
    for q in primes_in_band(3, 998):
        t = weyl_table(P_SQ, q)
        dev = float(np.abs(np.abs(t.values) - math.sqrt(q)).max()) / math.sqrt(q)
        worst = max(worst, dev)
    ok = report(2, "gauss-sum-exactness", worst < 1e-9,
                f"worst relative deviation {worst:.3e} over all odd primes <= 997")
    assert ok


def test_03_degree_bound_on_sums():
    failures = []
    classical_ok = True
    for p, qhi in ((P_CUBE, 500), (P_CUBE2, 102)):
        d = p.dim
        for q in primes_in_band(5, qhi):
            if q == 3:
                continue
            rep = deligne_check(weyl_table(p, q), 3)
            if not rep.ok:
                failures.append((d, q, round(rep.max_modulus, 2), round(rep.bound, 2)))
            if rep.max_modulus > 2**d * q ** (d / 2) * (1 + 1e-12):
                classical_ok = False
    detail = "all sums within 2*q^(d/2)" if not failures else (
        f"{len(failures)} violations of 2*q^(d/2), all at d=2; first: "
        f"d={failures[0][0]} q={failures[0][1]} max|S|={failures[0][2]} > {failures[0][3]}; "
        f"the classical constant (k-1)^d q^(d/2) {'does hold' if classical_ok else 'also fails'} "
        f"at every tested prime"
    )
    ok = report(3, "degree-bound-on-sums", not failures, detail)
    assert ok, detail


def test_04_good_set_density():
    worst = 1.0
    for p, qhi in ((P_CUBE, 500), (P_CUBE2, 102)):
        for q in primes_in_band(5, qhi):
            if q == 3:
                continue
            gs = good_set(weyl_table(p, q), 0.5)
            worst = min(worst, gs.density)
    floor = (1 - 0.25) / 4
    ok = report(4, "good-set-density", worst >= floor,
                f"min density {worst:.4f} >= {floor}")
    assert ok


def test_05_lattice_lemma_exhaustive():
    worst_ratio = 0.0
    mismatches = 0
    thresholds = (0.5, 1.0, 2.0, 5.0, 10.0)
    for q in range(1, 129):
        col = np.arange(1, q + 1, dtype=np.int64)[:, None]
        for qp in range(1, 129):
            s = np.abs(col * qp - np.arange(1, qp + 1, dtype=np.int64)[None, :] * q)
            for a in thresholds:
                brute = int(np.count_nonzero((s > 0) & (s <= a)))
                fast = lattice_pair_count(q, qp, a)
                if fast != brute:
                    mismatches += 1
                if fast > 0:
                    worst_ratio = max(worst_ratio, fast / (2 * a))
    ok = report(5, "lattice-lemma-exhaustive", mismatches == 0 and worst_ratio <= 1.0,
                f"fast=brute on 128x128x5 grid, worst count/(2A) = {worst_ratio:.3f}")
    assert ok


def test_06_decomposition_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    cases = []
    for _ in range(50):
        n = int(rng.integers(256, 8193))
        cases.append((P_SQ if rng.integers(2) else P_CUBE, n, 1))
    for _ in range(50):
        n = int(rng.integers(256, 769))
        cases.append((P_CUBE2 if rng.integers(2) else P_LAP2, n, 2))
    for p, n, d in cases:
        f = datum_coefficients(n, d)
        qmax = min(n // 4 - 1, 97)
        band = list(primes_in_band(5, qmax + 1))
        q = int(band[rng.integers(len(band))])
        b = tuple(int(v) for v in rng.integers(0, q, size=d))
        budget = (1 / 32) / (d * n)
        delta = tuple(float(v) for v in rng.uniform(-budget, budget, size=d))
        pt = RationalPoint(b=b, q=q, delta=delta)
        split = main_error_split(p, f, pt, weyl_table(p, q))
        u = evaluate_solution(p, f, pt)
        worst = max(worst, abs(split.main + split.error - u) / abs(u))
    ok = report(6, "decomposition-identity", worst < 1e-9,
                f"max relative defect {worst:.3e} over 100 random tuples")
    assert ok


def test_07_error_domination():
    n = 2**14
    f = datum_coefficients(n, 1)
    x = build_divergence_set(P_SQ, n)
    assert x.Q == 2**7
    worst = 0.0
    for q in x.primes:
        table = weyl_table(P_SQ, q)
        z = fold(f, q, (0.0,))
        zh0 = z.zhat0()
        for b in good_rows(x, q)[:, 0]:
            m = zh0 * table.values[b]
            e = folded_eval(z, P_SQ, (b,)) - m
            worst = max(worst, abs(e) / abs(m))
    ok = report(7, "error-domination", worst <= 0.5,
                f"max |E|/|M| = {worst:.3e} over all band primes and good residues")
    assert ok


def test_08_measure_law():
    vals = []
    lower = []
    for j in range(10, 17):
        x = build_divergence_set(P_SQ, 2**j)
        res = measure(x, "exact")
        lq = math.log(x.Q)
        vals.append(res.estimate * lq)
        lower.append(res.lower_bound * lq)
    combined = vals + lower
    spread = max(combined) / min(combined)
    ok = report(8, "measure-law", spread <= 4.0,
                f"|X_N| log Q in [{min(combined):.4f}, {max(combined):.4f}], spread x{spread:.2f}")
    assert ok


def test_09_blowup_exponent(ladder_k2, ladder_k3):
    r2 = [r.ratio for r in ladder_k2]
    r3 = [r.ratio for r in ladder_k3]
    increasing = all(b > a for a, b in zip(r2, r2[1:])) and all(
        b > a for a, b in zip(r3, r3[1:])
    )
    fit2 = fit_exponent(ladder_k2)
    fit3 = fit_exponent(ladder_k3)
    in_band = 0.18 <= fit2.log_corrected_slope <= 0.32 and 0.18 <= fit3.log_corrected_slope <= 0.32
    close = abs(fit2.log_corrected_slope - fit3.log_corrected_slope) < 0.1
    ok = report(
        9, "blowup-exponent", increasing and in_band and close,
        f"slopes {fit2.log_corrected_slope:.3f} (k=2) / {fit3.log_corrected_slope:.3f} (k=3), "
        f"target 0.25, strictly increasing: {increasing}",
    )
    assert ok


def test_10_critical_flatness(ladder_k2_critical):
    fit = fit_exponent(ladder_k2_critical)
    ok = report(10, "critical-flatness", abs(fit.log_corrected_slope) <= 0.08,
                f"log-corrected slope {fit.log_corrected_slope:+.4f} at s = 0.25")
    assert ok


def test_11_summation_by_parts():
    rng = np.random.default_rng(11)
    worst_res = 0.0
    for i in range(100):
        q = (5, 17)[i % 2]
        d = 1 if i % 3 else 2
        shape = (q,) * d
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        worst_res = max(worst_res, sbp_check(g, h))
    worst_eig = 0.0
    for q in (5, 17, 101):
        r = np.arange(q)
        for ell in range(q):
            basis = np.exp(-2j * np.pi * r * ell / q)
            dev = np.abs(discrete_laplacian(basis) - laplacian_symbol((ell,), q) * basis).max()
            worst_eig = max(worst_eig, float(dev))
        stencil = np.zeros((q, q))
        stencil[0, 0] = -4.0
        for idx in ((1, 0), (q - 1, 0), (0, 1), (0, q - 1)):
            stencil[idx] += 1.0
        eig = np.fft.fftn(stencil)
        for ell in np.ndindex(q, q):
            worst_eig = max(worst_eig, abs(eig[ell] - laplacian_symbol(ell, q)))
    ok = report(11, "summation-by-parts", worst_res < 1e-10 and worst_eig < 1e-10,
                f"max residual {worst_res:.3e}, max eigenrelation defect {worst_eig:.3e}")
    assert ok

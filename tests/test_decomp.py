"""Folding, the main/error split, and summation by parts; discrete
spectra of folds come from a numpy FFT here."""

import math

import numpy as np
import pytest

from weylmax.datum import RationalPoint, datum_coefficients, evaluate_solution
from weylmax.decomp import (
    discrete_laplacian,
    fold,
    folded_eval,
    main_error_split,
    sbp_check,
)
from weylmax.divset import build_divergence_set
from weylmax.errors import InputError
from weylmax.poly import family_diagonal
from weylmax.weyl import weyl_table

from sets import good_rows

P_SQ = family_diagonal(1, 2)


def spectrum(values: np.ndarray) -> np.ndarray:
    """All discrete Fourier coefficients Zhat(l) = q^-d sum_r Z(r) e(-r.l/q)
    of a fold Z of shape (q,)*d."""
    return np.fft.fftn(values) / float(values.shape[0]) ** values.ndim


def laplacian_symbol(ell, q: int) -> float:
    """Eigenvalue of the cyclic Laplacian on e(-r.l/q): -4 sum_j sin^2(pi l_j / q)."""
    return float(-4.0 * sum(np.sin(np.pi * lj / q) ** 2 for lj in ell))


def test_fold_conserves_mass_and_positivity():
    f = datum_coefficients(64, 1)
    z = fold(f, 5, (0.0,))
    assert z.values.shape == (5,)
    assert np.all(z.values.real > 0)
    assert np.abs(z.values.imag).max() == 0.0
    assert abs(z.values.sum() - f.axis_psi.sum()) < 1e-12 * f.axis_psi.sum()


def test_fold_value_bound():
    n, q = 64, 5
    f = datum_coefficients(n, 1)
    z = fold(f, q, (0.0,))
    assert np.abs(z.values).max() <= math.ceil(1.75 * n / q)


def test_fold_rejects_large_modulus():
    f = datum_coefficients(64, 1)
    with pytest.raises(InputError):
        fold(f, 17, (0.0,))


def test_fold_matches_direct_grouping():
    f = datum_coefficients(64, 1)
    delta = 2e-4
    z = fold(f, 7, (delta,))
    vals = f.axis_psi * np.exp(2j * np.pi * delta * f.axis_n)
    for r in range(7):
        direct = vals[f.axis_n % 7 == r].sum()
        assert abs(z.values[r] - direct) < 1e-12 * abs(direct)


def test_zhat0_scaling():
    for n, q, d in ((256, 5, 1), (256, 13, 1), (128, 7, 2)):
        f = datum_coefficients(n, d)
        z = fold(f, q, (0.0,) * d)
        expected = (1.125 * n / q) ** d
        assert abs(abs(z.zhat0()) / expected - 1.0) < 0.1


def test_spectrum_orthogonality_cases():
    q = 11
    hat = spectrum(np.ones(q, dtype=complex))
    assert abs(hat[0] - 1.0) < 1e-12
    assert np.abs(hat[1:]).max() < 1e-12

    ell0 = 4
    vals = np.exp(2j * np.pi * np.arange(q) * ell0 / q)
    hat = spectrum(vals)
    assert abs(hat[ell0] - 1.0) < 1e-12
    mask = np.ones(q, dtype=bool)
    mask[ell0] = False
    assert np.abs(hat[mask]).max() < 1e-12


def test_spectrum_decay_of_realistic_fold():
    f = datum_coefficients(256, 1)
    z = fold(f, 17, (0.0,))
    hat = spectrum(z.values)
    zhat0 = abs(hat[0])
    assert np.abs(hat[1:]).max() <= zhat0
    # one summation-by-parts pass bounds every off-zero coefficient
    lap_z = discrete_laplacian(z.values)
    total = np.abs(lap_z).sum()
    for ell in range(1, 17):
        bound = total / (17 * abs(laplacian_symbol((ell,), 17)))
        assert abs(hat[ell]) <= bound * (1 + 1e-9)


def test_split_reconstruction_identity():
    f = datum_coefficients(256, 1)
    pt = RationalPoint(b=(3,), q=17, delta=(0.0,))
    split = main_error_split(P_SQ, f, pt, weyl_table(P_SQ, 17))
    u = evaluate_solution(P_SQ, f, pt)
    assert abs(split.main + split.error - u) <= 1e-9 * abs(u)


def test_split_error_matches_spectral_form():
    f = datum_coefficients(256, 1)
    q = 17
    pt = RationalPoint(b=(5,), q=q, delta=(1e-5,))
    table = weyl_table(P_SQ, q)
    split = main_error_split(P_SQ, f, pt, table)
    hat = spectrum(fold(f, q, pt.delta).values)
    e_spectral = sum(
        hat[ell] * table.values[(pt.b[0] + ell) % q] for ell in range(1, q)
    )
    assert abs(split.error - e_spectral) <= 1e-9 * abs(split.main)


def test_split_main_term_lower_bound():
    # |M| >= 1.125^d * c * (1 - eps) * (N/q)^d * q^(d/2) on the good set
    n, q = 4096, 67
    f = datum_coefficients(n, 1)
    table = weyl_table(P_SQ, q)
    for b in range(q):
        split = main_error_split(P_SQ, f, RationalPoint((b,), q, (0.0,)), table)
        floor = 1.125 * 0.5 * (1 - 1e-6) * (n / q) * math.sqrt(q)
        assert abs(split.main) >= floor


def test_split_rejects_mismatched_modulus():
    f = datum_coefficients(256, 1)
    pt = RationalPoint(b=(3,), q=17, delta=(0.0,))
    with pytest.raises(InputError):
        main_error_split(P_SQ, f, pt, weyl_table(P_SQ, 19))


def test_error_ratio_shrinks_along_coupling():
    worsts = []
    for n in (2**10, 2**12, 2**14):
        f = datum_coefficients(n, 1)
        x = build_divergence_set(P_SQ, n)
        worst = 0.0
        for q in x.primes:
            table = weyl_table(P_SQ, q)
            z = fold(f, q, (0.0,))
            for b in good_rows(x, q)[:, 0]:
                m = z.zhat0() * table.values[b]
                e = folded_eval(z, P_SQ, (b,)) - m
                worst = max(worst, abs(e) / abs(m))
        worsts.append(worst)
    assert worsts[0] > worsts[1] > worsts[2]
    assert worsts[0] < 0.5


def test_laplacian_constant_and_symbol_zero():
    g = np.full((5, 5), 3.7)
    assert np.abs(discrete_laplacian(g)).max() == 0.0
    assert laplacian_symbol((0, 0), 5) == 0.0


@pytest.mark.parametrize("q", [5, 17, 101])
def test_laplacian_eigenrelation_d1(q):
    r = np.arange(q)
    for ell in range(q):
        g = np.exp(-2j * np.pi * r * ell / q)
        lhs = discrete_laplacian(g)
        assert np.abs(lhs - laplacian_symbol((ell,), q) * g).max() < 1e-10


@pytest.mark.parametrize("q", [5, 17])
def test_laplacian_eigenrelation_d2(q):
    r = np.arange(q)
    for l1 in range(q):
        for l2 in range(q):
            g = np.exp(-2j * np.pi * (r[:, None] * l1 + r[None, :] * l2) / q)
            lhs = discrete_laplacian(g)
            assert np.abs(lhs - laplacian_symbol((l1, l2), q) * g).max() < 1e-10


@pytest.mark.parametrize("q,d", [(5, 1), (17, 1), (101, 1), (5, 2), (17, 2), (101, 2)])
def test_laplacian_symbol_via_stencil_transform(q, d):
    # the DFT of the Laplacian stencil is its eigenvalue at every frequency
    stencil = np.zeros((q,) * d)
    center = (0,) * d
    stencil[center] = -2 * d
    for j in range(d):
        for sgn in (1, -1):
            idx = list(center)
            idx[j] = sgn % q
            stencil[tuple(idx)] += 1
    eig = np.fft.fftn(stencil)
    for ell in np.ndindex(*stencil.shape):
        assert abs(eig[ell] - laplacian_symbol(ell, q)) < 1e-10


def test_sbp_residuals():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = rng.normal(size=17) + 1j * rng.normal(size=17)
        h = rng.normal(size=17) + 1j * rng.normal(size=17)
        norm = np.linalg.norm(g) * np.linalg.norm(h)
        assert sbp_check(g, h) < 1e-10 * norm
    g = rng.normal(size=(7, 7))
    assert sbp_check(g, g) == 0.0
    const = np.full(13, 2.5)
    h = rng.normal(size=13)
    assert sbp_check(const, h) < 1e-10

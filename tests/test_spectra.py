import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualchain import errors, kernels, spectra
from dualchain.chains import (
    bd_kernel,
    make_bd,
    moran_kernel,
    mutation_bias,
    reflected_walk_params,
)
from dualchain.samplers import random_monotone_bd
from dualchain.spectra import (
    Spectrum,
    bd_spectrum,
    bernoulli_laplace_params,
    bernoulli_laplace_weights,
    moran_mutation_spectrum,
    orthopoly_oracle,
    orthopoly_roots,
    spectral_weights,
    spectrum_monotonicity_checks,
    tridiagonal_eigenvalues,
)


def test_spectrum_validation():
    with pytest.raises(errors.SpectrumError):
        Spectrum(np.array([0.9, 0.5]))  # t_0 != 1
    with pytest.raises(errors.SpectrumError):
        Spectrum(np.array([1.0, -1.2]))
    with pytest.raises(errors.SpectrumError):
        Spectrum(np.array([1.0, 0.5, 0.5]))
    with pytest.raises(errors.SpectrumError):
        Spectrum(np.array([1.0, 0.5]), weights=np.array([0.7, 0.7]))
    s = Spectrum(np.array([1.0, 0.25]), weights=np.array([0.5, 0.5]))
    assert s.gap == pytest.approx(0.75)


def test_bd_spectrum_matches_dense_eigensolver(rng):
    for _ in range(20):
        N = int(rng.integers(2, 25))
        params = random_monotone_bd(rng, N)
        t = bd_spectrum(params).eigenvalues
        ref = np.sort(np.linalg.eigvals(bd_kernel(params).matrix).real)[::-1]
        np.testing.assert_allclose(t, ref, atol=1e-10)


def _moran_tridiagonal(n):
    # the symmetrised Moran (n, .1, .1) kernel, cut to its first n states
    params = moran_kernel(n, mutation_bias(0.1, 0.1, n))
    return params.r[:n], np.sqrt(params.p[: n - 1] * params.q[1:n])


@pytest.mark.parametrize("n", [1, 2, 41, spectra.DENSE_EIGVALS_MAX,
                               spectra.DENSE_EIGVALS_MAX + 1])
def test_tridiagonal_eigenvalues_match_scipy_bitwise(n):
    # both sides of the size selection end in LAPACK dsterf on the same
    # tridiagonal, so the dense numpy branch returns SciPy's bits
    from scipy.linalg import eigvalsh_tridiagonal

    rng = np.random.default_rng(n)
    for d, e in [(rng.normal(size=n), rng.normal(size=n - 1)), _moran_tridiagonal(n)]:
        got = tridiagonal_eigenvalues(d, e)
        assert np.array_equal(got, eigvalsh_tridiagonal(d, e))
        assert np.all(np.diff(got) >= 0)


def test_bd_spectrum_requires_irreducible():
    params = make_bd(p=[0.0, 0.5, 0.0], q=[0.0, 0.5, 0.0])
    with pytest.raises(errors.NotIrreducibleError):
        bd_spectrum(params)


def test_orthopoly_oracle_annihilates_spectrum(rng):
    for _ in range(10):
        N = int(rng.integers(2, 30))
        params = random_monotone_bd(rng, N)
        t = bd_spectrum(params).eigenvalues
        _, R = orthopoly_oracle(params, t)
        grid = np.linspace(-1, 1, 101)
        _, scale = orthopoly_oracle(params, grid)
        assert np.max(np.abs(R)) <= 1e-8 * np.max(np.abs(scale))


def test_orthopoly_roots_match_eigensolver(rng):
    for _ in range(10):
        N = int(rng.integers(2, 15))
        params = random_monotone_bd(rng, N)
        roots = orthopoly_roots(params)
        np.testing.assert_allclose(
            roots[::-1], bd_spectrum(params).eigenvalues, atol=1e-9
        )


def test_orthopoly_oracle_needs_positive_up_rates():
    params = make_bd(p=[0.0, 0.5, 0.0], q=[0.0, 0.5, 0.0])
    with pytest.raises(errors.ZeroUpProbabilityError):
        orthopoly_oracle(params, 0.5)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 60),
    st.floats(0.05, 0.95),
    st.floats(0.05, 0.95),
)
def test_moran_mutation_spectrum_closed_form(N, a1, a2):
    t = moran_mutation_spectrum(N, a1, a2)
    params = moran_kernel(N, mutation_bias(a1, a2, N))
    np.testing.assert_allclose(
        t.eigenvalues, bd_spectrum(params).eigenvalues, atol=1e-10
    )
    assert t.gap == pytest.approx((a1 + a2) / N, abs=1e-12)


def test_moran_mutation_spectrum_large_n():
    # the closed form stays in step with the solver up to N = 100
    t = moran_mutation_spectrum(100, 0.3, 0.2)
    params = moran_kernel(100, mutation_bias(0.3, 0.2, 100))
    np.testing.assert_allclose(
        t.eigenvalues, bd_spectrum(params).eigenvalues, atol=1e-10
    )


def test_reflected_walk_spectrum_closed_form(rng):
    # {1} plus 1 - p - q + 2 sqrt(pq) cos(k pi / (N+1)), k = 1..N
    for p, q, N in [(0.3, 0.25, 4), (0.5, 0.5, 2), (0.2, 0.7, 7), (0.45, 0.45, 11)]:
        params = reflected_walk_params(N, p, q)
        k = np.arange(1, N + 1)
        closed = 1 - p - q + 2 * np.sqrt(p * q) * np.cos(k * np.pi / (N + 1))
        expected = np.sort(np.concatenate([[1.0], closed]))[::-1]
        np.testing.assert_allclose(
            bd_spectrum(params).eigenvalues, expected, atol=1e-10
        )


def test_reflected_walk_symmetric_case():
    # p = q = 1/2, N = 2: eigenvalues 1, 1/2, -1/2 and never -1
    t = bd_spectrum(reflected_walk_params(2, 0.5, 0.5)).eigenvalues
    np.testing.assert_allclose(t, [1.0, 0.5, -0.5], atol=1e-12)
    assert t[-1] > -1 + 1e-6


def test_bernoulli_laplace_small_case():
    params = bernoulli_laplace_params(2)
    t = bd_spectrum(params).eigenvalues
    np.testing.assert_allclose(t, [1.0, 0.0, -0.5], atol=1e-12)
    mu = bernoulli_laplace_weights(2)
    np.testing.assert_allclose(mu, [1 / 6, 1 / 2, 1 / 3], atol=1e-12)
    assert mu.sum() == pytest.approx(1.0)
    # full-strength mutation reproduces the swap-chain spectrum
    np.testing.assert_allclose(
        moran_mutation_spectrum(2, 1.0, 1.0).eigenvalues, t, atol=1e-12
    )


def test_spectral_weights_basics(chain_b):
    spec = spectral_weights(chain_b)
    assert spec.weights is not None
    np.testing.assert_allclose(spec.weights.sum(), 1.0, atol=1e-12)
    assert spec.weights[0] == pytest.approx(kernels.stationary(chain_b)[0], abs=1e-12)


def test_spectral_weights_bernoulli_laplace():
    params = bernoulli_laplace_params(5)
    spec = spectral_weights(params)
    np.testing.assert_allclose(
        spec.weights, bernoulli_laplace_weights(5), atol=1e-10
    )


def test_moran_half_mutation_spectrum_nonnegative():
    for N in (2, 5, 9):
        t = moran_mutation_spectrum(N, 0.5, 0.5).eigenvalues
        assert np.min(t) >= -1e-12


def test_monotonicity_checks_pass_paths(chain_b):
    out = spectrum_monotonicity_checks(chain_b, bd_spectrum(chain_b))
    assert out["monotone"]
    # lazy version: holding above 1/2 forces a positive spectrum
    lazy = make_bd(
        p=0.5 * chain_b.p, q=0.5 * chain_b.q, r=0.5 * chain_b.r + 0.5
    )
    out2 = spectrum_monotonicity_checks(lazy, bd_spectrum(lazy))
    assert out2["half_holding"] and out2["min_eigenvalue"] > 0


def test_monotonicity_checks_report_negative_monotone():
    # monotone chain whose spectrum dips below zero
    params = reflected_walk_params(2, 0.5, 0.5)
    out = spectrum_monotonicity_checks(params, bd_spectrum(params))
    assert out["monotone_but_negative_spectrum"]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**31 - 1))
def test_spectral_nonnegativity_forces_monotone(N, seed):
    # raises inside when a nonnegative spectrum meets a non-monotone chain
    rng = np.random.default_rng(seed)
    params = random_monotone_bd(rng, N)
    out = spectrum_monotonicity_checks(params, bd_spectrum(params))
    if out["spectrally_nonnegative"]:
        assert out["monotone"]

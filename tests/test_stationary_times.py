import json
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualchain import cli, errors, kernels, stationary_times
from dualchain.chains import (
    BDParams,
    bd_kernel,
    bd_params_from_kernel,
    make_bd,
    moran_kernel,
    mutation_bias,
    reflected_walk_params,
)
from dualchain.coupling import empirical_report, exact_joint, product_kernel, simulate
from dualchain.duals import (
    dual_via_solve,
    hypergeometric_function,
    siegmund_dual,
    siegmund_function,
    ultrametric_dual,
    ultrametric_function,
    verify_duality,
)
from dualchain.intertwining import build_intertwining
from dualchain.samplers import random_monotone_bd, random_monotone_kernel
from dualchain.spectra import Spectrum, bd_spectrum, moran_mutation_spectrum
from dualchain.stationary_times import (
    absorption_exact,
    absorption_recurrence,
    absorption_spectral,
    cutoff_report,
    hitting_moments,
    separation,
    verify_sharpness,
)
from dualchain.tolerances import RESID_TOL, TAIL_LIMIT, TAIL_TARGET


def test_separation_basics():
    pi = np.array([0.25, 0.75])
    assert separation(pi, pi) == pytest.approx(0.0, abs=1e-15)
    assert separation(np.array([1.0, 0.0]), pi) == pytest.approx(1.0)
    with pytest.raises(errors.ZeroStationaryEntryError):
        separation(pi, np.array([1.0, 0.0]))


def test_separation_allows_mass_defect():
    # mu > pi everywhere with total mass 1 + delta: sep = -delta lies below
    # TV = delta / 2 by 1.5 delta, as a law of another mass may; separation
    # returns the value
    pi = np.array([0.1, 0.2, 0.3, 0.4])
    delta = 1e-11
    mu = pi * (1.0 + delta)
    assert 0.5 * np.abs(mu - pi).sum() - (-delta) > 1e-12
    assert separation(mu, pi) == pytest.approx(-delta, rel=1e-3)


def test_separation_gate_on_mixed_dense_chain():
    # the chain mixes within 100 steps and mu_n drifts to mass 1 + 1.7e-12;
    # the table still reads sep = survival within 1e-9
    m = random_monotone_kernel(np.random.default_rng(108), 200)
    res = build_intertwining(m, siegmund_function(199), siegmund_dual(m).dual)
    start = np.zeros(200)
    start[0] = 1.0
    rep = verify_sharpness(res.back, res.p_tilde, res.link, res.link[0], start, n_max=100)
    assert rep.sharp
    assert rep.max_gap <= 1e-9


def test_sharpness_witness_siegmund(pipeline_b):
    # the Siegmund link of chain b: the top state is the one witness, and
    # it is the point row of H (row 2 of the Siegmund function at 2 is e_2)
    _, res = pipeline_b
    assert stationary_times._witnesses(res.link, res.pi, 2) == [2]
    np.testing.assert_array_equal(siegmund_function(2).matrix[2], [0.0, 0.0, 1.0])


def test_sharpness_witness_is_the_per_state_loop():
    def per_state(L, pi, boundary):
        """Oracle: the witness test one state at a time."""
        witnesses = []
        for d in range(L.shape[0]):
            target = np.zeros(L.shape[0])
            target[boundary] = pi[d]
            if np.max(np.abs(L[:, d] - target)) <= RESID_TOL:
                witnesses.append(d)
        return witnesses

    # random links with planted witness columns, some moved off by a
    # deviation just inside or just outside the tolerance
    rng = np.random.default_rng(2110)
    found = 0
    for _ in range(30):
        n = int(rng.integers(2, 12))
        L = rng.dirichlet(np.ones(n), size=n)
        pi = rng.dirichlet(np.ones(n))
        boundary = int(rng.integers(n))
        for d in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False):
            L[:, d] = 0.0
            L[boundary, d] = pi[d]
            L[int(rng.integers(n)), d] += rng.choice([0.0, 0.5, 2.0]) * RESID_TOL
        witnesses = stationary_times._witnesses(L, pi, boundary)
        assert witnesses == per_state(L, pi, boundary)
        found += len(witnesses)
    assert found >= 30


def test_verify_sharpness_refuses_unlinked_initial_laws(pipeline_b):
    # the hidden start e_0 maps onto the link row e_0, not onto e_2
    P, res = pipeline_b
    e0, e2 = np.eye(3)[0], np.eye(3)[2]
    with pytest.raises(errors.NotAdmissibleError, match="^initial laws not linked: 1$"):
        verify_sharpness(P.matrix, res.p_tilde, res.link, e2, e0)


def test_verify_sharpness_chain_a(pipeline_a):
    P, res = pipeline_a
    rep = verify_sharpness(
        P, res.p_tilde, res.link, np.array([1.0, 0.0]), np.array([1.0, 0.0]), n_max=30
    )
    assert rep.sharp and rep.witness == 1 and rep.boundary == 1
    assert rep.max_gap <= 1e-12
    # sep(n) = survival(n) = 2^{-n} for this chain
    np.testing.assert_allclose(rep.table[:, 1], 0.5 ** rep.table[:, 0], atol=1e-12)
    np.testing.assert_allclose(rep.table[:, 2], 0.5 ** rep.table[:, 0], atol=1e-12)


def test_verify_sharpness_chain_b(pipeline_b):
    P, res = pipeline_b
    rep = verify_sharpness(
        P,
        res.p_tilde,
        res.link,
        np.array([1.0, 0.0, 0.0]),
        np.array([1.0, 0.0, 0.0]),
        n_max=80,
    )
    assert rep.sharp and rep.witness == 2
    assert rep.max_gap <= 1e-9


def test_verify_sharpness_moran_hypergeometric():
    N = 5
    params = moran_kernel(N, mutation_bias(0.3, 0.2, N))
    P = bd_kernel(params)
    H = hypergeometric_function(N)
    res = build_intertwining(P, H, dual_via_solve(P, H).dual)
    pi0 = np.zeros(N + 1)
    pi0[0] = 1.0  # hidden start N is linked to the observed start 0
    pt0 = np.zeros(N + 1)
    pt0[N] = 1.0
    rep = verify_sharpness(P, res.p_tilde, res.link, pi0, pt0, n_max=150)
    assert rep.boundary == 0
    assert rep.witness == N
    assert rep.sharp
    assert rep.max_gap <= 1e-9


def test_absorption_exact_chain_a_geometric(pipeline_a):
    _, res = pipeline_a
    stats = absorption_exact(res.p_tilde, np.array([1.0, 0.0]), boundary=1)
    assert stats.mean == pytest.approx(2.0, abs=1e-9)
    assert stats.variance == pytest.approx(2.0, abs=1e-8)
    n = np.arange(1, 20)
    np.testing.assert_allclose(stats.pmf[1:20], 0.5**n, atol=1e-12)
    assert stats.source == "matrix-power"


def test_absorption_three_routes_chain_b(pipeline_b, chain_b):
    _, res = pipeline_b
    exact = absorption_exact(res.p_tilde, np.array([1.0, 0.0, 0.0]), boundary=2)
    spectral = absorption_spectral(bd_spectrum(chain_b), n_max=exact.n_max)
    recurrence = absorption_recurrence(
        bd_params_from_kernel(res.p_tilde), n_max=exact.n_max
    )
    for stats in (exact, spectral, recurrence):
        assert stats.mean == pytest.approx(20 / 3, rel=1e-9)
        assert stats.variance == pytest.approx(190 / 9, rel=1e-8)
    np.testing.assert_allclose(exact.pmf, spectral.pmf, atol=1e-10)
    np.testing.assert_allclose(exact.pmf, recurrence.pmf, atol=1e-10)


def test_absorption_spectral_negative_eigenvalue():
    # reflected walk p = q = 1/2, N = 2: spectrum (1, 1/2, -1/2); the
    # absorption law lives on even steps with pmf (3/4) 4^{-m} at n = 2m+2
    stats = absorption_spectral(Spectrum(np.array([1.0, 0.5, -0.5])), n_max=60)
    assert stats.mean == pytest.approx(8 / 3, abs=1e-12)
    assert stats.variance == pytest.approx(16 / 9, abs=1e-12)
    m = np.arange(0, 25)
    np.testing.assert_allclose(stats.pmf[2 * m + 2], 0.75 * 0.25**m, atol=1e-12)
    np.testing.assert_allclose(stats.pmf[2 * m + 1], 0.0, atol=1e-12)


def test_absorption_spectral_matches_pipeline_negative_case():
    params = reflected_walk_params(2, 0.5, 0.5)
    P = bd_kernel(params)
    res = build_intertwining(P, siegmund_function(2), siegmund_dual(P).dual)
    exact = absorption_exact(res.p_tilde, np.array([1.0, 0.0, 0.0]), boundary=2)
    spectral = absorption_spectral(bd_spectrum(params), n_max=exact.n_max)
    np.testing.assert_allclose(exact.pmf, spectral.pmf, atol=1e-12)


def _moran_pipeline(N, a1, a2):
    params = moran_kernel(N, mutation_bias(a1, a2, N))
    P = bd_kernel(params)
    res = build_intertwining(P, siegmund_function(N), siegmund_dual(P).dual)
    start = np.zeros(N + 1)
    start[0] = 1.0
    return params, res, start


def test_absorption_exact_moran_mean_closed_form():
    # P~ must not leak mass, or the matrix route runs to its step cap
    params, res, start = _moran_pipeline(20, 0.5, 0.5)
    exact = absorption_exact(res.p_tilde, start, boundary=20)
    t = bd_spectrum(params).eigenvalues[1:]
    assert exact.mean == pytest.approx(np.sum(1.0 / (1.0 - t)), abs=1e-8)


def test_absorption_spectral_large_n_matches_exact():
    # the partial-fraction coefficients reach 1e29 here; the check must
    # not raise on the correct pmf
    params, res, start = _moran_pipeline(100, 0.5, 0.5)
    exact = absorption_exact(res.p_tilde, start, boundary=100)
    spectral = absorption_spectral(bd_spectrum(params), n_max=exact.n_max)
    np.testing.assert_allclose(spectral.pmf, exact.pmf, rtol=0, atol=1e-9)


def test_absorption_spectral_check_catches_corrupt_pmf(monkeypatch):
    N = 10
    spec = bd_spectrum(moran_kernel(N, mutation_bias(0.5, 0.5, N)))
    absorption_spectral(spec)
    absorb = stationary_times._absorb

    def corrupt(*args):
        # 1e-8 more mass at n = N + 5, and so in the survival before it
        pmf, survival = absorb(*args)
        pmf[N + 5] += 1e-8
        survival[: N + 5] += 1e-8
        return pmf, survival

    monkeypatch.setattr(stationary_times, "_absorb", corrupt)
    with pytest.raises(errors.SpectrumError, match="partial-fraction"):
        absorption_spectral(spec)


def _series_convolve(a, b, length):
    from scipy.signal import fftconvolve

    if length <= 4096:
        return np.convolve(a, b)[:length]
    out = fftconvolve(a, b)[:length]
    return np.where(np.abs(out) < 1e-300, 0.0, out)


def series_spectral_pmf(t, n_max):
    """Oracle: the signed factor series (1 - t_k) t_k^{n-1}, convolved."""
    length = n_max + 1
    pmf = np.zeros(length)
    pmf[0] = 1.0
    ns = np.arange(length)
    for tk in t:
        factor = np.zeros(length)
        factor[1:] = (1.0 - tk) * tk ** (ns[1:] - 1)
        pmf = _series_convolve(pmf, factor, length)
    return pmf


def series_recurrence_pmf(params, n_max):
    """Oracle: each passage generating function f_y expanded as a rational
    power series by a recursive filter, the pieces convolved."""
    from scipy.signal import lfilter

    p, q, r = params.p, params.q, params.r
    length = n_max + 1
    impulse = np.zeros(length)
    impulse[0] = 1.0
    total = impulse
    f_prev = None
    for y in range(params.N):
        num = np.zeros(length)
        num[1] = p[y]
        den = np.zeros(length)
        den[0] = 1.0
        den[1] = -r[y]
        if y > 0:
            den[2:] -= q[y] * f_prev[1:-1]
        f_y = lfilter(num, den, impulse)
        total = _series_convolve(total, f_y, length)
        f_prev = f_y
    return total


def _hidden_params(params):
    P = bd_kernel(params)
    res = build_intertwining(P, siegmund_function(params.N), siegmund_dual(P).dual)
    return bd_params_from_kernel(res.p_tilde)


@pytest.mark.parametrize("case", ["chain_b", "moran_20", "moran_40", "negative"])
def test_spectral_and_recurrence_routes_match_series_oracles(case, chain_b):
    params = {
        "chain_b": chain_b,
        "moran_20": moran_kernel(20, mutation_bias(0.3, 0.2, 20)),
        "moran_40": moran_kernel(40, mutation_bias(0.1, 0.1, 40)),
        "negative": reflected_walk_params(2, 0.5, 0.5),
    }[case]
    spec = bd_spectrum(params)
    if case == "negative":
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 0.5, -0.5], atol=1e-15)
        spec = Spectrum(np.array([1.0, 0.5, -0.5]))
    spectral = absorption_spectral(spec)
    n_max = spectral.n_max
    hidden = _hidden_params(params)
    recurrence = absorption_recurrence(hidden, n_max=n_max)
    oracle = series_spectral_pmf(spec.eigenvalues[1:], n_max)
    np.testing.assert_allclose(spectral.pmf, oracle, rtol=0, atol=1e-14)
    oracle = series_recurrence_pmf(hidden, n_max)
    np.testing.assert_allclose(recurrence.pmf, oracle, rtol=0, atol=1e-14)


def test_spectral_and_recurrence_routes_refuse_a_short_explicit_horizon():
    # n_max far inside the tail: the cut is refused, naming the exact mean
    params = moran_kernel(40, mutation_bias(0.1, 0.1, 40))
    spec = bd_spectrum(params)
    hidden = _hidden_params(params)
    for route in (lambda: absorption_spectral(spec, n_max=60),
                  lambda: absorption_recurrence(hidden, n_max=60)):
        with pytest.raises(errors.TruncationTooCoarseError, match="at n_max=60, mean 584"):
            route()


def test_pure_birth_engine_short_horizon_matches_series_oracles(monkeypatch):
    # the engine on the pure-birth kernel of the eigenvalues at n_max = 60,
    # far inside the tail, with the refusal of such a cut lifted: the
    # spectral law, the signed (1/2, -1/2) law and the passage-time law
    monkeypatch.setattr(stationary_times, "TAIL_LIMIT", 1.0)
    params = moran_kernel(40, mutation_bias(0.1, 0.1, 40))
    for t in (bd_spectrum(params).eigenvalues[1:], np.array([0.5, -0.5])):
        pmf, survival = stationary_times._pure_birth_law(t, 60, 0.0)
        oracle = series_spectral_pmf(t, 60)
        np.testing.assert_allclose(pmf, oracle, rtol=0, atol=1e-14)
        np.testing.assert_allclose(survival, 1.0 - np.cumsum(oracle), rtol=0, atol=1e-14)
    hidden = _hidden_params(params)
    recurrence = absorption_recurrence(hidden, n_max=60)
    oracle = series_recurrence_pmf(hidden, 60)
    np.testing.assert_allclose(recurrence.pmf, oracle, rtol=0, atol=1e-14)


def test_routes_refuse_a_short_explicit_horizon_alike():
    # P(T = n) = 0.1 * 0.9^(n-1): the mass 0.9^5 = 0.59 lies beyond n = 5
    routes = (
        lambda: absorption_exact(np.array([[0.9, 0.1], [0.0, 1.0]]), np.array([1.0, 0.0]),
                                 boundary=1, n_max=5),
        lambda: absorption_spectral(Spectrum(np.array([1.0, 0.9])), n_max=5),
        lambda: absorption_recurrence(make_bd([0.1, 0.0], [0.0, 0.0]), n_max=5),
    )
    for route in routes:
        with pytest.raises(errors.TruncationTooCoarseError) as info:
            route()
        assert str(info.value) == "survivor mass 0.59 at n_max=5, mean 10"


@pytest.mark.parametrize("N, a1, a2", [(10, 0.5, 0.5), (20, 0.3, 0.2), (40, 0.1, 0.1),
                                       (300, 0.25, 0.25)])
def test_routes_share_the_automatic_horizon(N, a1, a2):
    # each route cuts at the first n with P(T > n) <= 1e-12, and each sums
    # that survival from the surviving paths of one engine, so the cuts are
    # equal (those of the FFT inversions lay up to 29 steps from the matrix
    # route's at N = 300)
    params, res, start = _moran_pipeline(N, a1, a2)
    horizons = [absorption_exact(res.p_tilde, start, boundary=N).n_max,
                absorption_spectral(bd_spectrum(params)).n_max,
                absorption_recurrence(bd_params_from_kernel(res.p_tilde)).n_max]
    assert len(set(horizons)) == 1, horizons


def test_absorption_spectral_refuses_a_hopeless_tail():
    # P(T > n) >= t_1^n refuses before the engine runs its 10^6 steps (an
    # FFT inversion of the capped grid once took 0.45 s and 3.0 s, and read
    # the survivor mass of the first chain as 0.279 where (1 - 1e-6)^(10^6)
    # is 0.368)
    for spec, message in (
        (Spectrum(np.array([1.0, 1.0 - 1e-6])), "0.368 at n_max=1000000, mean 1e\\+06"),
        (moran_mutation_spectrum(100, 1e-5, 1e-5), "0.819 at n_max=1000000, mean 5.01e\\+06"),
    ):
        t0 = time.perf_counter()
        with pytest.raises(errors.TruncationTooCoarseError,
                           match=f"survivor mass at least {message}"):
            absorption_spectral(spec)
        assert time.perf_counter() - t0 < 0.05


def test_spectral_and_recurrence_routes_match_exact_law_moran_200():
    params, res, start = _moran_pipeline(200, 0.5, 0.5)
    exact = absorption_exact(res.p_tilde, start, boundary=200)
    t = bd_spectrum(params).eigenvalues[1:]
    mean = np.sum(1.0 / (1.0 - t))
    for stats in (absorption_spectral(bd_spectrum(params)),
                  absorption_recurrence(bd_params_from_kernel(res.p_tilde))):
        k = min(stats.n_max, exact.n_max) + 1
        np.testing.assert_allclose(stats.pmf[:k], exact.pmf[:k], rtol=0, atol=1e-9)
        assert stats.mean == pytest.approx(mean, rel=1e-8)


def test_recurrence_memory_at_horizon_cap():
    # mean 3.3e4, survival below 1e-12 only near n = 9e5: the law out to
    # there stays small (a full FFT grid of complex points peaked at 224 MB)
    tracemalloc.start()
    try:
        stats = absorption_recurrence(make_bd([3e-5, 0.0], [0.0, 0.5]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 8e5 < stats.n_max < 10**6
    assert stats.survival[-1] <= TAIL_TARGET < stats.survival[-2]
    assert peak < 150 * 2**20


def test_bernoulli_shift_identity():
    # subtracting an independent Bernoulli(2/3) from the (1/2, -1/2) law
    # leaves an exact geometric: P(T - B = n) = 2^{-n}, n >= 1
    stats = absorption_spectral(Spectrum(np.array([1.0, 0.5, -0.5])), n_max=60)
    pmf = stats.pmf
    shifted = pmf[1:40] * (1 / 3) + pmf[2:41] * (2 / 3)
    np.testing.assert_allclose(shifted, 0.5 ** np.arange(1, 40), atol=1e-12)


def test_absorption_spectral_rejects_unit_eigenvalue():
    with pytest.raises(errors.SpectrumError):
        absorption_spectral(Spectrum(np.array([1.0, -1.0])))


def test_absorption_exact_truncation_guard(pipeline_b):
    _, res = pipeline_b
    with pytest.raises(errors.TruncationTooCoarseError):
        absorption_exact(res.p_tilde, np.array([1.0, 0.0, 0.0]), boundary=2, n_max=3)
    with pytest.raises(errors.NotAbsorbingError):
        absorption_exact(res.p_tilde, np.array([1.0, 0.0, 0.0]), boundary=0)


def _stepwise_absorption(pt, start, boundary, n_max):
    """Oracle: pmf and survival one step of the surviving law at a time."""
    Q = np.array(pt)
    Q[boundary] = 0.0
    r = Q[:, boundary].copy()
    Q[:, boundary] = 0.0
    nu = start.copy()
    nu[boundary] = 0.0
    pmf, survival = [start[boundary]], [nu.sum()]
    for _ in range(n_max):
        pmf.append(nu @ r)
        nu = nu @ Q
        survival.append(nu.sum())
    return np.array(pmf), np.array(survival)


def _blocked_cases():
    # (P~, start, boundary): birth-death, a start with mass on the boundary,
    # and the dense hidden chain of an ultrametric dual
    params = moran_kernel(4, mutation_bias(0.5, 0.5, 4))
    P = bd_kernel(params)
    moran = build_intertwining(P, siegmund_function(4), siegmund_dual(P).dual).p_tilde
    P = random_monotone_kernel(np.random.default_rng(3), 6)
    dense = build_intertwining(P, ultrametric_function(5, 1, 0.5, 0.0),
                               ultrametric_dual(P, 1, 0.5, 0.0).dual).p_tilde
    assert np.count_nonzero(np.asarray(dense)[1] > 0) == 4
    return [(moran, np.eye(5)[0], 4), (moran, np.array([0.5, 0, 0, 0, 0.5]), 4),
            (dense, np.eye(6)[0], 5), (dense, np.array([1e-10, 0, 0, 0, 0, 1 - 1e-10]), 5)]


B = stationary_times._BLOCK


@pytest.mark.parametrize("n_max", [1, B - 1, B, B + 1, 3 * B + 5, None])
def test_blocked_absorption_matches_stepwise_oracle(n_max):
    # explicit horizons on either side of the block ends, and the automatic
    # one: the first n with P(T > n) <= TAIL_TARGET on the oracle's survival
    for pt, start, boundary in _blocked_cases():
        pmf, survival = _stepwise_absorption(pt, start, boundary, 3 * B + 5)
        assert survival[-1] <= TAIL_TARGET      # the oracle runs past the auto cut
        cut = n_max if n_max is not None else int(np.argmax(survival <= TAIL_TARGET))
        if survival[cut] > TAIL_LIMIT:
            with pytest.raises(errors.TruncationTooCoarseError,
                               match=f"survivor mass {survival[cut]:.3g} at n_max={cut},"):
                absorption_exact(pt, start, boundary, n_max=n_max)
            continue
        exact = absorption_exact(pt, start, boundary, n_max=n_max)
        assert exact.n_max == cut
        np.testing.assert_allclose(exact.pmf, pmf[: cut + 1], rtol=0, atol=1e-15)
        np.testing.assert_allclose(exact.survival, survival[: cut + 1], rtol=0, atol=1e-15)


def test_absorption_exact_survival_relative_to_extended_precision():
    # survival as the surviving mass, not 1 - P(arrived): at the automatic
    # horizon the latter was 2.3e-3 off, and cut one step late
    params, res, start = _moran_pipeline(100, 0.25, 0.25)
    exact = absorption_exact(res.p_tilde, start, boundary=100)
    Q = np.array(res.p_tilde, dtype=np.longdouble)
    Q[:, 100] = 0.0
    nu = start.astype(np.longdouble)
    for _ in range(exact.n_max - 1):
        nu = nu @ Q
    before, want = nu.sum(), (nu @ Q).sum()
    assert want <= TAIL_TARGET < before
    assert abs(exact.survival[-1] - want) <= 1e-12 * want


@pytest.mark.parametrize("chunk", [stationary_times._SEP_CHUNK, 5 * 21])
def test_verify_sharpness_reads_the_excess_of_separation_over_survival(monkeypatch, chunk):
    # 5e-11 of every transient row of P~ moved onto the boundary leaves the
    # link residual below 1e-10, but the hidden chain then arrives early:
    # separation exceeds survival, which the report reads and does not gate
    monkeypatch.setattr(stationary_times, "_SEP_CHUNK", chunk)
    N = 20
    P = bd_kernel(moran_kernel(N, mutation_bias(0.5, 0.5, N)))
    res = build_intertwining(P, siegmund_function(N), siegmund_dual(P).dual)
    pt = np.array(res.p_tilde)
    pt[np.arange(N), np.arange(N)] -= 5e-11
    pt[:N, N] += 5e-11
    start = np.eye(N + 1)[0]
    mu, nu, gaps = res.link[0], start, []
    for _ in range(401):
        gaps.append(separation(mu, res.pi) - (1.0 - nu[N]))
        mu, nu = mu @ P.matrix, nu @ pt
    rep = verify_sharpness(P.matrix, pt, res.link, res.link[0], start, n_max=400)
    assert rep.excess == max(gaps) > 2e-9
    assert rep.max_gap == max(map(abs, gaps)) and rep.sharp
    assert np.array_equal(rep.table[:, 1] - rep.table[:, 2], gaps)


# hidden chain whose start never reaches the second absorbing state 3
TWO_ABSORBING = np.array([[0.5, 0.5, 0.0, 0.0],
                          [0.25, 0.25, 0.5, 0.0],
                          [0.0, 0.0, 1.0, 0.0],
                          [0.0, 0.0, 0.0, 1.0]])


def test_hitting_moments_chain_b_exact(pipeline_b):
    _, res = pipeline_b
    mean, variance = hitting_moments(res.p_tilde, np.array([1.0, 0.0, 0.0]), 2)
    assert mean == pytest.approx(20 / 3, rel=1e-13)
    assert variance == pytest.approx(190 / 9, rel=1e-13)


def _fraction_moments(pt, start, boundary):
    """Oracle: m1 and E T^2 by Gauss-Jordan elimination over the rationals,
    on the float entries of P~ with I - Q formed exactly."""
    pt = np.asarray(pt)
    S = [x for x in range(pt.shape[0]) if x != boundary]
    A = [[Fraction(int(x == y)) - Fraction(pt[x, y]) for y in S] for x in S]

    def solve(b):
        M = [row + [bi] for row, bi in zip(A, b)]
        for c in range(len(S)):
            piv = next(r for r in range(c, len(S)) if M[r][c] != 0)
            M[c], M[piv] = M[piv], M[c]
            M[c] = [v / M[c][c] for v in M[c]]
            for r in range(len(S)):
                if r != c and M[r][c] != 0:
                    M[r] = [v - M[r][c] * w for v, w in zip(M[r], M[c])]
        return [row[-1] for row in M]

    m1 = solve([Fraction(1)] * len(S))
    m2 = solve([2 * m - 1 for m in m1])
    w = [Fraction(start[x]) for x in S]
    mean = sum(a * b for a, b in zip(w, m1))
    return float(mean), float(sum(a * b for a, b in zip(w, m2)) - mean**2)


def test_hitting_moments_match_rational_solve_moran_hypergeometric():
    # the hidden chain of the shipped config runs from 6 down to 0; every
    # state but 0 is transient
    path = Path(__file__).resolve().parent.parent / "configs" / "moran_hypergeometric.json"
    cfg = json.loads(path.read_text())
    pipe = cli.pipeline(cfg, cfg["options"])
    want = _fraction_moments(pipe.res.p_tilde, pipe.pt0, 0)
    got = hitting_moments(pipe.res.p_tilde, pipe.pt0, 0)
    assert got == pytest.approx(want, rel=1e-12)
    assert absorption_exact(pipe.res.p_tilde, pipe.pt0, 0).variance == got[1]


def _lu_moments(pt, start, boundary):
    # oracle: SciPy's getrf/getrs on I - Q over every state but the boundary,
    # with the GTH diagonal; np.linalg.solve runs the same LAPACK gesv steps
    from scipy.linalg import lu_factor, lu_solve

    pt = np.asarray(pt)
    S = np.flatnonzero(np.arange(pt.shape[0]) != boundary)
    rows = pt[S]
    rows[np.arange(S.size), S] = 0.0
    A = -rows[:, S]
    A[np.diag_indices(S.size)] = rows.sum(axis=1)
    lu = lu_factor(A)
    m1 = lu_solve(lu, np.ones(S.size))
    mean = float(start[S] @ m1)
    return mean, float(start[S] @ lu_solve(lu, 2.0 * m1 - 1.0)) - mean**2


def test_hitting_moments_match_lu_oracle_bitwise():
    P = bd_kernel(moran_kernel(40, mutation_bias(0.1, 0.1, 40)))
    res = build_intertwining(P, siegmund_function(40), siegmund_dual(P).dual)
    start = np.eye(41)[0]
    assert np.array_equal(hitting_moments(res.p_tilde, start, 40),
                          _lu_moments(res.p_tilde, start, 40))
    # a dense chain absorbed at 3, from a spread start
    rng = np.random.default_rng(17)
    pt = rng.random((30, 30))
    pt[3] = 0.0
    pt[3, 3] = 1.0
    pt /= pt.sum(axis=1, keepdims=True)
    start = rng.random(30)
    start /= start.sum()
    assert np.array_equal(hitting_moments(pt, start, 3), _lu_moments(pt, start, 3))


def test_hitting_moments_work_on_the_states_the_start_reaches():
    # state 3 is absorbing and unreachable: I - Q over {0, 1, 3} is singular
    start = np.array([1.0, 0.0, 0.0, 0.0])
    mean, variance = hitting_moments(TWO_ABSORBING, start, 2)
    assert mean == pytest.approx(5.0, rel=1e-14)
    assert variance == pytest.approx(12.0, rel=1e-14)
    assert _fraction_moments(TWO_ABSORBING[:3, :3], start[:3], 2) == (5.0, 12.0)
    exact = absorption_exact(TWO_ABSORBING, start, 2)
    assert (exact.mean, exact.variance) == (mean, variance)


def test_hitting_moments_refuse_a_boundary_that_may_never_be_reached():
    # from 0 the chain ends in 3 with probability 3/5; the step loop would
    # run to its 10^6-step cap before refusing with "survivor mass"
    pt = TWO_ABSORBING.copy()
    pt[0] = [0.5, 0.25, 0.0, 0.25]
    start = np.array([1.0, 0.0, 0.0, 0.0])
    for route in (hitting_moments, absorption_exact):
        with pytest.raises(errors.TruncationTooCoarseError,
                           match="state 3 is reached from the start but never reaches 2"):
            route(pt, start, 2)
    # started at 1 the chain still reaches 0 and from there 3
    with pytest.raises(errors.TruncationTooCoarseError, match="state 3"):
        hitting_moments(pt, np.array([0.0, 1.0, 0.0, 0.0]), 2)
    assert hitting_moments(pt, np.array([0.0, 0.0, 1.0, 0.0]), 2) == (0.0, 0.0)


def test_start_laws_of_the_wrong_length_are_named(pipeline_b):
    # each entry point names the law it was handed, not a numpy index
    P, res = pipeline_b
    pk = product_kernel(P.matrix, res.p_tilde, res.link)
    e0, short = np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0])
    batch = simulate(pk, e0, n_steps=2, n_paths=4)
    calls = {
        "start": (lambda: hitting_moments(res.p_tilde, short, 2),
                  lambda: absorption_exact(res.p_tilde, short, 2)),
        "pi0": (lambda: verify_sharpness(P.matrix, res.p_tilde, res.link, short, e0),),
        "pi_tilde0": (lambda: verify_sharpness(P.matrix, res.p_tilde, res.link, res.link[0],
                                               short),
                      lambda: exact_joint(pk, short, 2),
                      lambda: simulate(pk, short, n_steps=2, n_paths=4),
                      lambda: empirical_report(batch, pk, short)),
    }
    for name, routes in calls.items():
        for route in routes:
            with pytest.raises(errors.DimensionMismatchError,
                               match=f"^{name} length mismatch: 2 entries for 3 states$"):
                route()


def test_absorption_spectral_overflowing_coefficients_stay_silent():
    # 100 eigenvalues 1e-5 apart: the partial-fraction coefficients overflow,
    # so the tail check decides nothing, without a RuntimeWarning
    t = np.concatenate([[1.0], 0.5 - 1e-5 * np.arange(100)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = absorption_spectral(Spectrum(t))
    oracle = series_spectral_pmf(t[1:], stats.n_max)
    np.testing.assert_allclose(stats.pmf, oracle, rtol=0, atol=1e-14)


def test_absorption_recurrence_guards():
    params = make_bd(p=[0.0, 0.5, 0.0], q=[0.0, 0.5, 0.0])
    with pytest.raises(errors.ZeroUpProbabilityError):
        absorption_recurrence(params)
    with pytest.raises(errors.TruncationTooCoarseError):
        absorption_recurrence(make_bd(p=[0.3, 0.4, 0.0], q=[0.0, 0.1, 0.0]), n_max=2)


def test_absorption_recurrence_auto_horizon_is_capped():
    # the automatic horizon once started at int(mean + 1): a bare ValueError
    # from np.arange at mean 1e31, a grid of 2^25 points at mean 1e7.  Both
    # tails still hold most of the mass at the 10^6 cap.
    for p0, mean in ((1e-31, r"1e\+31"), (1e-7, r"1e\+07")):
        with pytest.raises(errors.TruncationTooCoarseError, match=f"n_max=1000000, mean {mean}"):
            absorption_recurrence(make_bd([p0, 0.0], [0.0, 0.5]))


def test_absorption_degenerate_single_state():
    params = BDParams(p=np.array([0.0]), q=np.array([0.0]), r=np.array([1.0]))
    stats = absorption_recurrence(params)
    assert stats.mean == 0.0 and stats.pmf[0] == 1.0
    exact = absorption_exact(np.array([[1.0]]), np.array([1.0]), boundary=0)
    assert exact.mean == 0.0 and exact.survival[0] == 0.0
    spectral = absorption_spectral(Spectrum(np.array([1.0])))
    assert spectral.pmf.tolist() == [1.0] and spectral.mean == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**31 - 1))
def test_three_routes_agree_random(N, seed):
    rng = np.random.default_rng(seed)
    params = random_monotone_bd(rng, N)
    P = bd_kernel(params)
    res = build_intertwining(P, siegmund_function(N), siegmund_dual(P).dual)
    start = np.zeros(N + 1)
    start[0] = 1.0
    exact = absorption_exact(res.p_tilde, start, boundary=N)
    spectral = absorption_spectral(bd_spectrum(params), n_max=exact.n_max)
    recurrence = absorption_recurrence(bd_params_from_kernel(res.p_tilde),
                                       n_max=exact.n_max)
    assert spectral.mean == pytest.approx(exact.mean, rel=1e-8)
    assert recurrence.mean == pytest.approx(exact.mean, rel=1e-8)
    assert spectral.variance == pytest.approx(exact.variance, rel=1e-6)
    np.testing.assert_allclose(exact.pmf, spectral.pmf, atol=1e-9)
    np.testing.assert_allclose(exact.pmf, recurrence.pmf, atol=1e-9)
    # variance never exceeds mean over the spectral gap
    t1 = bd_spectrum(params).eigenvalues[1]
    assert spectral.variance <= spectral.mean / (1 - t1) + 1e-9


def test_cutoff_report_moran_full_strength():
    # at a1 + a2 = 1 the mean is exactly N H_N and (gap x mean) = H_N grows
    out = cutoff_report(lambda N: moran_mutation_spectrum(N, 0.5, 0.5), [10, 30, 90])
    assert out["cutoff_flag"]
    for row in out["rows"]:
        N = row["N"]
        harmonic = np.sum(1.0 / np.arange(1, N + 1))
        assert row["mean"] == pytest.approx(N * harmonic, rel=1e-9)
        assert row["gap_times_mean"] == pytest.approx(harmonic, rel=1e-9)


def test_cutoff_report_flat_family_no_flag(chain_b):
    out = cutoff_report(lambda N: bd_spectrum(chain_b), [2, 4, 8])
    assert not out["cutoff_flag"]
    assert all(r["relative_variance"] > 0 for r in out["rows"])


def _passage_moments_on_numpy_scalars(params):
    """Oracle: the recurrences of ``absorption_recurrence`` on numpy scalars."""
    N, p, q = params.N, params.p, params.q
    ES = np.zeros(N)
    VS = np.zeros(N)
    ES[0] = 1.0 / p[0]
    VS[0] = (1.0 - p[0]) / p[0] ** 2
    for y in range(1, N):
        ES[y] = 1.0 / p[y] + (q[y] / p[y]) * ES[y - 1]
        A = (
            (p[y] - 1.0) / p[y] ** 2
            + 2.0 * (1.0 - p[y]) / p[y] * ES[y]
            + 2.0 * q[y] * (p[y] - 1.0) / p[y] ** 2 * ES[y - 1]
            + 2.0 * q[y] / p[y] * ES[y - 1] * ES[y]
            - q[y] * (q[y] - p[y]) / p[y] ** 2 * ES[y - 1] ** 2
        )
        VS[y] = (q[y] / p[y]) * VS[y - 1] + A
    return float(ES.sum()), float(VS.sum())


def test_passage_moments_are_the_numpy_scalar_recurrences_bit_for_bit():
    rng = np.random.default_rng(1019)
    overflows = 0
    for k in range(200):
        N = int(rng.integers(1, 60))
        if k % 2:
            # up steps spread over six decades, down steps filling the rest;
            # every tenth chain is long and nearly stuck, so E(S_y)^2 overflows
            stuck = k % 10 == 1
            N = 59 if stuck else N
            p = np.append(10.0 ** rng.uniform(-6, -4 if stuck else np.log10(0.5), size=N), 0.0)
            q = np.append(0.0, rng.uniform(0, 1, size=N) * (1 - p[1:] - 1e-9))
            q[1:N] = np.maximum(q[1:N], 1e-6)
            params = make_bd(p, q)
        else:
            params = random_monotone_bd(rng, N)
        with np.errstate(all="ignore"):     # the long chains overflow to inf
            moments = _passage_moments_on_numpy_scalars(params)
            assert np.array_equal(stationary_times._passage_moments(params), moments,
                                  equal_nan=True)
        overflows += not np.isfinite(moments).all()
        if k % 20 == 0:         # and through the route itself
            small = random_monotone_bd(rng, 8)
            rc = absorption_recurrence(small)
            assert (rc.mean, rc.variance) == _passage_moments_on_numpy_scalars(small)
    assert 20 <= overflows <= 100
    # p_0^2 underflows to a zero divisor
    params = make_bd([1e-200, 0.3, 0.0], [0.0, 0.2, 0.5])
    with np.errstate(all="ignore"):
        assert np.array_equal(stationary_times._passage_moments(params),
                              _passage_moments_on_numpy_scalars(params), equal_nan=True)


def test_moran_solve_takes_the_banded_path(monkeypatch):
    # the moran_ssd solve sequence of the benchmark on Moran (40, .1, .1)
    calls = {"_strongly_connected_components": 0, "_gth": 0, "_bfs": 0}
    for name in calls:
        def counted(*args, _f=getattr(kernels, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(kernels, name, counted)
    N, a1, a2 = 40, 0.1, 0.1
    start = np.zeros(N + 1)
    start[0] = 1.0
    params = moran_kernel(N, mutation_bias(a1, a2, N))
    P = bd_kernel(params)
    H = siegmund_function(N)
    rep = siegmund_dual(P)
    verify_duality(P, H, rep.dual, n_max=20)
    res = build_intertwining(P, H, rep.dual)
    sharp = verify_sharpness(P.matrix, res.p_tilde, res.link, res.link[0], start, n_max=100)
    absorption_exact(res.p_tilde, start, sharp.boundary)
    sp = absorption_spectral(bd_spectrum(params))
    absorption_recurrence(bd_params_from_kernel(res.p_tilde), n_max=sp.n_max)
    assert calls == {"_strongly_connected_components": 0, "_gth": 0, "_bfs": 0}
    # the counters see the dense path
    dense = random_monotone_kernel(np.random.default_rng(5), 6)
    kernels.stationary(dense)
    kernels.reachable(dense, np.arange(6) == 0)
    assert all(calls.values())

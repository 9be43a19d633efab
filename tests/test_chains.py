import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualchain import errors, kernels
from dualchain.chains import (
    BDParams,
    absorption_profile,
    bd_kernel,
    bd_params_from_kernel,
    make_bd,
    make_bias,
    moran_kernel,
    mutation_bias,
    wright_fisher_kernel,
)
from dualchain.duals import is_monotone
from dualchain.kernels import is_irreducible, stationary
from dualchain.spectra import bernoulli_laplace_params


def test_make_bd_boundary_rules():
    with pytest.raises(errors.InvalidBoundaryError):
        make_bd(p=[0.3, 0.1], q=[0.0, 0.2])  # p_N != 0
    with pytest.raises(errors.InvalidBoundaryError):
        make_bd(p=[0.3, 0.0], q=[0.1, 0.2])  # q_0 != 0
    with pytest.raises(errors.NotStochasticError):
        make_bd(p=[0.3, 0.0], q=[0.0, 0.2], r=[0.5, 0.5])


@pytest.mark.parametrize("p, q, r", [
    ([0.5, 0.5], [0.0, 0.5], [0.5, 0.0]),           # p_N = .5
    ([0.5, 0.0], [0.5, 0.5], [0.0, 0.5]),           # q_0 = .5
    ([0.5, 0.0], [2e-12, 0.5], [0.5, 0.5]),         # q_0 just past EPS_NEG
    ([0.5, np.nan], [0.0, 0.5], [0.5, 0.5]),        # p_N = NaN
], ids=["p_N", "q_0", "q_0_past_eps", "p_N_nan"])
def test_a_record_with_a_boundary_step_is_refused_wherever_it_is_made(p, q, r):
    # the matrix of a record holds neither q_0 nor p_N: the first record
    # once made a Kernel that read STOCHASTIC while its rows summed to 1.0
    # and 0.5, and whose stationary law raised SingularSystemError
    with pytest.raises(errors.InvalidBoundaryError, match="need q_0 = 0 and p_N = 0"):
        BDParams(p, q, r)
    with pytest.raises(errors.InvalidBoundaryError):
        kernels.Kernel(bands=BDParams(p, q, r))
    with pytest.raises(errors.InvalidBoundaryError):
        make_bd(p, q, r)


def test_a_record_stores_boundary_steps_within_eps_neg_as_zero():
    b = BDParams([0.3, -1e-12], [1e-12, 0.2], [0.7, 0.8])
    assert b.q[0] == b.p[-1] == 0.0
    assert kernels.Kernel(bands=b).kind is kernels.KernelKind.STOCHASTIC
    with pytest.raises(errors.DimensionMismatchError):
        BDParams([], [], [])


def test_non_finite_birth_death_data_is_refused_by_name():
    # NaN once passed make_bd and came out as a NaN mean with a plausible pmf
    with pytest.raises(errors.NonFiniteEntryError, match="^p "):
        make_bd([0.3, np.nan, 0.0], [0.0, 0.2, 0.5], interior_positive=False)
    with pytest.raises(errors.NonFiniteEntryError, match="^q "):
        make_bd([0.3, 0.2, 0.0], [0.0, np.inf, 0.5], r=[0.7, 0.3, 0.5])
    with pytest.raises(errors.NonFiniteEntryError, match="^r "):
        bd_kernel(BDParams(p=[0.3, 0.0], q=[0.0, 0.2], r=[0.7, np.nan]))


def test_make_bd_stores_the_boundary_zeros_its_matrix_holds():
    # q_0 and p_N within EPS_NEG of 0 were once kept in the record while the
    # matrix of bd_kernel dropped them
    p, q = np.array([0.3, 1e-13]), np.array([1e-13, 0.2])
    params = make_bd(p, q)
    assert params.q[0] == params.p[-1] == 0.0
    assert p[1] == q[0] == 1e-13            # the caller's arrays are left alone
    read_back = bd_params_from_kernel(bd_kernel(params).matrix)
    for name in ("p", "q", "r"):
        np.testing.assert_array_equal(getattr(read_back, name), getattr(params, name))


def test_bd_record_derives_its_size_from_its_vectors():
    params = BDParams(p=[0.1, 0.2, 0.0], q=[0.0, 0.1, 0.2], r=[0.9, 0.7, 0.8])
    assert (params.N, params.n) == (2, 3)
    with pytest.raises(errors.DimensionMismatchError):
        BDParams(p=[0.1, 0.0], q=[0.0, 0.1, 0.2], r=[0.9, 0.9])
    with pytest.raises(errors.DimensionMismatchError):
        BDParams(p=[[0.1, 0.0]], q=[[0.0, 0.1]], r=[[0.9, 0.9]])


def test_make_bd_interior_positivity():
    with pytest.raises(errors.InvalidBoundaryError):
        make_bd(p=[0.3, 0.0, 0.0], q=[0.0, 0.1, 0.2])
    params = make_bd(p=[0.3, 0.0, 0.0], q=[0.0, 0.1, 0.2], interior_positive=False)
    assert params.N == 2


def test_bd_kernel_chain_a(chain_a):
    P = bd_kernel(chain_a)
    np.testing.assert_allclose(P.matrix, [[0.7, 0.3], [0.2, 0.8]], atol=1e-15)
    assert is_irreducible(chain_a)


def test_bd_stationary_matches_dense(chain_b):
    pi = stationary(chain_b)
    np.testing.assert_allclose(pi, [1 / 6, 1 / 3, 1 / 2], atol=1e-12)
    np.testing.assert_allclose(pi, stationary(bd_kernel(chain_b)), atol=1e-12)


def test_bd_params_round_trip(chain_b):
    back = bd_params_from_kernel(bd_kernel(chain_b).matrix)
    np.testing.assert_allclose(back.p, chain_b.p, atol=1e-15)
    np.testing.assert_allclose(back.q, chain_b.q, atol=1e-15)
    with pytest.raises(errors.DimensionMismatchError):
        bd_params_from_kernel(np.full((3, 3), 1 / 3))


def test_bias_table_validation():
    with pytest.raises(errors.InvalidBiasError):
        make_bias([0.2])
    with pytest.raises(errors.InvalidBiasError):
        make_bias([0.2, 1.4])
    b = make_bias([0.1, 0.5, 0.9])
    assert b.nondecreasing and b.positive_at_zero


def test_mutation_bias_endpoints():
    b = mutation_bias(0.3, 0.2, 4)
    assert b.values[0] == pytest.approx(0.3)
    assert b.values[-1] == pytest.approx(0.8)
    assert b.nondecreasing


@pytest.mark.parametrize("N", [0, -3])
def test_a_chain_builder_refuses_n_below_1_by_name(N):
    # N = 0 once divided 0/0 in np.arange(N + 1) / N and both N failed with
    # an error about a bias table or unequal vectors, naming no N
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.InvalidBiasError, match=f"needs N >= 1, got N = {N}$"):
            mutation_bias(0.1, 0.1, N)
        with pytest.raises(errors.DimensionMismatchError, match=f"needs N >= 1, got N = {N}$"):
            bernoulli_laplace_params(N)


def test_moran_kernel_quadratic_rows():
    # neutral bias p(u) = u: p_x = q_x = x(N-x)/N^2
    N = 5
    params = moran_kernel(N, make_bias(np.arange(N + 1) / N))
    x = np.arange(N + 1)
    np.testing.assert_allclose(params.p, (1 - x / N) * (x / N), atol=1e-15)
    np.testing.assert_allclose(params.q, (x / N) * (1 - x / N), atol=1e-15)


def test_moran_mutation_is_irreducible():
    params = moran_kernel(6, mutation_bias(0.3, 0.2, 6))
    assert is_irreducible(params)
    pi = stationary(params)
    assert np.min(pi) > 0


def test_wright_fisher_rows_are_binomial():
    N = 4
    K = wright_fisher_kernel(N, mutation_bias(0.3, 0.2, N))
    row = K.matrix[2]
    pv = mutation_bias(0.3, 0.2, N).values[2]
    from scipy.stats import binom

    np.testing.assert_allclose(row, binom.pmf(np.arange(N + 1), N, pv), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.integers(0, 2**31 - 1))
def test_nondecreasing_bias_gives_monotone_moran(N, seed):
    rng = np.random.default_rng(seed)
    table = np.sort(rng.uniform(0, 1, size=N + 1))
    params = moran_kernel(N, make_bias(table))
    assert is_monotone(bd_kernel(params).matrix)


def test_absorption_profile_gambler_ruin():
    params = make_bd(p=[0.0, 0.5, 0.0], q=[0.0, 0.5, 0.0], interior_positive=False)
    prof = absorption_profile(params)
    assert prof.phi[1] == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(prof.eta, [0.0, 1.0, 2.0], atol=1e-15)
    assert prof.identity_residual <= 1e-12


def test_absorption_profile_is_relatively_accurate_in_its_tail():
    # the mutation-free Moran chain with selection s has p_x / q_x = 1 + s, so
    # h0(x) = ((1+s)^-x - (1+s)^-N) / (1 - (1+s)^-N) (Ewens 2004); at N = 100,
    # s = .5, 1 - eta(x)/eta(N) is off by more than 1e-6 relative from x = 54
    # on and reads 0 where h0(90) = 1.39e-16
    N, s = 100, 0.5
    u = np.arange(N + 1) / N
    prof = absorption_profile(moran_kernel(N, make_bias((1 + s) * u / (1 + s * u))))
    x = np.arange(N + 1)
    h0 = ((1 + s) ** -x - (1 + s) ** -N) / (1 - (1 + s) ** -N)
    assert h0[90] == pytest.approx(1.39e-16, rel=1e-2)
    np.testing.assert_allclose(prof.phi, h0, rtol=1e-13, atol=0)


def test_absorption_profile_requires_double_absorption(chain_b):
    with pytest.raises(errors.NotDoublyAbsorbingError):
        absorption_profile(chain_b)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**31 - 1))
def test_absorption_profile_identity_random(N, seed):
    rng = np.random.default_rng(seed)
    p = np.zeros(N + 1)
    q = np.zeros(N + 1)
    p[1:N] = rng.uniform(0.05, 0.45, size=N - 1)
    q[1:N] = rng.uniform(0.05, 0.45, size=N - 1)
    prof = absorption_profile(make_bd(p, q, interior_positive=False))
    assert prof.identity_residual <= 1e-10
    assert np.all(np.diff(prof.phi) <= 1e-15)

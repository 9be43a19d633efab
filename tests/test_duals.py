import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualchain import errors
from dualchain.chains import bd_kernel, make_bd, moran_kernel, mutation_bias
from dualchain.duals import (
    DualFunction,
    bd_siegmund_dual,
    bd_ultrametric_rigidity,
    dual_via_solve,
    hypergeometric_function,
    is_monotone,
    potential_function,
    siegmund_dual,
    siegmund_function,
    ultrametric_dual,
    ultrametric_function,
    vandermonde_function,
    verify_duality,
)
from dualchain.kernels import BDParams, Kernel, KernelKind, absorbing_states, validate_kernel
from dualchain.samplers import random_kernel, random_monotone_kernel
from dualchain.tolerances import EPS_NEG

NON_MONOTONE = np.array([[0.1, 0.9], [0.8, 0.2]])


@st.composite
def bd_twentieths(draw):
    """Counts kp, kq of a birth-death chain with p = kp / 20, q = kq / 20."""
    N = draw(st.integers(1, 8))
    kq = [0] + [draw(st.integers(0, 20)) for _ in range(N)]
    kp = [draw(st.integers(0, 20 - kq[x])) for x in range(N)] + [0]
    return np.array(kp), np.array(kq)


def test_dual_function_rejects_bad_input():
    with pytest.raises(errors.NonSquareError):
        DualFunction(np.ones((2, 3)), "custom")
    with pytest.raises(errors.NegativeEntryError):
        DualFunction(np.array([[1.0, -0.5], [0.0, 1.0]]), "custom")
    with pytest.raises(errors.TrivialDualFunctionError):
        DualFunction(np.array([[1.0, 0.0], [1.0, 0.0]]), "custom")


def test_siegmund_function_shape():
    H = siegmund_function(3)
    assert np.array_equal(H.matrix, np.triu(np.ones((4, 4))))


def test_ultrametric_function_params():
    H = ultrametric_function(3, 1, 0.7, 0.4)
    # 1 + alpha inside the block {0, 1}, 1 + beta inside {2, 3}, 1 across
    assert H.family == "ultrametric"
    np.testing.assert_allclose(H.matrix, [[1.7, 1.7, 1, 1], [0, 1.7, 1, 1],
                                          [0, 0, 1.4, 1.4], [0, 0, 0, 1.4]], rtol=1e-15)
    # alpha = beta = 0 degenerates to the cumulative indicator
    H0 = ultrametric_function(3, 1, 0.0, 0.0)
    np.testing.assert_allclose(H0.matrix, siegmund_function(3).matrix, atol=1e-15)


def test_hypergeometric_function_small_case():
    H = hypergeometric_function(2)
    np.testing.assert_allclose(
        H.matrix, [[1, 1, 1], [1, 0.5, 0], [1, 0, 0]], atol=1e-15
    )
    # column 0 is constant and the last row is the first unit vector
    H6 = hypergeometric_function(6).matrix
    np.testing.assert_allclose(H6[:, 0], 1.0, atol=1e-15)
    np.testing.assert_allclose(H6[6], np.eye(7)[0], atol=1e-15)


def test_vandermonde_function_values():
    H = vandermonde_function(4).matrix
    assert H[0, 0] == 1.0
    np.testing.assert_allclose(H[0, 1:], 0.0)
    np.testing.assert_allclose(H[4], 1.0)
    np.testing.assert_allclose(H[2, 2], 0.25)


def test_potential_function_requires_mass_loss():
    with pytest.raises(errors.PotentialHasStochasticClassError):
        potential_function(np.array([[0.5, 0.5], [0.5, 0.5]]))
    # substochastic overall but with one mass-conserving class
    R = np.array([[0.5, 0.0], [0.0, 1.0]])
    with pytest.raises(errors.PotentialHasStochasticClassError):
        potential_function(R)
    Hfn = potential_function(np.array([[0.3, 0.2], [0.1, 0.4]]))
    np.testing.assert_allclose(
        Hfn.matrix @ (np.eye(2) - np.array([[0.3, 0.2], [0.1, 0.4]])),
        np.eye(2),
        atol=1e-12,
    )


def test_is_monotone():
    assert is_monotone(bd_kernel(make_bd(p=[0.3, 0.0], q=[0.0, 0.2])).matrix)
    assert not is_monotone(NON_MONOTONE)


@settings(max_examples=200, deadline=None)
@given(bd_twentieths())
def test_is_monotone_bd_iff_boundary_sums(counts):
    # a birth-death kernel is monotone exactly when p_x + q_{x+1} <= 1
    kp, kq = counts
    P = bd_kernel(make_bd(kp / 20, kq / 20))
    assert is_monotone(P) == bool(np.all(kp[:-1] + kq[1:] <= 20))


def _edge_records(rng, count):
    """Birth-death records at the edge of monotonicity: about half the sums
    p_x + q_{x+1} are 1 + delta, delta at and around EPS_NEG, the others at
    most 1, and in half the records each row sum is off 1 by -9e-10, 0 or
    9e-10 (inside EPS_STOCH)."""
    deltas = [-1e-12, 0.0, 1e-16, 5e-13, 1e-12, 2e-12]
    for _ in range(count):
        N = int(rng.integers(1, 10))
        p, q = np.zeros(N + 1), np.zeros(N + 1)
        for x in range(N):
            p[x] = rng.random() * (1.0 - q[x])
            q[x + 1] = (1.0 - p[x] + rng.choice(deltas) if rng.random() < 0.5
                        else rng.random() * (1.0 - p[x]))
        slack = rng.choice([-9e-10, 0.0, 9e-10], N + 1) * (rng.random() < 0.5)
        yield BDParams(p, q, np.maximum(1.0 - p - q + slack, 0.0))


def test_is_monotone_of_a_record_is_the_dense_test_of_its_matrix():
    rng = np.random.default_rng(20261020)
    outcomes, edges = [], 0
    for b in _edge_records(rng, 4000):
        P = Kernel(bands=b)
        F = np.cumsum(P.matrix, axis=1)
        dF = F[1:] - F[:-1]
        dense = bool(np.all(dF <= EPS_NEG))
        assert is_monotone(b) == is_monotone(P) == dense, (b.p, b.q, b.r)
        outcomes.append(dense)
        edges += dF.size > 0 and abs(dF.max() - EPS_NEG) <= 1e-12
    # both answers occur, and half the largest differences lie within 1e-12
    # of EPS_NEG, where the last bit of a sum decides
    assert 0.2 < np.mean(outcomes) < 0.8
    assert edges >= 1000


def test_siegmund_dual_chain_a(chain_a):
    rep = siegmund_dual(bd_kernel(chain_a))
    assert rep.feasible
    np.testing.assert_allclose(rep.dual, [[0.5, 0.2], [0.0, 1.0]], atol=1e-15)
    np.testing.assert_allclose(rep.mass_leaks, [0.3, 0.0], atol=1e-15)
    assert verify_duality(bd_kernel(chain_a), siegmund_function(1), rep.dual,
                          n_max=1)["static"] <= 1e-12
    # boundary identities of the cumulative construction
    P = bd_kernel(chain_a).matrix
    assert rep.dual[0, 1] == pytest.approx(1 - P[1, 1], abs=1e-15)
    assert rep.mass_leaks[0] == pytest.approx(1 - P[0, 0], abs=1e-15)


def test_siegmund_dual_flags_non_monotone():
    rep = siegmund_dual(NON_MONOTONE)
    assert not rep.feasible
    assert rep.violations
    cond, (y, x), val = rep.violations[0]
    assert val < 0
    # the witness is a cumulative difference F(x, y) - F(x+1, y)
    F = np.cumsum(NON_MONOTONE, axis=1)
    assert val == pytest.approx(F[x, y] - F[x + 1, y], abs=1e-15)


def test_bd_siegmund_closed_form(chain_b):
    direct = bd_siegmund_dual(chain_b)
    rep = siegmund_dual(bd_kernel(chain_b))
    np.testing.assert_allclose(direct, rep.dual, atol=1e-15)
    np.testing.assert_allclose(
        direct, [[0.7, 0.1, 0.0], [0.3, 0.5, 0.2], [0.0, 0.0, 1.0]], atol=1e-15
    )


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 20), st.integers(0, 2**31 - 1))
def test_monotone_iff_feasible(n, seed):
    rng = np.random.default_rng(seed)
    P = random_kernel(rng, n)
    rep = siegmund_dual(P)
    assert rep.feasible == is_monotone(P)
    Pm = random_monotone_kernel(rng, n)
    assert siegmund_dual(Pm).feasible


def _first_difference_siegmund(P):
    """The cumulative dual as first differences of the row sums F, with
    F(x, .) = 1 from the last nonzero entry of a stochastic row on."""
    m = np.asarray(P, dtype=float)
    n = m.shape[0]
    F = np.cumsum(m, axis=1)
    if validate_kernel(m).kind is KernelKind.STOCHASTIC:
        last = n - 1 - np.argmax(m[:, ::-1] != 0, axis=1)
        F[np.arange(n)[None, :] >= last[:, None]] = 1.0
    Fpad = np.vstack([F, np.zeros(n)])
    dual = (Fpad[:-1] - Fpad[1:]).T
    violations = [
        ("monotone", (int(y), int(x)), float(dual[y, x]))
        for y, x in zip(*np.nonzero(dual < -EPS_NEG))
    ]
    return np.where((dual < 0) & (dual >= -EPS_NEG), 0.0, dual), violations


def _dual_corpus(rng):
    """Moran chains, random monotone kernels and non-monotone ones."""
    moran = [bd_kernel(moran_kernel(N, mutation_bias(a1, a2, N))).matrix
             for N, a1, a2 in [(10, .5, .5), (20, .3, .2), (29, .1, .1)]]
    monotone = [random_monotone_kernel(rng, n) for n in (3, 5, 12, 30)]
    return moran + monotone + [random_kernel(rng, n) for n in (4, 9, 30)] + [NON_MONOTONE]


def test_siegmund_dual_is_first_difference(rng):
    large = bd_kernel(moran_kernel(100, mutation_bias(0.3, 0.2, 100))).matrix
    for P in _dual_corpus(rng) + [large]:
        rep = siegmund_dual(P)
        dual, violations = _first_difference_siegmund(P)
        assert np.array_equal(rep.dual, dual)
        assert rep.violations == violations
        assert rep.feasible == (not violations)


def test_ultrametric_dual_matches_direct_solve(rng):
    # every block boundary k, with alpha or beta at zero as well
    for P in _dual_corpus(rng):
        n = P.shape[0]
        for k in range(n - 1):
            for a, b in [(0.0, 0.0), (0.0, 0.4), (0.7, 0.0), (0.7, 0.4), (1.5, 2.0)]:
                rep = ultrametric_dual(P, k, a, b)
                via = dual_via_solve(P, ultrametric_function(n - 1, k, a, b))
                np.testing.assert_allclose(rep.dual, via.dual, rtol=0, atol=1e-14)


def test_ultrametric_dual_block_instance():
    # constant block mass 2/3 over {0,1} with blockwise monotone rows
    a = np.array([0.5, 0.4, 0.3, 0.2])
    b = np.array([0.25, 0.2, 0.15, 0.1])
    P = np.column_stack([a, 2 / 3 - a, b, 1 / 3 - b])
    rep = ultrametric_dual(P, k=1, alpha=0.7, beta=0.4)
    assert rep.feasible
    d = rep.diagnostics
    assert d["constant_block_mass"]
    assert d["blockwise_monotone"]
    assert d["substochastic"]
    assert d["delta"] == pytest.approx(2 / 3)
    np.testing.assert_allclose(
        d["row_mass"], [0.65, 1.0, 0.8558823529411765, 1.0], atol=1e-12
    )
    assert d["conservative_rows"] == [1, 3]
    H = ultrametric_function(3, 1, 0.7, 0.4)
    assert verify_duality(P, H, rep.dual, n_max=1)["static"] <= 1e-12


def test_ultrametric_dual_rejects_bad_params(chain_b):
    P = bd_kernel(chain_b)
    with pytest.raises(errors.InvalidUltrametricParamsError):
        ultrametric_dual(P, 2, 0.1, 0.1)
    with pytest.raises(errors.InvalidUltrametricParamsError):
        ultrametric_dual(P, 0, -0.1, 0.0)


def _blockwise_monotone_cbm(rng, N, k, delta):
    # constant mass delta on {0..k}, blockwise monotone via sorted row maps
    n = N + 1
    B = random_monotone_kernel(rng, k + 1)
    C = random_monotone_kernel(rng, n - k - 1)
    m = np.zeros((n, n))
    m[:, : k + 1] = delta * B[np.sort(rng.integers(0, k + 1, size=n))]
    m[:, k + 1 :] = (1 - delta) * C[np.sort(rng.integers(0, n - k - 1, size=n))]
    return m


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_blockwise_monotone_constant_mass_is_sufficient(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(2, 9))
    k = int(rng.integers(0, N))
    a, b = rng.uniform(0, 2, size=2)
    m = _blockwise_monotone_cbm(rng, N, k, float(rng.uniform(0.2, 0.8)))
    rep = ultrametric_dual(m, k, float(a), float(b))
    assert rep.diagnostics["constant_block_mass"]
    assert rep.diagnostics["blockwise_monotone"]
    assert rep.feasible


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_matched_delta_gives_substochastic_dual(seed):
    # rows k and N of the dual carry mass delta (1+a+b)/(1+b) and
    # (1+a+b)(1+b-b delta)/((1+a)(1+b)); both stay at 1 only when delta
    # equals (1+b)/(1+a+b), which is the unique substochastic tuning
    rng = np.random.default_rng(seed)
    N = int(rng.integers(2, 9))
    k = int(rng.integers(0, N))
    a, b = rng.uniform(0.1, 2, size=2)
    delta = (1 + b) / (1 + a + b)
    m = _blockwise_monotone_cbm(rng, N, k, delta)
    rep = ultrametric_dual(m, k, float(a), float(b))
    assert rep.feasible
    assert rep.diagnostics["substochastic"]
    assert {k, N} <= set(rep.diagnostics["conservative_rows"])
    off = _blockwise_monotone_cbm(rng, N, k, min(0.95, delta + 0.1))
    assert not ultrametric_dual(off, k, float(a), float(b)).diagnostics[
        "substochastic"
    ]


def test_rigidity_beta_witness():
    params = make_bd(p=[0.3, 0.25, 0.2, 0.15, 0.0], q=[0.0, 0.1, 0.12, 0.14, 0.16])
    out = bd_ultrametric_rigidity(params, k=1, alpha=0.7, beta=0.4)
    assert not out["feasible"]
    (pos, witness, predicted) = out["beta_witness"]
    assert pos == (3, 0)
    assert witness == pytest.approx(-0.4 * params.p[1] / 1.7, abs=1e-12)
    assert witness == pytest.approx(predicted, abs=1e-12)
    # k >= 1 with alpha > 0 inflates the row-k mass past 1
    assert out["row_k_mass"] == pytest.approx(1 + 0.7 * params.q[2] / 1.4, abs=1e-12)
    assert out["alpha_must_vanish"]
    # alpha = beta = 0 restores feasibility for monotone input
    ok = bd_ultrametric_rigidity(params, k=2, alpha=0.0, beta=0.0)
    assert ok["feasible"]
    assert ok["row_k_mass"] == pytest.approx(1.0, abs=1e-12)


def test_rigidity_k0_threshold(chain_a):
    out = bd_ultrametric_rigidity(chain_a, k=0, alpha=1.5, beta=0.0)
    assert out["alpha_max"] == pytest.approx(0.3 / 0.2)
    assert out["feasible"] and out["stochastic_dual"]
    below = bd_ultrametric_rigidity(chain_a, k=0, alpha=1.0, beta=0.0)
    assert below["feasible"] and not below["stochastic_dual"]
    assert below["substochastic"]
    above = bd_ultrametric_rigidity(chain_a, k=0, alpha=1.6, beta=0.0)
    assert not above["substochastic"]


def test_dual_via_solve_condition_gate():
    P = np.full((17, 17), 1 / 17)
    with pytest.raises(errors.SingularDualFunctionError):
        dual_via_solve(P, vandermonde_function(16))


def test_dual_via_solve_hypergeometric_moran():
    params = moran_kernel(6, mutation_bias(0.3, 0.2, 6))
    P, H = bd_kernel(params), hypergeometric_function(6)
    rep = dual_via_solve(P, H)
    assert rep.feasible
    assert verify_duality(P, H, rep.dual, n_max=1)["static"] <= 1e-12
    np.testing.assert_allclose(
        rep.dual.sum(axis=1), 1 - 0.3 * np.arange(7) / 6, atol=1e-12
    )
    # column 0 of H is constant, so state 0 is absorbing in the dual
    assert 0 in absorbing_states(rep.dual)


def test_dual_via_solve_support_refit_large_moran():
    # by N = 20 the flipped triangular solve leaves O(1e-9) signed noise
    # on the structural zeros of the pure-death dual; the support refit
    # must strip it without loosening the identity
    N = 20
    params = moran_kernel(N, mutation_bias(0.3, 0.2, N))
    P, H = bd_kernel(params), hypergeometric_function(N)
    rep = dual_via_solve(P, H)
    assert rep.feasible
    assert rep.dual.min() >= 0
    assert verify_duality(P, H, rep.dual, n_max=1)["static"] <= 1e-10
    off_band = rep.dual[np.triu_indices(N + 1, k=1)]
    assert np.max(np.abs(off_band)) == 0


def test_dual_via_solve_refit_keeps_true_negatives():
    # a non-monotone kernel pushed through the cumulative solve has real
    # negative entries; the refit must leave the verdict alone
    P = np.array([[0.1, 0.9], [0.8, 0.2]])
    rep = dual_via_solve(P, siegmund_function(1))
    assert not rep.feasible
    assert rep.dual.min() < -0.1


def test_dual_via_solve_dimension_mismatch(chain_a):
    with pytest.raises(errors.DimensionMismatchError):
        dual_via_solve(bd_kernel(chain_a), siegmund_function(3))


def test_verify_duality_residuals(chain_a):
    P = bd_kernel(chain_a)
    H = siegmund_function(1)
    rep = siegmund_dual(P)
    out = verify_duality(P, H, rep.dual, n_max=25)
    assert out["static"] <= 1e-12
    assert out["dynamic"] <= 1e-11
    # the identity holds algebraically even for an infeasible candidate
    bad = siegmund_dual(NON_MONOTONE)
    out2 = verify_duality(NON_MONOTONE, siegmund_function(1), bad.dual)
    assert out2["static"] <= 1e-12

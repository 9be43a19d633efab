import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualchain import cli, errors, kernels
from dualchain.chains import bd_kernel, make_bd, moran_kernel, mutation_bias
from dualchain.duals import (
    DualFunction,
    dual_via_solve,
    hypergeometric_function,
    siegmund_dual,
    siegmund_function,
    verify_duality,
)
from dualchain.intertwining import (
    build_intertwining,
    identity_residuals,
    spectrum_equivalence,
)
from dualchain.samplers import random_monotone_kernel
from dualchain.spectra import moran_mutation_spectrum


def _trace_match(out: dict, n: int) -> bool:
    """Whether the trace deviation of ``out`` passes the trace_match gate
    of ``cli.VERIFY_CHECKS`` on n states."""
    return out["max_deviation"] <= cli.VERIFY_CHECKS["trace_match"][1](n)


def test_pipeline_chain_a_frozen_values(pipeline_a):
    P, res = pipeline_a
    np.testing.assert_allclose(res.pi, [0.4, 0.6], atol=1e-12)
    np.testing.assert_allclose(res.phi, [0.4, 1.0], atol=1e-12)
    np.testing.assert_allclose(res.link, [[1.0, 0.0], [0.4, 0.6]], atol=1e-12)
    np.testing.assert_allclose(res.p_tilde, [[0.5, 0.5], [0.0, 1.0]], atol=1e-12)
    K = siegmund_function(1).matrix / res.phi[None, :]          # H D_phi^{-1}
    np.testing.assert_allclose(K, [[2.5, 1.0], [0.0, 1.0]], atol=1e-12)


def test_pipeline_chain_b_frozen_values(pipeline_b):
    P, res = pipeline_b
    np.testing.assert_allclose(res.pi, [1 / 6, 1 / 3, 1 / 2], atol=1e-12)
    np.testing.assert_allclose(res.phi, [1 / 6, 1 / 2, 1.0], atol=1e-12)
    np.testing.assert_allclose(
        res.link,
        [[1.0, 0.0, 0.0], [1 / 3, 2 / 3, 0.0], [1 / 6, 1 / 3, 1 / 2]],
        atol=1e-12,
    )
    np.testing.assert_allclose(
        res.p_tilde,
        [[0.7, 0.3, 0.0], [0.1, 0.5, 0.4], [0.0, 0.0, 1.0]],
        atol=1e-12,
    )


def test_pipeline_diagnostics_tiny(pipeline_b):
    P, res = pipeline_b
    d = res.diagnostics
    r = identity_residuals(P, siegmund_dual(P).dual, res)
    assert d["duality"]["static"] <= 1e-12
    assert d["weighted_duality"] <= 1e-12
    assert d["intertwining"] <= 1e-12
    assert d["k_duality"] <= 1e-12
    assert d["k_duality_scaled"] <= 1e-12
    assert d["phi_harmonic"] <= 1e-12
    assert d["phi_class_spread"] <= 1e-12
    assert r["phi_decomposition"] <= 1e-12
    assert d["absorbing_rows"] == {2: pytest.approx(0.0, abs=1e-12)}
    assert _trace_match(r["trace_comparison"], 3)


def test_pipeline_records_only_the_one_step_duality_residual():
    # static is the first step of verify_duality's loop, equal bit for bit
    # to ||H dual' - P H||; the n-step loop is left to verify
    rng = np.random.default_rng(20240509)
    chains = [bd_kernel(moran_kernel(N, mutation_bias(0.5, 0.5, N))) for N in (10, 100)]
    chains += [random_monotone_kernel(rng, int(rng.integers(2, 40))) for _ in range(20)]
    for P in chains:
        m = np.asarray(P, dtype=float)
        H = siegmund_function(m.shape[0] - 1)
        dual = siegmund_dual(P).dual
        out = verify_duality(P, H, dual)
        assert set(out) == {"static", "dynamic"}
        assert out["static"] == kernels.sup_norm(H.matrix @ np.asarray(dual).T - m @ H.matrix)
        res = build_intertwining(P, H, dual)
        assert res.diagnostics["duality"] == {"static": out["static"]}


def test_pipeline_requires_irreducible():
    P = np.array([[1.0, 0.0], [0.5, 0.5]])
    # refused before the duality gate reads the (here wrong) dual
    for dual in (siegmund_dual(P).dual, np.eye(2)):
        with pytest.raises(errors.NotIrreducibleError):
            build_intertwining(P, siegmund_function(1), dual)


def test_pipeline_hands_on_the_residual_of_a_wrong_dual(chain_a):
    # the identity matrix is no Siegmund dual of chain a, but every later
    # stage is defined on it: the stage reads ||P H - H I|| and gates nothing
    P = bd_kernel(chain_a)
    res = build_intertwining(P, siegmund_function(1), np.eye(2))
    H = siegmund_function(1).matrix
    assert res.diagnostics["duality"]["static"] == kernels.sup_norm(P.matrix @ H - H) > 0.1
    assert res.diagnostics["phi_harmonic"] == 0.0


def test_a_stochastic_dual_with_one_class_is_its_own_transform():
    # a doubly stochastic P is dual to its transpose through H = I; that dual
    # is stochastic with one class, so phi = pi is constant and P~ is the dual
    P = np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
    res = build_intertwining(P, DualFunction(np.eye(3), "custom"), P.T)
    np.testing.assert_allclose(res.phi, 1 / 3, rtol=1e-15)
    assert [cls for cls, _ in res.class_constants] == [(0, 1, 2)]
    assert res.diagnostics["phi_constant"] == 0.0
    assert res.diagnostics["p_tilde_equals_dual"] == 0.0


def test_constant_column_detection():
    H = hypergeometric_function(4)
    params = moran_kernel(4, mutation_bias(0.3, 0.2, 4))
    rep = dual_via_solve(bd_kernel(params), H)
    # column 0 of H is the only constant column, and the dual absorbs there
    constant = [j for j in range(H.n) if np.ptp(H.matrix[:, j]) == 0]
    assert constant == [0]
    np.testing.assert_allclose(H.matrix[:, 0], 1.0)
    assert 0 in kernels.absorbing_states(rep.dual)


def test_spectrum_equivalence_shape(pipeline_a):
    P, res = pipeline_a
    out = spectrum_equivalence(P.matrix, res.p_tilde)
    np.testing.assert_allclose(out["traces"], out["traces_tilde"], atol=1e-12)
    assert _trace_match(out, 2)
    with pytest.raises(errors.DimensionMismatchError):
        spectrum_equivalence(P.matrix, np.eye(3))


def test_spectrum_equivalence_paper_scale_closed_form():
    # the hidden chain of Moran (N, a1, a2) has the spectrum t_k of the
    # chain itself, in closed form (the paper's birth-death section)
    N = 300
    P = bd_kernel(moran_kernel(N, mutation_bias(0.25, 0.25, N)))
    H, dual = siegmund_function(N), siegmund_dual(P).dual
    res = build_intertwining(P, H, dual)
    t = moran_mutation_spectrum(N, 0.25, 0.25).eigenvalues
    power_sums = np.sum(t[None, :] ** np.arange(1, N + 2)[:, None], axis=1)
    out = identity_residuals(P, dual, res)["trace_comparison"]
    np.testing.assert_allclose(out["traces_tilde"], power_sums, rtol=0, atol=1e-10)
    assert _trace_match(out, N + 1)


def test_spectrum_equivalence_catches_moved_diagonal_mass(pipeline_b):
    # 1e-6 of mass from Ptilde(1, 1) to Ptilde(1, 2): rows stay stochastic,
    # tr(Ptilde) moves by 1e-6, above the gate 3e-8 of n = 3
    P, res = pipeline_b
    pt = np.array(res.p_tilde)
    pt[1, 1] -= 1e-6
    pt[1, 2] += 1e-6
    out = spectrum_equivalence(P.matrix, pt)
    assert out["traces"][0] - out["traces_tilde"][0] == pytest.approx(1e-6, rel=1e-6)
    assert not _trace_match(out, 3)


def test_the_pipeline_runs_on_p_unless_its_reversal_differs(direct_residuals):
    # a dense P runs on P when its reversal is within RESID_TOL of it (the
    # symmetric one, whose pi is uniform), otherwise on the reversal; the
    # link reading carries the drift between P and its reversal, so it
    # bounds the link measured against P
    sym = np.array([[0.6, 0.3, 0.1], [0.3, 0.4, 0.3], [0.1, 0.3, 0.6]])
    dense = np.array([[0.5, 0.3, 0.2, 0.0], [0.2, 0.4, 0.3, 0.1],     # dense_monotone.json
                      [0.1, 0.2, 0.4, 0.3], [0.0, 0.1, 0.3, 0.6]])
    for m, reversible in ((sym, True), (dense, False)):
        P = kernels.validate_kernel(m, require="stochastic")
        res = build_intertwining(P, siegmund_function(len(m) - 1), siegmund_dual(P).dual)
        if reversible:
            assert res.back is P
            H, dual = siegmund_function(len(m) - 1), siegmund_dual(P).dual
            direct = direct_residuals(P, H, dual, res)["intertwining"]
            assert direct <= res.diagnostics["intertwining"] + 1e-15
        else:
            assert np.array_equal(res.back, kernels.reversal(P, res.pi))
            assert kernels.sup_norm(np.asarray(res.back) - m) > 1e-2


def test_moran_hypergeometric_pipeline():
    params = moran_kernel(5, mutation_bias(0.3, 0.2, 5))
    P = bd_kernel(params)
    H = hypergeometric_function(5)
    rep = dual_via_solve(P, H)
    res = build_intertwining(P, H, rep.dual)
    # the dual absorbs at 0 and the transform keeps that state
    assert res.diagnostics["absorbing_rows"].keys() == {0}
    np.testing.assert_allclose(res.link[0], res.pi, atol=1e-12)
    np.testing.assert_allclose(res.phi[0], 1.0, atol=1e-12)
    assert _trace_match(identity_residuals(P, rep.dual, res)["trace_comparison"], 6)


def test_k_duality_scaled_at_paper_scale(direct_residuals):
    # K = H / phi reaches 1e30 at Moran N = 100: K Ptilde' - P K formed from
    # products is rounding of entries that size, while the reading off the
    # duality residual, |E| / phi, is not, and its scaled form
    # |E| / (P H + H dual') stays near eps
    P = bd_kernel(moran_kernel(100, mutation_bias(0.5, 0.5, 100)))
    H, dual = siegmund_function(100), siegmund_dual(P).dual
    res = build_intertwining(P, H, dual)
    d, ref = res.diagnostics, direct_residuals(P, H, dual, res)
    assert (H.matrix / res.phi[None, :]).max() > 1e29
    assert ref["k_duality"] > 1.0 and d["k_duality"] < 1e-3
    assert d["k_duality_scaled"] <= 1e-14
    assert abs(d["k_duality_scaled"] - ref["k_duality_scaled"]) <= 1e-14


def test_the_construction_follows_its_formulas():
    # Ptilde and Lambda are one expression each of phi, pi, H and the dual,
    # and K = H D_phi^{-1} (k_map.csv) is one of H and phi; no stage measures
    # them, so their formulas are pinned here, on a record dual and on a
    # dense one (dense_monotone.json)
    record = bd_kernel(moran_kernel(30, mutation_bias(0.3, 0.2, 30)))
    dense = np.array([[0.5, 0.3, 0.2, 0.0], [0.2, 0.4, 0.3, 0.1],
                      [0.1, 0.2, 0.4, 0.3], [0.0, 0.1, 0.3, 0.6]])
    for P, is_record in ((record, True), (dense, False)):
        H, dual = siegmund_function(len(np.asarray(P)) - 1), siegmund_dual(P).dual
        res = build_intertwining(P, H, dual)
        assert (res.p_tilde.bands is not None) == is_record
        phi, pt, d = res.phi, np.asarray(res.p_tilde), np.asarray(dual, dtype=float)
        # Ptilde(x, y) phi(x) = dual(x, y) phi(y)
        np.testing.assert_allclose(pt * phi[:, None], d * phi[None, :],
                                   rtol=8 * np.finfo(float).eps, atol=0)
        K = H.matrix / phi[None, :]
        np.testing.assert_allclose(res.link, K.T * res.pi[None, :], rtol=1e-15, atol=0)
        np.testing.assert_allclose(K * phi[None, :], H.matrix, rtol=1e-15, atol=0)


def test_an_h_within_eps_neg_of_nonnegative_runs_as_its_clamped_self():
    # H(1, 0) = -5e-13 is accepted and stored as 0, so Lambda holds no
    # negative entry (-2e-12 = H(1, 0) pi(1) / phi(0) unclamped, as pi is
    # proportional to (1, 4, 16)) and every output is that of the exact H
    P = bd_kernel(make_bd(p=[0.4, 0.4, 0.0], q=[0.0, 0.1, 0.1]))
    near = np.triu(np.ones((3, 3)))
    near[1, 0] = -5e-13
    got, exact = (build_intertwining(P, H, dual_via_solve(P, H).dual) for H in (
        DualFunction(near, "custom"), DualFunction(np.triu(np.ones((3, 3))), "custom")))
    assert np.min(got.link) >= 0
    for name in ("pi", "phi", "link", "p_tilde", "back"):
        np.testing.assert_array_equal(np.asarray(getattr(got, name)),
                                      np.asarray(getattr(exact, name)))
    assert got.diagnostics == exact.diagnostics
    assert got.class_constants == exact.class_constants


def test_a_phi_that_underflows_to_zero_is_refused():
    # pi falls to 4.7e-320 at the top state, and H(31, 31) = 1e-5 takes
    # phi(31) = 1e-5 pi(31) below the smallest subnormal
    P = bd_kernel(make_bd([2.5e-11] * 31 + [0.0], [0.0] + [0.5] * 31))
    m = np.eye(32)
    m[31, 31] = 1e-5
    H = DualFunction(m, "custom")
    with pytest.raises(errors.HarmonicNotPositiveError, match="nonpositive entry"):
        build_intertwining(P, H, dual_via_solve(P, H).dual)


def test_a_dual_that_phi_does_not_make_stochastic_is_refused():
    # 1e-6 moved from (3, 3) to (3, 2) keeps the dual's row sums, but phi is
    # no longer harmonic for it, so row 3 of Ptilde misses 1 by 5.7e-7
    P = bd_kernel(moran_kernel(10, mutation_bias(0.3, 0.2, 10)))
    dual = np.array(siegmund_dual(P).dual, dtype=float)
    dual[3, 3] -= 1e-6
    dual[3, 2] += 1e-6
    with pytest.raises(errors.LinkNotStochasticError, match="Ptilde is not a stochastic"):
        build_intertwining(P, siegmund_function(10), dual)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**31 - 1))
def test_pipeline_invariants_random_monotone(agrees, n, seed):
    rng = np.random.default_rng(seed)
    P = random_monotone_kernel(rng, n)
    H, dual = siegmund_function(n - 1), siegmund_dual(P).dual
    res = build_intertwining(P, H, dual)
    assert np.min(res.phi) > 0
    assert res.phi[-1] == pytest.approx(1.0, abs=1e-12)
    d = {**res.diagnostics, **identity_residuals(P, dual, res)}
    assert d["intertwining"] <= 1e-10
    assert d["k_duality"] <= 1e-10
    assert agrees(P, H, dual, res)
    assert d["trace_comparison"]["max_deviation"] <= 1e-8 * n
    # row sums of link and p_tilde
    np.testing.assert_allclose(res.link.sum(axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(np.asarray(res.p_tilde).sum(axis=1), 1.0, atol=1e-9)

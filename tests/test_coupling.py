import tracemalloc

import numpy as np
import pytest

from dualchain import errors
from dualchain.chains import bd_kernel, moran_kernel, mutation_bias
from dualchain.coupling import (
    empirical_report,
    exact_joint,
    product_kernel,
    simulate,
)
from dualchain.duals import siegmund_dual, siegmund_function
from dualchain.intertwining import build_intertwining


def pair_matrix(pk):
    """Oracle: the coupled kernel multiplied out into the dense
    (n nt) x (n nt) matrix P(x, y) Ptilde(xt, yt) Lambda(yt, y) / (Lambda P)(xt, y),
    0/0 read as 0, with rows at inconsistent pairs holding in place."""
    m, pt, L = pk.p, pk.p_tilde, pk.link
    n, nt = pk.n, pk.n_tilde
    W = L @ m
    M = pt[:, None, :] * L.T[None, :, :]         # (xt, y, yt)
    D = np.divide(M, W[:, :, None], out=np.zeros_like(M), where=W[:, :, None] > 0)
    big = (m[:, None, :, None] * D[None, :, :, :]).reshape(n * nt, n * nt)
    idx = np.flatnonzero(~pk.consistent.reshape(-1))
    big[idx] = 0.0
    big[idx, idx] = 1.0
    return big


def moran_coupled(N, a1, a2):
    P = bd_kernel(moran_kernel(N, mutation_bias(a1, a2, N)))
    res = build_intertwining(P, siegmund_function(N), siegmund_dual(P).dual)
    return product_kernel(P.matrix, res.p_tilde, res.link), res


@pytest.fixture
def coupled_a(pipeline_a):
    P, res = pipeline_a
    return product_kernel(P.matrix, res.p_tilde, res.link), res


@pytest.fixture
def coupled_b(pipeline_b):
    P, res = pipeline_b
    return product_kernel(P.matrix, res.p_tilde, res.link), res


def test_product_kernel_rows_and_consistency(coupled_a):
    pk, res = coupled_a
    big = pair_matrix(pk)
    np.testing.assert_allclose(big.sum(axis=1), 1.0, atol=1e-12)
    assert np.min(big) >= 0
    lp = pk.link @ pk.p
    np.testing.assert_allclose(pk.inv_lp * lp, (lp > 0).astype(float), atol=1e-15)
    # consistent pairs are exactly the positive link entries
    np.testing.assert_array_equal(pk.consistent, res.link.T > 1e-12)
    assert pk.pair_index(1, 0) == 2


def test_product_kernel_rejects_wrong_link(pipeline_a):
    P, res = pipeline_a
    with pytest.raises(errors.IntertwiningResidualError):
        product_kernel(P.matrix, res.p_tilde, np.eye(2))


def test_absorbed_hidden_rows_follow_observed_kernel(coupled_b):
    pk, res = coupled_b
    big = pair_matrix(pk)
    a = 2  # absorbing hidden state carrying pi
    for x in range(pk.n):
        row = big[pk.pair_index(x, a)].reshape(pk.n, pk.n_tilde)
        # the hidden coordinate stays put and the observed one moves by P
        np.testing.assert_allclose(row.sum(axis=1), pk.p[x], atol=1e-12)
        np.testing.assert_allclose(row[:, :a], 0.0, atol=1e-15)


def test_exact_joint_product_form(coupled_a, coupled_b):
    for pk, res in (coupled_a, coupled_b):
        nu0 = np.zeros(pk.n_tilde)
        nu0[0] = 1.0
        out = exact_joint(pk, nu0, 20)
        assert out["observed_marginal_dev"] <= 1e-12
        assert out["hidden_marginal_dev"] <= 1e-12
        assert out["product_form_dev"] <= 1e-12
        np.testing.assert_allclose(out["joint"].sum(), 1.0, atol=1e-12)


def test_exact_joint_matches_pair_matrix(coupled_a, coupled_b):
    for pk in (coupled_a[0], coupled_b[0], moran_coupled(10, 0.5, 0.5)[0]):
        big = pair_matrix(pk)
        nu0 = np.arange(1.0, pk.n_tilde + 1)
        nu0 /= nu0.sum()
        rho = (nu0[None, :] * pk.link.T).reshape(-1)
        for t in range(1, 31):
            rho = rho @ big
            np.testing.assert_allclose(exact_joint(pk, nu0, t)["joint"], rho, rtol=0, atol=1e-15)


def test_simulated_steps_follow_pair_matrix(coupled_b):
    # one step of every path is a draw from the oracle's row at its start pair
    pk, _ = coupled_b
    nu0 = np.array([0.5, 0.3, 0.2])
    rho0 = (nu0[None, :] * pk.link.T).reshape(-1)
    paths = 40000
    batch = simulate(pk, nu0, n_steps=1, n_paths=paths, seed=2)
    s0 = batch.x[:, 0] * pk.n_tilde + batch.x_tilde[:, 0]
    s1 = batch.x[:, 1] * pk.n_tilde + batch.x_tilde[:, 1]
    freq = np.bincount(s0 * rho0.size + s1, minlength=rho0.size**2) / paths
    exact = (rho0[:, None] * pair_matrix(pk)).reshape(-1)
    se = np.sqrt(exact * (1 - exact) / paths)
    assert np.all(np.abs(freq - exact) <= 4 * se + 1e-12)


def test_coupling_memory_is_factored():
    # the pair matrix of this chain alone would take 8 (101^2)^2 bytes = 833 MB
    N = 100
    pk, res = moran_coupled(N, 0.5, 0.5)
    nu0 = np.zeros(N + 1)
    nu0[0] = 1.0
    tracemalloc.start()
    try:
        pk = product_kernel(pk.p, res.p_tilde, res.link)
        out = exact_joint(pk, nu0, 30)
        batch = simulate(pk, nu0, n_steps=10, n_paths=1000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert out["product_form_dev"] <= 1e-12
    assert np.all(res.link[batch.x_tilde.ravel(), batch.x.ravel()] > 0)


def test_simulate_reproducible(coupled_b):
    pk, _ = coupled_b
    nu0 = np.array([1.0, 0.0, 0.0])
    b1 = simulate(pk, nu0, n_steps=12, n_paths=500, seed=3)
    b2 = simulate(pk, nu0, n_steps=12, n_paths=500, seed=3)
    np.testing.assert_array_equal(b1.x, b2.x)
    np.testing.assert_array_equal(b1.x_tilde, b2.x_tilde)
    b3 = simulate(pk, nu0, n_steps=12, n_paths=500, seed=4)
    assert not np.array_equal(b1.x, b3.x)


def test_simulated_paths_stay_consistent(coupled_b):
    pk, res = coupled_b
    nu0 = np.array([0.0, 1.0, 0.0])
    batch = simulate(pk, nu0, n_steps=20, n_paths=400, seed=5)
    assert batch.n_paths == 400 and batch.n_steps == 20
    # every visited pair has positive link mass
    assert np.all(res.link[batch.x_tilde.ravel(), batch.x.ravel()] > 0)
    # hidden absorption is permanent
    absorbed = batch.x_tilde == 2
    assert np.all(absorbed[:, :-1] <= absorbed[:, 1:])


def test_empirical_report_within_three_se(coupled_b):
    pk, _ = coupled_b
    nu0 = np.array([1.0, 0.0, 0.0])
    batch = simulate(pk, nu0, n_steps=30, n_paths=20000, seed=7)
    rep = empirical_report(batch, pk, nu0)
    assert rep["ok"]
    assert rep["n_paths"] == 20000
    assert all(c["observed_within_3se"] for c in rep["checks"])
    assert all(c["conditional_within_3se"] for c in rep["checks"])


def test_fingerprint_tracks_inputs(coupled_a, coupled_b):
    pk_a, _ = coupled_a
    pk_b, _ = coupled_b
    assert pk_a.fingerprint() == pk_a.fingerprint()
    assert pk_a.fingerprint() != pk_b.fingerprint()
    batch = simulate(pk_a, np.array([1.0, 0.0]), n_steps=3, n_paths=8, seed=1)
    assert batch.fingerprint == pk_a.fingerprint()

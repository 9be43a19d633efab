import dataclasses
import hashlib
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from dualchain import cli, coupling, errors, kernels
from dualchain.chains import bd_kernel, moran_kernel, mutation_bias
from dualchain.coupling import (
    TrajectoryBatch,
    _row_supports,
    empirical_report,
    exact_joint,
    product_kernel,
    simulate,
)
from dualchain.duals import bd_siegmund_dual, siegmund_dual, siegmund_function
from dualchain.intertwining import build_intertwining
from dualchain.samplers import random_monotone_kernel

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    idx = np.flatnonzero(~(L.T > 1e-12).reshape(-1))   # pairs with Lambda(xt, x) = 0
    big[idx] = 0.0
    big[idx, idx] = 1.0
    return big


def stepwise_joint(pk, pi_tilde0, n_steps):
    """Oracle: the law pushed one step at a time, with the three deviations
    taken after every step; the zeros of Lambda P divide as inf."""
    nu0 = kernels.validate_prob_vector(pi_tilde0, "pi_tilde0", pk.n_tilde)
    L = pk.link
    lp = np.where(pk.lp == 0.0, np.inf, pk.lp)
    rho = nu0[None, :] * L.T
    mu = nu0 @ L
    nu = nu0.copy()
    obs_dev = hid_dev = prod_dev = 0.0
    for _ in range(n_steps):
        rho = (((rho.T @ pk.p) / lp).T @ pk.p_tilde) * L.T
        mu = mu @ pk.p
        nu = nu @ pk.p_tilde
        obs_dev = max(obs_dev, kernels.sup_norm(rho.sum(axis=1) - mu))
        hid_dev = max(hid_dev, kernels.sup_norm(rho.sum(axis=0) - nu))
        prod_dev = max(prod_dev, kernels.sup_norm(rho - (nu[None, :] * L.T)))
    return {
        "joint": rho.reshape(-1),
        "observed_marginal_dev": obs_dev,
        "hidden_marginal_dev": hid_dev,
        "product_form_dev": prod_dev,
        "observed_final": mu,
        "hidden_final": nu,
    }


_DEVS = ("observed_marginal_dev", "hidden_marginal_dev", "product_form_dev")


def assert_same_joint(got, want):
    for key in ("joint", "observed_final", "hidden_final"):
        assert np.array_equal(got[key], want[key]), key
        assert got[key].base is None, key    # owns its memory, not a view of a stack
    for key in _DEVS:
        assert got[key] == want[key], key


def dense_simulate(pk, pi_tilde0, n_steps, n_paths, seed=0):
    """Oracle: the same SFC64 stream with inverse transform over whole
    rows, gathering (n_paths, n) slices of P, Ptilde and the link each step.
    The start CDF reads 1 from its last pair of positive mass on."""
    nu0 = kernels.validate_prob_vector(pi_tilde0, "pi_tilde0", pk.n_tilde)
    g = np.random.Generator(np.random.SFC64(seed))
    start_mass = (nu0[None, :] * pk.link.T).reshape(-1)
    start_cum = np.cumsum(start_mass)
    cum_p = np.cumsum(pk.p, axis=1)
    start_cum[np.flatnonzero(start_mass > 0)[-1]:] = 1.0
    cum_p[:, -1] = 1.0
    x = np.empty((n_paths, n_steps + 1), dtype=np.int64)
    xt = np.empty_like(x)
    x[:, 0], xt[:, 0] = np.divmod(np.searchsorted(start_cum, g.random(n_paths), side="right"),
                                  pk.n_tilde)
    for t in range(1, n_steps + 1):
        u = g.random((2, n_paths))
        y = (u[0, :, None] > cum_p[x[:, t - 1]]).sum(axis=1)
        cum_w = np.cumsum(pk.p_tilde[xt[:, t - 1]] * pk.link[:, y].T, axis=1)
        x[:, t] = y
        xt[:, t] = ((u[1] * cum_w[:, -1])[:, None] > cum_w).sum(axis=1)
    return TrajectoryBatch(x=x, x_tilde=xt, seed=seed)


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
    pk, _ = coupled_a
    big = pair_matrix(pk)
    np.testing.assert_allclose(big.sum(axis=1), 1.0, atol=1e-12)
    assert np.min(big) >= 0
    assert np.array_equal(pk.lp, pk.link @ pk.p)
    # pair states s = x * n_tilde + xt
    assert big.shape == (pk.n * pk.n_tilde,) * 2


def test_product_kernel_reuses_its_products():
    # oracle: the factors as they were formed with Lambda P and Ptilde Lambda
    # each computed twice
    pk, _ = moran_coupled(30, 0.3, 0.2)
    m, pt, L = pk.p, pk.p_tilde, pk.link
    assert kernels.sup_norm(pt @ L - L @ m) <= 1e-10
    W = L @ m
    inv_lp = np.divide(1.0, W, out=np.zeros_like(W), where=W > 0)
    sums = (m @ ((pt @ L) * inv_lp).T).reshape(-1)
    assert np.abs(sums[(L.T > 1e-12).reshape(-1)] - 1.0).max() <= 1e-9
    assert np.array_equal(pk.lp, W)
    oracle = dataclasses.replace(pk, lp=W)
    nu0 = np.eye(pk.n_tilde)[0]
    assert np.array_equal(exact_joint(pk, nu0, 20)["joint"],
                          exact_joint(oracle, nu0, 20)["joint"])


def test_product_kernel_rejects_wrong_link(pipeline_a):
    P, res = pipeline_a
    with pytest.raises(errors.IntertwiningResidualError):
        product_kernel(P.matrix, res.p_tilde, np.eye(2))


# pi falls to 4.7e-320 at the top state, so (Lambda P)(xt, y) reaches
# subnormal values whose reciprocal overflows
SUBNORMAL = {"kind": "bd", "p": [2.5e-11] * 31 + [0.0], "q": [0.0] + [0.5] * 31}


def test_row_sum_gate_reads_finite_sums_where_lambda_p_is_subnormal(tmp_path):
    res = cli.pipeline(SUBNORMAL, {}).res
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SUBNORMAL))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)     # nothing overflows
        pk = product_kernel(res.back, res.p_tilde, res.link)
        assert cli.run(["simulate", "--config", str(path), "--out", str(tmp_path),
                        "--trials", "2000"]) == 0
    assert json.loads((tmp_path / "simulate_summary.json").read_text())["ok"]
    consistent = (pk.link.T > 1e-12).reshape(-1)
    V, W = pk.p_tilde @ pk.link, pk.link @ pk.p
    with np.errstate(over="ignore", invalid="ignore"):
        inv_lp = np.divide(1.0, W, out=np.zeros_like(W), where=W > 0)
        through_inv = (pk.p @ (V * inv_lp).T).reshape(-1)
    assert np.isinf(inv_lp).any()
    ratio = np.divide(V, W, out=np.zeros_like(W), where=W > 0)
    sums = (pk.p @ ratio.T).reshape(-1)
    # the sums read through 1 / (Lambda P) are NaN at some consistent pairs;
    # those read from the ratio are 1
    assert np.isnan(through_inv[consistent]).any()
    assert np.abs(sums[consistent] - 1.0).max() <= 1e-15


def test_exact_joint_is_finite_where_lambda_p_is_subnormal(monkeypatch):
    # pushed through 1 / (Lambda P), every entry of the law was NaN
    monkeypatch.syspath_prepend(str(CONFIGS.parent / "perfbench"))
    import checks

    res = cli.pipeline(SUBNORMAL, {}).res
    pk = product_kernel(res.back, res.p_tilde, res.link)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = exact_joint(pk, np.eye(pk.n_tilde)[0], 50)
    assert np.isfinite(got["joint"]).all()
    assert checks.check_exact_joint(got) == []
    assert all(got[key] <= 1e-15 for key in _DEVS)
    assert_same_joint(got, stepwise_joint(pk, np.eye(pk.n_tilde)[0], 50))


def test_row_sum_gate_refuses_a_nan_row(coupled_a, monkeypatch):
    pk, res = coupled_a
    measure = kernels.link_residual

    def planted(pt, L, m):
        r, V, W = measure(pt, L, m)
        V[0, 0] = np.nan
        return r, V, W

    monkeypatch.setattr(kernels, "link_residual", planted)
    with pytest.raises(errors.NotStochasticError, match="sums to nan"):
        product_kernel(pk.p, res.p_tilde, res.link)


def test_absorbed_hidden_rows_follow_observed_kernel(coupled_b):
    pk, res = coupled_b
    big = pair_matrix(pk)
    a = 2  # absorbing hidden state carrying pi
    for x in range(pk.n):
        row = big[x * pk.n_tilde + a].reshape(pk.n, pk.n_tilde)
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


def test_exact_joint_blocks_match_the_per_step_oracle(coupled_a, coupled_b, monkeypatch):
    for pk in (coupled_a[0], coupled_b[0], moran_coupled(10, 0.5, 0.5)[0]):
        nu0 = np.arange(1.0, pk.n_tilde + 1)
        nu0 /= nu0.sum()
        want = stepwise_joint(pk, nu0, 20)
        # the default budget holds all 20 steps in one block; then blocks of 3
        for budget in (coupling._JOINT_CHUNK, 3 * pk.n * pk.n_tilde):
            monkeypatch.setattr(coupling, "_JOINT_CHUNK", budget)
            assert_same_joint(exact_joint(pk, nu0, 20), want)
        assert_same_joint(exact_joint(pk, nu0, 0), stepwise_joint(pk, nu0, 0))


def test_exact_joint_blocks_do_not_pass_a_wrong_kernel(monkeypatch):
    # Moran (10, .5, .5) from state 0 in blocks of 4 steps.  Each wrong
    # kernel first shows at step 6, inside the block of steps 5-8.  A wrong
    # Ptilde keeps the product form, so only the observed marginal shows it.
    pk, _ = moran_coupled(10, 0.5, 0.5)
    nu0 = np.eye(pk.n_tilde)[0]
    monkeypatch.setattr(coupling, "_JOINT_CHUNK", 4 * pk.n * pk.n_tilde)
    p_tilde = pk.p_tilde.copy()
    p_tilde[5, 5] -= 1e-7
    p_tilde[5, 6] += 1e-7
    lp = pk.lp.copy()
    lp[5, 5] /= 1 + 1e-7
    for wrong, tripped in ((dataclasses.replace(pk, p_tilde=p_tilde), _DEVS[:1]),
                           (dataclasses.replace(pk, lp=lp), _DEVS)):
        assert all(exact_joint(wrong, nu0, 5)[key] <= 1e-10 for key in _DEVS)
        for steps in (6, 20):
            got = exact_joint(wrong, nu0, steps)
            assert_same_joint(got, stepwise_joint(wrong, nu0, steps))
            assert all(got[key] > 1e-10 for key in tripped)


def test_exact_joint_does_not_pass_a_nan_law(monkeypatch):
    # a NaN in Lambda P spreads through the law; the per-step loop's
    # max(dev, nan) kept dev, and all three deviations read 0.0
    pk, _ = moran_coupled(10, 0.5, 0.5)
    lp = pk.lp.copy()
    lp[5, 5] = np.nan
    wrong = dataclasses.replace(pk, lp=lp)
    for budget in (coupling._JOINT_CHUNK, 4 * pk.n * pk.n_tilde):
        monkeypatch.setattr(coupling, "_JOINT_CHUNK", budget)
        got = exact_joint(wrong, np.eye(pk.n_tilde)[0], 20)
        assert np.isnan(got["joint"]).any()
        assert all(np.isnan(got[key]) for key in _DEVS)


def test_exact_joint_refuses_negative_steps(coupled_b):
    pk, _ = coupled_b
    with pytest.raises(ValueError, match="n_steps"):
        exact_joint(pk, np.eye(3)[0], -2)


def test_simulate_refuses_negative_steps_and_no_paths(coupled_b):
    pk, _ = coupled_b
    with pytest.raises(ValueError, match="n_steps"):
        simulate(pk, np.eye(3)[0], n_steps=-1, n_paths=10)
    with pytest.raises(ValueError, match="n_paths"):
        simulate(pk, np.eye(3)[0], n_steps=5, n_paths=0)


def test_empirical_report_refuses_a_batch_without_steps(coupled_b):
    pk, _ = coupled_b
    batch = simulate(pk, np.eye(3)[0], n_steps=0, n_paths=10)
    with pytest.raises(ValueError, match="batch must have at least one step"):
        empirical_report(batch, pk, np.eye(3)[0])


def test_empirical_report_refuses_a_batch_without_paths(coupled_b):
    pk, _ = coupled_b
    empty = np.zeros((0, 31), dtype=np.int64)
    batch = TrajectoryBatch(x=empty, x_tilde=empty, seed=0)
    with pytest.raises(ValueError, match="batch must have at least one path"):
        empirical_report(batch, pk, np.eye(3)[0])


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
    assert all(c["observed_ok"] for c in rep["checks"])
    assert all(c["conditional_ok"] for c in rep["checks"])


def test_fingerprint_tracks_inputs(coupled_a, coupled_b):
    pk_a, _ = coupled_a
    pk_b, _ = coupled_b
    assert pk_a.fingerprint() == pk_a.fingerprint()
    assert pk_a.fingerprint() != pk_b.fingerprint()
    p = pk_a.p.copy()
    p[0, 0] = np.nextafter(p[0, 0], 0.0)
    assert dataclasses.replace(pk_a, p=p).fingerprint() != pk_a.fingerprint()


def pipeline_coupled(cfg):
    pipe = cli.pipeline(cfg, cfg.get("options", {}))
    return product_kernel(pipe.res.back, pipe.res.p_tilde, pipe.res.link)


def sampled_chains():
    dense = random_monotone_kernel(np.random.default_rng(5), 20)
    return {
        "chain_a": pipeline_coupled(json.loads((CONFIGS / "chain_a.json").read_text())),
        "chain_b": pipeline_coupled({"kind": "bd", "p": [0.2, 0.3, 0.0], "q": [0.0, 0.1, 0.2],
                                     "dual": {"family": "siegmund"}}),
        "moran_hypergeometric": pipeline_coupled(
            json.loads((CONFIGS / "moran_hypergeometric.json").read_text())),
        "moran_10": moran_coupled(10, 0.5, 0.5)[0],
        "moran_20": moran_coupled(20, 0.3, 0.2)[0],
        "dense_20": pipeline_coupled({"kind": "dense", "matrix": dense.tolist(),
                                      "dual": {"family": "siegmund"}}),
    }


@pytest.fixture(scope="module")
def chains_to_sample():
    return sampled_chains()


def test_sampled_chains_have_sparse_and_dense_rows(chains_to_sample):
    # the hypergeometric hidden chain has rows of five entries, the dense
    # chain rows of twenty, the Moran (10, .5, .5) chains rows of three
    widest = {name: int(np.count_nonzero(pk.p_tilde, axis=1).max())
              for name, pk in chains_to_sample.items()}
    assert widest["moran_hypergeometric"] == 5
    assert widest["moran_10"] == 3
    assert int(np.count_nonzero(chains_to_sample["dense_20"].p, axis=1).min()) == 20


@pytest.mark.parametrize("N, a1, a2", [(20, 0.3, 0.2), (40, 0.1, 0.1), (100, 0.3, 0.2)])
def test_siegmund_hidden_chain_is_tridiagonal(N, a1, a2):
    # rounding of the saturated cumulative sums once left 34, 64 and 561
    # entries of order 1e-16 outside the band, rows of 5, 5 and 13 entries
    _, res = moran_coupled(N, a1, a2)
    assert np.count_nonzero(np.triu(res.p_tilde, 2)) == 0
    assert np.count_nonzero(np.tril(res.p_tilde, -2)) == 0
    assert _row_supports(np.asarray(res.p_tilde)).shape[1] == 3
    params = moran_kernel(N, mutation_bias(a1, a2, N))
    dual = siegmund_dual(bd_kernel(params)).dual
    assert np.abs(dual - bd_siegmund_dual(params)).max() <= np.finfo(float).eps


@pytest.mark.parametrize("name", ["chain_a", "chain_b", "moran_hypergeometric",
                                  "moran_10", "moran_20", "dense_20"])
def test_simulate_matches_dense_oracle(chains_to_sample, name):
    pk = chains_to_sample[name]
    spread = np.arange(1.0, pk.n_tilde + 1)
    starts = (np.eye(pk.n_tilde)[0], spread / spread.sum())
    # n_tilde n - 1 paths form the hidden sums per path, n_tilde n paths table them
    assert pk.n_tilde * pk.n <= 32767
    dtype = np.int8 if pk.n_tilde * pk.n <= 127 else np.int16
    for paths in (1, 7, pk.n_tilde * pk.n - 1, pk.n_tilde * pk.n, 2500):
        for steps in (0, 1, 7, 8, 9, 30):
            for seed, nu0 in ((0, starts[0]), (11, starts[1]), (2**40 + 3, starts[0])):
                got = simulate(pk, nu0, n_steps=steps, n_paths=paths, seed=seed)
                want = dense_simulate(pk, nu0, n_steps=steps, n_paths=paths, seed=seed)
                assert np.array_equal(got.x, want.x), (paths, steps, seed)
                assert np.array_equal(got.x_tilde, want.x_tilde), (paths, steps, seed)
                assert got.x.T.flags.c_contiguous and got.x_tilde.T.flags.c_contiguous
                assert got.x.dtype == dtype and got.x_tilde.dtype == dtype
                assert got.x.shape == (paths, steps + 1)
                # the oracle's arrays are C-order int64: the digest reads values only
                assert got.digest() == want.digest(), (paths, steps, seed)


# simulate(...).digest() of the sampled chains: literals pin the SFC64
# stream, its order of use and the draws without a second checkout.  They
# were re-recorded when the stream changed from Philox to SFC64, so they
# differ from those of earlier versions for the same seed.
GOLDEN_DIGESTS = {
    ("moran_10", 0, 2500, 30): "7a3e8af63478080a52d4bc10ef5ae5190f54c5c6e43344924b22999fd06111fc",
    ("moran_10", 0, 7, 9): "80ed4716e380c3a5748292119605c70b9236638a72f8fbdf54fcdc8e964d1ae7",
    ("moran_10", 11, 2500, 30): "c772fef49287a8dcb8a218022cab6f83b8c072dd1a73ee7087e71ff813a3b6ed",
    ("moran_10", 11, 7, 9): "ed34a0e6842502f9c085e8df7a2443c843d556ff903d1f3e373c3840d1f05b78",
    ("moran_20", 0, 2500, 30): "2f7c93419c6e5e3bcd1d610f0d53b6aa2251ba4acc7abd26bc4c54106a021b01",
    ("moran_20", 0, 7, 9): "2a949cfab059da47cd7b6b65111e47c79037391bd5e8d5fc4013c62eab02c4d7",
    ("moran_20", 11, 2500, 30): "a48f29bb3f93a6bb2313561e4de050bae630f16678dc6dab7a6c7c24c284c0bc",
    ("moran_20", 11, 7, 9): "dda07fba8325a546a0139454d0c4e00fc506496e3fc6b52a0573f0145fa27d94",
    ("dense_20", 0, 2500, 30): "aa6594262dbbc3e5abe49858b8e852d48b2eac61f73732b871016c43c9d6d50d",
    ("dense_20", 0, 7, 9): "c426b8be66ae46a9b079fb8ca0fab234dca3c150a263a2ba223a92212bcff959",
    ("dense_20", 11, 2500, 30): "97dc4507dc12b40dea5ca8cd0a0cb54d78aa6f0d43d17d9cee541192bed365f5",
    ("dense_20", 11, 7, 9): "dad5bf57cc02b237661a93c478ef16aded5ead21ddb0830332db792fe6484bde",
}


def test_simulate_matches_golden_digests(chains_to_sample):
    got = {}
    for name, seed, paths, steps in GOLDEN_DIGESTS:
        pk = chains_to_sample[name]
        spread = np.arange(1.0, pk.n_tilde + 1)
        nu0 = np.eye(pk.n_tilde)[0] if seed == 0 else spread / spread.sum()
        batch = simulate(pk, nu0, n_steps=steps, n_paths=paths, seed=seed)
        got[name, seed, paths, steps] = batch.digest()
        if paths == 2500:
            # a pinned batch of the larger size passes the family-wise test
            assert empirical_report(batch, pk, nu0)["ok"], (name, seed)
    assert got == GOLDEN_DIGESTS


def test_start_pair_cdf_never_picks_a_pair_without_mass():
    # nu0 sums to 1 - 9e-10, inside validate_prob_vector's tolerance, and
    # the last pair (10, 10) has no start mass: a uniform just below 1 once
    # started a path there
    pk, _ = moran_coupled(10, 0.3, 0.2)
    nu0 = np.zeros(pk.n_tilde)
    nu0[:2] = 0.5, 0.5 - 9e-10
    nu0 = kernels.validate_prob_vector(nu0, "pi_tilde0", pk.n_tilde)
    mass = (nu0[None, :] * pk.link.T).reshape(-1)
    assert mass[-1] == 0 and mass.sum() < np.nextafter(1.0, 0.0)
    cdf = coupling._start_cdf(pk, nu0)
    s = int(np.searchsorted(cdf, np.nextafter(1.0, 0.0), side="right"))
    assert mass[s] > 0
    batch = simulate(pk, nu0, n_steps=3, n_paths=500, seed=4)
    want = dense_simulate(pk, nu0, n_steps=3, n_paths=500, seed=4)
    assert np.array_equal(batch.x, want.x) and np.array_equal(batch.x_tilde, want.x_tilde)


def test_simulate_counts_rows_wider_than_255_entries():
    # observed rows of 300 entries and hidden rows of 92: the paths reach
    # x = 287, past what a count of one byte holds
    dense = random_monotone_kernel(np.random.default_rng(5), 300)
    pk = pipeline_coupled({"kind": "dense", "matrix": dense.tolist(),
                           "dual": {"family": "siegmund"}})
    assert int(np.count_nonzero(pk.p, axis=1).min()) == 300
    assert int(np.count_nonzero(pk.p_tilde, axis=1).max()) == 92
    nu0 = np.eye(pk.n_tilde)[0]
    got = simulate(pk, nu0, n_steps=5, n_paths=200, seed=3)
    want = dense_simulate(pk, nu0, n_steps=5, n_paths=200, seed=3)
    assert got.x.max() > 255
    assert np.array_equal(got.x, want.x)
    assert np.array_equal(got.x_tilde, want.x_tilde)


def test_simulate_memory_is_per_path():
    for N, paths, steps, limit_mb, dtype in (
        # the whole-row gathers of an earlier sampler peaked at 50 MB
        (100, 20000, 10, 12, np.int16),
        # n_tilde n > paths: a table of the hidden sums would add 2.2 MB
        (300, 1000, 10, 4, np.int32),
        # int8 step-major storage takes 6.2 MB of a 14.5 MiB peak; int32
        # storage peaked at 32.3 MiB, int64 path-major storage in blocks of
        # 8 steps at 65.7 MB
        (10, 100_000, 30, 20, np.int8),
    ):
        pk, _ = moran_coupled(N, 0.5, 0.5)
        nu0 = np.zeros(N + 1)
        nu0[0] = 1.0
        tracemalloc.start()
        try:
            batch = simulate(pk, nu0, n_steps=steps, n_paths=paths, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 2**20, N
        assert batch.x.T.flags.c_contiguous and batch.x_tilde.T.flags.c_contiguous
        assert batch.x.dtype == dtype and batch.x_tilde.dtype == dtype
    # the digest converts blocks of 2^17 entries to int64, not a whole
    # coordinate (24.8 MB here)
    tracemalloc.start()
    try:
        batch.digest()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("N, dtype", [(10, np.int8), (11, np.int16),
                                      (180, np.int16), (181, np.int32)])
def test_simulate_command_counts_in_the_storage_type(tmp_path, monkeypatch, N, dtype):
    # 121 and 144 pairs lie either side of int8's maximum 127, 32761 and
    # 33124 either side of int16's 32767.  Started at hidden state N - 1,
    # the paths reach pair indices (N - 1)(N + 1) + x, past the maximum of
    # the next narrower type, so a pair index that wrapped would show.
    batches = []

    def keep(*args, **kwargs):
        batches.append(simulate(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(coupling, "simulate", keep)
    cfg = {"kind": "moran_mutation", "N": N, "a1": 0.5, "a2": 0.5,
           "dual": {"family": "siegmund"},
           "options": {"n_max": 4, "trials": 2000, "seed": 1, "start": N - 1}}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert cli.run(["simulate", "--config", str(tmp_path / "config.json"),
                    "--out", str(tmp_path)]) == 0
    batch, = batches
    assert batch.x.dtype == dtype and batch.x_tilde.dtype == dtype
    wide = dataclasses.replace(batch, x=batch.x.astype(np.int64),
                               x_tilde=batch.x_tilde.astype(np.int64))
    narrower = {np.int16: np.int8, np.int32: np.int16}.get(dtype)
    assert narrower is None or (wide.x_tilde * (N + 1) + wide.x).max() > np.iinfo(narrower).max
    pk = pipeline_coupled(cfg)
    want = empirical_report(wide, pk, np.eye(N + 1)[N - 1])
    summary = json.loads((tmp_path / "simulate_summary.json").read_text())
    assert summary["checks"] == want["checks"]
    assert summary["trajectory_digest"] == wide.digest()
    rows = (tmp_path / "empirical.csv").read_text().splitlines()[1:]
    freq = {(int(t), int(s)): float(f) for t, _, s, f, _ in (r.split(",") for r in rows)}
    assert sorted({t for t, _ in freq}) == [2, 4]
    for t in (2, 4):
        counts = np.bincount(wide.x[:, t], minlength=N + 1)
        assert [freq[t, s] for s in range(N + 1)] == list(counts / 2000)


def test_storage_type_holds_the_factor_n():
    # a one-state hidden chain linked by pi intertwines with any chain: with
    # n = 128 the pair indices stay below 128, but the factor n of
    # empirical_report's xt n + x does not fit int8
    P = bd_kernel(moran_kernel(127, mutation_bias(0.5, 0.5, 127))).matrix
    pk = product_kernel(P, np.ones((1, 1)), kernels.stationary(P)[None, :])
    batch = simulate(pk, [1.0], n_steps=2, n_paths=500, seed=0)
    assert batch.x.dtype == np.int16
    assert empirical_report(batch, pk, [1.0])["ok"]


def test_digest_reads_blocks_of_paths(monkeypatch):
    pk, _ = moran_coupled(10, 0.5, 0.5)
    batch = simulate(pk, np.eye(11)[0], n_steps=30, n_paths=10_000, seed=2)
    whole = hashlib.sha256()
    for a in (batch.x, batch.x_tilde):
        a = np.ascontiguousarray(a, dtype="<i8")
        whole.update(repr(a.shape).encode())
        whole.update(a)
    # 310k entries per coordinate: three blocks of 2^17 entries, then
    # blocks of 40 paths, then one path per block (a path of 31 entries
    # is wider than a budget of 16)
    assert batch.x.size > 2 * coupling._JOINT_CHUNK
    for chunk in (coupling._JOINT_CHUNK, 40 * 31, 16):
        monkeypatch.setattr(coupling, "_JOINT_CHUNK", chunk)
        assert batch.digest() == whole.hexdigest(), chunk


@pytest.mark.parametrize("name", ["moran_10", "moran_hypergeometric", "dense_20"])
def test_sampled_steps_stay_on_row_supports(chains_to_sample, name):
    # interior Moran rows have leading and trailing zeros in P and Ptilde
    pk = chains_to_sample[name]
    nu0 = np.full(pk.n_tilde, 1.0 / pk.n_tilde)
    batch = simulate(pk, nu0, n_steps=30, n_paths=5000, seed=9)
    x, xt = batch.x, batch.x_tilde
    assert np.all(pk.link[xt[:, 0], x[:, 0]] > 0)
    assert np.all(pk.p[x[:, :-1], x[:, 1:]] > 0)
    assert np.all(pk.p_tilde[xt[:, :-1], xt[:, 1:]] * pk.link[xt[:, 1:], x[:, 1:]] > 0)


def test_start_vector_length_is_checked():
    pk, _ = moran_coupled(3, 0.5, 0.5)
    nu0 = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(errors.DimensionMismatchError, match="pi_tilde0 length mismatch"):
        simulate(pk, [1.0], n_steps=3, n_paths=10, seed=0)
    batch = simulate(pk, nu0, n_steps=3, n_paths=10, seed=0)
    with pytest.raises(errors.DimensionMismatchError, match="pi_tilde0 length mismatch"):
        empirical_report(batch, pk, [1.0])


def test_empirical_report_accepts_correct_samples():
    # the former per-cell 3-SE bands failed 105 of 200 such seeds
    pk, _ = moran_coupled(10, 0.5, 0.5)
    nu0 = np.eye(11)[0]
    failed = [seed for seed in range(100)
              if not empirical_report(simulate(pk, nu0, n_steps=30, n_paths=2500, seed=seed),
                                      pk, nu0)["ok"]]
    assert failed == []


def test_empirical_report_rejects_wrong_samples():
    pk, _ = moran_coupled(10, 0.5, 0.5)
    nu0 = np.eye(11)[0]
    batch = simulate(pk, nu0, n_steps=30, n_paths=20000, seed=1)
    assert empirical_report(batch, pk, nu0)["ok"]
    # paths of a perturbed observed kernel
    other, _ = moran_coupled(10, 0.4, 0.6)
    rep = empirical_report(simulate(other, nu0, n_steps=30, n_paths=20000, seed=1), pk, nu0)
    assert not rep["ok"]
    assert not all(c["observed_ok"] for c in rep["checks"])
    # the right paths scored against a wrong link row
    link = pk.link.copy()
    link[5] = link[6]
    rep = empirical_report(batch, dataclasses.replace(pk, link=link), nu0)
    assert not rep["ok"]
    assert not all(c["conditional_ok"] for c in rep["checks"])
    assert all(c["hidden_ok"] for c in rep["checks"])

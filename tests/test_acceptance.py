"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single pass/fail line so the suite output doubles as a
checklist.  Two checks once encoded reference values that contradict the
constructions they describe: criterion 4 listed a -1 endpoint for the
aperiodic holding-boundary walk, and criterion 8 put the zero-block
stochasticity threshold at (1-p_0)/q_1 instead of p_0/q_1.  Both references
are corrected; each test comment gives the old value and a proof, without
the solver, of why it cannot hold.
"""
import numpy as np
import pytest

from dualchain.chains import (
    absorption_profile,
    bd_kernel,
    bd_params_from_kernel,
    make_bd,
    make_bias,
    moran_kernel,
    mutation_bias,
    reflected_walk_params,
)
from dualchain.coupling import empirical_report, exact_joint, product_kernel, simulate
from dualchain.duals import (
    bd_siegmund_dual,
    bd_ultrametric_rigidity,
    dual_via_solve,
    hypergeometric_function,
    is_monotone,
    siegmund_dual,
    siegmund_function,
    ultrametric_dual,
    verify_duality,
)
from dualchain.intertwining import build_intertwining, identity_residuals
from dualchain.samplers import random_monotone_bd, random_monotone_kernel
from dualchain.spectra import (
    bd_spectrum,
    moran_mutation_spectrum,
    orthopoly_oracle,
    orthopoly_roots,
)
from dualchain.stationary_times import (
    absorption_exact,
    absorption_recurrence,
    absorption_spectral,
    verify_sharpness,
)


def _report(num: int, ok: bool, desc: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def _monotone_corpus(seed=20240501, count=200, n_max=31):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, n_max + 1))
        out.append(random_monotone_kernel(rng, n))
    return out


def test_criterion_01_duality_identity_holds():
    ok = True
    for P in _monotone_corpus():
        n = P.shape[0]
        rep = siegmund_dual(P)
        ok = ok and rep.feasible
        vd = verify_duality(P, siegmund_function(n - 1), rep.dual, n_max=20)
        ok = ok and vd["static"] <= 1e-10 and vd["dynamic"] <= 1e-9
    _report(1, ok, "cumulative dual solves the static and 20-step identities "
                   "on 200 random monotone kernels (n <= 31)")


def _power_traces(m):
    """Oracle: tr(m^k), k = 1..n, from n dense matrix products."""
    out, pw = [], np.eye(m.shape[0])
    for _ in range(m.shape[0]):
        pw = pw @ m
        out.append(np.trace(pw))
    return np.array(out)


def test_criterion_02_pipeline_invariants(agrees):
    ok = True
    for P in _monotone_corpus():
        n = P.shape[0]
        H, dual = siegmund_function(n - 1), siegmund_dual(P).dual
        res = build_intertwining(P, H, dual)
        d = {**res.diagnostics, **identity_residuals(P, dual, res)}
        ok = ok and np.min(res.phi) > 0
        ok = ok and d["phi_harmonic"] <= 1e-10
        ok = ok and np.max(np.abs(res.link.sum(axis=1) - 1)) <= 1e-9
        ok = ok and np.max(np.abs(np.asarray(res.p_tilde).sum(axis=1) - 1)) <= 1e-9
        ok = ok and d["intertwining"] <= 1e-10
        ok = ok and d["k_duality"] <= 1e-10
        # the readings off the duality residual against the direct products
        ok = ok and agrees(P, H, dual, res)
        ok = ok and np.max(np.abs(res.link[n - 1] - res.pi)) <= 1e-10
        tc = d["trace_comparison"]
        ok = ok and tc["max_deviation"] <= 1e-8 * n
        ok = ok and np.max(np.abs(tc["traces"] - _power_traces(P))) <= 1e-12
        ok = ok and np.max(np.abs(tc["traces_tilde"] - _power_traces(res.p_tilde))) <= 1e-12
    _report(2, ok, "harmonic positivity, stochastic link/transform, both "
                   "intertwinings (read off the duality residual, equal to "
                   "their direct products), boundary row and power traces (eigenvalue "
                   "power sums, equal to the matrix-power traces) on the "
                   "same 200-kernel corpus")


def test_criterion_03_cumulative_closed_forms():
    ok = True
    for P in _monotone_corpus(seed=20240502, count=50, n_max=21):
        n = P.shape[0]
        res = build_intertwining(P, siegmund_function(n - 1), siegmund_dual(P).dual)
        pic = np.cumsum(res.pi)
        ok = ok and np.max(np.abs(res.phi - pic)) <= 1e-12
        expect = np.tril(np.ones((n, n))) * res.pi[None, :] / pic[:, None]
        ok = ok and np.max(np.abs(res.link - expect)) <= 1e-12
        dual = siegmund_dual(P).dual
        ok = ok and abs(dual[n - 2, n - 1] - (1 - P[n - 1, n - 1])) <= 1e-12
        leak0 = 1 - dual[0].sum()
        ok = ok and abs(leak0 - (1 - P[0, 0])) <= 1e-12
    _report(3, ok, "phi equals the cumulative stationary law, the link its "
                   "normalized restriction, and the boundary leak/entry "
                   "identities hold on 50 monotone kernels")


def test_criterion_04_spectrum_oracles():
    rng = np.random.default_rng(20240503)
    ok = True
    for i in range(100):
        N = int(rng.integers(2, 51))
        params = random_monotone_bd(rng, N)
        t = bd_spectrum(params).eigenvalues
        _, R = orthopoly_oracle(params, t)
        grid = np.linspace(-1, 1, 201)
        _, scale = orthopoly_oracle(params, grid)
        ok = ok and np.max(np.abs(R)) <= 1e-8 * np.max(np.abs(scale))
        if i < 10:
            roots = orthopoly_roots(params)
            ok = ok and np.max(np.abs(roots[::-1] - t)) <= 1e-9
    for N, a1, a2 in [(5, 0.3, 0.2), (40, 0.45, 0.5), (100, 0.2, 0.25)]:
        closed = moran_mutation_spectrum(N, a1, a2)
        solved = bd_spectrum(moran_kernel(N, mutation_bias(a1, a2, N)))
        ok = ok and np.max(np.abs(closed.eigenvalues - solved.eigenvalues)) <= 1e-10
        ok = ok and abs(closed.gap - (a1 + a2) / N) <= 1e-12
    _report(4, ok, "recurrence oracle annihilates the solver spectrum on "
                   "100 chains (N <= 50); linear-bias closed form and gap "
                   "(a1+a2)/N match to 1e-10 up to N = 100")


def test_criterion_04_reflected_walk_listed_set():
    # The reference set once listed for the boundary-holding walk was
    # {1} + {2 sqrt(pq) cos(k pi/(N+1)), k = 1..N-1} + {-1}.  That -1
    # endpoint belongs to a period-2 boundary convention this chain does not
    # have: with holding at 0 and N the walk is aperiodic.  For p = q = 1/2,
    # N = 4 the listed set fails three checks that do not use the solver:
    # its sum 1 + cos(pi/5) - 1 is not the trace sum_x r_x = 1; det(P + I)
    # = 0.625 != 0, so -1 is no eigenvalue; and a spectrum holding -1 is
    # symmetric about 0, yet the set holds cos(pi/5) but not -cos(pi/5).
    # The correct set is {1} + {1 - p - q + 2 sqrt(pq) cos(k pi/(N+1)),
    # k = 1..N}; its extreme eigenvalue is -cos(pi/5) > -1.
    p = q = 0.5
    N = 4
    params = reflected_walk_params(N, p, q)
    P = bd_kernel(params).matrix
    t = bd_spectrum(params).eigenvalues
    k = np.arange(1, N + 1)
    shifted = 1 - p - q + 2 * np.sqrt(p * q) * np.cos(k * np.pi / (N + 1))
    closed = np.sort(np.concatenate([[1.0], shifted]))[::-1]
    ok = bool(np.max(np.abs(t - closed)) <= 1e-10)
    ok = ok and abs(closed.sum() - np.trace(P)) <= 1e-12
    ok = ok and abs(np.linalg.det(P + np.eye(N + 1))) > 1e-3
    _report(4, ok, "reflected-walk spectrum equals the closed-form set "
                   "{1} + {1-p-q+2 sqrt(pq) cos(k pi/(N+1))}, whose sum is "
                   "the trace, and -1 is no eigenvalue")


def test_criterion_05_spectral_sign_vs_monotonicity():
    rng = np.random.default_rng(20240504)
    accepted = 0
    ok = True
    attempts = 0
    while accepted < 200 and attempts < 4000:
        attempts += 1
        N = int(rng.integers(2, 13))
        s = rng.uniform(0.15, 1.0, size=N + 1)
        frac = rng.uniform(0.1, 0.9, size=N + 1)
        p = np.zeros(N + 1)
        q = np.zeros(N + 1)
        p[:N] = (s * frac)[:N]
        q[1:] = (s * (1 - frac))[1:]
        params = make_bd(p, q)
        t_min = float(bd_spectrum(params).eigenvalues[-1])
        if params.r.min() > 0.5 + 1e-6:
            ok = ok and t_min > 0
        if t_min >= -1e-12:
            accepted += 1
            ok = ok and is_monotone(bd_kernel(params).matrix)
    ok = ok and accepted >= 200
    _report(5, ok, f"all {accepted} spectrally nonnegative birth-death draws "
                   "(N <= 12) are monotone; holding above 1/2 forces a "
                   "positive spectrum")


def test_criterion_06_nondecreasing_bias_monotone():
    rng = np.random.default_rng(20240505)
    ok = True
    for _ in range(200):
        N = int(rng.integers(2, 101))
        table = np.sort(rng.uniform(0.0, 1.0, size=N + 1))
        params = moran_kernel(N, make_bias(table))
        P = bd_kernel(params)
        ok = ok and is_monotone(P.matrix)
        # a monotone chain has a feasible Siegmund dual, the closed form's
        rep = siegmund_dual(P)
        ok = ok and rep.feasible
        ok = ok and np.abs(rep.dual - bd_siegmund_dual(params)).max() <= np.finfo(float).eps
    _report(6, ok, "200 sampling chains with nondecreasing bias tables "
                   "(N <= 100) are all monotone, with a feasible Siegmund "
                   "dual equal to the closed form")


def test_criterion_07_scale_function_agreement():
    rng = np.random.default_rng(20240506)
    ok = True
    for _ in range(100):
        N = int(rng.integers(2, 13))
        p = np.zeros(N + 1)
        q = np.zeros(N + 1)
        p[1:N] = rng.uniform(0.05, 0.45, size=N - 1)
        q[1:N] = rng.uniform(0.05, 0.45, size=N - 1)
        prof = absorption_profile(make_bd(p, q))
        ok = ok and prof.identity_residual <= 1e-10
    gambler = absorption_profile(
        make_bd(p=[0.0, 0.5, 0.0], q=[0.0, 0.5, 0.0])
    )
    ok = ok and abs(gambler.phi[1] - 0.5) <= 1e-15
    _report(7, ok, "ruin probability from the scale recursion matches the "
                   "dual tail sums on 100 doubly absorbing chains; the "
                   "symmetric two-step game gives 1/2 exactly")


def test_criterion_08_two_block_rigidity():
    rng = np.random.default_rng(20240507)
    ok = True
    for _ in range(40):
        N = int(rng.integers(4, 11))
        params = random_monotone_bd(rng, N)
        k = int(rng.integers(1, N - 1))
        alpha = float(rng.uniform(0.1, 1.5))
        beta = float(rng.uniform(0.1, 1.5))
        out = bd_ultrametric_rigidity(params, k, alpha, beta)
        # any positive beta plants a negative entry two rows above the block
        ok = ok and not out["feasible"]
        pos, witness, predicted = out["beta_witness"]
        ok = ok and pos == (k + 2, k - 1)
        ok = ok and abs(witness - predicted) <= 1e-10
        # any positive alpha with k >= 1 overfills row k
        ok = ok and out["alpha_must_vanish"]
        expected_mass = 1 + alpha * params.q[k + 1] / (1 + beta)
        ok = ok and abs(out["row_k_mass"] - expected_mass) <= 1e-10
    # matched-delta block construction: substochastic with conservative
    # rows exactly {k, N}
    a = np.array([0.5, 0.4, 0.3, 0.2])
    b = np.array([0.25, 0.2, 0.15, 0.1])
    P = np.column_stack([a, 2 / 3 - a, b, 1 / 3 - b])
    rep = ultrametric_dual(P, k=1, alpha=0.7, beta=0.4)
    ok = ok and rep.feasible and rep.diagnostics["substochastic"]
    ok = ok and rep.diagnostics["conservative_rows"] == [1, 3]
    _report(8, ok, "positive beta is infeasible with the predicted witness, "
                   "positive alpha overfills row k, and the matched-delta "
                   "block dual is substochastic with conservative rows {k, N}")


def test_criterion_08_threshold_at_zero_block():
    # The reference threshold once listed for k = 0 was alpha = (1-p_0)/q_1.
    # For N = 1 and H = [[1+alpha, 1], [0, 1]] the dual (H^-1 P H)^T is
    # [[1 - p_0 - q_1, q_1 (1+alpha)], [0, 1]], so row 0 has mass
    # 1 - p_0 + alpha q_1.  That mass is 1 at alpha = p_0/q_1 = 1.5; at the
    # listed alpha = 3.5 it is 2 (1 - p_0) = 1.4, not even substochastic.
    # The listed ratio swaps the holding mass 1-p_0 for the moving mass p_0.
    params = make_bd(p=[0.3, 0.0], q=[0.0, 0.2])
    p0, q1 = params.p[0], params.q[1]
    alpha = p0 / q1
    out = bd_ultrametric_rigidity(params, k=0, alpha=float(alpha), beta=0.0)
    ok = bool(out["stochastic_dual"]) and out["alpha_max"] == alpha
    alpha_listed = (1 - p0) / q1
    listed = bd_ultrametric_rigidity(params, k=0, alpha=float(alpha_listed), beta=0.0)
    row0 = listed["report"].diagnostics["row_mass"][0]
    ok = ok and abs(row0 - (1 - p0 + alpha_listed * q1)) <= 1e-12
    ok = ok and not listed["stochastic_dual"] and not listed["substochastic"]
    _report(8, ok, "zero-block dual becomes stochastic at alpha = p_0/q_1; "
                   "at (1-p_0)/q_1 row 0 carries mass 1 - p_0 + alpha q_1 > 1")


def test_criterion_09_separation_equals_survival():
    rng = np.random.default_rng(20240508)
    ok = True
    for _ in range(30):
        N = int(rng.integers(2, 31))
        params = random_monotone_bd(rng, N)
        P = bd_kernel(params)
        res = build_intertwining(P, siegmund_function(N), siegmund_dual(P).dual)
        start = np.zeros(N + 1)
        start[0] = 1.0
        rep = verify_sharpness(
            P.matrix, res.p_tilde, res.link, start, start, n_max=200
        )
        # the inequality at every n is asserted inside; the witness makes
        # it an equality
        ok = ok and rep.sharp and rep.max_gap <= 1e-9
    N = 6
    params = moran_kernel(N, mutation_bias(0.3, 0.2, N))
    P = bd_kernel(params)
    H = hypergeometric_function(N)
    res = build_intertwining(P, H, dual_via_solve(P, H).dual)
    pt0 = np.zeros(N + 1)
    pt0[N] = 1.0
    rep = verify_sharpness(P.matrix, res.p_tilde, res.link, res.link[N], pt0,
                           n_max=200)
    ok = ok and rep.boundary == 0 and rep.witness == N and rep.max_gap <= 1e-9
    _report(9, ok, "separation is dominated by and equal to the hidden "
                   "survival on 30 monotone chains from the bottom state "
                   "(n <= 200); the sampling chain is sharp through its "
                   "count dual")


def test_criterion_10_absorption_three_routes():
    rng = np.random.default_rng(20240509)
    ok = True
    done = 0
    while done < 100:
        N = int(rng.integers(2, 31))
        params = random_monotone_bd(rng, N)
        spec = bd_spectrum(params)
        if spec.eigenvalues[1] > 0.99:
            continue  # keep the truncation horizon affordable
        done += 1
        P = bd_kernel(params)
        res = build_intertwining(P, siegmund_function(N), siegmund_dual(P).dual)
        start = np.zeros(N + 1)
        start[0] = 1.0
        ex = absorption_exact(res.p_tilde, start, boundary=N)
        sp = absorption_spectral(spec, n_max=ex.n_max)
        rc = absorption_recurrence(bd_params_from_kernel(res.p_tilde),
                                   n_max=ex.n_max)
        for stats in (sp, rc):
            ok = ok and abs(stats.mean - ex.mean) <= 1e-8 * ex.mean
            ok = ok and abs(stats.variance - ex.variance) <= 1e-8 * ex.variance
            ok = ok and np.max(np.abs(stats.pmf - ex.pmf)) <= 1e-9
        gap = 1 - spec.eigenvalues[1]
        ok = ok and sp.variance <= sp.mean / gap + 1e-9
    _report(10, ok, "matrix-power, eigenvalue-convolution and passage-time "
                    "routes agree on the absorption law for 100 monotone "
                    "chains (N <= 30); variance stays below mean/gap")


def test_criterion_11_two_duals_same_clock():
    ok = True
    for N in (2, 5, 10, 20):
        params = moran_kernel(N, mutation_bias(0.3, 0.2, N))
        P = bd_kernel(params)
        H = hypergeometric_function(N)
        res_h = build_intertwining(P, H, dual_via_solve(P, H).dual)
        res_s = build_intertwining(P, siegmund_function(N), siegmund_dual(P).dual)
        top = np.zeros(N + 1)
        top[N] = 1.0
        bottom = np.zeros(N + 1)
        bottom[0] = 1.0
        down = absorption_exact(res_h.p_tilde, top, boundary=0)
        up = absorption_exact(res_s.p_tilde, bottom, boundary=N)
        m = min(down.n_max, up.n_max)
        ok = ok and np.max(np.abs(down.pmf[:m + 1] - up.pmf[:m + 1])) <= 1e-9
        ok = ok and abs(down.mean - up.mean) <= 1e-8 * up.mean
    _report(11, ok, "count dual run down from N and cumulative dual run up "
                    "from 0 share one absorption law (N <= 20)")


def test_criterion_12_full_strength_mean():
    ok = True
    for N in (100, 1000):
        spec = moran_mutation_spectrum(N, 0.5, 0.5)
        t = spec.eigenvalues[1:]
        mean = float(np.sum(1.0 / (1.0 - t)))
        harmonic = float(np.sum(1.0 / np.arange(1, N + 1)))
        ok = ok and abs(mean - N * harmonic) <= 1e-9 * N * harmonic
        if N == 1000:
            var = float(np.sum(t / (1.0 - t) ** 2))
            ok = ok and var / mean**2 < 0.05
    _report(12, ok, "at full mutation strength the mean clock is N times "
                    "the harmonic number and the relative variance at "
                    "N = 1000 stays under 5 percent")


def test_criterion_13_coupled_chain():
    ok = True
    for pv, qv in ([[0.3, 0.0], [0.0, 0.2]], [[0.2, 0.3, 0.0], [0.0, 0.1, 0.2]]):
        params = make_bd(p=pv, q=qv)
        P = bd_kernel(params)
        N = params.N
        res = build_intertwining(P, siegmund_function(N), siegmund_dual(P).dual)
        pk = product_kernel(P.matrix, res.p_tilde, res.link)
        nu0 = np.zeros(N + 1)
        nu0[0] = 1.0
        out = exact_joint(pk, nu0, 20)
        ok = ok and out["observed_marginal_dev"] <= 1e-10
        ok = ok and out["hidden_marginal_dev"] <= 1e-10
        ok = ok and out["product_form_dev"] <= 1e-10
        batch = simulate(pk, nu0, n_steps=30, n_paths=100000, seed=17)
        ok = ok and empirical_report(batch, pk, nu0)["ok"]
        again = simulate(pk, nu0, n_steps=30, n_paths=100000, seed=17)
        ok = ok and np.array_equal(batch.x, again.x)
        ok = ok and np.array_equal(batch.x_tilde, again.x_tilde)
    _report(13, ok, "coupled kernel keeps both marginals and the product "
                    "form exactly; 100k sampled paths sit within three "
                    "standard errors and are bit-identical across runs")


def test_criterion_14_absorbed_bottom_duality():
    rng = np.random.default_rng(20240510)
    ok = True
    for _ in range(20):
        N = int(rng.integers(2, 16))
        p = np.zeros(N + 1)
        q = np.zeros(N + 1)
        p[1:N] = rng.uniform(0.08, 0.45, size=N - 1)
        q[1:] = rng.uniform(0.08, 0.45, size=N)
        params = make_bd(p, q)
        P = bd_kernel(params).matrix
        dual = siegmund_dual(P).dual
        left = np.eye(N + 1)
        right = np.eye(N + 1)
        for _step in range(50):
            left = left @ P
            right = right @ dual
            # P_x(X_n <= 0) equals the dual's chance, started at 0, of
            # sitting at or above x
            lhs = left[:, 0]
            rhs = np.array([right[0, x:].sum() for x in range(N + 1)])
            ok = ok and np.max(np.abs(lhs - rhs)) <= 1e-10
    _report(14, ok, "with the bottom state absorbing, the event of having "
                    "hit it matches the dual tail law at every horizon up "
                    "to 50 on 20 random chains")

import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualchain import errors, kernels
from dualchain.chains import (
    BiasFunction,
    bd_kernel,
    make_bd,
    moran_kernel,
    mutation_bias,
    wright_fisher_kernel,
)
from dualchain.duals import DualFunction, siegmund_dual, siegmund_function
from dualchain.intertwining import build_intertwining
from dualchain.samplers import random_monotone_bd, random_monotone_kernel
from dualchain.spectra import Spectrum
from dualchain.stationary_times import AbsorptionStats, hitting_moments


def random_stochastic(rng, n):
    return rng.dirichlet(np.ones(n), size=n)


def test_validate_rejects_non_square():
    with pytest.raises(errors.NonSquareError):
        kernels.validate_kernel(np.ones((2, 3)))


def test_validate_rejects_negative():
    with pytest.raises(errors.NegativeEntryError):
        kernels.validate_kernel([[1.1, -0.1], [0.5, 0.5]])


def test_validate_rejects_nan():
    with pytest.raises(errors.NonFiniteEntryError):
        kernels.validate_kernel([[np.nan, 1.0], [0.5, 0.5]])


def test_validate_require_stochastic():
    with pytest.raises(errors.NotStochasticError):
        kernels.validate_kernel([[0.5, 0.2], [0.5, 0.5]], require="stochastic")
    K = kernels.validate_kernel([[0.5, 0.2], [0.5, 0.5]])
    assert K.kind is kernels.KernelKind.STRICTLY_SUBSTOCHASTIC


KK = kernels.KernelKind
ROWS = {
    "stochastic": [[0.5, 0.5], [0.25, 0.75]],
    "substochastic": [[0.5, 0.5], [0.25, 0.5]],     # row 1 sums to 0.75
    "general": [[0.5, 0.5], [0.75, 0.5]],           # row 1 sums to 1.25
}


@pytest.mark.parametrize("rows, require, outcome", [
    ("stochastic", None, KK.STOCHASTIC),
    ("stochastic", "stochastic", KK.STOCHASTIC),
    ("stochastic", "substochastic", KK.STOCHASTIC),
    ("substochastic", None, KK.STRICTLY_SUBSTOCHASTIC),
    ("substochastic", "stochastic", errors.NotStochasticError),
    ("substochastic", "substochastic", KK.STRICTLY_SUBSTOCHASTIC),
    ("general", None, KK.GENERAL),
    ("general", "stochastic", errors.RowSumExceedsOneError),
    ("general", "substochastic", errors.RowSumExceedsOneError),
])
def test_validate_kind_and_requirement_table(rows, require, outcome):
    if isinstance(outcome, KK):
        assert kernels.validate_kernel(ROWS[rows], require=require).kind is outcome
    else:
        with pytest.raises(outcome, match="row 1 sums to"):
            kernels.validate_kernel(ROWS[rows], require=require)


def test_validate_rejects_unknown_requirement():
    with pytest.raises(ValueError, match="unknown requirement 'doubly'"):
        kernels.validate_kernel(ROWS["stochastic"], require="doubly")


def test_kernel_accepts_kernel_instance():
    K = kernels.validate_kernel([[0.5, 0.5], [0.5, 0.5]])
    K2 = kernels.validate_kernel(K, require="stochastic")
    assert np.array_equal(K.matrix, K2.matrix)
    assert K2 is K          # validated once, not copied and scanned again
    leaky = kernels.validate_kernel([[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(errors.NotStochasticError, match="^row 0 sums to 0.9"):
        kernels.validate_kernel(leaky, require="stochastic")


def test_a_record_only_kernel_builds_its_matrix_once_and_stays_frozen():
    params = make_bd([0.3, 0.2, 0.0], [0.0, 0.1, 0.4])
    builds = kernels.dense_builds
    P = kernels.Kernel(bands=params)
    assert (P.n, P.kind, P.bands) == (3, kernels.KernelKind.STOCHASTIC, params)
    for name in ("matrix", "kind", "bands"):     # before the matrix is built
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(P, name, None)
    assert kernels.dense_builds == builds
    m = P.matrix
    assert P.matrix is m and kernels.dense_builds == builds + 1
    np.testing.assert_array_equal(
        m, np.diag(params.r) + np.diag(params.p[:-1], 1) + np.diag(params.q[1:], -1))
    with pytest.raises(ValueError, match="read-only"):
        m[0, 0] = 1.0
    for name in ("matrix", "kind", "bands"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(P, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(P, name)
    assert P.matrix is m and kernels.dense_builds == builds + 1
    # a given matrix is the Kernel's own: nothing is built
    K = kernels.validate_kernel(m)
    assert K.matrix is not m and np.array_equal(K.matrix, m) and kernels.dense_builds == builds + 1
    with pytest.raises(errors.RowSumExceedsOneError):
        kernels.Kernel(bands=kernels.BDParams([0.5, 0.0], [0.0, 0.5], [0.6, 0.6]))


def test_a_kernel_reads_as_its_matrix_through_the_array_protocol():
    params = make_bd([0.3, 0.2, 0.0], [0.0, 0.1, 0.4])
    K = kernels.Kernel(bands=params)
    assert K.shape == (3, 3)
    builds = kernels.dense_builds
    m = np.asarray(K)                   # the first read builds the matrix once
    assert kernels.dense_builds == builds + 1
    assert m is K.matrix and not m.flags.writeable
    assert np.asarray(K) is m and np.asarray(K, dtype=float) is m
    assert kernels.dense_builds == builds + 1
    for copy in (np.asarray(K, dtype=np.float32), np.array(K, copy=True)):
        assert copy is not m and copy.flags.writeable
        np.testing.assert_array_equal(copy, m.astype(copy.dtype))
        copy[0, 0] = 0.5
    assert K.matrix is m and m[0, 0] == 0.7 and kernels.dense_builds == builds + 1


# name: (an array a caller holds, the record's array made from it)
ARRAY_RECORDS = {
    "BDParams.p": (np.array([0.5, 0.0]), lambda a: kernels.BDParams(a, [0.0, 0.5], [0.5, 0.5]).p),
    "DualFunction.matrix": (np.eye(2), lambda a: DualFunction(a, "custom").matrix),
    "Spectrum.eigenvalues": (np.array([1.0, 0.5]), lambda a: Spectrum(a).eigenvalues),
    "Spectrum.weights": (np.array([0.5, 0.5]), lambda a: Spectrum([1.0, 0.5], a).weights),
    "BiasFunction.values": (np.array([0.2, 0.8]), lambda a: BiasFunction(a).values),
    "AbsorptionStats.pmf": (np.array([0.5, 0.5]),
                            lambda a: AbsorptionStats(a, [0.5, 0.0], 0.5, 0.25, "test").pmf),
    "AbsorptionStats.survival": (np.array([0.5, 0.0]), lambda a: AbsorptionStats(
        [0.5, 0.5], a, 0.5, 0.25, "test").survival),
}


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_a_record_freezes_its_own_copy_not_the_callers_array(name):
    given, made = ARRAY_RECORDS[name]
    given = given.copy()
    kept = made(given)
    np.testing.assert_array_equal(kept, given)
    assert given.flags.writeable and not kept.flags.writeable
    assert not np.shares_memory(kept, given)


def test_a_reducible_kernel_is_refused_by_its_size_and_where_it_breaks():
    absorbing_ends = make_bd([0.0, 0.3, 0.0], [0.0, 0.2, 0.0])
    cut_inside = make_bd([0.5, 1e-13, 0.0], [0.0, 0.5, 0.5])
    for P, message in [
        (absorbing_ends, "n = 3 states, no link both ways between x = 0 and x + 1"),
        (bd_kernel(cut_inside), "n = 3 states, no link both ways between x = 1 and x + 1"),
        (np.array([[0.5, 0.25, 0.25], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]]),
         "n = 3 states, 2 communicating classes"),
    ]:
        with pytest.raises(errors.NotIrreducibleError,
                           match=f"^{re.escape(f'kernel is not irreducible: {message}')}$"):
            kernels.stationary(P)


def test_validate_prob_vector():
    v = kernels.validate_prob_vector([0.25, 0.75], "v", 2)
    assert v.sum() == pytest.approx(1.0)
    with pytest.raises(errors.NotStochasticError):
        kernels.validate_prob_vector([0.5, 0.4], "v", 2)
    with pytest.raises(errors.NegativeEntryError):
        kernels.validate_prob_vector([-0.1, 1.1], "v", 2)
    with pytest.raises(errors.DimensionMismatchError, match="v length mismatch: 2 entries for 3"):
        kernels.validate_prob_vector([0.25, 0.75], "v", 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**31 - 1))
def test_stationary_is_fixed_point(n, seed):
    rng = np.random.default_rng(seed)
    m = random_stochastic(rng, n)
    pi = kernels.stationary(m)
    assert np.min(pi) > 0
    np.testing.assert_allclose(pi @ m, pi, atol=1e-12)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_stationary_relative_accuracy_tiny_masses():
    # full-strength Moran chain, N = 100: pi runs down to 2^-100 = 7.9e-31
    params = moran_kernel(100, mutation_bias(0.5, 0.5, 100))
    pi = kernels.stationary(bd_kernel(params))
    ref = kernels.stationary(params)
    np.testing.assert_allclose(pi, ref, rtol=1e-12, atol=0)


def test_stationary_law_outside_the_float_range_is_refused_by_name():
    # Moran (1040, .5, .5) has pi = Binomial(1040, 1/2): its entries span
    # 2^1040 / C(1040, 520), more than a float holds, and both routes once
    # returned NaN with an overflow warning; a kernel with one entry off the
    # three diagonals goes through GTH, which is refused by its own name
    params = moran_kernel(1040, mutation_bias(0.5, 0.5, 1040))
    dense = bd_kernel(params).matrix.copy()
    dense[0, 2] = 1e-300
    routes = [(lambda: kernels.stationary(dense), "GTH back-substitution"),
              (lambda: kernels.stationary(bd_kernel(params)), "birth-death product form"),
              (lambda: kernels.stationary(params), "birth-death product form")]
    for route, stage in routes:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.ZeroStationaryEntryError,
                               match=f"^{stage}: the stationary law of n = 1041 states "
                                     "leaves the float range"):
                route()
    # a weight that underflows to 0 is refused too
    with pytest.raises(errors.ZeroStationaryEntryError, match="underflows to 0"):
        kernels.normalize_stationary(np.array([1.0, 1e-300, 0.0]), "test")


def _gth_full_update(m):
    """Oracle: GTH elimination updating the whole leading block each step."""
    n = m.shape[0]
    A = m.copy()
    for k in range(n - 1, 0, -1):
        A[:k, k] /= A[k, :k].sum()
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    pi = np.ones(n)
    for k in range(1, n):
        pi[k] = pi[:k] @ A[:k, k]
    return pi / pi.sum()


def _oracle_kernels():
    rng = np.random.default_rng(20240510)
    out = {f"moran{N}": bd_kernel(moran_kernel(N, mutation_bias(0.5, 0.5, N)))
           for N in (10, 300, 1000)}
    out.update({f"dense{n}": random_monotone_kernel(rng, n) for n in (5, 30, 200)})
    out["wright_fisher40"] = wright_fisher_kernel(40, mutation_bias(0.3, 0.2, 40))
    return out


ORACLE_KERNELS = _oracle_kernels()


@pytest.mark.parametrize("name", ORACLE_KERNELS)
def test_stationary_equals_the_full_update_oracle(name):
    # the rows and columns the elimination skips would only gain exact zeros
    P = ORACLE_KERNELS[name]
    assert np.array_equal(kernels.stationary(P), _gth_full_update(np.asarray(P, dtype=float)))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2**31 - 1))
def test_reversal_involution(n, seed):
    rng = np.random.default_rng(seed)
    m = random_stochastic(rng, n)
    pi = kernels.stationary(m)
    back = kernels.reversal(m, pi).matrix
    again = kernels.reversal(back, pi).matrix
    np.testing.assert_allclose(again, m, atol=1e-12)
    np.testing.assert_allclose(pi @ back, pi, atol=1e-12)


def test_classify_orders_classes_by_smallest_state():
    # states 0,1 drain into the absorbing pair {2}, {3}
    m = np.array([
        [0.5, 0.2, 0.3, 0.0],
        [0.1, 0.4, 0.0, 0.5],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    dec = kernels.classify(m)
    assert dec.absorbing_states == [2, 3]
    assert dec.classes == [(0, 1), (2,), (3,)]
    assert dec.stochastic_classes == [(2,), (3,)]
    assert not kernels.is_irreducible(m)
    # 0 drains into 3 and 4 into 2: an order along the flow of mass that
    # takes the free class of smallest state first reads 0, 1, 3, 4, 2
    m = np.array([
        [0.5, 0.0, 0.0, 0.5, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.5, 0.0, 0.5],
    ])
    dec = kernels.classify(m)
    assert dec.classes == [(0,), (1,), (2,), (3,), (4,)]
    assert dec.stochastic_classes == [(1,), (2,), (3,)]
    assert all(type(x) is int for c in dec.classes for x in c)


def test_absorbing_states_window():
    # row 0: diagonal 1 - 5e-10 with nothing else (within EPS_STOCH of 1);
    # row 1: diagonal within EPS_STOCH but 1e-11 > EPS_NEG leaves the state;
    # row 2: a transient state; row 3: exactly absorbing
    m = np.array([
        [1.0 - 5e-10, 0.0, 0.0, 0.0],
        [0.0, 1.0 - 1e-11, 1e-11, 0.0],
        [0.2, 0.3, 0.5, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    assert kernels.absorbing_states(m) == [0, 3]
    assert kernels.classify(m).absorbing_states == [0, 3]
    assert kernels.absorbing_states(np.ones((1, 1))) == [0]
    assert kernels.absorbing_states(np.zeros((0, 0))) == []


def test_hitting_probabilities_gambler():
    m = np.array([
        [1.0, 0.0, 0.0],
        [0.5, 0.0, 0.5],
        [0.0, 0.0, 1.0],
    ])
    h = kernels.hitting_probabilities(m, [2])
    np.testing.assert_allclose(h, [0.0, 0.5, 1.0], atol=1e-12)


def test_a_hitting_solve_that_rounding_takes_out_of_0_1_is_refused():
    # the exit 2e-12 leaves I - Q a condition number near 1e12: the solve's
    # rounding lands above 1 + HITTING_TOL, refused rather than clipped
    m = np.array([[0.1, 0.9 - 2e-12, 2e-12], [0.1, 0.9, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(errors.SingularSystemError, match=r"left \[0, 1\]"):
        kernels.hitting_probabilities(m, [2])


def test_evolve_matches_matrix_power(rng):
    m = random_stochastic(rng, 5)
    v0 = rng.dirichlet(np.ones(5))
    out = kernels.evolve(v0, m, 7)
    np.testing.assert_allclose(out, v0 @ np.linalg.matrix_power(m, 7), atol=1e-12)


def test_check_harmonic():
    m = np.array([
        [1.0, 0.0, 0.0],
        [0.5, 0.0, 0.5],
        [0.0, 0.0, 1.0],
    ])
    assert kernels.check_harmonic(m, [0.0, 0.5, 1.0]) <= 1e-15


def test_bands_are_recorded_only_for_tridiagonal_kernels():
    m = bd_kernel(moran_kernel(6, mutation_bias(0.3, 0.2, 6))).matrix
    b = kernels.validate_kernel(m).bands
    sub, main, sup = b.q[1:], b.r, b.p[:-1]
    assert np.array_equal(sub, np.diag(m, -1)) and np.array_equal(main, np.diag(m))
    assert np.array_equal(sup, np.diag(m, 1))
    wide = m.copy()
    wide[3, 1] = 1e-300         # one entry two places below the diagonal
    assert kernels.validate_kernel(wide).bands is None
    assert kernels._bands(wide) is None and kernels._bands(wide.T) is None
    assert kernels._bands(np.ones((2, 3))) is None and kernels._bands(np.zeros((0, 0))) is None


def test_bd_kernel_keeps_its_record_and_stationary_reads_the_bands_in_o_n_memory():
    params = moran_kernel(2000, mutation_bias(0.1, 0.1, 2000))
    tracemalloc.start()
    try:
        P = bd_kernel(params)
        built = tracemalloc.get_traced_memory()[1]
        builds = kernels.dense_builds
        pi_kernel = kernels.stationary(P)
        unbuilt = kernels.dense_builds == builds
        m = P.matrix            # built before the window that measures stationary
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        pi = kernels.stationary(m)
        solved = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    # the record is O(n); the 2001 x 2001 float64 matrix, 30.5 MiB, is built
    # only when read, and a dense residual or copy in stationary would be one more
    assert built < 2**20
    assert unbuilt, "stationary of a record-only Kernel built its matrix"
    assert solved < 2**20
    assert P.bands is params
    assert np.array_equal(params.q[1:], np.diag(m, -1)) and np.array_equal(params.r, np.diag(m))
    assert np.array_equal(params.p[:-1], np.diag(m, 1))
    assert np.count_nonzero(m) == np.count_nonzero(np.diag(m, -1)) + np.count_nonzero(
        np.diag(m)) + np.count_nonzero(np.diag(m, 1))
    assert np.array_equal(pi, pi_kernel) and np.array_equal(pi, kernels.stationary(params))


def test_the_dual_and_the_reversal_of_a_record_are_records_made_in_o_n_memory(monkeypatch):
    params = moran_kernel(2000, mutation_bias(0.1, 0.1, 2000))
    P = bd_kernel(params)
    builds, scans = kernels.dense_builds, kernels.band_scans
    tracemalloc.start()
    try:
        dual = siegmund_dual(P).dual
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense 2001 x 2001 float64 matrix would take 30.5 MiB
    assert peak < 2**20 and (kernels.dense_builds, kernels.band_scans) == (builds, scans)
    assert dual.bands is not None
    # a birth-death chain is its own reversal (detailed balance): the
    # pipeline hands P itself on as its reversal and forms none
    monkeypatch.setattr(kernels, "reversal", None)
    for K in (bd_kernel(moran_kernel(50, mutation_bias(0.1, 0.1, 50))),
              bd_kernel(make_bd([2.5e-11] * 31 + [0.0], [0.0] + [0.5] * 31))):
        res = build_intertwining(K, siegmund_function(K.n - 1), siegmund_dual(K).dual)
        assert res.back is K
    assert np.min(res.pi) < np.finfo(float).tiny       # where a formed reversal lost accuracy


def _banded_records():
    """Seeded birth-death records, irreducible and not, N = 1 among them:
    random monotone ones, some with an interior up or down step cut,
    absorbing ends, steps at the EPS_NEG threshold, rows that sum to 1 only
    within a few ulps, or no holding inside (p_x + q_x = 1, so r_x = 0); a
    chain on {0, 1} that leaves 0 at once and stays at 1, one whose top row
    steps down with probability 1 - 2^-53, and the chain of
    configs/cutoff_sweep.json."""
    rng = np.random.default_rng(20261019)
    records = []
    for k in range(72):
        N = 1 + k % 3 if k < 6 else int(rng.integers(1, 16))
        base = random_monotone_bd(rng, N)
        p, q = base.p.copy(), base.q.copy()
        variant = k % 6
        if variant == 1 and N > 1:          # an interior up or down step cut
            (p if rng.random() < 0.5 else q)[int(rng.integers(1, N))] = 0.0
        elif variant == 2:                  # absorbing ends
            p[0] = 0.0 if rng.random() < 0.7 else p[0]
            q[N] = 0.0 if rng.random() < 0.7 else q[N]
        elif variant == 3:                  # steps at the EPS_NEG threshold
            p[int(rng.integers(0, N))] = 5e-13
            q[int(rng.integers(1, N + 1))] = 2e-12
        elif variant == 5:                  # no holding inside: monotone at equality
            p[:N], q[1:] = base.p[0], 1.0 - base.p[0]
        r = 1.0 - p - q
        if variant == 4:                    # F(x, x) = q_x + r_x is not 1 where p_x = 0
            r += rng.integers(-3, 4, size=N + 1) * np.spacing(r)
        records.append(make_bd(p, q, r))
    records.append(make_bd([1.0, 0.0], [0.0, 0.0]))
    records.append(make_bd([0.5, 0.0, 0.0], [0.0, 0.25, 1.0 - 2**-53], [0.5, 0.75, 0.0]))
    records.append(moran_kernel(100, mutation_bias(0.5, 0.5, 100)))
    return records


def _pipeline_kernels(P, irreducible):
    """P, its Siegmund dual and, for an irreducible P, the hidden chain and
    the reversal that build_intertwining makes, by name."""
    n = np.shape(P)[0]
    out = {"P": P, "dual": siegmund_dual(P).dual}
    if irreducible:
        res = build_intertwining(P, siegmund_function(n - 1), out["dual"])
        out.update(p_tilde=res.p_tilde, back=res.back)
    return out


def _banded_cases():
    """The kernels of ``_pipeline_kernels`` on each of ``_banded_records``,
    made from the records: every one a record-only Kernel."""
    return [(f"{name}{k}", K) for k, b in enumerate(_banded_records())
            for name, K in _pipeline_kernels(bd_kernel(b), kernels.is_irreducible(b)).items()]


def _dense_stationary(m):
    """``stationary`` by the dense algorithms alone."""
    K = kernels.validate_kernel(m)
    if K.kind is not kernels.KernelKind.STOCHASTIC:
        raise errors.NotStochasticError("not stochastic")
    if kernels._classify_dense(K.matrix).n_classes != 1:
        raise errors.NotIrreducibleError("not irreducible")
    return kernels.normalize_stationary(kernels._gth(K.matrix), "GTH back-substitution")


def _outcome(f, *args):
    try:
        return f(*args)
    except errors.DualChainError as exc:
        return type(exc)


def test_banded_paths_give_what_the_dense_algorithms_give(monkeypatch):
    records = _banded_records()
    irreducible = [kernels.is_irreducible(b) for b in records]
    cases = _banded_cases()
    assert sum(name.startswith("p_tilde") for name, _ in cases) >= 25
    assert all(isinstance(K, kernels.Kernel) and K.bands is not None for _, K in cases)
    raised = 0
    for name, K in cases:
        m = np.asarray(K)               # as a raw array, scanned for its bands
        assert kernels._bands(m) is not None, name
        assert kernels.classify(m) == kernels._classify_dense(m), name
        assert kernels.is_irreducible(m) == (kernels._classify_dense(m).n_classes == 1), name
        assert kernels.absorbing_states(m) == kernels._absorbing_dense(m), name
        banded, dense = _outcome(kernels.stationary, m), _outcome(_dense_stationary, m)
        if isinstance(dense, np.ndarray):
            assert np.array_equal(banded, dense), name
        else:
            assert banded is dense, name
            raised += dense is errors.NotIrreducibleError
        edges = m > kernels.EPS_NEG
        for seeds in (np.arange(m.shape[0]) == 0, np.arange(m.shape[0]) % 3 == 1):
            assert np.array_equal(kernels.reachable(m, seeds), kernels._bfs(edges, seeds))
            assert np.array_equal(kernels.reachable(m.T, seeds), kernels._bfs(edges.T, seeds))
    assert raised >= 10

    runs = [(np.asarray(K), start, b) for _, K in cases
            for b in kernels._absorbing_dense(np.asarray(K))
            for start in (np.eye(K.n)[0], np.full(K.n, 1 / K.n))]
    banded = [_outcome(hitting_moments, *run) for run in runs]
    assert sum(isinstance(out, tuple) for out in banded) >= 40
    monkeypatch.setattr(kernels, "_bands", lambda P: None)     # every kernel dense
    assert [_outcome(hitting_moments, *run) for run in runs] == banded
    # the dual, P~ and the reversal made as records have the bits the dense
    # routes give from P's matrix
    dense = [(f"{name}{k}", K) for k, (b, i) in enumerate(zip(records, irreducible))
             for name, K in _pipeline_kernels(np.asarray(bd_kernel(b)), i).items()]
    assert [name for name, _ in dense] == [name for name, _ in cases]
    for (name, K), (_, D) in zip(cases, dense):
        assert getattr(D, "bands", None) is None, name
        assert np.array_equal(np.asarray(K), np.asarray(D)), name
    for b in records:
        banded, dense = siegmund_dual(bd_kernel(b)), siegmund_dual(np.asarray(bd_kernel(b)))
        assert (banded.feasible, banded.violations) == (dense.feasible, dense.violations)
        assert banded.diagnostics == dense.diagnostics
        # each row summed as (q + r) + p: on these records the bits of
        # numpy's sum of the dense row
        assert np.array_equal(banded.mass_leaks, dense.mass_leaks)


def test_a_non_monotone_birth_death_dual_falls_back_to_the_dense_report():
    # p_0 + q_1 = 1.1 > 1: Phat(0, 0) = F(0, 0) - F(1, 0) = 0.4 - 0.5
    P = bd_kernel(make_bd([0.6, 0.5, 0.0], [0.0, 0.5, 0.3]))
    rep = siegmund_dual(P)
    assert not rep.feasible and isinstance(rep.dual, np.ndarray)
    assert rep.violations == [("monotone", (0, 0), -0.09999999999999998)]
    np.testing.assert_array_equal(rep.dual, [[0.4 - 0.5, 0.5, 0.0], [0.5, 0.2, 0.3],
                                             [0.0, 0.0, 1.0]])
    np.testing.assert_array_equal(rep.mass_leaks, [0.6, 0.0, 0.0])
    assert rep.diagnostics == {"absorbing_last": True, "leak_at_zero": 0.6,
                               "stochastic_dual": False}

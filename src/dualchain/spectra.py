"""Spectra of irreducible birth-death kernels.

P is similar to the symmetric tridiagonal Q = D_pi^{1/2} P D_pi^{-1/2} whose
off-diagonals are sqrt(p_x q_{x+1}) and whose diagonal is r_x; the spectrum
is real, simple, inside [-1, 1], and carries a spectral probability measure
mu through the squared first components of the orthonormal eigenvectors.
The associated orthogonal polynomials give an independent root oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import errors, kernels
from .chains import BDParams, moran_kernel, mutation_bias
from .duals import is_monotone
from .tolerances import EPS_NEG, EPS_STOCH, ROOT_BRACKET, ROOT_RTOL, ROOT_XTOL, SPECTRUM_TOL


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted strictly decreasing, t_0 = 1, all inside [-1, 1];
    optional nonnegative weights summing to 1 (the spectral measure)."""

    eigenvalues: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        t = np.array(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", t)
        t.setflags(write=False)
        if abs(t[0] - 1.0) > SPECTRUM_TOL:
            raise errors.SpectrumError(f"t_0 = {t[0]} is not 1")
        if np.any(t > 1 + SPECTRUM_TOL) or np.any(t < -1 - SPECTRUM_TOL):
            raise errors.SpectrumError("eigenvalue outside [-1, 1]")
        if np.any(np.diff(t) >= 0):
            raise errors.SpectrumError("eigenvalues not strictly decreasing")
        if self.weights is not None:
            w = np.array(self.weights, dtype=float)
            object.__setattr__(self, "weights", w)
            w.setflags(write=False)
            if w.shape != t.shape:
                raise errors.SpectrumError("weights length mismatch")
            if np.min(w) < -EPS_NEG or abs(w.sum() - 1.0) > EPS_STOCH:
                raise errors.SpectrumError("weights are not a probability vector")

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def gap(self) -> float:
        return float(1.0 - self.eigenvalues[1]) if self.n > 1 else 1.0


def _symmetrized(params: BDParams):
    d = params.r.copy()
    e = np.sqrt(params.p[:-1] * params.q[1:])
    return d, e


# Above this many states the dense O(n^3) eigvalsh costs more than importing
# scipy.linalg (about 0.27 s) to reach the O(n^2) tridiagonal driver: 137 ms
# against 25 ms at n = 1001, 857 ms against 84 ms at n = 2001 (one BLAS
# thread, 2-vCPU x86-64 host); the extra cost overtakes the import near
# n = 1300.
DENSE_EIGVALS_MAX = 1024


def tridiagonal_eigenvalues(d, e) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal matrix with
    diagonal ``d`` and off-diagonal ``e``.

    Up to DENSE_EIGVALS_MAX states numpy's eigvalsh runs on the dense matrix,
    so no SciPy is imported; above that scipy.linalg.eigvalsh_tridiagonal
    does.  Both end in LAPACK dsterf on the same tridiagonal (the
    Householder reduction of syevd leaves a tridiagonal matrix as it is, and
    SciPy's stevd calls dsterf when no vectors are asked for), so the two
    branches return the same bits.
    """
    d = np.asarray(d, dtype=float)
    n = d.size
    if n > DENSE_EIGVALS_MAX:
        from scipy.linalg import eigvalsh_tridiagonal

        return eigvalsh_tridiagonal(d, e)
    T = np.diag(d)
    T[np.arange(1, n), np.arange(n - 1)] = e     # eigvalsh reads the lower triangle
    return np.linalg.eigvalsh(T)


def bd_spectrum(params: BDParams) -> Spectrum:
    if not kernels.is_irreducible(params):
        raise errors.NotIrreducibleError("spectrum requires an irreducible chain")
    t = np.clip(tridiagonal_eigenvalues(*_symmetrized(params))[::-1], -1.0, 1.0)
    if abs(t[0] - 1.0) <= SPECTRUM_TOL:
        t[0] = 1.0
    return Spectrum(eigenvalues=t)


def spectral_weights(params: BDParams) -> Spectrum:
    """``bd_spectrum`` with mu_k = (first component of the k-th orthonormal
    eigenvector of Q)^2; self-checked against mu_0 = pi(0), and by
    ``Spectrum`` against sum = 1.
    The eigenvalues are those of ``tridiagonal_eigenvalues``, like every
    other the package writes; eigh_tridiagonal supplies only the vectors."""
    pi0 = kernels.stationary(params)[0]     # raises NotIrreducibleError first
    spec = bd_spectrum(params)
    from scipy.linalg import eigh_tridiagonal

    mu = eigh_tridiagonal(*_symmetrized(params))[1][0, ::-1] ** 2   # descending, as t
    if abs(mu[0] - pi0) > EPS_STOCH:
        raise errors.SpectrumError(f"mu_0 = {mu[0]} does not match pi(0) = {pi0}")
    return Spectrum(eigenvalues=spec.eigenvalues, weights=mu)


def orthopoly_oracle(params: BDParams, t):
    """Evaluate the three-term recurrence q_0 = 1,
    t q_y = p_y q_{y+1} + r_y q_y + q_y q_{y-1},
    returning (values q_0(t)..q_N(t), R_{N+1}(t)) where
    R_{N+1}(t) = (t - r_N) q_N(t) - q_N q_{N-1}(t).

    The spectrum of the kernel is exactly the root set of R_{N+1}.
    Accepts scalar or vector t (vectorized evaluation).
    """
    if np.any(params.p[:-1] <= 0):
        raise errors.ZeroUpProbabilityError("recurrence needs p_y > 0 below N")
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    tv = np.atleast_1d(t)
    N = params.N
    vals = np.empty((N + 1,) + tv.shape)
    vals[0] = 1.0
    prev = np.zeros_like(tv)
    for y in range(N):
        nxt = ((tv - params.r[y]) * vals[y] - params.q[y] * prev) / params.p[y]
        prev = vals[y]
        vals[y + 1] = nxt
    R = (tv - params.r[N]) * vals[N] - params.q[N] * prev
    if scalar:
        return vals[:, 0], float(R[0])
    return vals, R


def orthopoly_roots(params: BDParams) -> np.ndarray:
    """Isolate the N+1 simple roots of R_{N+1} on [-1, 1] by sign-change
    bisection on 4(N+1) panels, doubling the count until all are bracketed."""
    from scipy.optimize import brentq

    N = params.N
    lo, hi = -1.0 - ROOT_BRACKET, 1.0 + ROOT_BRACKET
    k = 4 * (N + 1)
    for _ in range(12):
        grid = np.linspace(lo, hi, k + 1)
        _, R = orthopoly_oracle(params, grid)
        sign = np.sign(R)
        sign[sign == 0] = 1.0
        idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
        roots = [
            brentq(lambda s: orthopoly_oracle(params, s)[1], grid[i], grid[i + 1],
                   xtol=ROOT_XTOL, rtol=ROOT_RTOL)
            for i in idx
        ]
        exact = grid[np.nonzero(R == 0)[0]]
        roots = np.sort(np.concatenate([roots, exact]))
        if roots.size == N + 1:
            return roots
        k *= 2
    raise errors.SpectrumError(
        f"root isolation found {roots.size} of {N + 1} roots"
    )


def spectrum_monotonicity_checks(params: BDParams, spec: Spectrum) -> dict:
    """Spectral sign and monotonicity of one chain and its spectrum
    ``spec``, reported, not asserted: a nonnegative spectrum forces
    monotonicity, and min t >= 2 min r - 1 (P = r_min I + (1 - r_min) M
    with M stochastic), theorems that acceptance criterion 05 tests."""
    t_min = float(spec.eigenvalues[-1])
    return {"monotone": is_monotone(params), "min_eigenvalue": t_min,
            "min_holding": float(params.r.min()), "spectrally_nonnegative": t_min >= -EPS_NEG}


def moran_mutation_spectrum(N: int, a1: float, a2: float) -> Spectrum:
    """Closed-form eigenvalues of the Moran chain with linear mutation bias:
    t_k = 1 - (k/N) (a1 + a2 + ((k-1)/N)(1 - a1 - a2)); the spectral gap is
    (a1 + a2)/N."""
    k = np.arange(N + 1, dtype=float)
    a = a1 + a2
    t = 1.0 - (k / N) * (a + ((k - 1.0) / N) * (1.0 - a))
    return Spectrum(eigenvalues=t)


def bernoulli_laplace_params(N: int) -> BDParams:
    """Two-urn swap chain on {0..N}: p_x = ((N-x)/N)^2, q_x = (x/N)^2.
    Coincides with the Moran chain at full mutation strength."""
    if N < 1:
        raise errors.DimensionMismatchError(f"the chain on 0..N needs N >= 1, got N = {N}")
    return moran_kernel(N, mutation_bias(1.0, 1.0, N))


def bernoulli_laplace_weights(N: int) -> np.ndarray:
    """mu_k = (2N+1-2k)/(2N+1-k) * C(N,k)/C(2N-k,N)."""
    return np.array(
        [
            (2 * N + 1 - 2 * k) / (2 * N + 1 - k) * comb(N, k) / comb(2 * N - k, N)
            for k in range(N + 1)
        ]
    )

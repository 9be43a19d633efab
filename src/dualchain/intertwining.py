"""From duality to intertwining.

Given a stochastic irreducible P with stationary law pi, a dual function H
and an H-dual Phat, the pipeline produces

    phi = H' pi            (positive, harmonic for Phat)
    Ptilde = D_phi^{-1} Phat D_phi        (stochastic)
    Lambda = D_phi^{-1} H' D_pi           (stochastic link)

with Ptilde Lambda = Lambda Pbar, where Pbar = D_pi^{-1} P' D_pi is the
time reversal of P, and K Ptilde' = P K for K = H D_phi^{-1}, which only
``intertwine`` forms, for its file.  With E = P H - H Phat', Ptilde Lambda -
Lambda Pbar = -D_phi^{-1} E' D_pi and K Ptilde' - P K = -E D_phi^{-1}, so
``build_intertwining`` reads every identity off the one matrix E, and
``identity_residuals`` measures the rest: the decomposition of the harmonic
phi over the mass-conserving classes of Phat and the spectra.  Both hand
on readings, and ``cli.VERIFY_CHECKS`` holds every gate.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import errors, kernels
from .duals import DualFunction
from .kernels import Kernel, sup_norm
from .tolerances import EPS_NEG, EPS_STOCH, RESID_TOL


@dataclass(frozen=True)
class IntertwiningResult:
    pi: np.ndarray
    phi: np.ndarray
    link: np.ndarray         # Lambda, stochastic by construction
    p_tilde: Kernel          # stochastic; a record when the dual is birth-death
    back: Kernel             # Pback: P itself when P is birth-death or reversible
    class_constants: list    # [(states of each mass-conserving class, c_l)]
    diagnostics: dict = field(default_factory=dict)


def _duality_readings(m, Hm, d, pi, phi, drift: float) -> dict:
    """The identities of the module docstring, read off |E| = |P H - H d'|:

    duality["static"]   max |E(x, y)|
    weighted_duality    max_x pi(x) max_y |E(x, y)|, of Phat H' D_pi = H' D_pi Pbar
    intertwining        max_x pi(x) max_y |E(x, y)| / phi(y)
    k_duality           max |E(x, y)| / phi(y)
    k_duality_scaled    max |E| / (P H + H d'), 0 where that scale is 0: the
                        K-duality relative to |P||K| + |K||Ptilde'|, near
                        eps however large K is (every factor is nonnegative)

    A dense P taken as its own reversal adds its ``drift`` max |Pbar - P|
    to the link and max phi * drift to the weighted duality (Lambda is
    stochastic; H' D_pi has row sums phi).
    """
    E, right = m @ Hm, Hm @ d.T
    scale = E + right
    E -= right                   # in place: no n x n array beyond the products
    del right
    rows = np.abs(E, out=E).max(axis=1)
    k_scaled = float(np.divide(E, scale, out=scale, where=scale > 0).max())
    rows_phi = np.divide(E, phi, out=E).max(axis=1)
    return {"duality": {"static": float(rows.max())},
            "weighted_duality": float((pi * rows).max()) + float(phi.max()) * drift,
            "intertwining": float((pi * rows_phi).max()) + drift,
            "k_duality": float(rows_phi.max()), "k_duality_scaled": k_scaled}


def build_intertwining(P, H: DualFunction, dual) -> IntertwiningResult:
    """Run the full pipeline; the P~ of a birth-death dual is made as a
    record.  ``back``, the Pbar of every command, is the Kernel P itself
    when P is birth-death, whose reversal is P by detailed balance, or when
    P is within RESID_TOL of its reversal; otherwise it is the reversal.

    Raises only where a later stage would be undefined: when P is not
    stochastic irreducible, when phi has a nonpositive entry, when Ptilde
    misses stochasticity, when the dual has no mass-conserving class, or
    when the dual and Ptilde absorb at different states.  Lambda needs no
    check: with H >= 0 and pi, phi > 0, row y holds nonnegative terms
    H(x, y) pi(x) / phi(y) summing to phi(y) / phi(y), within 2 n eps of 1.
    The identities are handed on as readings in ``diagnostics``,
    none gated here: those of ``_duality_readings`` (the n-step duality
    follows by induction), the harmonic residual ||dual phi - phi|| as
    ``phi_harmonic``, the largest deviation of phi from its mean on a
    mass-conserving class as ``phi_class_spread``, and the distance of each
    absorbing link row from pi as ``absorbing_rows``.
    """
    PK = kernels.validate_kernel(P, require="stochastic")
    pi = kernels.stationary(PK)     # raises NotIrreducibleError first
    Hm = H.matrix
    dual_K = kernels.validate_kernel(dual)

    back, drift = PK, 0.0
    if PK.bands is None:
        rev = kernels.reversal(PK, pi)
        drift = sup_norm(rev.matrix - PK.matrix)
        if drift > RESID_TOL:
            back, drift = rev, 0.0
    phi = Hm.T @ pi
    if np.min(phi) <= 0:
        raise errors.HarmonicNotPositiveError("phi = H' pi has a nonpositive entry")
    # before Lambda exists, so that E's arrays are the only n x n ones added
    diagnostics = _duality_readings(np.asarray(PK), Hm, np.asarray(dual_K), pi, phi, drift)

    link = Hm.T * pi[None, :] / phi[:, None]    # Lambda = D_phi^{-1} H' D_pi
    b = dual_K.bands                 # Ptilde(x, y) = dual(x, y) (phi(y) / phi(x))
    pt = (dual_K.matrix * (phi[None, :] / phi[:, None]) if b is None else kernels.BDParams(
        np.append(b.p[:-1] * (phi[1:] / phi[:-1]), 0.0),
        np.append(0.0, b.q[1:] * (phi[:-1] / phi[1:])), b.r))    # phi(x) / phi(x) = 1.0
    rows = pt if b is None else np.c_[pt.q, pt.r, pt.p]
    if np.min(rows) < -EPS_NEG or sup_norm(rows.sum(axis=1) - 1.0) > EPS_STOCH:
        raise errors.LinkNotStochasticError("Ptilde is not a stochastic kernel")
    p_tilde = Kernel(pt, kernels.KernelKind.STOCHASTIC) if b is None else Kernel(bands=pt)

    dec = kernels.classify(dual_K)
    if not dec.stochastic_classes:
        raise errors.DualChainError("dual has no mass-conserving class")
    class_constants = [(cls, float(phi[list(cls)].mean())) for cls in dec.stochastic_classes]
    diagnostics.update(phi_harmonic=kernels.check_harmonic(dual_K, phi),
                       phi_class_spread=max(float(np.max(np.abs(phi[list(cls)] - c)))
                                            for cls, c in class_constants))

    if dual_K.kind is kernels.KernelKind.STOCHASTIC and dec.n_classes == 1:
        diagnostics["phi_constant"] = float(np.ptp(phi))
        diagnostics["p_tilde_equals_dual"] = sup_norm(np.asarray(p_tilde) - dual_K.matrix)

    abs_tilde = kernels.absorbing_states(p_tilde)
    if set(dec.absorbing_states) != set(abs_tilde):
        raise errors.DualChainError(
            "absorbing states of the dual and its stochastic transform differ")
    diagnostics["absorbing_rows"] = {a: float(sup_norm(link[a] - pi)) for a in abs_tilde}

    return IntertwiningResult(pi=pi, phi=phi, link=link, p_tilde=p_tilde, back=back,
                              class_constants=class_constants, diagnostics=diagnostics)


def identity_residuals(P, dual, res: IntertwiningResult) -> dict:
    """The identities of ``res = build_intertwining(P, H, dual)`` that E
    does not give, computed from ``res`` itself and gated elsewhere:
    ``phi_decomposition``, ||sum_l c_l h_l - phi|| with h_l the probability
    that the dual reaches class l of ``res.class_constants``, and
    ``trace_comparison``, spectrum_equivalence(P, Ptilde), whose deviation
    ``cli.VERIFY_CHECKS`` gates for ``verify`` and for ``intertwine``'s ``equal``.
    """
    recomposed = np.zeros_like(res.phi)
    for cls, c in res.class_constants:
        recomposed += c * kernels.hitting_probabilities(dual, list(cls))
    return {"phi_decomposition": sup_norm(recomposed - res.phi),
            "trace_comparison": spectrum_equivalence(P, res.p_tilde)}


def spectrum_equivalence(P, p_tilde) -> dict:
    """Power traces tr(P^m) vs tr(Ptilde^m), m = 1..n.

    Agreement of the first n power traces pins the characteristic
    polynomial, hence equality of spectra with multiplicities.  Each trace
    is the power sum sum_i lambda_i^m of the eigenvalues of one
    ``eigvals`` call per kernel.  A backward-stable eigensolver returns
    the exact eigenvalues of a matrix within O(eps |A|) of A, and the
    power sums of that spectrum are the traces of the powers of that
    nearby matrix, so they stay accurate to rounding.  The eigenvalues
    themselves do not: a defective or nonnormal kernel moves them by up to
    eps^(1/k) for a Jordan block of size k, which is why they are not
    compared one by one.
    """
    a, b = np.asarray(P, dtype=float), np.asarray(p_tilde, dtype=float)
    if a.shape != b.shape:
        raise errors.DimensionMismatchError("size mismatch in trace comparison")
    n = a.shape[0]
    ta, tb = (np.vander(np.linalg.eigvals(k), n + 1, increasing=True)[:, 1:]
              .sum(axis=0).real for k in (a, b))
    return {"traces": ta, "traces_tilde": tb, "max_deviation": float(np.max(np.abs(ta - tb)))}

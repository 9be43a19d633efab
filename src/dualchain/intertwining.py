"""From duality to intertwining.

Given a stochastic irreducible P with stationary law pi, a dual function H
and an H-dual Phat, the pipeline produces

    phi = H' pi            (positive, harmonic for Phat)
    Ptilde = D_phi^{-1} Phat D_phi        (stochastic)
    Lambda = D_phi^{-1} H' D_pi           (stochastic link)
    K = H D_phi^{-1}

with Ptilde Lambda = Lambda Pback and K Ptilde' = P K, where Pback is the
time reversal of P.  ``build_intertwining`` builds these, refusing only
what would leave a later stage undefined; ``identity_residuals`` measures
each identity on the result, including the decomposition of the harmonic
phi over the mass-conserving classes of Phat.  Both hand on readings, and
``cli.VERIFY_CHECKS`` holds every gate.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import errors, kernels
from .duals import DualFunction, verify_duality
from .kernels import Kernel, sup_norm
from .tolerances import EPS_NEG, EPS_STOCH


@dataclass(frozen=True)
class IntertwiningResult:
    pi: np.ndarray
    phi: np.ndarray
    link: np.ndarray         # Lambda, stochastic
    p_tilde: Kernel          # stochastic; a record when the dual is birth-death
    K: np.ndarray
    back: Kernel             # time reversal of P; a record when P is birth-death
    class_constants: list    # [(states of each mass-conserving class, c_l)]
    diagnostics: dict = field(default_factory=dict)


def _stochastic_or_raise(m: np.ndarray, what: str) -> None:
    if np.min(m) < -EPS_NEG or sup_norm(m.sum(axis=1) - 1.0) > EPS_STOCH:
        raise errors.LinkNotStochasticError(f"{what} is not a stochastic kernel")


def build_intertwining(P, H: DualFunction, dual) -> IntertwiningResult:
    """Run the full pipeline; the reversal of a birth-death P and the P~ of
    a birth-death dual are made as records.

    Raises only where a later stage would be undefined: when P is not
    stochastic irreducible, when phi has a nonpositive entry, when the link
    or the transformed kernel misses stochasticity, when the dual has no
    mass-conserving class, or when the dual and Ptilde absorb at different
    states.  The identities the construction relies on are handed on as
    readings in ``diagnostics``, none of them gated here: the one-step
    duality residual ||P H - H dual'|| under ``duality["static"]`` (the
    n-step identity follows by induction), the harmonic residual
    ||dual phi - phi|| as ``phi_harmonic``, the largest deviation of phi
    from its mean on a mass-conserving class as ``phi_class_spread``, and
    the distance of each absorbing link row from pi as ``absorbing_rows``.
    The identities the result satisfies are measured by
    ``identity_residuals``.
    """
    PK = kernels.validate_kernel(P, require="stochastic")
    pi = kernels.stationary(PK)     # raises NotIrreducibleError first
    Hm = H.matrix
    dual_K = kernels.validate_kernel(dual)
    static = verify_duality(PK, H, dual_K, n_max=1)["static"]

    back = kernels.reversal(PK, pi)
    phi = Hm.T @ pi
    if np.min(phi) <= 0:
        raise errors.HarmonicNotPositiveError("phi = H' pi has a nonpositive entry")

    link = Hm.T * pi[None, :] / phi[:, None]    # Lambda = D_phi^{-1} H' D_pi
    K = Hm / phi[None, :]
    _stochastic_or_raise(link, "Lambda")
    b = dual_K.bands                 # Ptilde(x, y) = dual(x, y) (phi(y) / phi(x))
    pt = (dual_K.matrix * (phi[None, :] / phi[:, None]) if b is None else kernels.BDParams(
        np.append(b.p[:-1] * (phi[1:] / phi[:-1]), 0.0),
        np.append(0.0, b.q[1:] * (phi[:-1] / phi[1:])), b.r))    # phi(x) / phi(x) = 1.0
    _stochastic_or_raise(pt if b is None else np.c_[pt.q, pt.r, pt.p], "Ptilde")  # its rows
    p_tilde = Kernel(pt, kernels.KernelKind.STOCHASTIC) if b is None else Kernel(bands=pt)

    dec = kernels.classify(dual_K)
    if not dec.stochastic_classes:
        raise errors.DualChainError("dual has no mass-conserving class")
    class_constants = [(cls, float(phi[list(cls)].mean())) for cls in dec.stochastic_classes]
    diagnostics = {
        "duality": {"static": static},
        "phi_harmonic": kernels.check_harmonic(dual_K, phi),
        "phi_class_spread": max(float(np.max(np.abs(phi[list(cls)] - c)))
                                for cls, c in class_constants),
    }

    if dual_K.kind is kernels.KernelKind.STOCHASTIC and dec.n_classes == 1:
        diagnostics["phi_constant"] = float(np.ptp(phi))
        diagnostics["p_tilde_equals_dual"] = sup_norm(np.asarray(p_tilde) - dual_K.matrix)

    abs_tilde = kernels.absorbing_states(p_tilde)
    if set(dec.absorbing_states) != set(abs_tilde):
        raise errors.DualChainError(
            "absorbing states of the dual and its stochastic transform differ")
    diagnostics["absorbing_rows"] = {a: float(sup_norm(link[a] - pi)) for a in abs_tilde}

    return IntertwiningResult(pi=pi, phi=phi, link=link, p_tilde=p_tilde, K=K, back=back,
                              class_constants=class_constants, diagnostics=diagnostics)


def identity_residuals(P, H: DualFunction, dual, res: IntertwiningResult) -> dict:
    """Residuals of the identities that ``res = build_intertwining(P, H,
    dual)`` satisfies, computed from ``res`` itself.

    weighted_duality    ||Phat (H' D_pi) - (H' D_pi) Pback||
    intertwining        ||Ptilde Lambda - Lambda Pback|| (kernels.link_residual)
    k_duality           ||K Ptilde' - P K||, and k_duality_scaled, the same
                        residual entry by entry relative to the rounding
                        that entry can carry (see kernels.scaled_residual)
    phi_decomposition   ||sum_l c_l h_l - phi||, h_l the probability that
                        the dual reaches class l of ``res.class_constants``
    trace_comparison    spectrum_equivalence(P, Ptilde)

    None of them is gated here: ``cli.VERIFY_CHECKS`` gates intertwining and
    k_duality_scaled for ``verify``, and the trace deviation both for
    ``verify`` and for the ``equal`` that ``intertwine`` writes.
    """
    m, d, p_tilde, back = (np.asarray(v, dtype=float) for v in (P, dual, res.p_tilde, res.back))
    weighted = H.matrix.T * res.pi[None, :]          # H' D_pi
    K, link = res.K, res.link
    recomposed = np.zeros_like(res.phi)
    for cls, c in res.class_constants:
        recomposed += c * kernels.hitting_probabilities(dual, list(cls))
    # K reaches 1e30 on paper-scale chains, where the absolute residual is
    # rounding of entries that size
    k_scaled, k_absolute = kernels.scaled_residual(K, p_tilde.T, m, K)
    return {
        "weighted_duality": sup_norm(d @ weighted - weighted @ back),
        "intertwining": kernels.link_residual(p_tilde, link, back)[0],
        "k_duality": k_absolute,
        "k_duality_scaled": k_scaled,
        "phi_decomposition": sup_norm(recomposed - res.phi),
        "trace_comparison": spectrum_equivalence(m, p_tilde),
    }


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

"""From duality to intertwining.

Given a stochastic irreducible P with stationary law pi, a dual function H
and an H-dual Phat, the pipeline produces

    phi = H' pi            (positive, harmonic for Phat)
    Ptilde = D_phi^{-1} Phat D_phi        (stochastic)
    Lambda = D_phi^{-1} H' D_pi           (stochastic link)
    K = H D_phi^{-1}

with Ptilde Lambda = Lambda Pback and K Ptilde' = P K, where Pback is the
time reversal of P.  ``build_intertwining`` builds these and gates what
makes them well defined; ``identity_residuals`` measures each identity on
the result, including the decomposition of the harmonic phi over the
mass-conserving classes of Phat.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import errors, kernels
from .duals import DualFunction, verify_duality
from .kernels import Kernel, sup_norm
from .tolerances import EPS_NEG, EPS_STOCH, RESID_TOL, TRACE_TOL


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
    """Run the full pipeline and gate each of its claims; the reversal of a
    birth-death P and the P~ of a birth-death dual are made as records.

    Raises when P is not stochastic irreducible, when the one-step duality
    residual ||P H - H dual'|| exceeds EPS_STOCH, when phi fails to be
    positive or harmonic for the dual, when the link or transformed kernel
    misses stochasticity, when phi is not constant on a mass-conserving
    class of the dual, or when the dual and Ptilde absorb at different
    states.  The diagnostics record what these gates read: the one-step
    residual under ``duality["static"]`` (the n-step identity follows by
    induction and is gated by ``verify``), the harmonicity of phi and the
    distance of each absorbing link row from pi.  The identities the result
    satisfies are checked by ``identity_residuals``.
    """
    PK = kernels.validate_kernel(P, require="stochastic")
    pi = kernels.stationary(PK)     # raises NotIrreducibleError first
    Hm = H.matrix
    dual_K = kernels.validate_kernel(dual)
    static = verify_duality(PK, H, dual_K, n_max=1)["static"]
    if static > EPS_STOCH:
        raise errors.DualityResidualError(f"duality residual {static:.3g} too large")

    back = kernels.reversal(PK, pi)
    phi = Hm.T @ pi
    if np.min(phi) <= 0:
        raise errors.HarmonicNotPositiveError("phi = H' pi has a nonpositive entry")
    harmonic_resid = kernels.check_harmonic(dual_K, phi)
    if harmonic_resid > RESID_TOL:
        raise errors.DualityResidualError(
            f"phi fails harmonicity for the dual: {harmonic_resid:.3g}"
        )

    link = Hm.T * pi[None, :] / phi[:, None]    # Lambda = D_phi^{-1} H' D_pi
    K = Hm / phi[None, :]
    _stochastic_or_raise(link, "Lambda")
    b = dual_K.bands                 # Ptilde(x, y) = dual(x, y) (phi(y) / phi(x))
    pt = (dual_K.matrix * (phi[None, :] / phi[:, None]) if b is None else kernels.BDParams(
        np.append(b.p[:-1] * (phi[1:] / phi[:-1]), 0.0),
        np.append(0.0, b.q[1:] * (phi[:-1] / phi[1:])), b.r))    # phi(x) / phi(x) = 1.0
    _stochastic_or_raise(pt if b is None else np.c_[pt.q, pt.r, pt.p], "Ptilde")  # its rows
    p_tilde = Kernel(pt, kernels.KernelKind.STOCHASTIC) if b is None else Kernel(bands=pt)

    diagnostics = {"duality": {"static": static}, "phi_harmonic": harmonic_resid}
    dec = kernels.classify(dual_K)
    # a strict mass loser cannot be irreducible and keep phi harmonic
    if dual_K.kind is kernels.KernelKind.STRICTLY_SUBSTOCHASTIC and dec.n_classes == 1:
        raise errors.DualChainError(
            "strictly substochastic dual with positive harmonic vector "
            "cannot be irreducible"
        )
    if not dec.stochastic_classes:
        raise errors.DualChainError("dual has no mass-conserving class")

    class_constants = []
    for cls in dec.stochastic_classes:
        vals = phi[list(cls)]
        c = float(vals.mean())
        if np.max(np.abs(vals - c)) > RESID_TOL:
            raise errors.DualChainError(
                f"phi is not constant on mass-conserving class {cls}"
            )
        class_constants.append((cls, c))

    if dual_K.kind is kernels.KernelKind.STOCHASTIC and dec.n_classes == 1:
        diagnostics["phi_constant"] = float(np.ptp(phi))
        diagnostics["p_tilde_equals_dual"] = sup_norm(np.asarray(p_tilde) - dual_K.matrix)

    abs_tilde = kernels.absorbing_states(p_tilde)
    if set(dec.absorbing_states) != set(abs_tilde):
        raise errors.DualChainError(
            "absorbing states of the dual and its stochastic transform differ"
        )
    diagnostics["absorbing_rows"] = {a: float(sup_norm(link[a] - pi)) for a in abs_tilde}

    return IntertwiningResult(
        pi=pi,
        phi=phi,
        link=link,
        p_tilde=p_tilde,
        K=K,
        back=back,
        class_constants=class_constants,
        diagnostics=diagnostics,
    )


def identity_residuals(P, H: DualFunction, dual, res: IntertwiningResult) -> dict:
    """Residuals of the identities that ``res = build_intertwining(P, H,
    dual)`` satisfies, computed from ``res`` itself.

    weighted_duality    ||Phat (H' D_pi) - (H' D_pi) Pback||
    intertwining        ||Ptilde Lambda - Lambda Pback||
    k_duality           ||K Ptilde' - P K||, and k_duality_scaled, the same
                        residual entry by entry relative to the rounding
                        that entry can carry (see kernels.scaled_residual)
    phi_decomposition   ||sum_l c_l h_l - phi||, h_l the probability that
                        the dual reaches class l of ``res.class_constants``
    trace_comparison    spectrum_equivalence(P, Ptilde)

    None of them is gated here; ``verify`` gates intertwining,
    k_duality_scaled and the trace comparison.
    """
    m, d, p_tilde, back = (np.asarray(v, dtype=float) for v in (P, dual, res.p_tilde, res.back))
    weighted = H.matrix.T * res.pi[None, :]          # H' D_pi
    K, link = res.K, res.link
    recomposed = np.zeros_like(res.phi)
    for cls, c in res.class_constants:
        recomposed += c * kernels.hitting_probabilities(dual, list(cls))
    return {
        "weighted_duality": sup_norm(d @ weighted - weighted @ back),
        "intertwining": sup_norm(p_tilde @ link - link @ back),
        "k_duality": sup_norm(K @ p_tilde.T - m @ K),
        # K reaches 1e30 on paper-scale chains, where the absolute residual
        # above is rounding of entries that size
        "k_duality_scaled": kernels.scaled_residual(K, p_tilde.T, m, K),
        "phi_decomposition": sup_norm(recomposed - res.phi),
        "trace_comparison": spectrum_equivalence(m, p_tilde),
    }


def duality_from_intertwining(p_tilde, link, pi, p_back):
    """Reverse direction: an intertwining Ptilde Lambda = Lambda Pback with
    stochastic link yields the dual pair H = D_pi^{-1} Lambda', Phat =
    Ptilde, for which phi = H' pi is the all-ones vector."""
    pt, L, pb, piv = (np.asarray(v, dtype=float) for v in (p_tilde, link, p_back, pi))
    r = sup_norm(pt @ L - L @ pb)
    if r > RESID_TOL:
        raise errors.IntertwiningResidualError(
            f"intertwining residual {r:.3g} too large"
        )
    Hm = L.T / piv[:, None]
    H = DualFunction(Hm, "custom", {"origin": "intertwining"})
    # P = D_pi^{-1} Pback' D_pi is the kernel this H-dual pairs with
    P = pb.T * (piv[None, :] / piv[:, None])
    static = verify_duality(P, H, pt, n_max=1)["static"]
    if static > RESID_TOL:
        raise errors.DualityResidualError(f"reconstructed duality residual {static:.3g}")
    phi = Hm.T @ piv
    if sup_norm(phi - 1.0) > RESID_TOL:
        raise errors.DualityResidualError("reconstructed phi is not the ones vector")
    return H, pt


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
    dev = float(np.max(np.abs(ta - tb)))
    return {
        "traces": ta,
        "traces_tilde": tb,
        "max_deviation": dev,
        "equal": bool(dev <= TRACE_TOL * n),
    }

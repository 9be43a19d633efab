"""Duality and intertwining toolkit for finite-state Markov chains.

Builds Siegmund, ultrametric, hypergeometric, Vandermonde and potential
duals of stochastic kernels, assembles the intertwining link between a chain
and its Doob-transformed dual, and uses the absorption time of the hidden
chain as a strong stationary time: separation distance, sharpness, spectral
absorption laws, cutoff tables, and the Diaconis-Fill coupling.
"""
from . import errors
from .chains import (
    BDParams,
    BiasFunction,
    ScaleProfile,
    absorption_profile,
    bd_kernel,
    bd_params_from_kernel,
    make_bd,
    make_bias,
    moran_kernel,
    mutation_bias,
    reflected_walk_params,
    wright_fisher_kernel,
)
from .coupling import (
    ProductKernel,
    TrajectoryBatch,
    empirical_report,
    exact_joint,
    product_kernel,
    simulate,
)
from .duals import (
    DualFunction,
    DualReport,
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
from .intertwining import (
    IntertwiningResult,
    build_intertwining,
    duality_from_intertwining,
    identity_residuals,
    spectrum_equivalence,
)
from .kernels import (
    Kernel,
    KernelKind,
    absorbing_states,
    classify,
    evolve,
    hitting_probabilities,
    is_irreducible,
    reversal,
    stationary,
    validate_kernel,
)
from .spectra import (
    Spectrum,
    bd_spectrum,
    bernoulli_laplace_params,
    bernoulli_laplace_weights,
    moran_mutation_spectrum,
    orthopoly_oracle,
    orthopoly_roots,
    spectral_weights,
    spectrum_monotonicity_checks,
)
from .stationary_times import (
    AbsorptionStats,
    SharpnessReport,
    absorption_exact,
    absorption_recurrence,
    absorption_spectral,
    cutoff_report,
    separation,
    verify_sharpness,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

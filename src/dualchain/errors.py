"""Exception hierarchy.

Everything raised on purpose derives from DualChainError so callers (and the
command line driver) can separate "the input is outside the theory" from
genuine bugs.  Infeasibility of a dual kernel is *not* an exception: builders
return a report with ``feasible=False`` and a witness instead.
"""


class DualChainError(Exception):
    """Base class for all library errors."""


class NonSquareError(DualChainError):
    pass


class NonFiniteEntryError(DualChainError):
    pass


class NegativeEntryError(DualChainError):
    pass


class RowSumExceedsOneError(DualChainError):
    pass


class NotStochasticError(DualChainError):
    pass


class NotIrreducibleError(DualChainError):
    pass


class DimensionMismatchError(DualChainError):
    pass


class ZeroStationaryEntryError(DualChainError):
    pass


class SingularSystemError(DualChainError):
    pass


class SingularDualFunctionError(DualChainError):
    pass


class InvalidBoundaryError(DualChainError):
    """Birth/death vectors violate q_0 = 0, p_N = 0 or interior positivity."""


class NotDoublyAbsorbingError(DualChainError):
    pass


class InvalidBiasError(DualChainError):
    pass


class NotMonotoneError(DualChainError):
    pass


class InvalidUltrametricParamsError(DualChainError):
    pass


class PotentialHasStochasticClassError(DualChainError):
    pass


class TrivialDualFunctionError(DualChainError):
    """A dual function with a vanishing row or column carries no information."""


class HarmonicNotPositiveError(DualChainError):
    pass


class LinkNotStochasticError(DualChainError):
    pass


class IntertwiningResidualError(DualChainError):
    pass


class CheckFailedError(DualChainError):
    """A reading a command relies on is above its gate in ``cli.VERIFY_CHECKS``."""


class NotAbsorbingError(DualChainError):
    pass


class NotAdmissibleError(DualChainError):
    """The hidden initial law does not map onto the observed one through the link."""


class TruncationTooCoarseError(DualChainError):
    pass


class SpectrumError(DualChainError):
    pass


class ZeroUpProbabilityError(DualChainError):
    pass


class ConfigError(DualChainError):
    pass

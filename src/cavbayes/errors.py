"""Exception types shared across the package.

Production code raises these; the CLI exits 1 on :class:`ConfigError` and
:class:`UnsupportedCombination` and 3 on every other :class:`CavbayesError`.
"""


class CavbayesError(Exception):
    """Base class for all package-specific errors."""


class DegenerateGamma0(CavbayesError):
    """The zeroth prior moment operator is (numerically) rank deficient.

    Raised when an eigenvalue pair sum of the weight operator falls below
    threshold, which makes the symmetric operator equation ill posed.  This
    happens in estimation scenarios that carry no information, e.g. zero
    interaction time with no flight decay.
    """


class TruncationTooSmall(CavbayesError):
    """The photon-number ladder of a field state misses too much mass."""


class InvalidRate(CavbayesError):
    """A decay or damping rate is negative."""


class SinVanishes(CavbayesError):
    """sin(2 g0 tau_c) = 0: the traceless POVM component is unconstrained.

    The positivity conditions on the likelihood-optimal POVM become vacuous,
    the normalization constant is unbounded and the measurement carries no
    information beyond the prior.
    """


class UnsupportedCombination(CavbayesError):
    """A sweep/quantity/axis combination outside the supported matrix."""


class ConfigError(CavbayesError):
    """A run configuration file is missing keys or holds invalid values."""

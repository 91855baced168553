"""Exception hierarchy shared across the package.

Three families matter to callers: data problems (bad files, degenerate
inputs), shape/contract violations, and numerical infeasibility. The CLI
maps them to distinct exit codes.
"""


class FedlError(Exception):
    """Base class for all package-specific errors."""


class DataFormatError(FedlError, ValueError):
    """An input file is structurally unusable (missing or wrong header)."""


class DegenerateDataError(FedlError, ValueError):
    """The data cannot support the requested operation (empty input,
    constant labels, fewer distinct points than clusters)."""


class DegenerateSplitError(FedlError, ValueError):
    """A split or partition would leave one side empty."""


class EncodingError(FedlError, ValueError):
    """A record cannot be encoded under the given schema."""


class ShapeError(FedlError, ValueError):
    """Array dimensions do not match the declared layer or parameter shapes."""


class InfeasibilityError(FedlError, ValueError):
    """The cluster size windows admit no valid assignment."""


class StalenessError(FedlError, RuntimeError):
    """A round reports a nonzero gradient staleness; rounds are synchronous."""

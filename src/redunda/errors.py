"""Exception hierarchy; every error carries a stable machine-readable code."""


class RedundaError(Exception):
    """Base class for all engine errors."""

    code = "internal_error"


class FormatError(RedundaError):
    """Malformed input file: bad magic, truncated records, unparseable fields."""

    code = "format_error"


class ValidationError(RedundaError):
    """Well-formed input whose values violate a dataset invariant."""

    code = "validation_error"


class UnknownClassError(RedundaError):
    """Requested class_id is not present in the dataset."""

    code = "unknown_class"


class InvalidArgumentError(RedundaError, ValueError):
    """Operation argument outside its documented domain."""

    code = "invalid_argument"


class MemoryCapError(RedundaError):
    """A class would exceed the configured pairwise-matrix memory cap."""

    code = "memory_cap_exceeded"


class DegenerateClusterError(RedundaError):
    """Cluster centroid has no direction (norm below threshold)."""

    code = "degenerate_cluster"


class MarginError(RedundaError):
    """Synthetic generation cannot satisfy the requested separation margin."""

    code = "margin_unsatisfiable"


class ConfigError(RedundaError):
    """Inconsistent or incomplete run configuration."""

    code = "config_error"

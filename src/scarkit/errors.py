"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input violates a documented precondition (bad parameters, empty kernel, ...)."""


class CapabilityError(RuntimeError):
    """Request exceeds a configured resource bound (dimension thresholds, word size)."""


class ConfigError(ValueError):
    """Malformed configuration input (CLI flags, config files, manifests)."""


class NumericalError(ArithmeticError):
    """A numerical invariant failed (non-Hermitian build, unitarity drift)."""

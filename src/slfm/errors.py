"""Exception types shared across the package."""


class NearZeroNorm(ValueError):
    """A vector is too short to carry a usable direction."""


class DimensionMismatch(ValueError):
    """Operands do not share a coordinate dimension."""


class RadiusMismatch(ValueError):
    """Spherical operands do not sit on a common radius."""


class EmptyInput(ValueError):
    """An aggregate was asked for on an empty collection."""


class DegenerateShell(ValueError):
    """A shell with zero radial spread cannot define a sigma scale."""


class UnknownCondition(ValueError):
    """A condition id falls outside the embedding table."""


class DivergenceDetected(RuntimeError):
    """A training loss, the trained parameters or a sampled chain became
    non-finite."""


class ContainerFormatError(ValueError):
    """A latent container file violates the binary format contract."""

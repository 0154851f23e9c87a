"""Exception types shared across the package."""


class DsRigidityError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(DsRigidityError):
    """Two operators with incompatible dimensions were combined."""


class NonHyperbolic(DsRigidityError):
    """Root discriminant came out negative beyond tolerance.

    For symmetric input this cannot happen; it signals a non-symmetric
    matrix slipped through validation.
    """


class NotInCone(DsRigidityError):
    """An operator required to lie in the positive cone does not."""


class ChartPole(DsRigidityError):
    """Chart evaluation requested too close to a coordinate pole."""


class NonSpacelike(DsRigidityError):
    """Height-field gradient violates the spacelike bound."""


class NotAGraph(DsRigidityError):
    """A transformed surface meets some radial line other than once."""


class GateFailed(DsRigidityError):
    """A curvature or positivity hypothesis fails on the test grid."""


class CorrespondenceInvalid(DsRigidityError):
    """Point correspondence of a pair is not a local isometry."""


class ConfigError(DsRigidityError):
    """Experiment configuration is malformed or inconsistent."""

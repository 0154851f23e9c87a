"""Exception types shared across the package.

Every error derives from DsRigidityError.  The violated hypotheses of the
argument (a chart pole, a non-spacelike or non-graph surface, a failed
curvature or height gate, a pair that is not a local isometry) derive from
HypothesisViolation, which the command line reports as such (exit 2).
"""


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


class HypothesisViolation(DsRigidityError):
    """A surface or pair violates a hypothesis of the rigidity argument."""


class ChartPole(HypothesisViolation):
    """Chart evaluation requested too close to a coordinate pole."""


class NonSpacelike(HypothesisViolation):
    """Height-field gradient violates the spacelike bound."""


class NotAGraph(HypothesisViolation):
    """A transformed surface meets some radial line other than once."""


class GateFailed(HypothesisViolation):
    """A curvature or positivity hypothesis fails on the test grid."""


class CorrespondenceInvalid(HypothesisViolation):
    """Point correspondence of a pair is not a local isometry."""


class ConfigError(DsRigidityError):
    """Experiment configuration is malformed or inconsistent."""

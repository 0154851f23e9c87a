"""De Sitter ambient space: chart metric, isometries, conformal field.

The chart is (rho, theta, phi) with metric
    ds^2 = -d rho^2 + cosh^2(rho) (d theta^2 + sin^2 theta d phi^2),
a Lorentzian space form of sectional curvature +1.  Points are also
represented on the unit pseudosphere {<x, x>_eta = 1} in R^{1,3} with
eta = diag(-1, 1, 1, 1), where isometries are plain Lorentz matrices.

The distinguished radial field is V = cosh(rho) d/d rho; its potential
along rho is sinh(rho), and V is the metric gradient of that potential.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ChartPole, OffShell, PolarDegeneracy

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])
POLE_MARGIN = 1e-6
SHELL_TOL = 1e-9


# -- points and the pseudosphere model ----------------------------------


@dataclass(frozen=True, eq=False)
class DeSitterPoint:
    rho: float
    omega: np.ndarray

    def __init__(self, rho, omega):
        omega = np.asarray(omega, dtype=float)
        if omega.shape != (3,):
            raise ValueError("omega must be a 3-vector")
        if abs(np.linalg.norm(omega) - 1.0) > 1e-12:
            raise ValueError("omega must be a unit vector")
        if not math.isfinite(rho):
            raise ValueError("rho must be finite")
        object.__setattr__(self, "rho", float(rho))
        object.__setattr__(self, "omega", omega)


def embed(point: DeSitterPoint) -> np.ndarray:
    """Pseudosphere coordinates x = (sinh rho, cosh rho * omega)."""
    x = np.empty(4)
    x[0] = math.sinh(point.rho)
    x[1:] = math.cosh(point.rho) * point.omega
    return x


def unembed(x) -> DeSitterPoint:
    """Invert the pseudosphere embedding."""
    x = np.asarray(x, dtype=float)
    norm2 = float(x @ ETA @ x)
    if abs(norm2 - 1.0) > SHELL_TOL:
        raise OffShell(f"<x,x> = {norm2:.12g}, not on the unit pseudosphere")
    spatial = x[1:]
    r = np.linalg.norm(spatial)
    if r < 1e-12:
        raise PolarDegeneracy("spatial part vanishes; no direction defined")
    return DeSitterPoint(math.asinh(x[0]), spatial / r)


# -- chart metric and Christoffel symbols --------------------------------


def metric_components(rho, theta):
    """Chart metric diag(-1, cosh^2 rho, cosh^2 rho sin^2 theta)."""
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    c2 = np.cosh(rho) ** 2
    g = np.zeros(np.broadcast_shapes(rho.shape, theta.shape) + (3, 3))
    g[..., 0, 0] = -1.0
    g[..., 1, 1] = c2
    g[..., 2, 2] = c2 * np.sin(theta) ** 2
    return g


def christoffel_components(rho, theta):
    """All chart Christoffel symbols Gamma^a_{bc} (index order a, b, c)."""
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    shape = np.broadcast_shapes(rho.shape, theta.shape)
    c = np.cosh(rho)
    s = np.sinh(rho)
    st = np.sin(theta)
    ct = np.cos(theta)
    gam = np.zeros(shape + (3, 3, 3))
    gam[..., 0, 1, 1] = c * s
    gam[..., 0, 2, 2] = c * s * st**2
    gam[..., 1, 0, 1] = gam[..., 1, 1, 0] = s / c
    gam[..., 2, 0, 2] = gam[..., 2, 2, 0] = s / c
    gam[..., 1, 2, 2] = -st * ct
    gam[..., 2, 1, 2] = gam[..., 2, 2, 1] = ct / st
    return gam


def lie_derivative_residual(rho, theta, u, w) -> np.ndarray:
    """Residual of <D_u V, w> + <D_w V, u> - 2 phi' <u, w> at n points.

    ``rho`` and ``theta`` have shape (n,), the chart vectors ``u`` and
    ``w`` shape (n, 3); returns shape (n,).  V = cosh(rho) d/d rho is
    conformal Killing with D V = phi' Id, so the residual vanishes
    identically; this evaluates it from the chart Christoffel symbols as
    an independent check.
    """
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    near = np.flatnonzero(np.sin(theta) < POLE_MARGIN)
    if near.size:
        k = near[0]
        raise ChartPole(f"node {k}: theta = {theta[k]:.3g} too close to a chart pole")
    g = metric_components(rho, theta)
    gam = christoffel_components(rho, theta)
    c = np.cosh(rho)
    s = np.sinh(rho)

    def cov_deriv_v(vec):
        # (D_u V)^a = u^rho sinh(rho) delta^a_rho + Gamma^a_{b rho} u^b cosh(rho)
        out = np.einsum("nab,nb->na", gam[..., 0], vec) * c[:, None]
        out[:, 0] += vec[:, 0] * s
        return out

    dot = lambda a, b: np.einsum("na,nab,nb->n", a, g, b)
    return dot(cov_deriv_v(u), w) + dot(cov_deriv_v(w), u) - 2.0 * s * dot(u, w)


# -- isometries -----------------------------------------------------------


class IsometryKind(Enum):
    ROTATION = "Rotation"
    BOOST = "Boost"
    EQUATOR_REFLECTION = "EquatorReflection"
    COMPOSITE = "Composite"


@dataclass(frozen=True, eq=False)
class AmbientIsometry:
    matrix: np.ndarray
    kind: IsometryKind

    def __init__(self, matrix, kind):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (4, 4):
            raise ValueError("isometry matrix must be 4x4")
        if np.max(np.abs(matrix.T @ ETA @ matrix - ETA)) > 1e-12:
            raise ValueError("matrix does not preserve the Lorentz form")
        matrix = matrix.copy()
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "kind", kind)

    def __matmul__(self, other):
        return AmbientIsometry(self.matrix @ other.matrix, IsometryKind.COMPOSITE)

    def inverse(self):
        return AmbientIsometry(ETA @ self.matrix.T @ ETA, self.kind)


def identity_isometry() -> AmbientIsometry:
    return AmbientIsometry(np.eye(4), IsometryKind.COMPOSITE)


def rotation(angle: float, axis) -> AmbientIsometry:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    r3 = np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)
    mat = np.eye(4)
    mat[1:, 1:] = r3
    return AmbientIsometry(mat, IsometryKind.ROTATION)


def boost(rapidity: float, axis) -> AmbientIsometry:
    """Lorentz boost mixing the timelike direction with a spatial axis."""
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError("boost axis must be a unit vector")
    u = axis / norm
    ch = math.cosh(rapidity)
    sh = math.sinh(rapidity)
    mat = np.eye(4)
    mat[0, 0] = ch
    mat[0, 1:] = sh * u
    mat[1:, 0] = sh * u
    mat[1:, 1:] = np.eye(3) + (ch - 1.0) * np.outer(u, u)
    return AmbientIsometry(mat, IsometryKind.BOOST)


def reflect_equator() -> AmbientIsometry:
    """The isometry rho -> -rho, fixing the equator slice pointwise."""
    return AmbientIsometry(np.diag([-1.0, 1.0, 1.0, 1.0]), IsometryKind.EQUATOR_REFLECTION)

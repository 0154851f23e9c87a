"""De Sitter ambient space: chart metric, isometries, conformal field.

The chart is (rho, theta, phi) with metric
    ds^2 = -d rho^2 + cosh^2(rho) (d theta^2 + sin^2 theta d phi^2),
a Lorentzian space form of sectional curvature +1.  Points are also
represented on the unit pseudosphere {<x, x>_eta = 1} in R^{1,3} with
eta = diag(-1, 1, 1, 1), where isometries are plain Lorentz matrices;
``embed`` and ``unembed`` are the map there and back: the isometric pair's
image points are embedded points under a Lorentz matrix, and the regraph
moves points along the same map.

The distinguished radial field is V = cosh(rho) d/d rho; its potential
along rho is sinh(rho), and V is the metric gradient of that potential.
Chart tensors put their components first and the nodes last, as every
array of the package does: chart vectors at n nodes have shape (3, n).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartPole

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])
POLE_MARGIN = 1e-6


# -- the pseudosphere model ----------------------------------------------


def embed(rho, omega):
    """Pseudosphere points x = (sinh rho, cosh rho omega), the unit
    directions ``omega`` and the points on axis 0."""
    return np.concatenate([np.sinh(rho)[None], np.cosh(rho) * omega])


def unembed(x):
    """(rho, theta, phi) of pseudosphere points ``x`` on axis 0, phi in [0, 2 pi]:
    atan2 wrapped with the bits of ``% (2 pi)``, so -0.0 gives +0.0, and a negative
    atan2 within half an ulp of 2 pi (4.4e-16), such as -1e-300, gives exactly 2 pi."""
    r = np.sqrt(x[1] ** 2 + x[2] ** 2 + x[3] ** 2)
    theta = np.arccos(np.clip(x[3] / r, -1.0, 1.0))
    phi = np.arctan2(x[2], x[1])
    return np.arcsinh(x[0]), theta, np.where(phi < 0.0, phi + 2.0 * math.pi, phi + 0.0)


# -- chart metric and Christoffel symbols --------------------------------


def check_off_poles(theta, shape=None):
    """ChartPole naming the first node with sin(theta) < POLE_MARGIN and its theta;
    the nodes are ``theta`` broadcast to ``shape`` (a grid's column of row values
    is tested once per row)."""
    near = np.sin(theta) < POLE_MARGIN
    if near.any():
        shape = np.shape(theta) if shape is None else shape
        k = np.flatnonzero(np.broadcast_to(near, shape))[0]
        theta_k = np.broadcast_to(theta, shape).ravel()[k]
        raise ChartPole(f"node {k}: theta = {theta_k:.3g} too close to a chart pole")


def metric_components(rho, theta):
    """Chart metric diag(-1, cosh^2 rho, cosh^2 rho sin^2 theta), components first."""
    c2 = np.cosh(rho) ** 2
    g = np.zeros((3, 3) + np.broadcast_shapes(np.shape(rho), np.shape(theta)))
    g[0, 0] = -1.0
    g[1, 1] = c2
    g[2, 2] = c2 * np.sin(theta) ** 2
    return g


def christoffel_components(rho, theta):
    """All chart Christoffel symbols Gamma^a_{bc}, components (a, b, c) first."""
    shape = np.broadcast_shapes(np.shape(rho), np.shape(theta))
    c = np.cosh(rho)
    s = np.sinh(rho)
    st = np.sin(theta)
    ct = np.cos(theta)
    gam = np.zeros((3, 3, 3) + shape)
    gam[0, 1, 1] = c * s
    gam[0, 2, 2] = c * s * st**2
    gam[1, 0, 1] = gam[1, 1, 0] = s / c
    gam[2, 0, 2] = gam[2, 2, 0] = s / c
    gam[1, 2, 2] = -st * ct
    gam[2, 1, 2] = gam[2, 2, 1] = ct / st
    return gam


def lie_derivative_residual(rho, theta, u, w) -> np.ndarray:
    """Residual of <D_u V, w> + <D_w V, u> - 2 phi' <u, w> at n points.

    ``rho`` and ``theta`` have shape (n,), the chart vectors ``u`` and
    ``w`` shape (3, n); returns shape (n,).  V = cosh(rho) d/d rho is
    conformal Killing with D V = phi' Id, so the residual vanishes
    identically; this evaluates it from the chart Christoffel symbols as
    an independent check.
    """
    u, w = np.asarray(u, dtype=float), np.asarray(w, dtype=float)
    check_off_poles(theta)
    g = metric_components(rho, theta)
    gam = christoffel_components(rho, theta)
    c = np.cosh(rho)
    s = np.sinh(rho)

    def cov_deriv_v(vec):
        # (D_u V)^a = u^rho sinh(rho) delta^a_rho + Gamma^a_{b rho} u^b cosh(rho);
        # each component has at most one nonzero term, so the order is exact
        out = sum(gam[:, b, 0] * vec[b] for b in range(3)) * c
        out[0] += vec[0] * s
        return out

    # g is diagonal: of a full sum over (a, b) from 0, the zero terms drop
    dot = lambda a, b: sum(a[k] * g[k, k] * b[k] for k in range(3))
    return dot(cov_deriv_v(u), w) + dot(cov_deriv_v(w), u) - 2.0 * s * dot(u, w)


# -- isometries -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AmbientIsometry:
    matrix: np.ndarray

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (4, 4):
            raise ValueError("isometry matrix must be 4x4")
        if np.max(np.abs(matrix.T @ ETA @ matrix - ETA)) > 1e-12:
            raise ValueError("matrix does not preserve the Lorentz form")
        matrix = matrix.copy()
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    def inverse(self):
        return AmbientIsometry(ETA @ self.matrix.T @ ETA)


def identity_isometry() -> AmbientIsometry:
    return AmbientIsometry(np.eye(4))


def unit_vector(axis):
    """axis / |axis|, scaled first by a power of two (exact): no square over- or underflows."""
    axis = np.asarray(axis, dtype=float)
    axis = np.ldexp(axis, -np.frexp(np.abs(axis).max())[1])
    return axis / np.linalg.norm(axis)


def rotation(angle: float, axis) -> AmbientIsometry:
    axis = unit_vector(axis)
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
    return AmbientIsometry(mat)


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
    return AmbientIsometry(mat)


def reflect_equator() -> AmbientIsometry:
    """The isometry rho -> -rho, fixing the equator slice pointwise."""
    return AmbientIsometry(np.diag([-1.0, 1.0, 1.0, 1.0]))

"""Product quadrature on the sphere: Gauss-Legendre in cos(theta),
uniform trapezoid in phi.

Nodes never touch the chart poles.  Weights are stored against the
chart measure d theta d phi, so integrating a function F over the round
sphere is sum(w * F * sin theta) and over a graph surface
sum(w * F * sqrt(det g)); reductions use exact compensated summation in
a fixed node order for bit-stable reports.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray


@functools.lru_cache(maxsize=8)
def gauss_sphere_rule(n_theta: int, n_phi: int) -> QuadratureRule:
    """The (n_theta x n_phi) product rule, theta-major node order.

    Built once per process and size; its arrays are read-only, so no
    caller can alter a rule that others share.
    """
    if n_theta < 2 or n_phi < 2:
        raise ConfigError("quadrature degrees must be at least 2 in each angle")
    x, w = np.polynomial.legendre.leggauss(n_theta)
    order = np.argsort(-x)  # theta increasing
    x, w = x[order], w[order]
    theta_nodes = np.arccos(x)
    phi_nodes = np.arange(n_phi) * 2.0 * math.pi / n_phi
    wphi = 2.0 * math.pi / n_phi

    theta = np.repeat(theta_nodes, n_phi)
    phi = np.tile(phi_nodes, n_theta)
    # chart-measure weights: GL weight is against d cos(theta)
    weights = np.repeat(w / np.sin(theta_nodes), n_phi) * wphi
    for array in (theta, phi, weights):
        array.setflags(write=False)
    return QuadratureRule(theta, phi, weights)


def reduce_sum(values) -> float:
    """Deterministic compensated reduction over a fixed node order."""
    # fsum of a list of floats: iterating the array would box each element
    return math.fsum(np.asarray(values, dtype=float).tolist())


def integrate_surface(rule: QuadratureRule, sqrt_det_g, values) -> float:
    """Integral over a graph surface with the induced area element."""
    return reduce_sum(rule.weights * np.asarray(sqrt_det_g) * np.asarray(values))

"""Pointwise surface geometry: fields, invariant checks, curvature gate.

This layer feeds height jets into the geometry kernels and exposes the
results as arrays over a node set.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, symfun
from .errors import GateFailed, NonSpacelike

#: sigma2 must exceed this at every node for the curvature gate
GATE_SIGMA2_TOL = 1e-10


def node_text(theta, phi, k, **values):
    """'node k (theta=..., phi=..., name=value)' for error messages."""
    parts = [f"theta={theta[k]:.4f}", f"phi={phi[k]:.4f}"]
    parts += [f"{name}={value:.3e}" for name, value in values.items()]
    return f"node {k} ({', '.join(parts)})"


@dataclass(frozen=True, eq=False)
class SurfaceFields:
    """All pointwise geometric quantities over a set of chart nodes."""

    theta: np.ndarray
    phi: np.ndarray
    y: np.ndarray
    margin: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    det_g: np.ndarray
    nu: np.ndarray
    support: np.ndarray
    h: np.ndarray
    w_chart: np.ndarray
    frame: np.ndarray
    w_frame: np.ndarray
    hess_phi_frame: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    pre_integral_residual: np.ndarray
    gamma: np.ndarray
    # the curvature fields need third-order jets; None without them
    k_norm: np.ndarray
    gauss_residual: np.ndarray
    newton_residual: np.ndarray
    nu_norm_residual: np.ndarray
    nu_tangency_residual: np.ndarray

    @property
    def n_nodes(self):
        return self.theta.shape[0]

    @property
    def sqrt_det_g(self):
        return np.sqrt(self.det_g)

    @property
    def phi_prime(self):
        """phi'(y) = sinh(y), the radial profile derivative on the surface."""
        return np.sinh(self.y)


def evaluate_fields(theta, phi, node_jets) -> SurfaceFields:
    """Run the geometry kernels on precomputed jets at the given nodes.

    ``node_jets`` is (y, dy, d2y) or (y, dy, d2y, d3y); the curvature
    kernel runs only on the latter.
    """
    theta = np.ascontiguousarray(theta, dtype=float)
    phi = np.ascontiguousarray(phi, dtype=float)
    y, dy, d2y = node_jets[:3]
    core = kernels.surface_core(theta, y, dy, d2y)
    margin = core["margin"]
    if np.any(margin <= 0.0):
        worst = int(np.argmin(margin))
        raise NonSpacelike(
            "gradient bound violated at "
            + node_text(theta, phi, worst, margin=margin[worst])
        )
    dg = core.pop("dg")
    k_norm = gauss = newton = None
    if len(node_jets) > 3:
        k_norm, gauss, newton = kernels.curvature_fields(
            theta, y, dy, d2y, node_jets[3], core["g"], core["g_inv"], core["det_g"],
            core["w_chart"], core["gamma"], dg, core["sigma2"],
        )
    return SurfaceFields(
        theta=theta, phi=phi, y=y, k_norm=k_norm, gauss_residual=gauss,
        newton_residual=newton, **core,
    )


def evaluate_surface(surface, theta, phi) -> SurfaceFields:
    """All fields, curvature included, of an analytic surface at the nodes."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    return evaluate_fields(theta, phi, surface.jets(theta, phi))


def evaluate_on_grid(surface) -> SurfaceFields:
    """Evaluate a sampled surface at its own grid nodes."""
    theta, phi = surface.nodes()
    return evaluate_fields(theta, phi, surface.grid_jets())


def sampled_pre_integral_residual(surface, fields) -> np.ndarray:
    """Pre-integral residual for a sampled surface, discretized two ways.

    ``fields`` is ``evaluate_on_grid(surface)``.  The Hessian side is
    computed from samples of the potential itself (independent stencils),
    the right side from the height jets; the mutual disagreement measures
    the discretization error and decays at second order under grid
    refinement.
    """
    from .surfaces import grid_scalar_jets

    _, dp, d2p = grid_scalar_jets(-np.sinh(surface.values), order=2)
    hess = d2p - np.einsum("nkij,nk->nij", fields.gamma, dp)
    hess_frame = np.einsum("nai,nij,nbj->nab", fields.frame, hess, fields.frame)
    target = (
        fields.phi_prime[:, None, None] * np.eye(2)
        + fields.support[:, None, None] * fields.w_frame
    )
    return np.abs(hess_frame - target).max(axis=(1, 2))


def sampled_newton_residual(surface, fields, min_sin_theta=0.2) -> np.ndarray:
    """Newton-tensor divergence with the tensor field differenced on the grid.

    ``fields`` is ``evaluate_on_grid(surface)``.  The Newton tensor is
    assembled from the height jets at every node and then differentiated
    as a grid field (central stencils), independently of the jet-level
    derivative route.  The residual is reported over a fixed interior band
    sin(theta) >= min_sin_theta: closer to the poles the chart
    Christoffels grow like cot(theta) ~ 1/h and amplify the (second-order)
    discretization error of the tensor field by 1/h, obscuring the
    convergence order of the discretization itself.
    """
    nt, npk = surface.n_theta, surface.n_phi
    w = fields.w_chart.reshape(nt, npk, 2, 2)
    tr = w[..., 0, 0] + w[..., 1, 1]
    newton = tr[..., None, None] * np.eye(2) - w
    ht = math.pi / nt
    hp = 2.0 * math.pi / npk

    d_theta = (newton[2:] - newton[:-2]) / (2 * ht)
    d_phi = (np.roll(newton, -1, axis=1) - np.roll(newton, 1, axis=1)) / (2 * hp)
    dT = np.stack([d_theta, d_phi[1:-1]], axis=2)  # (nt-2, np, p, i, j)

    gamma = fields.gamma.reshape(nt, npk, 2, 2, 2)[1:-1]
    core = newton[1:-1]
    div = np.einsum("tpiij->tpj", dT)
    div += np.einsum("tpiia,tpaj->tpj", gamma, core)
    div -= np.einsum("tpaij,tpia->tpj", gamma, core)
    keep = np.sin(surface.theta_grid[1:-1]) >= min_sin_theta
    return np.abs(div[keep]).max(axis=-1).ravel()


def curvature_gate_fields(fields: SurfaceFields):
    """Gate verdict plus shared cone label for precomputed fields.

    The gate passes when sigma2 > GATE_SIGMA2_TOL at every node; the cone
    labels must agree across nodes whenever the gate passes (connectedness
    of the positivity region).  Returns ``(passed, label)``, label None
    when the gate fails.
    """
    if not np.all(fields.sigma2 > GATE_SIGMA2_TOL):
        return False, None
    _, _, labels = symfun.cone_roots(fields.w_frame)
    other = np.flatnonzero(labels != labels[0])
    if other.size:
        k = other[0]
        raise GateFailed(
            "cone labels differ across nodes despite positive sigma2: "
            f"{node_text(fields.theta, fields.phi, 0)} is "
            f"{symfun.CONE_LABELS[labels[0]].value}, "
            f"{node_text(fields.theta, fields.phi, k)} is "
            f"{symfun.CONE_LABELS[labels[k]].value}"
        )
    return True, symfun.CONE_LABELS[labels[0]]

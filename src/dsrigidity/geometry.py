"""Pointwise surface geometry: fields, invariant checks, curvature gate.

This layer feeds height jets into the geometry kernels and exposes the
results as arrays over a node set, plus single-node convenience wrappers.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ChartPole, GateFailed, NonSpacelike
from .symfun import ConeLabel

#: sigma2 must exceed this at every node for the curvature gate
GATE_SIGMA2_TOL = 1e-10

_LABEL_MAP = {
    kernels.LABEL_PLUS: ConeLabel.PLUS,
    kernels.LABEL_MINUS: ConeLabel.MINUS,
    kernels.LABEL_OUTSIDE: ConeLabel.OUTSIDE,
    kernels.LABEL_BOUNDARY: ConeLabel.BOUNDARY,
}


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

    def cone_labels(self):
        """Cone label of the shape operator at every node."""
        disc = self.sigma1**2 - 4.0 * self.sigma2
        root = np.sqrt(np.maximum(disc, 0.0))
        t1 = 0.5 * (-self.sigma1 - root)
        t2 = 0.5 * (-self.sigma1 + root)
        labels = np.full(self.n_nodes, kernels.LABEL_OUTSIDE, dtype=np.int8)
        labels[t2 < 0.0] = kernels.LABEL_PLUS
        labels[t1 > 0.0] = kernels.LABEL_MINUS
        boundary = (np.abs(t1) <= 1e-12) | (np.abs(t2) <= 1e-12)
        labels[boundary] = kernels.LABEL_BOUNDARY
        return labels


def evaluate_fields(theta, phi, node_jets) -> SurfaceFields:
    """Run the geometry kernels on precomputed jets at the given nodes."""
    theta = np.ascontiguousarray(theta, dtype=float)
    phi = np.ascontiguousarray(phi, dtype=float)
    y, dy, d2y, d3y = node_jets
    core = kernels.surface_core(theta, y, dy, d2y)
    margin = core["margin"]
    if np.any(margin <= 0.0):
        worst = int(np.argmin(margin))
        raise NonSpacelike(
            f"gradient bound violated at node {worst} "
            f"(theta={theta[worst]:.4f}, phi={phi[worst]:.4f}, "
            f"margin={margin[worst]:.3e})"
        )
    k_norm, gauss, newton = kernels.curvature_fields(
        theta, y, dy, d2y, d3y, core["g"], core["g_inv"], core["det_g"],
        core["w_chart"], core["gamma"], core.pop("dg"), core["sigma2"],
    )
    return SurfaceFields(
        theta=theta, phi=phi, y=y, k_norm=k_norm, gauss_residual=gauss,
        newton_residual=newton, **core,
    )


def evaluate_surface(surface, theta, phi) -> SurfaceFields:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    if np.any(np.sin(theta) < 1e-6):
        raise ChartPole("node too close to a chart pole")
    return evaluate_fields(theta, phi, surface.jets(theta, phi))


def evaluate_on_grid(surface) -> SurfaceFields:
    """Evaluate a sampled surface at its own grid nodes."""
    theta, phi = surface.nodes()
    return evaluate_fields(theta, phi, surface.grid_jets())


@dataclass(frozen=True, eq=False)
class PointGeometry:
    """Single-node view of the surface fields."""

    g: np.ndarray
    g_inv: np.ndarray
    h: np.ndarray
    w: np.ndarray
    nu: np.ndarray
    support: float
    frame: np.ndarray
    hess_phi: np.ndarray
    sigma1: float
    sigma2: float
    k_norm: float


def point_geometry(surface, node) -> PointGeometry:
    """All pointwise geometric data at one chart node (theta, phi)."""
    theta, phi = node
    f = evaluate_surface(surface, [theta], [phi])
    return PointGeometry(
        g=f.g[0], g_inv=f.g_inv[0], h=f.h[0], w=f.w_frame[0], nu=f.nu[0],
        support=float(f.support[0]), frame=f.frame[0],
        hess_phi=f.hess_phi_frame[0], sigma1=float(f.sigma1[0]),
        sigma2=float(f.sigma2[0]), k_norm=float(f.k_norm[0]),
    )


def check_pre_integral(surface, node) -> float:
    """Max-norm residual of Hess(Phi) = phi' g + h <V, nu> at a node."""
    theta, phi = node
    f = evaluate_surface(surface, [theta], [phi])
    return float(f.pre_integral_residual[0])


def check_sigma2_curvature(surface, node):
    """(sigma2, intrinsic curvature, residual of sigma2 = 1 - K)."""
    theta, phi = node
    f = evaluate_surface(surface, [theta], [phi])
    return float(f.sigma2[0]), float(f.k_norm[0]), float(f.gauss_residual[0])


def newton_divergence(surface, node) -> float:
    """Covariant divergence of sigma1(W) Id - W in chart coordinates."""
    theta, phi = node
    f = evaluate_surface(surface, [theta], [phi])
    return float(f.newton_residual[0])


def sampled_pre_integral_residual(surface) -> np.ndarray:
    """Pre-integral residual for a sampled surface, discretized two ways.

    The Hessian side is computed from samples of the potential itself
    (independent stencils), the right side from the height jets; the
    mutual disagreement measures the discretization error and decays at
    second order under grid refinement.
    """
    fields = evaluate_on_grid(surface)
    from .surfaces import grid_scalar_derivatives

    pot = -np.sinh(surface.values)
    d = grid_scalar_derivatives(pot, order=2)
    n = pot.size
    dp = np.stack([d["t"].ravel(), d["p"].ravel()], axis=-1)
    d2p = np.empty((n, 2, 2))
    d2p[:, 0, 0] = d["tt"].ravel()
    d2p[:, 0, 1] = d2p[:, 1, 0] = d["tp"].ravel()
    d2p[:, 1, 1] = d["pp"].ravel()
    hess = d2p - np.einsum("nkij,nk->nij", fields.gamma, dp)
    hess_frame = np.einsum("nai,nij,nbj->nab", fields.frame, hess, fields.frame)
    target = (
        fields.phi_prime[:, None, None] * np.eye(2)
        + fields.support[:, None, None] * fields.w_frame
    )
    return np.abs(hess_frame - target).max(axis=(1, 2))


def sampled_newton_residual(surface, min_sin_theta=0.2) -> np.ndarray:
    """Newton-tensor divergence with the tensor field differenced on the grid.

    The Newton tensor is assembled from the height jets at every node and
    then differentiated as a grid field (central stencils), independently
    of the jet-level derivative route.  The residual is reported over a
    fixed interior band sin(theta) >= min_sin_theta: closer to the poles
    the chart Christoffels grow like cot(theta) ~ 1/h and amplify the
    (second-order) discretization error of the tensor field by 1/h,
    obscuring the convergence order of the discretization itself.
    """
    fields = evaluate_on_grid(surface)
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
    of the positivity region).
    """
    passed = bool(np.all(fields.sigma2 > GATE_SIGMA2_TOL))
    labels = fields.cone_labels()
    label = None
    if passed:
        unique = np.unique(labels)
        if unique.size != 1:
            raise GateFailed(
                "cone labels differ across nodes despite positive sigma2"
            )
        label = _LABEL_MAP[int(unique[0])]
    return passed, label


def curvature_gate(surface, rule):
    """Evaluate the curvature gate on a quadrature rule's nodes."""
    fields = evaluate_surface(surface, rule.theta, rule.phi)
    return curvature_gate_fields(fields)

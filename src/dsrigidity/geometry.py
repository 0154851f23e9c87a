"""Pointwise surface geometry: fields, invariant checks, curvature gate.

This layer feeds height jets into the geometry kernels, and a sampled grid's
stencil jets of the potential into the same frame Hessian and residual; the
results are arrays over a node set, tensors component-first (``kernels``).
``evaluate_fields`` forms the surface core only; each other field group
waits for its first read, so a suite forms just the groups it reads.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import kernels, symfun
from .errors import GateFailed, NonSpacelike
from .surfaces import central, grid_scalar_jets, grid_steps

#: sigma2 must exceed this at every node for the curvature gate
GATE_SIGMA2_TOL = 1e-10

#: the sampled Newton residual is reported where sin(theta) is at least this
NEWTON_MIN_SIN_THETA = 0.2


def node_text(theta, phi, k, **values):
    """'node k (theta=..., phi=..., name=value)' for error messages."""
    parts = [f"theta={theta[k]:.4f}", f"phi={phi[k]:.4f}"]
    parts += [f"{name}={value:.3e}" for name, value in values.items()]
    return f"node {k} ({', '.join(parts)})"


@dataclass(frozen=True, eq=False)
class SurfaceFields:
    """Pointwise geometric quantities over a set of chart nodes.

    ``kernels.surface_core`` forms the fields on every surface.  The rest are
    formed on first read: ``normal_fields`` nu, its residuals and w_chart
    (read by the ``geometry`` suite only), ``connection`` dg and gamma,
    ``frame_hessian`` hess_phi_frame (of ``potential_jets``) and
    ``pre_integral_residual``, ``curvature_fields`` k_norm and gauss_residual,
    ``newton_divergence`` newton_residual; the last three are None without
    third-order jets.  ``trig`` is ``kernels.node_trig`` at the nodes, which
    every kernel reads.
    """

    theta: np.ndarray
    phi: np.ndarray
    y: np.ndarray
    dy: np.ndarray
    d2y: np.ndarray
    d3y: np.ndarray  # None for second-order jets
    margin: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    det_g: np.ndarray
    support: np.ndarray
    h: np.ndarray
    t: list  # components of T in h = (c / sqrt(margin)) T
    frame: np.ndarray
    w_frame: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    trig: tuple

    @functools.cached_property
    def _normal(self):
        return kernels.normal_fields(self.dy, self.margin, self.g_inv, self.h, trig=self.trig)

    @functools.cached_property
    def _connection(self):
        return kernels.connection(self.dy, self.d2y, self.g_inv, trig=self.trig)

    @functools.cached_property
    def hess_phi_frame(self):
        return kernels.frame_hessian(
            self.frame, self.gamma,
            *kernels.potential_jets(self.dy, self.d2y, trig=self.trig)
        )

    @functools.cached_property
    def pre_integral_residual(self):
        return kernels.pre_integral_residual(
            self.hess_phi_frame, self.phi_prime, self.support, self.w_frame
        )

    @functools.cached_property
    def _curvature(self):
        return (None, None) if self.d3y is None else kernels.curvature_fields(
            self.theta, self.y, self.dy, self.d2y, self.d3y, self.g, self.g_inv, self.det_g,
            self.gamma, self.dg, self.sigma2, trig=self.trig,
        )

    @functools.cached_property
    def newton_residual(self):
        return None if self.d3y is None else kernels.newton_divergence(
            self.dy, self.d2y, self.d3y, self.g_inv, self.w_chart, self.gamma, self.dg,
            self.margin, self.t, trig=self.trig,
        )

    nu = property(lambda self: self._normal[0])
    nu_norm_residual = property(lambda self: self._normal[1])
    nu_tangency_residual = property(lambda self: self._normal[2])
    w_chart = property(lambda self: self._normal[3])
    dg = property(lambda self: self._connection[0])
    gamma = property(lambda self: self._connection[1])
    k_norm = property(lambda self: self._curvature[0])
    gauss_residual = property(lambda self: self._curvature[1])

    @property
    def sqrt_det_g(self):
        return np.sqrt(self.det_g)

    @property
    def phi_prime(self):
        """phi'(y) = sinh(y), the radial profile derivative on the surface."""
        return self.trig[4]


def evaluate_fields(theta, phi, node_jets, grid=None) -> SurfaceFields:
    """Run ``kernels.surface_core`` on precomputed jets at the given nodes.

    ``node_jets`` is (y, dy, d2y) or (y, dy, d2y, d3y), derivative axes
    first and nodes last; only the latter lets the curvature and Newton
    fields be formed.  When the nodes are those of a product ``grid``,
    functions of theta are evaluated once per grid row.
    """
    theta = np.ascontiguousarray(theta, dtype=float)
    phi = np.ascontiguousarray(phi, dtype=float)
    y, dy, d2y, d3y = (*node_jets, None)[:4]
    trig = kernels.node_trig(theta, y, grid)
    core = kernels.surface_core(theta, y, dy, d2y, trig=trig)
    _raise_unless_spacelike(theta, phi, core["margin"])
    return SurfaceFields(theta=theta, phi=phi, y=y, dy=dy, d2y=d2y, d3y=d3y, trig=trig, **core)


def check_spacelike(grid, y, dy):
    """``evaluate_fields``'s NonSpacelike check from y and dy alone at the nodes
    of a product ``grid``, no field formed."""
    c = np.cosh(y)
    _raise_unless_spacelike(grid.theta, grid.phi, kernels.first_form(grid.trig[0], c * c, dy)[2])


def _raise_unless_spacelike(theta, phi, margin):
    """NonSpacelike naming the node of least (clipped) ``first_form`` margin."""
    if np.any(margin <= 0.0):
        worst = int(np.argmin(margin))
        where = node_text(theta, phi, worst, margin=margin[worst])
        raise NonSpacelike(f"gradient bound violated at {where}")


def evaluate_surface(surface, grid) -> SurfaceFields:
    """All fields, curvature included, of an analytic surface at the nodes of
    a product ``grid``, each function of one angle once per row or column."""
    return evaluate_fields(grid.theta, grid.phi, surface.jets(*grid.mesh), grid)


def evaluate_on_grid(surface) -> SurfaceFields:
    """Evaluate a sampled surface at its own grid nodes."""
    grid = surface.grid
    return evaluate_fields(grid.theta, grid.phi, surface.grid_jets(), grid)


def sampled_pre_integral_residual(surface, fields) -> np.ndarray:
    """Pre-integral residual for a sampled surface, discretized two ways.

    ``fields`` is ``evaluate_on_grid(surface)``.  The Hessian side is
    computed from samples of the potential itself (independent stencils),
    the right side from the height jets; the mutual disagreement measures
    the discretization error.  It decays at second order on the band
    sin(theta) >= NEWTON_MIN_SIN_THETA, at first order in the pole rows of a
    height with m = 1 content: there cot(theta) y_theta and y_phiphi /
    sin^2(theta) are each O(1/h), and their O(h^2) stencil errors add to O(h).
    """
    _, dp, d2p = grid_scalar_jets(-np.sinh(surface.values), order=2)
    hess_frame = kernels.frame_hessian(fields.frame, fields.gamma, dp, d2p)
    return kernels.pre_integral_residual(
        hess_frame, fields.phi_prime, fields.support, fields.w_frame
    )


def sampled_newton_residual(surface, fields) -> np.ndarray:
    """Newton-tensor divergence with the tensor field differenced on the grid.

    ``fields`` is ``evaluate_on_grid(surface)``.  The Newton tensor,
    d_sigma2 of W^T, is formed at every node and then differentiated
    as a grid field (``central`` stencils), independently of the jet-level
    derivative route.  The residual is reported over a fixed interior band
    sin(theta) >= NEWTON_MIN_SIN_THETA: closer to the poles the chart
    Christoffels grow like cot(theta) ~ 1/h and amplify the (second-order)
    discretization error of the tensor field by 1/h, obscuring the
    convergence order of the discretization itself.
    """
    nt, npk = surface.values.shape
    ht, hp = grid_steps(nt, npk)
    w = fields.w_chart.reshape(2, 2, nt, npk)
    newton = symfun.d_sigma2(np.swapaxes(w, 0, 1))
    # one periodic copy in phi, grid column j at j + 1
    wrapped = np.concatenate([newton[..., -1:], newton, newton[..., :1]], axis=-1)
    d_theta = central(newton[0], 1, 1, 1, ht)
    d_phi = central(wrapped[1, :, 1:-1], 2, 1, 1, hp)
    gam = fields.gamma.reshape(2, 2, 2, nt, npk)[..., 1:-1, :]
    core = newton[:, :, 1:-1]

    # div_j = d_i T^i_j + Gamma^i_ia T^a_j - Gamma^a_ij T^i_a, each contraction
    # a sum from 0 over its index pairs in order, as einsum sums the stacks
    div = [
        sum((d_theta[j], d_phi[j]))
        + sum(gam[i, i, a] * core[a, j] for i, a in np.ndindex(2, 2))
        - sum(gam[a, i, j] * core[i, a] for a, i in np.ndindex(2, 2))
        for j in range(2)
    ]
    keep = np.sin(surface.grid.theta_axis[1:-1]) >= NEWTON_MIN_SIN_THETA
    return np.maximum(np.abs(div[0][keep]), np.abs(div[1][keep])).ravel()


def curvature_gate_fields(fields: SurfaceFields):
    """Gate verdict plus shared cone label for precomputed fields.

    The gate passes when sigma2 > GATE_SIGMA2_TOL at every node; the cone
    labels must agree across nodes whenever the gate passes (connectedness
    of the positivity region).  Returns ``(passed, label)``, label None
    when the gate fails.
    """
    if not np.all(fields.sigma2 > GATE_SIGMA2_TOL):
        return False, None
    _, _, labels = symfun.cone_roots_from_sums(2, fields.sigma1, fields.sigma2)
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

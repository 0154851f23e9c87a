"""Isometric pairs: closed-form second-order transport, regraphing, pulled-back data.

An ambient isometry maps a graph surface to another surface; points
correspond through the Lorentz matrix on the pseudosphere.  A pair enters
the argument only through second-order data (shape operators, potential
Hessians), so the transport carries values, chart gradients and Hessians
and nothing more.  ``node_data`` forms the two surface cores and W~ in the
pushed frame; the pulled-back potential's Hessian waits for its first read
(``verify-identities``, not ``rigidity``), and no other field is formed here.
Every jet is a tuple (f, d, d2) of node arrays, laid out like the height jet
(y, dy, d2y).  The embedded point x = (sinh y, cosh y omega) gets its jets in
closed form; the Lorentz matrix maps values, gradients and Hessians by the
same sums; rho~ = arcsinh x~_0, theta~ = atan2(|(x~_1, x~_2)|, x~_3) and
phi~ = atan2(x~_2, x~_1) each take one chain rule (``jets``); inverting the
chart map to second order gives the image height's jets on its own chart.
So tilde quantities are exact, with no grid error.  Every 2x2 product is a
sum of node arrays in a fixed order, so no digit depends on a BLAS kernel.

The regraphing root-finder re-expresses the image as heights over the
standard sampled grid (and certifies the image is a graph at all); it moves
points with ``ambient.embed``, the transport's Lorentz sums and ``ambient.unembed``,
and each Illinois pass evaluates the unfinished lines alone.
The exact transport is what the integral and rigidity checks consume.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import ambient, geometry, jets, kernels
from .errors import ConfigError, CorrespondenceInvalid, NotAGraph
from .geometry import node_text
from .surfaces import AnalyticSurface, SampledGridSurface, check_grid, grid_scalar_jets, sampled_grid


def _embedding(y_jet, trig, sp, cp):
    """Jet tuples of the pseudosphere point x = (sinh y, cosh y omega(theta, phi))
    of a graph surface with height jet (y, dy, d2y), in closed form, from the
    nodes' ``kernels.node_trig`` values ``trig`` and sin and cos of phi.

    Each of the 28 components is written once, as the product rule on
    cosh(y) omega gives it: d2_ij = (d2c_ij w + (dc_i dw_j + dc_j dw_i)) + c d2w_ij
    with dc = s dy and d2c_ij = c dy_i dy_j + s d2y_ij.  Where a component of
    omega's jet is 0, its terms drop and ``+ 0.0`` stands for c 0 = +0, which
    keeps the sign of a zero sum.  The height jet's d2y[1, 0] has the bits of
    d2y[0, 1], so each Hessian's (1, 0) entry is a copy of its (0, 1) entry.
    """
    _, dy, d2y = y_jet
    st, ct, _, c, s, _ = trig
    (y00, y01), (_, y11) = d2y
    yy = (dy[0] * dy[0], dy[0] * dy[1], dy[1] * dy[1])
    hess = (y00, y01, y11)
    dc = (s * dy[0], s * dy[1])
    d2c = [c * a + s * b for a, b in zip(yy, hess)]

    def jet(f, d, d2):
        """The jet tuple of value ``f``, gradient ``d`` and Hessian entries 00, 01, 11."""
        grad, out = np.empty((2,) + f.shape), np.empty((2, 2) + f.shape)
        grad[0], grad[1] = d
        out[0, 0], out[0, 1], out[1, 1] = d2
        out[1, 0] = out[0, 1]
        return f, grad, out

    def c_omega(w, dw, d2w):
        """cosh(y) omega by the product rule, for an omega component without zeros."""
        return jet(
            c * w,
            [dc[i] * w + c * dw[i] for i in range(2)],
            [(d2c[k] * w + (dc[i] * dw[j] + dc[j] * dw[i])) + c * d2w[k]
             for k, (i, j) in enumerate(((0, 0), (0, 1), (1, 1)))],
        )

    stcp, stsp, ctcp, ctsp = st * cp, st * sp, ct * cp, ct * sp
    mstcp, mstsp, mst = -stcp, -stsp, -st
    return [
        jet(s, [c * dy[0], c * dy[1]], [s * a + c * b for a, b in zip(yy, hess)]),
        c_omega(stcp, (ctcp, mstsp), (mstcp, -ctsp, mstcp)),
        c_omega(stsp, (ctsp, stcp), (mstsp, ctcp, mstsp)),
        # omega_3 = cos theta: its phi derivatives vanish
        jet(
            c * ct,
            [dc[0] * ct + c * mst, dc[1] * ct + 0.0],
            [(d2c[0] * ct + (dc[0] * mst + dc[0] * mst)) + c * -ct,
             (d2c[1] * ct + dc[1] * mst) + 0.0,
             d2c[2] * ct + 0.0],
        ),
    ]


def _lorentz(lam, x):
    """Components of lam x for four equally shaped arrays ``x[b]``, each
    summed from b = 0 in order, so no digit depends on the memory layout."""
    return [sum((x[b] * lam[a, b] for b in range(1, 4)), x[0] * lam[a, 0]) for a in range(4)]


def _invert_chart_map(rho, u):
    """Height jets with respect to the image chart.

    ``rho`` is the image height and ``u = (theta~, phi~)`` the image chart
    coordinates, all as jet tuples in the source chart.  Returns the arrays
    (y, dy, d2y) of the image height as a function of its own chart, by
    inverting the chart map through second order, and the chart map's
    Jacobian as components ``jac[a][i]``.
    """
    rho, rho_d, rho_d2 = rho
    jac = [[ua[1][i] for i in range(2)] for ua in u]
    det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
    if np.any(np.abs(det) < 1e-12):
        raise CorrespondenceInvalid("chart map of the image surface is singular")
    # ai[i][a]: the inverse of the Jacobian as a matrix in (a, i)
    ai = [[jac[1][1] / det, -jac[0][1] / det], [-jac[1][0] / det, jac[0][0] / det]]

    # dy and d2y keep einsum's summation order, which the rigidity report's
    # residual digits depend on: d2y = A^T m2 A sums its (i, j) terms from 0
    # in order, as np.einsum("nia,nij,njb->nab") does
    dy = [rho_d[0] * ai[0][a] + rho_d[1] * ai[1][a] for a in range(2)]
    m = [[rho_d2[i, j] - (dy[0] * u[0][2][i, j] + dy[1] * u[1][2][i, j]) for j in range(2)]
         for i in range(2)]
    d2y = [
        [sum(ai[i][a] * m[i][j] * ai[j][b] for i, j in np.ndindex(2, 2)) for b in range(2)]
        for a in range(2)
    ]
    return rho, np.array(dy), np.array(d2y), jac


@dataclass(frozen=True, eq=False)
class PairNodeData:
    """Everything the integral checks need at the nodes of a rule; the
    pulled-back Hessian, which only the identities read, on first read."""

    base: geometry.SurfaceFields
    tilde: geometry.SurfaceFields
    metric_pullback_residual: np.ndarray  # max |g~(e_a, e_b) - delta| per node
    w_tilde_frame: np.ndarray  # image shape operator in the pushed frame
    potential_d: np.ndarray  # chart gradient on M of the pulled-back potential
    potential_d2: np.ndarray  # and its chart Hessian

    @functools.cached_property
    def hess_phi_tilde_frame(self):
        return kernels.frame_hessian(
            self.base.frame, self.base.gamma, self.potential_d, self.potential_d2
        )


def _pair_data_from_parts(base, tilde, jac, pot_d, pot_d2):
    """Pair data from the fields, the chart map's Jacobian ``jac[a][i]`` and
    the pulled-back potential's chart gradient and Hessian, as components.

    Every 2x2 product is a component sum (``kernels._matmul``,
    ``kernels.congruence``), so no digit depends on a BLAS kernel.
    """
    # frame rows e_r pushed into image chart components: pushed[r][a]
    pushed = kernels._matmul(base.frame, [[jac[a][i] for a in range(2)] for i in range(2)])
    return PairNodeData(
        base=base,
        tilde=tilde,
        metric_pullback_residual=kernels.orthonormality_residual(pushed, tilde.g),
        w_tilde_frame=np.array(kernels.congruence(pushed, tilde.h)),
        potential_d=pot_d, potential_d2=pot_d2,
    )


def _image_jets(y_jet, trig, sp, cp, lam):
    """Image chart points and height jets under the Lorentz matrix ``lam``,
    the chart map's Jacobian and the pulled-back potential -x~_0's chart jets
    on M: only these outlive the call, so the embedded points and the lifts
    are freed before the image surface is evaluated."""
    # the Lorentz matrix maps the values, gradients and Hessians alike
    xt = list(zip(*(_lorentz(lam, p) for p in zip(*_embedding(y_jet, trig, sp, cp)))))
    rho_t = jets.arcsinh(xt[0])
    # atan2 keeps theta~ and its derivatives accurate next to the image
    # chart poles, where arccos(z / r) loses digits like 1 / sin^2(theta~)
    theta_t = jets.atan2(jets.hypot(xt[1], xt[2]), xt[3])
    phi_t = jets.atan2(xt[2], xt[1])
    y, dy, d2y, jac = _invert_chart_map(rho_t, (theta_t, phi_t))
    return theta_t[0], phi_t[0], (y, dy, d2y), jac, (-xt[0][1], -xt[0][2])


class IsometryCorrespondence:
    """Points of the source surface mapped through an ambient isometry."""

    def __init__(self, surface, iso):
        self.surface = surface
        self.iso = iso

    def node_data(self, theta, phi, grid=None) -> PairNodeData:
        """Pair data at the nodes ``theta`` and ``phi``, or at those of a product
        ``grid``, whose flat arrays they then are."""
        y_jet = self.surface.height_jet(*((theta, phi) if grid is None else grid.mesh))
        base = geometry.evaluate_fields(theta, phi, y_jet, grid)
        sp, cp = (np.sin(phi), np.cos(phi)) if grid is None else grid.trig[2:]
        theta_t, phi_t, y_t, jac, potential = _image_jets(y_jet, base.trig, sp, cp,
                                                          self.iso.matrix)
        tilde = geometry.evaluate_fields(theta_t, phi_t, y_t)
        return _pair_data_from_parts(base, tilde, jac, *potential)


class IdentityCorrespondence:
    """Two surfaces over the same chart, points matched by chart identity."""

    def __init__(self, surface, other):
        self.surface = surface
        self.other = other

    def node_data(self, theta, phi, grid=None) -> PairNodeData:
        """Pair data at the nodes ``theta`` and ``phi``, or at those of a product
        ``grid``, whose flat arrays they then are."""
        nodes = (theta, phi) if grid is None else grid.mesh
        base = geometry.evaluate_fields(theta, phi, self.surface.height_jet(*nodes), grid)
        y_jet = self.other.height_jet(*nodes)
        tilde = geometry.evaluate_fields(theta, phi, y_jet, grid)
        one, zero = np.ones_like(theta), np.zeros_like(theta)
        # the potential -sinh(y~) over the shared chart
        return _pair_data_from_parts(
            base, tilde, [[one, zero], [zero, one]],
            *kernels.potential_jets(*y_jet, trig=tilde.trig)
        )


# -- regraphing through the inverse isometry ------------------------------


#: the regraph brackets every root to this width
REGRAPH_TOL = 1e-12


def transform_surface(surface, iso, regraph_grid):
    """Re-express the image of a surface under an isometry as a graph.

    A radial line P(t) of the target grid meets the image where
    F(t) = rho(La^{-1} P(t)) - y(direction(La^{-1} P(t))) vanishes.
    La^{-1} P is timelike, |rho'| > cosh(rho) |omega'|, so where |grad y| < cosh y
    every zero of F crosses the same way: opposite end signs make exactly one.
    Every line is bracketed by |t| <= max(3, B + arccosh|La_00| + 0.1), with B
    the source's ``height_bound``: |rho(La^{-1} P(t))| >= |t| - arccosh|La_00|,
    so past B + arccosh|La_00| the sign of F is the sign of rho, and the
    floor 3 keeps the bracket of low, mildly boosted surfaces.  So the end
    signs, an Illinois secant bracketed to ``REGRAPH_TOL`` and the slope
    bound at each root's foot are checked; NotAGraph names the first line
    that fails.  NonSpacelike names the worst node where the stencil gradient
    of the sampled image breaks the bound.  Returns the sampled surface plus
    the exact correspondence.
    """
    if not isinstance(surface, AnalyticSurface):
        raise ConfigError("regraphing needs an analytic source surface, not a sampled grid")
    n_theta, n_phi = regraph_grid
    check_grid("regraph_grid", n_theta, n_phi)
    grid = sampled_grid(n_theta, n_phi)
    theta, phi = grid.theta, grid.phi
    st, ct, sp, cp = grid.trig
    omega = np.stack([st * cp, st * sp, ct])
    lam_inv = iso.inverse().matrix
    up = 1.0 if lam_inv[0, 0] > 0.0 else -1.0  # the sign of F' at the crossing

    def foot(t, dirs):
        # rho, theta, phi of La^{-1} P(t); t has a column per direction of ``dirs``
        return ambient.unembed(_lorentz(lam_inv, ambient.embed(t, dirs[:, None])))

    def rising(t, dirs):
        # up * F: negative below the crossing, nonnegative from it on
        rho, th, ph = foot(t, dirs)
        return up * (rho - surface.height(th.ravel(), ph.ravel()).reshape(t.shape))

    t_max = max(3.0, surface.height_bound() + math.acosh(abs(lam_inv[0, 0])) + 0.1)
    a, b = np.full(theta.shape, -t_max), np.full(theta.shape, t_max)
    ga, gb = rising(np.stack([a, b]), omega)
    if np.any(bad := ~((ga < 0.0) & (gb > 0.0))):
        k = int(np.argmax(bad))
        where = node_text(theta, phi, k, F_start=up * ga[k], F_end=up * gb[k])
        raise NotAGraph(
            f"radial line through {where} does not cross the image once: "
            f"the end signs must be {'-+' if up > 0 else '+-'}"
        )

    # Illinois on the probes c -+ REGRAPH_TOL/4 about each secant point c:
    # probes that straddle the root end the line, an end kept twice has its
    # value halved, and a bracket not halved over two steps is bisected.
    # Each pass works on the unfinished lines alone, numbered by ``lines``:
    # a finished line's height is written once and its state dropped
    probe = 0.25 * REGRAPH_TOL
    heights, lines, dirs = np.empty(theta.size), np.arange(theta.size), omega
    moved, (width_1, width_2) = np.zeros(theta.size), np.full((2, theta.size), np.inf)
    while lines.size:
        c = b - gb / (gb - ga) * (b - a)
        c = np.where(b - a > 0.5 * width_2, 0.5 * (a + b), c)
        p1, p2 = np.maximum(c - probe, a), np.minimum(c + probe, b)
        v1, v2 = rising(np.stack([p1, p2]), dirs)
        # as ga < 0 <= gb, hi moves to p1 (j = 1), the probes straddle (2) or lo moves to p2 (3)
        hi_moved, straddle = v1 >= 0.0, v2 >= 0.0
        pick = lambda x1, x2, x3: np.where(hi_moved, x1, np.where(straddle, x2, x3))
        j = pick(1.0, 2.0, 3.0)
        repeat = j == moved
        width_2, width_1, moved = width_1, b - a, j
        a, b = pick(a, p1, p2), pick(p1, p2, b)
        ga = np.where(repeat & (j == 1.0), 0.5, 1.0) * pick(ga, v1, v2)
        gb = np.where(repeat & (j == 3.0), 0.5, 1.0) * pick(v1, v2, gb)
        if not (keep := b - a > REGRAPH_TOL).all():
            heights[lines[~keep]] = 0.5 * (a[~keep] + b[~keep])
            lines, a, b, ga, gb, moved, width_1, width_2 = (
                x[keep] for x in (lines, a, b, ga, gb, moved, width_1, width_2))
            dirs = dirs[:, keep]

    _, foot_theta, foot_phi = foot(heights[None], omega)
    y, slope2 = surface.slope(foot_theta[0], foot_phi[0])
    if np.any(bad := slope2 >= np.cosh(y) ** 2):
        k = int(np.argmax(bad))
        where = node_text(theta, phi, k, grad_y_sq=slope2[k], cosh_y_sq=np.cosh(y[k]) ** 2)
        raise NotAGraph(
            f"radial line through {where} meets the image over a foot where the source "
            "breaks |grad y| < cosh y, so its one crossing is not certified"
        )

    sampled = SampledGridSurface(heights.reshape(n_theta, n_phi))
    # NonSpacelike past the gradient bound: first-order stencils and the margin only
    geometry.check_spacelike(grid, *grid_scalar_jets(sampled.values, order=1))
    return sampled, IsometryCorrespondence(surface, iso)

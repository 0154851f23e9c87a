"""Isometric pairs: closed-form second-order transport, regraphing, pulled-back data.

An ambient isometry maps a graph surface to another surface; points
correspond through the Lorentz matrix on the pseudosphere.  A pair enters
the argument only through second-order data (shape operators, potential
Hessians), so the transport carries values, chart gradients and Hessians
and nothing more, and neither surface's curvature fields are formed here.
The embedded point x = (sinh y, cosh y omega) gets its jets in closed form
from the height jet; the Lorentz matrix maps every jet component by the
same matrix; rho~ = arcsinh x~_0, theta~ = atan2(|(x~_1, x~_2)|, x~_3) and
phi~ = atan2(x~_2, x~_1) each take one chain rule (``jets``); inverting the
chart map to second order gives the image height's jets on its own chart.
So tilde quantities are exact, with no grid error.  Every 2x2 product is a
sum of node arrays in a fixed order, so no digit depends on a BLAS kernel.

The regraphing root-finder re-expresses the image as heights over the
standard sampled grid (and certifies the image is a graph at all); the
exact transport is what the integral and rigidity checks consume.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, jets, kernels
from .errors import ConfigError, CorrespondenceInvalid, NotAGraph
from .geometry import node_text
from .surfaces import AnalyticSurface, SampledGridSurface, grid_scalar_jets, node_arrays


def _embedding(y, theta, phi):
    """Jets of the pseudosphere point x = (sinh y, cosh y omega(theta, phi))
    of a graph surface with height jet y, in closed form."""
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    s, c = np.sinh(y.f), np.cosh(y.f)
    yy = y.d[:, None] * y.d[None, :]
    zero = np.zeros_like(theta)
    # omega with its chart gradient and Hessian
    omega = (
        (st * cp, [ct * cp, -st * sp], [[-st * cp, -ct * sp], [-ct * sp, -st * cp]]),
        (st * sp, [ct * sp, st * cp], [[-st * sp, ct * cp], [ct * cp, -st * sp]]),
        (ct, [-st, zero], [[-ct, zero], [zero, zero]]),
    )
    # cosh(y) omega by the product rule
    dc, d2c = s * y.d, c * yy + s * y.d2
    x = [jets.Jet3(s, c * y.d, s * yy + c * y.d2)]
    for w, dw, d2w in omega:
        dw = np.array(dw)
        cross = dc[:, None] * dw[None, :]
        d2 = d2c * w + (cross + np.swapaxes(cross, 0, 1)) + c * np.array(d2w)
        x.append(jets.Jet3(c * w, dc * w + c * dw, d2))
    return x


def _invert_chart_map(rho, u):
    """Height jets with respect to the image chart.

    ``rho`` is the image height and ``u = (theta~, phi~)`` the image chart
    coordinates, all as jets in the source chart.  Returns the arrays
    (y, dy, d2y) of the image height as a function of its own chart, node
    axis first, by inverting the chart map through second order, and the
    chart map's Jacobian as components ``jac[a][i]``.
    """
    jac = [[ua.d[i] for i in range(2)] for ua in u]
    det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
    if np.any(np.abs(det) < 1e-12):
        raise CorrespondenceInvalid("chart map of the image surface is singular")
    # ai[i][a]: the inverse of the Jacobian as a matrix in (a, i)
    ai = [[jac[1][1] / det, -jac[0][1] / det], [-jac[1][0] / det, jac[0][0] / det]]

    # dy and d2y keep einsum's summation order, which the rigidity report's
    # residual digits depend on: d2y = A^T m2 A sums its (i, j) terms from 0
    # in order, as np.einsum("nia,nij,njb->nab") does
    dy = [rho.d[0] * ai[0][a] + rho.d[1] * ai[1][a] for a in range(2)]
    m = [[rho.d2[i, j] - (dy[0] * u[0].d2[i, j] + dy[1] * u[1].d2[i, j]) for j in range(2)]
         for i in range(2)]
    d2y = [
        [sum(ai[i][a] * m[i][j] * ai[j][b] for i, j in np.ndindex(2, 2)) for b in range(2)]
        for a in range(2)
    ]
    return rho.f, np.stack(dy, axis=-1), _stack(d2y), jac


def _stack(t):
    """Node-major (n, 2, 2) stack of a 2x2 component list."""
    return np.stack([*t[0], *t[1]], axis=-1).reshape(-1, 2, 2)


@dataclass(frozen=True, eq=False)
class PairNodeData:
    """Everything the integral checks need at the nodes of a rule."""

    base: geometry.SurfaceFields
    tilde: geometry.SurfaceFields
    jacobian: np.ndarray  # (n, a, i): image chart by source chart
    metric_pullback_residual: np.ndarray  # max |g~(e_a, e_b) - delta| per node
    w_tilde_frame: np.ndarray  # image shape operator in the pushed frame
    phi_prime_tilde: np.ndarray  # sinh of the image height at f(x)
    support_tilde: np.ndarray  # <V~, nu~> at f(x)
    hess_phi_tilde_frame: np.ndarray  # Hessian on M of the pulled-back potential


def _pair_data_from_parts(base, tilde, jac, pot_d, pot_d2):
    """Pair data from the fields, the chart map's Jacobian ``jac[a][i]`` and
    the pulled-back potential's chart gradient and Hessian, as components.

    Every 2x2 product is a component sum (``kernels._matmul``,
    ``kernels.congruence``), so no digit depends on a BLAS kernel.
    """
    frame, gamma, g_t, h_t = (
        np.moveaxis(a, 0, -1) for a in (base.frame, base.gamma, tilde.g, tilde.h)
    )
    # frame rows e_r pushed into image chart components: pushed[r][a]
    pushed = kernels._matmul(frame, [[jac[a][i] for a in range(2)] for i in range(2)])
    pulled_g = kernels.congruence(pushed, g_t)
    metric_res = np.maximum(
        np.maximum(np.abs(pulled_g[0][0] - 1.0), np.abs(pulled_g[0][1])),
        np.maximum(np.abs(pulled_g[1][0]), np.abs(pulled_g[1][1] - 1.0)),
    )
    hess = [[pot_d2[i][j] - (gamma[0][i][j] * pot_d[0] + gamma[1][i][j] * pot_d[1])
             for j in range(2)] for i in range(2)]
    return PairNodeData(
        base=base,
        tilde=tilde,
        jacobian=_stack(jac),
        metric_pullback_residual=metric_res,
        w_tilde_frame=_stack(kernels.congruence(pushed, h_t)),
        phi_prime_tilde=np.sinh(tilde.y),
        support_tilde=tilde.support,
        hess_phi_tilde_frame=_stack(kernels.congruence(frame, hess)),
    )


class IsometryCorrespondence:
    """Points of the source surface mapped through an ambient isometry."""

    def __init__(self, surface, iso):
        self.surface = surface
        self.iso = iso

    def node_data(self, theta, phi) -> PairNodeData:
        theta = np.ascontiguousarray(theta, dtype=float)
        phi = np.ascontiguousarray(phi, dtype=float)
        y_jet = self.surface.height_jet(theta, phi)
        base = geometry.evaluate_fields(theta, phi, node_arrays(y_jet))

        lam = self.iso.matrix
        x = _embedding(y_jet, theta, phi)
        xt = [sum((x[b] * lam[a, b] for b in range(1, 4)), x[0] * lam[a, 0]) for a in range(4)]
        rho_t = jets.arcsinh(xt[0])
        # atan2 keeps theta~ and its derivatives accurate next to the image
        # chart poles, where arccos(z / r) loses digits like 1 / sin^2(theta~)
        theta_t = jets.atan2(jets.hypot(xt[1], xt[2]), xt[3])
        phi_t = jets.atan2(xt[2], xt[1])

        y, dy, d2y, jac = _invert_chart_map(rho_t, (theta_t, phi_t))
        tilde = geometry.evaluate_fields(theta_t.f, phi_t.f, (y, dy, d2y))
        # pulled-back potential -sinh(rho~) = -x~_0, with chart jets on M
        return _pair_data_from_parts(base, tilde, jac, -xt[0].d, -xt[0].d2)


class IdentityCorrespondence:
    """Two surfaces over the same chart, points matched by chart identity."""

    def __init__(self, surface, other):
        self.surface = surface
        self.other = other

    def node_data(self, theta, phi) -> PairNodeData:
        theta = np.ascontiguousarray(theta, dtype=float)
        phi = np.ascontiguousarray(phi, dtype=float)
        base = geometry.evaluate_fields(
            theta, phi, node_arrays(self.surface.height_jet(theta, phi))
        )
        other = self.other.height_jet(theta, phi)
        tilde = geometry.evaluate_fields(theta, phi, node_arrays(other))
        one, zero = np.ones_like(theta), np.zeros_like(theta)

        # the potential -sinh(y~) over the shared chart
        c, s = np.cosh(other.f), np.sinh(other.f)
        pot_d2 = -(s * other.d[:, None] * other.d[None, :] + c * other.d2)
        return _pair_data_from_parts(base, tilde, [[one, zero], [zero, one]], -c * other.d, pot_d2)


def isometry_pair(surface, iso) -> IsometryCorrespondence:
    return IsometryCorrespondence(surface, iso)


def identity_pair(surface, other) -> IdentityCorrespondence:
    return IdentityCorrespondence(surface, other)


# -- regraphing through the inverse isometry ------------------------------


def transform_surface(surface, iso, regraph_grid=(64, 128), t_max=3.0, tol=1e-12):
    """Re-express the image of a surface under an isometry as a graph.

    A radial line P(t) of the target grid meets the image where
    F(t) = rho(La^{-1} P(t)) - y(direction(La^{-1} P(t))) vanishes.
    La^{-1} P is timelike, |rho'| > cosh(rho) |omega'|, so where |grad y| < cosh y
    every zero of F crosses the same way: opposite end signs make exactly one.
    So the end signs, an Illinois secant bracketed to ``tol`` and the slope
    bound at each root's foot are checked; NotAGraph names the first line
    that fails.  Returns the sampled surface plus the exact correspondence.
    """
    if not isinstance(surface, AnalyticSurface):
        raise ConfigError("regraphing needs an analytic source surface, not a sampled grid")
    n_theta, n_phi = regraph_grid
    theta, phi = SampledGridSurface(np.zeros((n_theta, n_phi))).nodes()
    omega = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    lam_inv = iso.inverse().matrix
    up = 1.0 if lam_inv[0, 0] > 0.0 else -1.0  # the sign of F' at the crossing

    def foot(t, lines):
        # rho, theta, phi of La^{-1} P(t); t has a column per line ``lines`` picks
        x = np.concatenate([np.sinh(t)[None], np.cosh(t) * omega[:, None, lines]])
        xs = np.einsum("ab,b...->a...", lam_inv, x)
        rnorm = np.sqrt(xs[1] ** 2 + xs[2] ** 2 + xs[3] ** 2)
        th = np.arccos(np.clip(xs[3] / rnorm, -1.0, 1.0))
        return np.arcsinh(xs[0]), th, np.arctan2(xs[2], xs[1]) % (2.0 * math.pi)

    def rising(t, lines):
        # up * F: negative below the crossing, nonnegative from it on
        rho, th, ph = foot(t, lines)
        return up * (rho - surface.height(th.ravel(), ph.ravel()).reshape(t.shape))

    lo, hi = np.full(theta.shape, -t_max), np.full(theta.shape, t_max)
    g_lo, g_hi = rising(np.stack([lo, hi]), slice(None))
    if np.any(bad := ~((g_lo < 0.0) & (g_hi > 0.0))):
        k = int(np.argmax(bad))
        where = node_text(theta, phi, k, F_start=up * g_lo[k], F_end=up * g_hi[k])
        raise NotAGraph(
            f"radial line through {where} does not cross the image once: "
            f"the end signs must be {'-+' if up > 0 else '+-'}"
        )

    # Illinois on the probes c -+ tol/4 about each secant point c: probes that
    # straddle the root end the line, an end kept twice has its value halved,
    # and a bracket not halved over two steps is bisected
    moved, (width_1, width_2) = np.zeros(theta.shape), np.full((2, theta.size), np.inf)
    active = np.arange(theta.size)
    while active.size:
        a, b, ga, gb = lo[active], hi[active], g_lo[active], g_hi[active]
        c = b - gb / (gb - ga) * (b - a)
        c = np.where(b - a > 0.5 * width_2[active], 0.5 * (a + b), c)
        pts = np.stack([a, np.maximum(c - 0.25 * tol, a), np.minimum(c + 0.25 * tol, b), b])
        vals = np.concatenate([ga[None], rising(pts[1:3], active), gb[None]])
        j = np.argmax(vals >= 0.0, axis=0)  # 1: hi moved, 2: straddle, 3: lo moved
        repeat = j == moved[active]
        lo[active], hi[active], moved[active] = np.choose(j - 1, pts), np.choose(j, pts), j
        g_lo[active] = np.where(repeat & (j == 1), 0.5, 1.0) * np.choose(j - 1, vals)
        g_hi[active] = np.where(repeat & (j == 3), 0.5, 1.0) * np.choose(j, vals)
        width_2[active], width_1[active] = width_1[active], b - a
        active = active[hi[active] - lo[active] > tol]
    heights = 0.5 * (lo + hi)

    _, foot_theta, foot_phi = foot(heights[None], slice(None))
    y, slope2 = surface.slope(foot_theta[0], foot_phi[0])
    if np.any(bad := slope2 >= np.cosh(y) ** 2):
        k = int(np.argmax(bad))
        where = node_text(theta, phi, k, grad_y_sq=slope2[k], cosh_y_sq=np.cosh(y[k]) ** 2)
        raise NotAGraph(
            f"radial line through {where} meets the image over a foot where the source "
            "breaks |grad y| < cosh y, so its one crossing is not certified"
        )

    sampled = SampledGridSurface(heights.reshape(n_theta, n_phi))
    # NonSpacelike past the gradient bound
    geometry.evaluate_fields(*sampled.nodes(), grid_scalar_jets(sampled.values, order=2))
    return sampled, IsometryCorrespondence(surface, iso)

"""Isometric pairs: exact jet transport, regraphing, pulled-back data.

An ambient isometry maps a graph surface to another surface; points
correspond through the Lorentz matrix on the pseudosphere.  The image
surface's height jets at corresponded points are obtained exactly by
pushing the source jets through the isometry and inverting the induced
chart map to second order, so tilde quantities carry no grid error.  A pair
enters the argument only through second-order data (shape operators,
potential Hessians), so neither surface's curvature fields are formed here.

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


def _direction_jets(jtheta, jphi):
    st = jets.sin(jtheta)
    return (
        st * jets.cos(jphi),
        st * jets.sin(jphi),
        jets.cos(jtheta),
    )


def _embedded_jets(y, theta, phi):
    """Jet of the pseudosphere embedding of a graph surface with height jet y."""
    jt = jets.Jet3.variable(theta, 0)
    jp = jets.Jet3.variable(phi, 1)
    wx, wy, wz = _direction_jets(jt, jp)
    c = jets.cosh(y)
    return jets.sinh(y), c * wx, c * wy, c * wz


def _invert_chart_map(rho_jet, u_jets):
    """Height jets with respect to the image chart.

    ``rho_jet`` is the image height and ``u_jets = (theta~, phi~)`` the image
    chart coordinates, all as jets in the source chart.  Returns the arrays
    (y, dy, d2y) of the image height as a function of its own chart, node
    axis first, by inverting the chart map through second order, and the
    chart map's Jacobian (n, a, i).
    """
    u1 = np.stack([np.moveaxis(u.d, 0, -1) for u in u_jets], axis=-2)  # (n, a, i)
    u2 = np.stack(
        [np.moveaxis(u.d2, (0, 1), (-2, -1)) for u in u_jets], axis=-3
    )  # (n, a, i, j)
    r1 = np.moveaxis(rho_jet.d, 0, -1)  # (n, i)
    r2 = np.moveaxis(rho_jet.d2, (0, 1), (-2, -1))

    det = u1[..., 0, 0] * u1[..., 1, 1] - u1[..., 0, 1] * u1[..., 1, 0]
    if np.any(np.abs(det) < 1e-12):
        raise CorrespondenceInvalid("chart map of the image surface is singular")
    ainv = np.empty_like(u1)  # (n, i, a): inverse of u1 as a matrix in (a, i)
    ainv[..., 0, 0] = u1[..., 1, 1] / det
    ainv[..., 0, 1] = -u1[..., 0, 1] / det
    ainv[..., 1, 0] = -u1[..., 1, 0] / det
    ainv[..., 1, 1] = u1[..., 0, 0] / det

    # dy and d2y keep einsum's summation order, which the rigidity report's
    # residual digits depend on: d2y = A^T m2 A sums its (i, j) terms from 0
    # in order, as np.einsum("nia,nij,njb->nab") does
    dy = np.einsum("ni,nia->na", r1, ainv)
    m2 = r2 - np.einsum("na,naij->nij", dy, u2)
    ai, m = np.moveaxis(ainv, 0, -1), np.moveaxis(m2, 0, -1)
    d2y = _stack([
        [sum(ai[i][a] * m[i][j] * ai[j][b] for i, j in np.ndindex(2, 2)) for b in range(2)]
        for a in range(2)
    ])
    y = np.atleast_1d(np.asarray(rho_jet.f, dtype=float))
    return y, dy, d2y, u1


def _stack(t):
    """Node-major (n, 2, 2) stack of a 2x2 component list."""
    return np.stack([*t[0], *t[1]], axis=-1).reshape(-1, 2, 2)


@dataclass(frozen=True, eq=False)
class PairNodeData:
    """Everything the integral checks need at the nodes of a rule."""

    base: geometry.SurfaceFields
    tilde: geometry.SurfaceFields
    jacobian: np.ndarray  # (n, a, i): image chart by source chart
    pushed_frame: np.ndarray  # (n, a, image-chart index)
    metric_pullback_residual: np.ndarray  # max |g~(e_a, e_b) - delta| per node
    w_tilde_frame: np.ndarray  # image shape operator in the pushed frame
    phi_prime_tilde: np.ndarray  # sinh of the image height at f(x)
    support_tilde: np.ndarray  # <V~, nu~> at f(x)
    hess_phi_tilde_frame: np.ndarray  # Hessian on M of the pulled-back potential


def _pair_data_from_parts(base, tilde, jac, pot_d, pot_d2):
    # frame rows e_r pushed into image chart components: (n, r, a)
    pushed = base.frame @ np.swapaxes(jac, 1, 2)
    pulled_g = pushed @ tilde.g @ np.swapaxes(pushed, 1, 2)
    metric_res = np.abs(pulled_g - np.eye(2)).max(axis=(1, 2))
    # einsum's order, like d2y in _invert_chart_map, keeps the rigidity digits
    w_tilde = _stack(kernels.congruence(*(np.moveaxis(a, 0, -1) for a in (pushed, tilde.h))))

    hess = pot_d2 - np.einsum("nkij,nk->nij", base.gamma, pot_d)
    hess_frame = base.frame @ hess @ np.swapaxes(base.frame, 1, 2)
    return PairNodeData(
        base=base,
        tilde=tilde,
        jacobian=jac,
        pushed_frame=pushed,
        metric_pullback_residual=metric_res,
        w_tilde_frame=w_tilde,
        phi_prime_tilde=np.sinh(tilde.y),
        support_tilde=tilde.support,
        hess_phi_tilde_frame=hess_frame,
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
        x = _embedded_jets(y_jet, theta, phi)
        xt = [
            sum((lam[a, b] * x[b] for b in range(1, 4)), lam[a, 0] * x[0])
            for a in range(4)
        ]
        r = jets.sqrt(xt[1] * xt[1] + xt[2] * xt[2] + xt[3] * xt[3])
        rho_t = jets.arcsinh(xt[0])
        # atan2 keeps theta~ and its derivatives accurate next to the image
        # chart poles, where arccos(z / r) loses digits like 1 / sin^2(theta~)
        theta_t = jets.azimuth(xt[3], jets.sqrt(xt[1] * xt[1] + xt[2] * xt[2]))
        phi_t = jets.azimuth(xt[1] / r, xt[2] / r)

        y, dy, d2y, jac = _invert_chart_map(rho_t, (theta_t, phi_t))
        tilde = geometry.evaluate_fields(
            np.ascontiguousarray(theta_t.f), np.ascontiguousarray(phi_t.f), (y, dy, d2y)
        )

        # pulled-back potential -sinh(rho~) = -x~_0, with chart jets on M
        pot = -xt[0]
        pot_d = np.moveaxis(pot.d, 0, -1)
        pot_d2 = np.moveaxis(pot.d2, (0, 1), (-2, -1))
        return _pair_data_from_parts(base, tilde, jac, pot_d, pot_d2)


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
        other_jets = node_arrays(self.other.height_jet(theta, phi))
        tilde = geometry.evaluate_fields(theta, phi, other_jets)
        n = theta.shape[0]
        jac = np.broadcast_to(np.eye(2), (n, 2, 2)).copy()

        yy, dyy, d2yy = other_jets
        c, s = np.cosh(yy), np.sinh(yy)
        pot_d = -c[:, None] * dyy
        pot_d2 = -(
            s[:, None, None] * dyy[:, :, None] * dyy[:, None, :]
            + c[:, None, None] * d2yy
        )
        return _pair_data_from_parts(base, tilde, jac, pot_d, pot_d2)


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

"""Isometric pairs: exact jet transport, regraphing, pulled-back data.

An ambient isometry maps a graph surface to another surface; points
correspond through the Lorentz matrix on the pseudosphere.  The image
surface's height jets at corresponded points are obtained exactly by
pushing the source jets through the isometry and inverting the induced
chart map to third order, so tilde quantities carry no grid error.

The regraphing root-finder re-expresses the image as heights over the
standard sampled grid (and certifies the image is a graph at all); the
exact transport is what the integral and rigidity checks consume.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, jets
from .errors import CorrespondenceInvalid, NonSpacelike, NotAGraph
from .surfaces import SampledGridSurface, node_arrays


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
    (y, dy, d2y, d3y) of the image height as a function of its own chart,
    node axis first, by inverting the chart map through third order.
    """
    u1 = np.stack([np.moveaxis(u.d, 0, -1) for u in u_jets], axis=-2)  # (n, a, i)
    u2 = np.stack(
        [np.moveaxis(u.d2, (0, 1), (-2, -1)) for u in u_jets], axis=-3
    )  # (n, a, i, j)
    u3 = np.stack(
        [np.moveaxis(u.d3, (0, 1, 2), (-3, -2, -1)) for u in u_jets], axis=-4
    )
    r1 = np.moveaxis(rho_jet.d, 0, -1)  # (n, i)
    r2 = np.moveaxis(rho_jet.d2, (0, 1), (-2, -1))
    r3 = np.moveaxis(rho_jet.d3, (0, 1, 2), (-3, -2, -1))

    det = u1[..., 0, 0] * u1[..., 1, 1] - u1[..., 0, 1] * u1[..., 1, 0]
    if np.any(np.abs(det) < 1e-12):
        raise CorrespondenceInvalid("chart map of the image surface is singular")
    ainv = np.empty_like(u1)  # (n, i, a): inverse of u1 as a matrix in (a, i)
    ainv[..., 0, 0] = u1[..., 1, 1] / det
    ainv[..., 0, 1] = -u1[..., 0, 1] / det
    ainv[..., 1, 0] = -u1[..., 1, 0] / det
    ainv[..., 1, 1] = u1[..., 0, 0] / det

    # dy and d2y keep einsum's summation order, which the rigidity report's
    # residual digits depend on; the third-order terms contract pairwise
    dy = np.einsum("ni,nia->na", r1, ainv)
    m2 = r2 - np.einsum("na,naij->nij", dy, u2)
    d2y = np.einsum("nia,nij,njb->nab", ainv, m2, ainv)
    # mid[n, i, j, k] = sum_a u2[n, a, i, j] (d2y u1)[n, a, k]
    mid = (np.swapaxes(u2.reshape(-1, 2, 4), 1, 2) @ (d2y @ u1)).reshape(u2.shape)
    m3 = (
        r3
        - mid
        - np.transpose(mid, (0, 1, 3, 2))
        - np.transpose(mid, (0, 3, 1, 2))
        - np.einsum("na,naijk->nijk", dy, u3)
    )
    d3y = np.einsum("nia,njb,nkc,nijk->nabc", ainv, ainv, ainv, m3, optimize=True)
    y = np.atleast_1d(np.asarray(rho_jet.f, dtype=float))
    return y, dy, d2y, d3y, u1


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
    # einsum order, like d2y in _invert_chart_map, keeps the rigidity digits
    w_tilde = np.einsum("nia,nab,njb->nij", pushed, tilde.h, pushed)

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

        y, dy, d2y, d3y, jac = _invert_chart_map(rho_t, (theta_t, phi_t))
        tilde = geometry.evaluate_fields(
            np.ascontiguousarray(theta_t.f), np.ascontiguousarray(phi_t.f),
            (y, dy, d2y, d3y),
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
        base = geometry.evaluate_surface(self.surface, theta, phi)
        other_jets = self.other.jets(theta, phi)
        tilde = geometry.evaluate_fields(theta, phi, other_jets)
        n = theta.shape[0]
        jac = np.broadcast_to(np.eye(2), (n, 2, 2)).copy()

        yy, dyy, d2yy, _ = other_jets
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


def transform_surface(
    surface, iso, regraph_grid=(64, 128), t_max=3.0, n_scan=241, tol=1e-12
):
    """Re-express the image of a surface under an isometry as a graph.

    For every direction of the target grid the radial line is intersected
    with the transformed surface by a bracketing bisection on

        F(t) = rho(La^{-1} P(t)) - y(direction(La^{-1} P(t))),

    P(t) the radial parameterization.  Exactly one sign change is required
    (NotAGraph otherwise); the height is resolved to ``tol``.  Returns the
    sampled surface plus the exact point correspondence.
    """
    n_theta, n_phi = regraph_grid
    grid = SampledGridSurface(np.zeros((n_theta, n_phi)))
    tt, pp = np.meshgrid(grid.theta_grid, grid.phi_grid, indexing="ij")
    st = np.sin(tt).ravel()
    ct = np.cos(tt).ravel()
    cp = np.cos(pp).ravel()
    sp = np.sin(pp).ravel()
    omega = np.stack([st * cp, st * sp, ct])  # (3, n)
    lam_inv = iso.inverse().matrix

    def height_mismatch(t):
        # t: (m, n) radial parameters per direction
        sh, ch = np.sinh(t), np.cosh(t)
        x = np.empty((4,) + t.shape)
        x[0] = sh
        x[1:] = ch * omega[:, None, :] if t.ndim == 2 else ch * omega
        xs = np.einsum("ab,b...->a...", lam_inv, x)
        rho = np.arcsinh(xs[0])
        rnorm = np.sqrt(xs[1] ** 2 + xs[2] ** 2 + xs[3] ** 2)
        th = np.arccos(np.clip(xs[3] / rnorm, -1.0, 1.0))
        ph = np.arctan2(xs[2], xs[1]) % (2.0 * math.pi)
        return rho - surface.height(th.ravel(), ph.ravel()).reshape(t.shape)

    ts = np.linspace(-t_max, t_max, n_scan)
    values = height_mismatch(np.broadcast_to(ts[:, None], (n_scan, omega.shape[1])).copy())
    signs = np.where(values == 0.0, 1.0, np.sign(values))
    flips = signs[:-1] * signs[1:] < 0
    counts = flips.sum(axis=0)
    if np.any(counts != 1):
        bad = int(np.argmax(counts != 1))
        raise NotAGraph(
            f"radial line {bad} crosses the transformed surface "
            f"{int(counts[bad])} times (expected 1)"
        )
    idx = np.argmax(flips, axis=0)
    cols = np.arange(omega.shape[1])
    lo = ts[idx]
    hi = ts[idx + 1]
    flo = values[idx, cols]
    while np.max(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        fmid = height_mismatch(mid[None, :])[0]
        take_low = flo * fmid <= 0.0
        hi = np.where(take_low, mid, hi)
        lo = np.where(take_low, lo, mid)
        flo = np.where(take_low, flo, fmid)
    heights = (0.5 * (lo + hi)).reshape(n_theta, n_phi)

    sampled = SampledGridSurface(heights)
    fields = geometry.evaluate_on_grid(sampled)
    if np.any(fields.margin <= 0.0):
        raise NonSpacelike("transformed surface violates the gradient bound")
    return sampled, IsometryCorrespondence(surface, iso)

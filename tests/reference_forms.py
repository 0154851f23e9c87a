"""The broadcast and einsum forms that the component-wise code replaced.

``surface_core`` and ``curvature_fields`` are the whole-array kernels as
they were before each 2x2 product, congruence and contraction was written
one component at a time on node arrays.  ``grid_scalar_jets`` is the
stencil route written out, with ``np.roll`` shifts in phi.  The other
functions are the broadcast and einsum forms of the sampled geometry
residuals, of the conformal-field check and of the image height's second
derivatives in the chart inversion.  ``tests/test_kernels.py`` requires the
package to give the same bits as these.  ``riemann_curvature`` is not a
bitwise form: it is the Christoffel route to K that Brioschi's formula
replaced, and the kernel's K must agree with it to roundoff.

The forms compute on node-major stacks, node k at index k of the leading
axis.  Each public function takes and returns the package's
component-first arrays (node axis last) and converts them, contiguous,
at its boundary only.
"""

import math

import numpy as np

from dsrigidity import ambient, geometry, symfun


def node_major(a):
    """A contiguous copy of a component-first array with the node axis first."""
    return np.ascontiguousarray(np.moveaxis(a, -1, 0))


def component_first(a):
    """A contiguous copy of a node-major array with the node axis last."""
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


def _sym(a11, a12, a22):
    """Stack three component arrays into symmetric (n, 2, 2) matrices."""
    return np.stack([a11, a12, a12, a22], axis=-1).reshape(-1, 2, 2)


def _matmul(a, b):
    """Stacked 2x2 matrix product, summed in index order."""
    return a[:, :, 0, None] * b[:, None, 0] + a[:, :, 1, None] * b[:, None, 1]


def _in_frame(e1a, e2a, e2b, m11, m12, m22):
    """Components m(e_a, e_b) of a symmetric form in the frame e_1, e_2."""
    f11 = e1a * e1a * m11
    f12 = e1a * (e2a * m11 + e2b * m12)
    f22 = e2a * e2a * m11 + 2.0 * e2a * e2b * m12 + e2b * e2b * m22
    return f11, f12, f22


def _second_form_parts(st, ct, c, s, dy, d2y):
    """Spacelike margin and T, with h = (c / sqrt(margin)) T.

    T_ij = HS_ij + cs sigma_ij - 2 (s/c) y_i y_j, where HS is the Hessian of
    y in the round metric sigma = diag(1, sin^2 theta) and the margin
    cosh^2 - |grad y|^2 is the spacelike gap in that metric.
    """
    y1, y2 = dy[:, 0], dy[:, 1]
    sig22 = st * st
    margin = c * c - (y1 * y1 + y2 * y2 / sig22)
    gam122 = -st * ct
    gam212 = ct / st
    hs12 = d2y[:, 0, 1] - gam212 * y2
    hs22 = d2y[:, 1, 1] - gam122 * y1
    soc = s / c
    t11 = d2y[:, 0, 0] + c * s - 2.0 * soc * y1 * y1
    t12 = hs12 - 2.0 * soc * y1 * y2
    t22 = hs22 + c * s * sig22 - 2.0 * soc * y2 * y2
    return margin, _sym(t11, t12, t22)


def surface_core(theta, y, dy, d2y):
    """``_surface_core`` on component-first jets, its fields component-first."""
    core = _surface_core(theta, y, node_major(dy), node_major(d2y))
    return {name: component_first(value) for name, value in core.items()}


def _surface_core(theta, y, dy, d2y):
    """Metric, normal, shape operator, frame and Hessian identity per node.

    Returns a dict of node-major arrays keyed by the ``SurfaceFields`` names
    (``margin``, ``g``, ``g_inv``, ``det_g``, ``nu``, ``support``, ``h``,
    ``w_chart``, ``frame``, ``w_frame``, ``hess_phi_frame``, ``sigma1``,
    ``sigma2``, ``pre_integral_residual``, ``gamma``, ``nu_norm_residual``,
    ``nu_tangency_residual``) plus ``dg`` = d_p g_ij as ``(n, p, i, j)``.
    If any node violates the spacelike bound, only ``margin`` is returned,
    clipped to at most 0 at the violating nodes.
    """
    st = np.sin(theta)
    ct = np.cos(theta)
    sig22 = st * st
    c = np.cosh(y)
    s = np.sinh(y)
    c2 = c * c
    y1, y2 = dy[:, 0], dy[:, 1]

    # induced metric g_ij = -y_i y_j + cosh^2(y) sigma_ij
    g11 = -y1 * y1 + c2
    g12 = -y1 * y2
    g22 = -y2 * y2 + c2 * sig22
    detg = g11 * g22 - g12 * g12
    margin, t = _second_form_parts(st, ct, c, s, dy, d2y)
    bad = (margin <= 0.0) | (detg <= 0.0)
    if bad.any():
        return {"margin": np.where(bad, np.minimum(margin, 0.0), margin)}
    ginv = _sym(g22 / detg, -g12 / detg, g11 / detg)

    # future-directed unit normal and support function <V, nu>
    sqm = np.sqrt(margin)
    nu0 = c / sqm
    nu1 = y1 / (c * sqm)
    nu2 = y2 / (sig22 * c * sqm)
    support = -c2 / sqm
    nu_norm = np.abs(-nu0 * nu0 + c2 * (nu1 * nu1 + sig22 * nu2 * nu2) + 1.0)
    nu_tan = np.abs(np.stack([-nu0 * y1 + c2 * nu1, -nu0 * y2 + c2 * sig22 * nu2], axis=-1))

    h = (c / sqm)[:, None, None] * t
    wch = _matmul(ginv, h)

    # orthonormal frame by Gram-Schmidt on (d_theta, d_phi); W in the frame
    # is h(e_a, e_b), exactly symmetric
    e1a = 1.0 / np.sqrt(g11)
    ell = np.sqrt(detg / g11)
    e2a = -g12 / (g11 * ell)
    e2b = 1.0 / ell
    frame = np.stack([e1a, np.zeros_like(e1a), e2a, e2b], axis=-1).reshape(-1, 2, 2)
    wf11, wf12, wf22 = _in_frame(e1a, e2a, e2b, h[:, 0, 0], h[:, 0, 1], h[:, 1, 1])

    # d_p g_ij = -y_ip y_j - y_i y_jp + 2 c s y_p sigma_ij + c^2 d_p sigma_ij
    yy = d2y[:, :, :, None] * dy[:, None, None, :]
    dg = -(yy + yy.transpose(0, 1, 3, 2))
    cs2 = 2.0 * c * s
    dg[:, :, 0, 0] += cs2[:, None] * dy
    dg[:, :, 1, 1] += cs2[:, None] * dy * sig22[:, None]
    dg[:, 0, 1, 1] += c2 * (2.0 * st * ct)

    # induced Christoffels Gamma^m_ij = 0.5 g^{ml} (d_i g_lj + d_j g_li - d_l g_ij)
    b = dg.transpose(0, 2, 1, 3) + dg.transpose(0, 2, 3, 1) - dg
    gamma = 0.5 * (
        ginv[:, :, 0, None, None] * b[:, None, 0] + ginv[:, :, 1, None, None] * b[:, None, 1]
    )

    # Hessian of the radial-field potential on the surface.  With the
    # mostly-plus signature the metric gradient of -sinh(rho) is
    # V = cosh(rho) d_rho, so the potential carrying the identity
    # Hess = phi' g + h <V, nu> is Phi = -sinh(y).
    hp = (
        -(s[:, None, None] * dy[:, :, None] * dy[:, None, :] + c[:, None, None] * d2y)
        - gamma[:, 0] * (-c * y1)[:, None, None]
        - gamma[:, 1] * (-c * y2)[:, None, None]
    )
    hf11, hf12, hf22 = _in_frame(e1a, e2a, e2b, hp[:, 0, 0], hp[:, 0, 1], hp[:, 1, 1])

    # residual of Hess(Phi) = phi' g + h <V, nu> in the frame
    preint = np.maximum(
        np.maximum(np.abs(hf11 - (s + support * wf11)), np.abs(hf12 - support * wf12)),
        np.abs(hf22 - (s + support * wf22)),
    )
    w_frame = _sym(wf11, wf12, wf22)
    return {
        "margin": margin, "g": _sym(g11, g12, g22), "g_inv": ginv, "det_g": detg,
        "nu": np.stack([nu0, nu1, nu2], axis=-1), "support": support, "h": h,
        "w_chart": wch, "frame": frame, "w_frame": w_frame,
        "hess_phi_frame": _sym(hf11, hf12, hf22), "sigma1": symfun.sigma1(component_first(w_frame)),
        "sigma2": symfun.sigma2(component_first(w_frame)), "pre_integral_residual": preint,
        "gamma": gamma, "dg": dg, "nu_norm_residual": nu_norm,
        "nu_tangency_residual": nu_tan,
    }


def _det3(m):
    """Determinants of stacked (n, 3, 3) matrices, expanded along the first row."""
    return (
        m[:, 0, 0] * (m[:, 1, 1] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 1])
        - m[:, 0, 1] * (m[:, 1, 0] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 0])
        + m[:, 0, 2] * (m[:, 1, 0] * m[:, 2, 1] - m[:, 1, 1] * m[:, 2, 0])
    )


def _brioschi(st, ct, c, s, dy, d2y, d3y, g, det_g, dg):
    """K = (det A - det B) / (EG - F^2)^2 in the chart (u, v) = (theta, phi),
    E, F, G the entries of g, with A and B stacked as (n, 3, 3) matrices."""
    sig22 = st * st
    c2 = c * c
    y1, y2 = dy[:, 0], dy[:, 1]
    y11, y12, y22 = d2y[:, 0, 0], d2y[:, 0, 1], d2y[:, 1, 1]
    y112, y122 = d3y[:, 0, 0, 1], d3y[:, 0, 1, 1]

    # E_vv, F_uv and G_uu of g_ij = -y_i y_j + cosh^2(y) sigma_ij
    cs2 = 2.0 * c * s
    ch2 = 2.0 * (c2 + s * s)
    y12sq = y12 * y12
    e_vv = -2.0 * (y12sq + y1 * y122) + ch2 * y2 * y2 + cs2 * y22
    f_uv = -(y112 * y2 + y12sq + y11 * y22 + y1 * y122)
    g_uu = (
        -2.0 * (y12sq + y2 * y112) + (ch2 * y1 * y1 + cs2 * y11) * sig22
        + 2.0 * cs2 * y1 * (2.0 * st * ct) + c2 * (2.0 * (ct * ct - st * st))
    )

    half = 0.5 * dg  # d_p g_ij / 2 as (n, p, i, j)
    a = np.empty((len(det_g), 3, 3))
    b = np.empty_like(a)
    a[:, 1:, 1:] = b[:, 1:, 1:] = g
    a[:, 0, 0] = f_uv - 0.5 * (e_vv + g_uu)
    a[:, 0, 1] = half[:, 0, 0, 0]
    a[:, 0, 2] = dg[:, 0, 0, 1] - half[:, 1, 0, 0]
    a[:, 1, 0] = dg[:, 1, 0, 1] - half[:, 0, 1, 1]
    a[:, 2, 0] = half[:, 1, 1, 1]
    b[:, 0, 0] = 0.0
    b[:, 0, 1] = b[:, 1, 0] = half[:, 1, 0, 0]
    b[:, 0, 2] = b[:, 2, 0] = half[:, 0, 1, 1]
    return (_det3(a) - _det3(b)) / (det_g * det_g)


def curvature_fields(theta, y, dy, d2y, d3y, g, g_inv, det_g, w_chart, gamma, dg, sigma2):
    """Intrinsic curvature K, |sigma2 - (1 - K)| and the Newton divergence.

    Takes ``surface_core`` outputs for spacelike nodes; returns the three
    node arrays ``(K, gauss_residual, newton_residual)``.  K is Brioschi's
    formula; ``riemann_curvature`` is the Christoffel route to it.
    """
    dy, d2y, d3y, g, g_inv, w_chart, gamma, dg = (
        node_major(a) for a in (dy, d2y, d3y, g, g_inv, w_chart, gamma, dg)
    )
    st = np.sin(theta)
    ct = np.cos(theta)
    sig22 = st * st
    dsig22 = 2.0 * st * ct
    c = np.cosh(y)
    s = np.sinh(y)
    c2 = c * c
    y1, y2 = dy[:, 0], dy[:, 1]

    k_norm = _brioschi(st, ct, c, s, dy, d2y, d3y, g, det_g, dg)
    gauss = np.abs(sigma2 - (1.0 - k_norm))

    # derivatives of h via h = (c/sqrt(m)) T
    margin, t = _second_form_parts(st, ct, c, s, dy, d2y)
    sqm = np.sqrt(margin)
    scale = c / sqm
    soc = s / c
    gam122 = -st * ct
    gam212 = ct / st
    dgam122 = sig22 - ct * ct
    dgam212 = -1.0 / sig22
    dw = np.empty_like(dg)
    for p in range(2):
        yp = dy[:, p]
        y1p = d2y[:, 0, p]
        y2p = d2y[:, 1, p]
        # d_p of |grad y|^2 and of the margin
        dgrad2 = 2.0 * (y1 * y1p + y2 * y2p / sig22)
        dhs12 = d3y[:, 0, 1, p] - gam212 * y2p
        dhs22 = d3y[:, 1, 1, p] - gam122 * y1p
        dsig_t = 0.0
        if p == 0:
            dgrad2 = dgrad2 - y2 * y2 * dsig22 / (sig22 * sig22)
            dhs12 = dhs12 - dgam212 * y2
            dhs22 = dhs22 - dgam122 * y1
            dsig_t = c * s * dsig22
        dmargin = 2.0 * c * s * yp - dgrad2
        dscale = s * yp / sqm - 0.5 * c * dmargin / (sqm * margin)
        csp = (c2 + s * s) * yp
        dsoc = yp / c2
        dt11 = d3y[:, 0, 0, p] + csp - 2.0 * (dsoc * y1 * y1 + soc * 2.0 * y1 * y1p)
        dt12 = dhs12 - 2.0 * (dsoc * y1 * y2 + soc * (y1p * y2 + y1 * y2p))
        dt22 = dhs22 + csp * sig22 + dsig_t - 2.0 * (dsoc * y2 * y2 + soc * 2.0 * y2 * y2p)
        dh = dscale[:, None, None] * t + scale[:, None, None] * _sym(dt11, dt12, dt22)
        # dW = ginv (dh - dg W)
        dw[:, p] = _matmul(g_inv, dh - _matmul(dg[:, p], w_chart))

    # covariant divergence of the Newton tensor T^i_j = sigma1 delta - W^i_j:
    # div_j = tr(d_j W) - sum_i d_i W^i_j
    #         + sum_p Gamma^i_{ip} T^p_j - sum_{i,p} Gamma^p_{ij} T^i_p
    tr_w = w_chart[:, 0, 0] + w_chart[:, 1, 1]
    newton_t = tr_w[:, None, None] * np.eye(2) - w_chart
    gc = gamma[:, 0, 0] + gamma[:, 1, 1]
    div = (
        dw[:, :, 0, 0] + dw[:, :, 1, 1]
        - dw[:, 0, 0]
        - dw[:, 1, 1]
        + gc[:, 0, None] * newton_t[:, 0]
        + gc[:, 1, None] * newton_t[:, 1]
    )
    for i in range(2):
        for p in range(2):
            div = div - gamma[:, p, i] * newton_t[:, i, p, None]
    return k_norm, gauss, np.abs(div).max(axis=1)


def _central(at, h, k):
    """k-th central difference of the field ``at(offset)``, step h."""
    if k == 1:
        return (at(1) - at(-1)) / (2 * h)
    if k == 2:
        return (at(1) - 2 * at(0) + at(-1)) / h**2
    return (at(2) - 2 * at(1) + 2 * at(-1) - at(-2)) / (2 * h**3)


def grid_scalar_jets(values, order):
    """Central-difference jets of a sampled field: theta stencils read 3 ghost
    rows on each side, each a grid row turned by pi in phi, and phi stencils
    read ``np.roll`` shifts."""
    n_theta, n_phi = values.shape
    ht, hp = math.pi / n_theta, 2.0 * math.pi / n_phi
    turned = np.roll(values, n_phi // 2, axis=1)
    ext = np.concatenate([turned[[2, 1, 0]], values, turned[[-1, -2, -3]]])
    rows = [values] + [_central(lambda o: ext[3 + o : 3 + o + n_theta], ht, k)
                       for k in range(1, order + 1)]

    def entry(idx):  # len(idx) - sum(idx) theta and sum(idx) phi derivatives
        row, j = rows[len(idx) - sum(idx)], sum(idx)
        return row if j == 0 else _central(lambda o: np.roll(row, -o, axis=1), hp, j)

    return (values.ravel(), *(
        np.array([entry(idx) for idx in np.ndindex(*(2,) * n)]).reshape((2,) * n + (-1,))
        for n in range(1, order + 1)
    ))


def sampled_pre_integral_residual(surface, fields):
    from dsrigidity.surfaces import grid_scalar_jets

    _, dp, d2p = (node_major(a) for a in grid_scalar_jets(-np.sinh(surface.values), order=2))
    gamma, frame, w_frame = (node_major(a) for a in (fields.gamma, fields.frame, fields.w_frame))
    hp = d2p - gamma[:, 0] * dp[:, 0, None, None] - gamma[:, 1] * dp[:, 1, None, None]
    hess_frame = _sym(*_in_frame(
        frame[:, 0, 0], frame[:, 1, 0], frame[:, 1, 1], hp[:, 0, 0], hp[:, 0, 1], hp[:, 1, 1]
    ))
    target = (
        fields.phi_prime[:, None, None] * np.eye(2)
        + fields.support[:, None, None] * w_frame
    )
    return np.abs(hess_frame - target).max(axis=(1, 2))


def sampled_newton_residual(surface, fields):
    nt, npk = surface.values.shape
    w = node_major(fields.w_chart).reshape(nt, npk, 2, 2)
    tr = w[..., 0, 0] + w[..., 1, 1]
    newton = tr[..., None, None] * np.eye(2) - w
    ht = math.pi / nt
    hp = 2.0 * math.pi / npk

    d_theta = (newton[2:] - newton[:-2]) / (2 * ht)
    d_phi = (np.roll(newton, -1, axis=1) - np.roll(newton, 1, axis=1)) / (2 * hp)
    dT = np.stack([d_theta, d_phi[1:-1]], axis=2)  # (nt-2, np, p, i, j)

    gamma = node_major(fields.gamma).reshape(nt, npk, 2, 2, 2)[1:-1]
    core = newton[1:-1]
    div = np.einsum("tpiij->tpj", dT)
    div += np.einsum("tpiia,tpaj->tpj", gamma, core)
    div -= np.einsum("tpaij,tpia->tpj", gamma, core)
    keep = np.sin(surface.theta_grid[1:-1]) >= geometry.NEWTON_MIN_SIN_THETA
    return np.abs(div[keep]).max(axis=-1).ravel()


def lie_derivative_residual(rho, theta, u, w):
    g = np.moveaxis(ambient.metric_components(rho, theta), -1, 0)
    gam = np.moveaxis(ambient.christoffel_components(rho, theta), -1, 0)
    u, w = node_major(u), node_major(w)
    c = np.cosh(rho)
    s = np.sinh(rho)

    def cov_deriv_v(vec):
        out = np.einsum("nab,nb->na", gam[..., 0], vec) * c[:, None]
        out[:, 0] += vec[:, 0] * s
        return out

    dot = lambda a, b: np.einsum("na,nab,nb->n", a, g, b)
    return dot(cov_deriv_v(u), w) + dot(cov_deriv_v(w), u) - 2.0 * s * dot(u, w)


def invert_chart_map_d2y(rho_jet, u_jets, dy):
    """d2y = A^T m2 A as np.einsum formed it, A the inverse chart Jacobian."""
    dy = node_major(dy)
    u1 = np.stack([np.moveaxis(u[1], 0, -1) for u in u_jets], axis=-2)
    u2 = np.stack([np.moveaxis(u[2], (0, 1), (-2, -1)) for u in u_jets], axis=-3)
    r2 = np.moveaxis(rho_jet[2], (0, 1), (-2, -1))
    det = u1[..., 0, 0] * u1[..., 1, 1] - u1[..., 0, 1] * u1[..., 1, 0]
    ainv = np.empty_like(u1)
    ainv[..., 0, 0] = u1[..., 1, 1] / det
    ainv[..., 0, 1] = -u1[..., 0, 1] / det
    ainv[..., 1, 0] = -u1[..., 1, 0] / det
    ainv[..., 1, 1] = u1[..., 0, 0] / det
    m2 = r2 - np.einsum("na,naij->nij", dy, u2)
    return component_first(np.einsum("nia,nij,njb->nab", ainv, m2, ainv))


def riemann_curvature(theta, y, dy, d2y, d3y, g, g_inv, det_g, gamma, dg):
    """K = g_{1a} R^a_{212} / det g from the derivatives of the Christoffel
    symbols: an oracle for Brioschi's formula that forms all eight
    d_p d_q g_ij where that formula forms three.  Component-first arrays in,
    K out."""
    dy, d2y, d3y, g, g_inv, gamma, dg = (
        node_major(a) for a in (dy, d2y, d3y, g, g_inv, gamma, dg)
    )
    st = np.sin(theta)
    ct = np.cos(theta)
    sig22 = st * st
    dsig22 = 2.0 * st * ct
    c = np.cosh(y)
    s = np.sinh(y)
    c2 = c * c

    def d2g(p, q, i, j):
        """d_p d_q g_ij; sigma_ij depends on theta only through sigma_22."""
        val = (
            -d3y[:, i, p, q] * dy[:, j]
            - d2y[:, i, p] * d2y[:, j, q]
            - d2y[:, i, q] * d2y[:, j, p]
            - dy[:, i] * d3y[:, j, p, q]
        )
        if i != j:
            return val
        sij = 1.0 if i == 0 else sig22
        val = val + 2.0 * (c2 + s * s) * dy[:, q] * dy[:, p] * sij
        val = val + 2.0 * c * s * d2y[:, p, q] * sij
        if i == 1 and q == 0:
            val = val + 2.0 * c * s * dy[:, p] * dsig22
        if i == 1 and p == 0:
            val = val + 2.0 * c * s * dy[:, q] * dsig22
        if i == 1 and p == q == 0:
            val = val + c2 * (2.0 * (ct * ct - st * st))
        return val

    def dgamma(p, i, j):
        """d_p Gamma^m_ij for both m, as (n, m)."""
        dginv = -_matmul(_matmul(g_inv, dg[:, p]), g_inv)
        bl = dg[:, i, :, j] + dg[:, j, :, i] - dg[:, :, i, j]
        dbl = np.stack(
            [d2g(p, i, l, j) + d2g(p, j, l, i) - d2g(p, l, i, j) for l in range(2)], axis=-1
        )
        return 0.5 * (
            (dginv[:, :, 0] * bl[:, None, 0] + g_inv[:, :, 0] * dbl[:, None, 0])
            + (dginv[:, :, 1] * bl[:, None, 1] + g_inv[:, :, 1] * dbl[:, None, 1])
        )

    r = (
        dgamma(0, 1, 1)
        - dgamma(1, 0, 1)
        + gamma[:, :, 0, 0] * gamma[:, None, 0, 1, 1]
        + gamma[:, :, 0, 1] * gamma[:, None, 1, 1, 1]
        - gamma[:, :, 1, 0] * gamma[:, None, 0, 0, 1]
        - gamma[:, :, 1, 1] * gamma[:, None, 1, 0, 1]
    )
    return (g[:, 0, 0] * r[:, 0] + g[:, 0, 1] * r[:, 1]) / det_g

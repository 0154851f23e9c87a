"""Hot geometry kernels: surface assembly, connection and curvature.

``surface_core`` forms the margin, metric, h, frame and frame W of every
surface.  ``normal_fields`` (``nu``, its residuals, ``w_chart``),
``connection`` (``dg``, ``gamma``), ``curvature_fields`` (``k_norm``,
``gauss_residual``) and ``newton_divergence`` (``newton_residual``) each
form their group of ``geometry.SurfaceFields`` on its first read: the
``geometry`` suite reads them all, ``verify-identities`` the base connection
only, ``rigidity`` none.  Every tensor is stored component-first with the node
axis last, ``(2, 2[, 2], n)``, as the jets are: ``a[i, j]`` is the
``(n,)`` node array of one component.  Each formula is evaluated one
component at a time on those node arrays, nested as lists ``t[i][j]``
(``dg`` and ``t`` are returned so), and a stored tensor is built from its
nested list with ``np.array``; the Newton tensor is ``symfun.d_sigma2``'s.
K comes from Brioschi's formula, which reads g, ``dg`` and three second
derivatives of g.  Every kernel reads the height through second order:
its third derivatives are totally symmetric and cancel in Brioschi's
F_uv - (E_vv + G_uu) / 2 and in the Newton divergence's tr(d_j W) - d_i W^i_j.
The kernels and ``potential_jets`` take sin and cos of theta and cosh and
sinh of y as the required ``trig``, the ``node_trig`` tuple that
``geometry.SurfaceFields`` forms once per node set.
``frame_hessian`` takes any potential by chart jets: ``potential_jets``'
own, a pair's pulled-back one or a grid's stencil one.

Geometry conventions (fixed once, used everywhere):

* ambient chart (rho, theta, phi), metric diag(-1, cosh^2 rho,
  cosh^2 rho sin^2 theta);
* surface chart (theta, phi) with height y(theta, phi); tangents
  X_i = (y_i, delta_i);
* nu is the future-directed unit timelike normal (positive rho component);
* the second fundamental form is h_ij = -<D_{X_i} X_j, nu>, equivalently
  the normal component coefficient in D_{X_i} X_j = nabla_{X_i} X_j + h_ij nu.
  With this sign a constant-height slice at rho0 > 0 has W = tanh(rho0) I.
"""

import numpy as np

from . import symfun


def node_trig(theta, y, grid):
    """sin, cos and sin^2 of theta, cosh, sinh and cosh^2 of y at the nodes;
    on the nodes of a product ``grid``, sin and cos of theta once per row."""
    st, ct = (np.sin(theta), np.cos(theta)) if grid is None else grid.trig[:2]
    c, s = np.cosh(y), np.sinh(y)
    return st, ct, st * st, c, s, c * c


def _matmul(a, b):
    """2x2 matrix product of component lists, summed in index order."""
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)] for i in range(2)]


def congruence(f, m):
    """Entries of f m f^T from 2x2 component lists, summed as
    ``np.einsum("nai,nij,nbj->nab")`` sums stacks: from 0, one row i at a time."""
    row = lambda a, b, i: f[a][i] * m[i][0] * f[b][0] + f[a][i] * m[i][1] * f[b][1]
    return [[sum(row(a, b, i) for i in range(2)) for b in range(2)] for a in range(2)]


def _in_frame(e1a, e2a, e2b, m11, m12, m22):
    """Components m(e_a, e_b) of a symmetric form in the frame e_1, e_2."""
    f11 = e1a * e1a * m11
    f12 = e1a * (e2a * m11 + e2b * m12)
    f22 = e2a * e2a * m11 + 2.0 * e2a * e2b * m12 + e2b * e2b * m22
    return [[f11, f12], [f12, f22]]


def first_form(st, c2, dy):
    """Components of g_ij = -y_i y_j + cosh^2(y) sigma_ij, det g and the
    spacelike margin cosh^2 - |grad y|^2 in sigma = diag(1, sin^2 theta).

    A node is not spacelike where margin <= 0 or det g <= 0; the margin is
    clipped to at most 0 there, so ``margin > 0`` is the whole test.
    """
    y1, y2 = dy
    sig22 = st * st
    g11 = -y1 * y1 + c2
    g12 = -y1 * y2
    g22 = -y2 * y2 + c2 * sig22
    detg = g11 * g22 - g12 * g12
    margin = c2 - (y1 * y1 + y2 * y2 / sig22)
    bad = (margin <= 0.0) | (detg <= 0.0)
    if bad.any():
        margin = np.where(bad, np.minimum(margin, 0.0), margin)
    return [[g11, g12], [g12, g22]], detg, margin


# here and in curvature_fields, unread theta and y stay positional: perfbench/spans.py
# counts each call's nodes and bytes from its positional arrays
def surface_core(theta, y, dy, d2y, *, trig):
    """Metric, second fundamental form, frame and frame shape operator per node.

    Returns a dict of component-first arrays keyed by the ``SurfaceFields`` names
    (``margin``, ``g``, ``g_inv``, ``det_g``, ``support``, ``h``, ``frame``,
    ``w_frame``, ``sigma1``, ``sigma2``) plus ``t``, the components
    ``t[i][j]`` of T in h = (c / sqrt(margin)) T.
    If any node violates the spacelike bound, only ``margin`` is returned,
    clipped to at most 0 at the violating nodes (``first_form``).
    """
    st, ct, sig22, c, s, c2 = trig
    y1, y2 = dy

    g, detg, margin = first_form(st, c2, dy)
    (g11, g12), (_, g22) = g
    if np.any(margin <= 0.0):
        return {"margin": margin}
    # h = (c / sqrt(margin)) T, T_ij = HS_ij + cs sigma_ij - 2 (s/c) y_i y_j with
    # HS the Hessian of y in the round metric sigma = diag(1, sin^2 theta)
    soc = s / c
    t12 = d2y[0, 1] - ct / st * y2 - 2.0 * soc * y1 * y2
    t = [[d2y[0, 0] + c * s - 2.0 * soc * y1 * y1, t12],
         [t12, d2y[1, 1] + st * ct * y1 + c * s * sig22 - 2.0 * soc * y2 * y2]]
    gi12 = -g12 / detg
    ginv = [[g22 / detg, gi12], [gi12, g11 / detg]]

    # support function <V, nu>; h = nu_0 T with nu_0 = c / sqrt(margin)
    sqm = np.sqrt(margin)
    nu0 = c / sqm
    support = -c2 / sqm
    h = [[nu0 * x for x in row] for row in t]

    # orthonormal frame by Gram-Schmidt on (d_theta, d_phi); W in the frame
    # is h(e_a, e_b), exactly symmetric
    e1a = 1.0 / np.sqrt(g11)
    ell = np.sqrt(detg / g11)
    e2a = -g12 / (g11 * ell)
    e2b = 1.0 / ell
    frame = np.array([[e1a, np.zeros_like(e1a)], [e2a, e2b]])
    w_frame = np.array(_in_frame(e1a, e2a, e2b, h[0][0], h[0][1], h[1][1]))
    return {
        "margin": margin, "g": np.array(g), "g_inv": np.array(ginv), "det_g": detg,
        "support": support, "h": np.array(h), "frame": frame, "w_frame": w_frame,
        "sigma1": symfun.sigma1(w_frame), "sigma2": symfun.sigma2(w_frame), "t": t,
    }


def normal_fields(dy, margin, g_inv, h, *, trig):
    """Future-directed unit normal, |<nu, nu> + 1|, |<nu, X_i>| and the chart
    W = g^-1 h, from the ``surface_core`` outputs of spacelike nodes."""
    _, _, sig22, c, _, c2 = trig
    y1, y2 = dy
    sqm = np.sqrt(margin)
    nu0 = c / sqm
    nu1 = y1 / (c * sqm)
    nu2 = y2 / (sig22 * c * sqm)
    nu_norm = np.abs(-nu0 * nu0 + c2 * (nu1 * nu1 + sig22 * nu2 * nu2) + 1.0)
    nu_tan = np.abs(np.array([-nu0 * y1 + c2 * nu1, -nu0 * y2 + c2 * sig22 * nu2]))
    return np.array([nu0, nu1, nu2]), nu_norm, nu_tan, np.array(_matmul(g_inv, h))


def connection(dy, d2y, g_inv, *, trig):
    """d_p g_ij as components ``dg[p][i][j]`` and the induced Christoffel
    symbols Gamma^m_ij as an ``(m, i, j, n)`` array, at spacelike nodes."""
    st, ct, sig22, c, s, c2 = trig
    y1, y2 = dy

    # d_p g_ij = -y_ip y_j - y_i y_jp + 2 c s y_p sigma_ij + c^2 d_p sigma_ij
    cs2 = 2.0 * c * s
    dg = []
    for p in range(2):
        y1p, y2p = d2y[p]
        d12 = -(y1p * y2 + y2p * y1)
        d22 = -(y2p * y2 + y2p * y2) + cs2 * dy[p] * sig22
        if p == 0:
            d22 = d22 + c2 * (2.0 * st * ct)
        dg.append([[-(y1p * y1 + y1p * y1) + cs2 * dy[p], d12], [d12, d22]])

    # Gamma^m_ij = 0.5 g^{ml} (d_i g_lj + d_j g_li - d_l g_ij)
    def christoffel(i, j):
        b = [dg[i][l][j] + dg[j][l][i] - dg[l][i][j] for l in range(2)]
        return [0.5 * (g_inv[m, 0] * b[0] + g_inv[m, 1] * b[1]) for m in range(2)]

    gam11, gam12, gam22 = christoffel(0, 0), christoffel(0, 1), christoffel(1, 1)
    return dg, np.array([[[gam11[m], gam12[m]], [gam12[m], gam22[m]]] for m in range(2)])


def potential_jets(dy, d2y, *, trig):
    """Chart gradient and Hessian of the potential Phi = -sinh(y).  With the
    mostly-plus signature V = cosh(rho) d_rho is the metric gradient of -sinh(rho)."""
    c, s = trig[3:5]
    return -c * dy, -(s * dy[:, None] * dy[None, :] + c * d2y)


def frame_hessian(frame, gamma, d, d2):
    """Covariant Hessian d2_ij - Gamma^k_ij d_k of a function in the
    Gram-Schmidt frame, from its chart gradient ``d`` and Hessian ``d2``."""
    hess = [d2[i, j] - gamma[0, i, j] * d[0] - gamma[1, i, j] * d[1]
            for i, j in ((0, 0), (0, 1), (1, 1))]
    return np.array(_in_frame(frame[0, 0], frame[1, 0], frame[1, 1], *hess))


def pre_integral_residual(hess, phi_prime, support, w_frame):
    """Largest entry of |Hess(Phi) - (phi' g + h <V, nu>)| in the frame per node."""
    (hf11, hf12), (_, hf22) = hess
    (wf11, wf12), (_, wf22) = w_frame
    return np.maximum(
        np.maximum(np.abs(hf11 - (phi_prime + support * wf11)), np.abs(hf12 - support * wf12)),
        np.abs(hf22 - (phi_prime + support * wf22)),
    )


def orthonormality_residual(f, g):
    """Largest entry of |g(e_a, e_b) - delta_ab| per node, e_a the rows of ``f``."""
    gram = congruence(f, g)
    return np.max([np.abs(gram[a][b] - float(a == b)) for a, b in np.ndindex(2, 2)], axis=0)


def curvature_fields(theta, y, dy, d2y, g, det_g, dg, sigma2, *, trig):
    """Intrinsic curvature K and |sigma2 - (1 - K)| per node, from the
    ``surface_core`` and ``connection`` outputs of spacelike nodes.

    K is Brioschi's form of the Theorema Egregium in the chart
    (u, v) = (theta, phi), with E, F, G the entries of g:
    K = (det A - det B) / (EG - F^2)^2, where

        A = [[-E_vv / 2 + F_uv - G_uu / 2, E_u / 2, F_u - E_v / 2],
             [F_v - G_u / 2, E, F], [G_v / 2, F, G]],
        B = [[0, E_v / 2, G_u / 2], [E_v / 2, E, F], [G_u / 2, F, G]].
    """
    st, ct, sig22, c, s, c2 = trig
    (E, F), (_, G) = g
    (e_u, f_u), (_, g_u) = dg[0]
    (e_v, f_v), (_, g_v) = dg[1]
    y1, y2 = dy
    (y11, y12), (_, y22) = d2y

    # E_vv, F_uv and G_uu of g_ij = -y_i y_j + cosh^2(y) sigma_ij,
    # sigma = diag(1, sin^2 theta), less their terms in y_001 and y_011,
    # which cancel in F_uv - (E_vv + G_uu) / 2
    cs2 = 2.0 * c * s
    ch2 = 2.0 * (c2 + s * s)
    y12sq = y12 * y12
    e_vv = -2.0 * y12sq + ch2 * y2 * y2 + cs2 * y22
    f_uv = -(y12sq + y11 * y22)
    g_uu = (
        -2.0 * y12sq + (ch2 * y1 * y1 + cs2 * y11) * sig22
        + 2.0 * cs2 * y1 * (2.0 * st * ct) + c2 * (2.0 * (ct * ct - st * st))
    )

    # each determinant expanded along its first row, B_11 = 0
    hv, hu = 0.5 * e_v, 0.5 * g_u
    a11 = f_uv - 0.5 * (e_vv + g_uu)
    a21 = f_v - hu
    a31 = 0.5 * g_v
    det_a = a11 * det_g - 0.5 * e_u * (a21 * G - F * a31) + (f_u - hv) * (a21 * F - E * a31)
    det_b = -hv * (hv * G - F * hu) + hu * (hv * F - E * hu)
    k_norm = (det_a - det_b) / (det_g * det_g)
    return k_norm, np.abs(sigma2 - (1.0 - k_norm))


def newton_divergence(dy, d2y, g_inv, w_chart, gamma, dg, margin, t, *, trig):
    """Largest component of the Newton tensor's covariant divergence per
    node, from the ``surface_core`` and ``connection`` outputs.  d_p h leaves
    out its term (c / sqrt(margin)) y_ijp, which is totally symmetric and
    cancels in tr(d_j W) - d_i W^i_j."""
    st, ct, sig22, c, s, c2 = trig
    dsig22 = 2.0 * st * ct
    y1, y2 = dy
    w = w_chart

    # derivatives of h via h = (c/sqrt(m)) T
    sqm = np.sqrt(margin)
    scale = c / sqm
    soc = s / c
    gam122 = -st * ct
    gam212 = ct / st
    dgam122 = sig22 - ct * ct
    dgam212 = -1.0 / sig22
    dw = []
    for p in range(2):
        yp = dy[p]
        y1p = d2y[0, p]
        y2p = d2y[1, p]
        # d_p of |grad y|^2 and of the margin
        dgrad2 = 2.0 * (y1 * y1p + y2 * y2p / sig22)
        dhs12 = -gam212 * y2p
        dhs22 = -gam122 * y1p
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
        dt11 = csp - 2.0 * (dsoc * y1 * y1 + soc * 2.0 * y1 * y1p)
        dt12 = dhs12 - 2.0 * (dsoc * y1 * y2 + soc * (y1p * y2 + y1 * y2p))
        dt22 = dhs22 + csp * sig22 + dsig_t - 2.0 * (dsoc * y2 * y2 + soc * 2.0 * y2 * y2p)
        dh12 = dscale * t[0][1] + scale * dt12
        dh = [[dscale * t[0][0] + scale * dt11, dh12], [dh12, dscale * t[1][1] + scale * dt22]]
        # dW = ginv (dh - dg W)
        dgw = _matmul(dg[p], w)
        dw.append(_matmul(g_inv, [[dh[i][j] - dgw[i][j] for j in range(2)] for i in range(2)]))

    # covariant divergence of the Newton tensor T^i_j = sigma1 delta - W^i_j,
    # d_sigma2 of W^T (the chart W = g^-1 h is not symmetric):
    # div_j = tr(d_j W) - sum_i d_i W^i_j + sum_p Gamma^i_{ip} T^p_j - sum_{i,p} Gamma^p_{ij} T^i_p
    newton_t = symfun.d_sigma2(np.swapaxes(w, 0, 1))
    gc = [gamma[0, 0, p] + gamma[1, 1, p] for p in range(2)]
    div = [
        dw[j][0][0] + dw[j][1][1] - dw[0][0][j] - dw[1][1][j]
        + gc[0] * newton_t[0, j] + gc[1] * newton_t[1, j]
        - gamma[0, 0, j] * newton_t[0, 0] - gamma[1, 0, j] * newton_t[0, 1]
        - gamma[0, 1, j] * newton_t[1, 0] - gamma[1, 1, j] * newton_t[1, 1]
        for j in range(2)
    ]
    return np.maximum(np.abs(div[0]), np.abs(div[1]))

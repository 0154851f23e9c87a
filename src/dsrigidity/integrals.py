"""Integral identities over isometric pairs and the rigidity experiment.

Every identity is checked with two independent routes: the left side
integrates the actual Hessian of the (pulled-back) radial potential
against the sigma2 cotangent, the right side integrates the closed
symmetric-function form that the pointwise Hessian identity predicts.
The pointwise discrepancy of the two integrands is reported as well,
since the identity holds before integration.
"""

from dataclasses import dataclass

import numpy as np

from . import symfun
from .errors import CorrespondenceInvalid, GateFailed
from .geometry import GATE_SIGMA2_TOL, curvature_gate_fields, node_text
from .quadrature import reduce_sum

#: sigma11(W, W~) - sigma2(W) may dip below zero by at most this on an
#: isometric pair (roundoff of the pointwise cone inequality)
CONE_GAP_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class IdentityReport:
    """One verified integral identity (labels a..d)."""

    label: str
    lhs: float
    residual_rel: float
    pointwise_max: float
    sign_note: str


@dataclass(frozen=True, eq=False)
class RigidityReport:
    integral_rel: float
    max_w_mismatch: float
    max_metric_residual: float
    sign_factor_min: float
    gap_max: float
    gap_min: float
    area: float
    verdict: str
    integral_pass: bool
    w_mismatch_pass: bool
    cone_gap_pass: bool


def _require_gates(data):
    for name, fields in (("surface", data.base), ("image surface", data.tilde)):
        passed, _ = curvature_gate_fields(fields)
        if not passed:
            k = int(np.argmin(fields.sigma2))
            raise GateFailed(
                f"{name}: sigma2 <= {GATE_SIGMA2_TOL} at "
                + node_text(fields.theta, fields.phi, k, sigma2=fields.sigma2[k])
            )


def _require_correspondence(data, tol):
    residual = data.metric_pullback_residual
    k = int(np.argmax(residual))
    if residual[k] > tol:
        raise CorrespondenceInvalid(
            f"pulled-back metric deviates by {residual[k]:.3e} (tolerance {tol:g}) at "
            + node_text(data.base.theta, data.base.phi, k)
        )


def pair_integrand_tables(data):
    """Per-node LHS/RHS integrands for the four identities.

    Identity labels follow the four cotangent/potential combinations:
      a: D(W),  phi~' Hess(Phi)     b: D(W~), phi~' Hess(Phi)
      c: D(W),  phi'  Hess(Phi~)    d: D(W~), phi'  Hess(Phi~)
    Each is one formula: for the cotangent D(X) of X and the potential
    whose shape operator is W_Phi, with fac its factor and other the other
    phi', the left side is fac D(X):Hess and the right side is
    fac other sigma1(X) + 2 fac sigma(X, W_Phi) <V,nu> (the proof sign);
    the statement sign (-2) is also tabulated for the report.
    """
    base, tilde = data.base, data.tilde
    w, wt = base.w_frame, data.w_tilde_frame
    pp, ppt = base.phi_prime, tilde.phi_prime
    dw = symfun.d_sigma2(w)
    s11 = 0.5 * symfun.contract(dw, wt)  # symfun.sigma11(w, wt) on the one D(W)
    # X = W, W~: the cotangent D(X), sigma1(X), then sigma(X, W) and sigma(X, W~)
    cotangents = (
        (dw, base.sigma1, (base.sigma2, s11)),
        (symfun.d_sigma2(wt), symfun.sigma1(wt), (s11, symfun.sigma2(wt))),
    )
    # Phi, Phi~: the Hessian, fac, the other phi' and the support <V,nu>
    potentials = (
        (base.hess_phi_frame, ppt, pp, base.support),
        (data.hess_phi_tilde_frame, pp, ppt, tilde.support),
    )
    lhs, rhs, rhs_statement, term_scale = {}, {}, {}, {}
    for label, (p, x) in zip("abcd", ((0, 0), (0, 1), (1, 0), (1, 1))):
        hess, fac, other, sup = potentials[p]
        d_x, s1, sigma = cotangents[x]
        first = fac * other * s1
        second = 2.0 * fac * sigma[p] * sup
        lhs[label] = fac * symfun.contract(d_x, hess)
        rhs[label] = first + second
        rhs_statement[label] = first - second
        # natural scale of the identity: the size of its largest term, even
        # when the terms cancel (constant slices)
        term_scale[label] = np.abs(first) + np.abs(second)
    return lhs, rhs, rhs_statement, term_scale


def verify_identities(data, rule, metric_tol):
    """Check the four integral identities and the tilde symmetry on a pair.

    Returns ``(reports, tilde_residual)``: one IdentityReport per identity
    a..d, and the relative residual of swapping the tilde and untilde
    potentials in the Hessian integral (the left sides of a and c).  That
    equality is the global statement that drives the rigidity argument.
    Each residual is relative to the integral of the identity's term scale
    |first| + |second|, which bounds |rhs| at every node (at least 1e-14).
    """
    _require_gates(data)
    _require_correspondence(data, metric_tol)
    lhs_tab, rhs_tab, rhs_stmt, term_scale = pair_integrand_tables(data)
    area_element = rule.weights * data.base.sqrt_det_g
    integral = lambda values: reduce_sum(area_element * values)
    reports = []
    scales = {}
    for label in "abcd":
        lv = lhs_tab[label]
        rv = rhs_tab[label]
        lhs = integral(lv)
        scales[label] = integral(term_scale[label])
        scale = max(scales[label], 1e-14)
        rel_stmt = abs(lhs - integral(rhs_stmt[label])) / scale
        reports.append(
            IdentityReport(
                label=label,
                lhs=lhs,
                residual_rel=abs(lhs - integral(rv)) / scale,
                pointwise_max=float(np.abs(lv - rv).max()),
                sign_note=(
                    "balanced with +2<V,nu> (proof form); "
                    f"-2<V,nu> form residual_rel={rel_stmt:.3e}"
                ),
            )
        )
    i_a, i_c = reports[0].lhs, reports[2].lhs
    tilde = abs(i_c - i_a) / max(scales["a"], scales["c"], 1e-14)
    return reports, tilde


def rigidity_experiment(data, rule, w_tol, integral_tol, metric_tol) -> RigidityReport:
    """Evaluate the rigidity integral and the shape-operator comparison.

    ``data`` is the pair's node data at the nodes of ``rule``.
    Preconditions: both surfaces in the positive-height region and past
    the curvature gate.  The integrand couples the (negative) support
    combination with the (nonnegative) cone gap, so the vanishing of the
    integral forces pointwise equality of the shape operators.

    The verdict is ``NotIsometric`` when the metric pullback misses
    ``metric_tol``, ``Rigid`` when the integral and the shape-operator
    mismatch meet their tolerances, and ``ThresholdsMissed`` otherwise.
    The integral, the mismatch and the cone gap (``CONE_GAP_TOL``) are
    graded for isometric pairs only; a control passes them by construction.
    """
    for name, fields in (("surface", data.base), ("image surface", data.tilde)):
        if np.any(fields.y <= 0.0):
            k = int(np.argmin(fields.y))
            raise GateFailed(
                f"{name} leaves the positive-height region at "
                + node_text(fields.theta, fields.phi, k, y=fields.y[k])
            )
    _require_gates(data)

    base = data.base
    s2w = base.sigma2
    s11 = symfun.sigma11(base.w_frame, data.w_tilde_frame)
    factor = data.tilde.phi_prime * base.support + base.phi_prime * data.tilde.support
    integrand = factor * (s2w - s11)
    area_element = rule.weights * base.sqrt_det_g
    integral = reduce_sum(area_element * integrand)
    area = reduce_sum(area_element)
    metric_res = float(data.metric_pullback_residual.max())
    mismatch = float(np.abs(data.w_tilde_frame - base.w_frame).max())
    gap_min = float((s11 - s2w).min())

    not_isometric = metric_res > metric_tol
    integral_rel = abs(integral) / area
    integral_ok = integral_rel <= integral_tol
    w_ok = mismatch <= w_tol
    if not_isometric:
        verdict = "NotIsometric"
    elif integral_ok and w_ok:
        verdict = "Rigid"
    else:
        verdict = "ThresholdsMissed"
    return RigidityReport(
        integral_rel=integral_rel,
        max_w_mismatch=mismatch,
        max_metric_residual=metric_res,
        sign_factor_min=float((-factor).min()),
        gap_max=float((s11 - s2w).max()),
        gap_min=gap_min,
        area=area,
        verdict=verdict,
        integral_pass=not_isometric or integral_ok,
        w_mismatch_pass=not_isometric or w_ok,
        cone_gap_pass=not_isometric or gap_min >= -CONE_GAP_TOL,
    )

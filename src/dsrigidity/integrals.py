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

from .errors import CorrespondenceInvalid, GateFailed
from .geometry import GATE_SIGMA2_TOL, curvature_gate_fields
from .quadrature import integrate_surface, reduce_sum

#: default tolerances for the pair suites
IDENTITY_REL_TOL = 1e-6
POINTWISE_TOL = 1e-8
TILDE_SYMMETRY_TOL = 1e-6
METRIC_PULLBACK_TOL = 1e-8
W_MISMATCH_TOL = 1e-6
RIGIDITY_INTEGRAL_REL_TOL = 1e-8


def integrate_over_M(surface, func, rule) -> float:
    """Integrate a node function over a surface with its area element."""
    from .geometry import evaluate_surface

    fields = evaluate_surface(surface, rule.theta, rule.phi)
    values = func(fields)
    return integrate_surface(rule, fields.sqrt_det_g, values)


@dataclass(frozen=True, eq=False)
class IdentityReport:
    """One verified integral identity (labels a..d)."""

    label: str
    lhs: float
    rhs: float
    residual_rel: float
    pointwise_max: float
    statement_sign_residual_rel: float
    sign_note: str
    pass_: bool


@dataclass(frozen=True, eq=False)
class RigidityReport:
    integral_value: float
    integral_rel: float
    max_w_mismatch: float
    max_metric_residual: float
    sign_factor_min: float
    gap_max: float
    gap_min: float
    area: float
    verdict: str


def _d_sigma2_2x2(w):
    """Derivative matrix of sigma2 for stacked symmetric 2x2 operators."""
    tr = w[:, 0, 0] + w[:, 1, 1]
    out = np.empty_like(w)
    out[:, 0, 0] = tr - w[:, 0, 0]
    out[:, 1, 1] = tr - w[:, 1, 1]
    out[:, 0, 1] = -w[:, 1, 0]
    out[:, 1, 0] = -w[:, 0, 1]
    return out


def _sigma2_2x2(w):
    return w[:, 0, 0] * w[:, 1, 1] - w[:, 0, 1] * w[:, 1, 0]


def _sigma11_2x2(wa, wb):
    return 0.5 * np.einsum("nij,nij->n", _d_sigma2_2x2(wa), wb)


def _require_gates(data):
    for name, fields in (("surface", data.base), ("image surface", data.tilde)):
        passed, _ = curvature_gate_fields(fields)
        if not passed:
            raise GateFailed(
                f"{name}: sigma2 <= {GATE_SIGMA2_TOL} at some node"
            )


def _require_correspondence(data, tol=METRIC_PULLBACK_TOL):
    worst = float(data.metric_pullback_residual.max())
    if worst > tol:
        raise CorrespondenceInvalid(
            f"pulled-back metric deviates by {worst:.3e} (tolerance {tol:g})"
        )


def pair_integrand_tables(data):
    """Per-node LHS/RHS integrands for the four identities.

    Identity labels follow the four cotangent/potential combinations:
      a: D(W),  phi~' Hess(Phi)     b: D(W~), phi~' Hess(Phi)
      c: D(W),  phi'  Hess(Phi~)    d: D(W~), phi'  Hess(Phi~)
    The right sides use the proof sign (+2 <V,nu> terms); the statement
    sign (-2) is also tabulated for the report.
    """
    base = data.base
    w = base.w_frame
    wt = data.w_tilde_frame
    dw = _d_sigma2_2x2(w)
    dwt = _d_sigma2_2x2(wt)
    hess = base.hess_phi_frame
    hess_t = data.hess_phi_tilde_frame
    pp = base.phi_prime
    ppt = data.phi_prime_tilde
    sup = base.support
    sup_t = data.support_tilde

    s1w = w[:, 0, 0] + w[:, 1, 1]
    s1wt = wt[:, 0, 0] + wt[:, 1, 1]
    s2w = _sigma2_2x2(w)
    s2wt = _sigma2_2x2(wt)
    s11 = _sigma11_2x2(w, wt)

    contract = lambda d, h: np.einsum("nij,nij->n", d, h)
    lhs = {
        "a": ppt * contract(dw, hess),
        "b": ppt * contract(dwt, hess),
        "c": pp * contract(dw, hess_t),
        "d": pp * contract(dwt, hess_t),
    }
    first = {
        "a": ppt * pp * s1w,
        "b": ppt * pp * s1wt,
        "c": pp * ppt * s1w,
        "d": pp * ppt * s1wt,
    }
    second = {
        "a": 2.0 * ppt * s2w * sup,
        "b": 2.0 * ppt * s11 * sup,
        "c": 2.0 * pp * s11 * sup_t,
        "d": 2.0 * pp * s2wt * sup_t,
    }
    rhs = {label: first[label] + second[label] for label in "abcd"}
    rhs_statement = {label: first[label] - second[label] for label in "abcd"}
    # natural scale of each identity: the size of its largest term, even
    # when the terms cancel (constant slices)
    term_scale = {
        label: np.abs(first[label]) + np.abs(second[label]) for label in "abcd"
    }
    return lhs, rhs, rhs_statement, term_scale


def verify_integral_identities(pair, rule, rel_tol=IDENTITY_REL_TOL):
    """Check the four integral identities on a pair; returns four reports."""
    data = pair.node_data(rule)
    _require_gates(data)
    _require_correspondence(data)
    lhs_tab, rhs_tab, rhs_stmt, term_scale = pair_integrand_tables(data)
    sq = data.base.sqrt_det_g
    reports = []
    for label in "abcd":
        lv = lhs_tab[label]
        rv = rhs_tab[label]
        lhs = integrate_surface(rule, sq, lv)
        rhs = integrate_surface(rule, sq, rv)
        rhs_s = integrate_surface(rule, sq, rhs_stmt[label])
        scale = max(
            integrate_surface(rule, sq, np.abs(lv)),
            integrate_surface(rule, sq, term_scale[label]),
            1e-14,
        )
        rel = abs(lhs - rhs) / scale
        rel_stmt = abs(lhs - rhs_s) / scale
        reports.append(
            IdentityReport(
                label=label,
                lhs=lhs,
                rhs=rhs,
                residual_rel=rel,
                pointwise_max=float(np.abs(lv - rv).max()),
                statement_sign_residual_rel=rel_stmt,
                sign_note=(
                    "balanced with +2<V,nu> (proof form); "
                    f"-2<V,nu> form residual_rel={rel_stmt:.3e}"
                ),
                pass_=rel <= rel_tol,
            )
        )
    return reports


def verify_tilde_symmetry(pair, rule):
    """Residual of swapping tilde and untilde potentials in the integral.

    Both integrals use the Hessian route; their equality is the global
    statement that drives the rigidity argument.
    """
    data = pair.node_data(rule)
    _require_gates(data)
    _require_correspondence(data)
    lhs_tab, _, _, term_scale = pair_integrand_tables(data)
    sq = data.base.sqrt_det_g
    i_a = integrate_surface(rule, sq, lhs_tab["a"])
    i_c = integrate_surface(rule, sq, lhs_tab["c"])
    scale = max(
        integrate_surface(rule, sq, np.abs(lhs_tab["a"])),
        integrate_surface(rule, sq, np.abs(lhs_tab["c"])),
        integrate_surface(rule, sq, term_scale["a"]),
        integrate_surface(rule, sq, term_scale["c"]),
        1e-14,
    )
    return abs(i_c - i_a) / scale


def rigidity_experiment(
    pair,
    rule,
    w_tol=W_MISMATCH_TOL,
    integral_rel_tol=RIGIDITY_INTEGRAL_REL_TOL,
    metric_tol=METRIC_PULLBACK_TOL,
) -> RigidityReport:
    """Evaluate the rigidity integral and the shape-operator comparison.

    Preconditions: both surfaces in the positive-height region and past
    the curvature gate.  The integrand couples the (negative) support
    combination with the (nonnegative) cone gap, so the vanishing of the
    integral forces pointwise equality of the shape operators.

    The verdict is ``NotIsometric`` when the metric pullback misses
    ``metric_tol``, ``Rigid`` when the integral and the shape-operator
    mismatch meet their tolerances, and ``ThresholdsMissed`` otherwise.
    """
    data = pair.node_data(rule)
    if np.any(data.base.y <= 0.0) or np.any(data.tilde.y <= 0.0):
        raise GateFailed("surface leaves the positive-height region")
    _require_gates(data)

    base = data.base
    w = base.w_frame
    wt = data.w_tilde_frame
    s2w = _sigma2_2x2(w)
    s11 = _sigma11_2x2(w, wt)
    factor = data.phi_prime_tilde * base.support + base.phi_prime * data.support_tilde
    integrand = factor * (s2w - s11)
    sq = base.sqrt_det_g
    integral = integrate_surface(rule, sq, integrand)
    area = reduce_sum(rule.weights * sq)
    metric_res = float(data.metric_pullback_residual.max())
    mismatch = float(np.abs(wt - w).max())

    report = dict(
        integral_value=integral,
        integral_rel=abs(integral) / area,
        max_w_mismatch=mismatch,
        max_metric_residual=metric_res,
        sign_factor_min=float((-factor).min()),
        gap_max=float((s11 - s2w).max()),
        gap_min=float((s11 - s2w).min()),
        area=area,
    )
    if metric_res > metric_tol:
        verdict = "NotIsometric"
    elif abs(integral) / area <= integral_rel_tol and mismatch <= w_tol:
        verdict = "Rigid"
    else:
        verdict = "ThresholdsMissed"
    return RigidityReport(verdict=verdict, **report)

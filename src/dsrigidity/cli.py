"""Command-line verification harness.

Commands
--------
check-cone MATRIX [MATRIX2]   cone classification, optional pair gap
geometry --config PATH        pointwise lemma checks on one surface
verify-identities --config P  the four integral identities + symmetry
rigidity --config PATH        rigidity experiment on a pair

Exit codes: 0 all selected checks pass; 1 at least one check failed;
2 invalid input or a hypothesis violation (gate, spacelike bound).

Configuration is flat INI text; see configs/ for canonical examples.
"""

import argparse
import configparser
import functools
import math
import sys

import numpy as np

from . import __version__, ambient, geometry, integrals, kernels, symfun, transport
from .backend import active_backend
from .errors import (
    ChartPole,
    ConfigError,
    CorrespondenceInvalid,
    DimensionMismatch,
    DsRigidityError,
    GateFailed,
    NonSpacelike,
    NotAGraph,
    NotInCone,
    ParseError,
)
from .quadrature import gauss_sphere_rule
from .reports import RunReport, config_digest
from .surfaces import AnalyticSurface, HarmonicMode, SampledGridSurface, node_arrays

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2

DEFAULT_TOLERANCES = {
    "pre_integral": 1e-8,
    "pre_integral_sampled": 1e-4,
    "gauss": 1e-6,
    "newton": 1e-6,
    "newton_sampled": 1e-3,
    "deriv_v": 1e-10,
    "reflection": 1e-8,
    "normal": 1e-10,
    "frame": 1e-10,
    "identity_rel": integrals.IDENTITY_REL_TOL,
    "pointwise": integrals.POINTWISE_TOL,
    "tilde_symmetry": integrals.TILDE_SYMMETRY_TOL,
    "rigidity_integral_rel": integrals.RIGIDITY_INTEGRAL_REL_TOL,
    "w_mismatch": integrals.W_MISMATCH_TOL,
    "metric_pullback": integrals.METRIC_PULLBACK_TOL,
}

GEOMETRY_CHECKS = ("pre_integral", "gauss", "newton", "deriv_v", "reflection", "normal")

#: configured heights stay within |y| <= HEIGHT_BOUND; a boost of rapidity
#: |a| <= 1 moves them by at most |a|, and cosh(177)^4 = 3e306 is a float
HEIGHT_BOUND = 176.0


# -- inline matrix parsing -------------------------------------------------


def parse_matrix(text: str) -> np.ndarray:
    """Parse 'diag 1 -2', 'identity 3', or row text '1 0; 0 1'."""
    text = text.strip()
    if not text:
        raise ParseError("empty matrix input")
    tokens = text.split()
    try:
        if tokens[0].lower() == "diag":
            mat = np.diag([float(t) for t in tokens[1:]])
        elif tokens[0].lower() in ("identity", "eye"):
            mat = np.eye(int(tokens[1]))
        else:
            mat = np.array([[float(v) for v in row.split()] for row in text.split(";")])
    except (ValueError, IndexError) as exc:
        raise ParseError(f"cannot parse matrix from {text!r}") from exc
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ParseError(f"matrix text {text!r} is not square")
    if not np.isfinite(mat).all():
        raise ParseError(f"matrix text {text!r} has a non-finite entry")
    return mat


# -- configuration ---------------------------------------------------------


def _number(section, key, kind=float, default=None, text=None):
    """A finite number from ``[section] key``, or from ``text``, a part of it.

    A missing key gives ``default``, or a ConfigError when there is none;
    malformed and non-finite values raise ConfigError naming the key and
    the bad text.
    """
    where = f"[{section.name}] {key}"
    if text is None:
        text = section.get(key)
        if text is None:
            if default is None:
                raise ConfigError(f"{where} is missing")
            return default
    return _finite(where, text, kind)


def _finite(where, text, kind=float):
    """``kind(text)``, or a ConfigError naming ``where`` and the bad text."""
    try:
        value = kind(text)
    except ValueError:
        raise ConfigError(f"{where}: bad number {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: {text!r} is not finite")
    return value


def _parse_modes(section):
    modes = []
    for chunk in section.get("modes", "").split():
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ConfigError(f"mode {chunk!r} must look like amplitude:l:m")
        numbers = tuple(
            _number(section, "modes", kind, text=part)
            for kind, part in zip((float, int, int), parts)
        )
        try:
            modes.append(HarmonicMode(*numbers))
        except ValueError as exc:
            raise ConfigError(f"[{section.name}] modes: {exc}") from None
    return modes


def _analytic(section, modes=()):
    """The analytic surface of a section, its heights inside the domain."""
    surface = AnalyticSurface(_number(section, "rho0"), modes)
    # |Re Y_l^m| <= sqrt((2l + 1) / (4 pi)) bounds every height
    bound = abs(surface.rho0) + sum(
        abs(m.amplitude) * math.sqrt((2 * m.degree + 1) / (4.0 * math.pi)) for m in modes
    )
    if bound > HEIGHT_BOUND:
        raise ConfigError(
            f"[{section.name}] rho0: heights up to |y| = {bound:.6g} leave the "
            f"domain |y| <= {HEIGHT_BOUND:g}, past which cosh(y)^4 overflows"
        )
    return surface


def _parse_surface(section) -> object:
    kind = section.get("kind", "slice").strip()
    if kind == "slice":
        return _analytic(section)
    if kind == "perturbed_slice":
        return _analytic(section, _parse_modes(section))
    if kind == "sampled":
        res = section.get("resolution", "64x128")
        try:
            n_theta, n_phi = (int(v) for v in res.lower().split("x"))
        except ValueError as exc:
            raise ConfigError(f"bad resolution {res!r}") from exc
        if n_theta < 3 or n_phi < 2 or n_phi % 2:
            raise ConfigError(
                f"[{section.name}] resolution: {res!r} needs n_theta >= 3 "
                "and an even n_phi >= 2"
            )
        if "samples" in section:
            path = section.get("samples")
            try:
                values = np.load(path) if path.endswith(".npy") else np.loadtxt(path)
                surface = SampledGridSurface(values, n_theta, n_phi)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"samples file {path}: {exc}") from exc
            if not np.all(np.abs(surface.values) <= HEIGHT_BOUND):
                raise ConfigError(
                    f"[{section.name}] samples: a height leaves the domain "
                    f"|y| <= {HEIGHT_BOUND:g}, past which cosh(y)^4 overflows"
                )
            return surface
        base = _analytic(section, _parse_modes(section))
        return SampledGridSurface.from_height(base, n_theta, n_phi)
    raise ConfigError(f"unknown surface kind {kind!r}")


def _parse_axis(section):
    text = section.get("axis", "1 0 0")
    axis = np.array([_number(section, "axis", text=v) for v in text.split()])
    norm = np.linalg.norm(axis) if axis.shape == (3,) else 0.0
    if not 0.0 < norm < math.inf:
        raise ConfigError(f"[{section.name}] axis: {text!r} is not a nonzero 3-vector")
    return axis


def _parse_isometry(section) -> ambient.AmbientIsometry:
    kind = section.get("kind", "identity").strip()
    if kind == "identity":
        return ambient.identity_isometry()
    if kind == "boost":
        rapidity = _number(section, "rapidity")
        if abs(rapidity) > 1.0:
            raise ConfigError("rapidity outside the regraph safety range |a| <= 1")
        axis = _parse_axis(section)
        return ambient.boost(rapidity, axis / np.linalg.norm(axis))
    if kind == "rotation":
        return ambient.rotation(_number(section, "angle"), _parse_axis(section))
    if kind == "equator_reflection":
        return ambient.reflect_equator()
    raise ConfigError(f"unknown isometry kind {kind!r}")


class ExperimentConfig:
    def __init__(self, text: str, quad_override=None, tol_overrides=(), seed=None):
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc
        self.digest = config_digest(text)

        if "surface" not in parser:
            raise ConfigError("config needs a [surface] section")
        self.surface = _parse_surface(parser["surface"])
        self.surface2 = (
            _parse_surface(parser["surface2"]) if "surface2" in parser else None
        )
        self.iso = (
            _parse_isometry(parser["isometry"]) if "isometry" in parser else None
        )
        if (self.surface2 is not None or self.iso is not None) and any(
            isinstance(s, SampledGridSurface) for s in (self.surface, self.surface2)
        ):
            raise ConfigError(
                "pair suites need analytic surfaces (kind = slice or "
                "perturbed_slice); a sampled surface has no jets off its grid"
            )
        if self.surface2 is not None and self.iso is not None:
            if self.iso.kind is not ambient.IsometryKind.COMPOSITE:
                raise ConfigError(
                    "a two-surface pair uses the identity correspondence; "
                    "drop the [isometry] section or set kind = identity"
                )

        for name in ("quadrature", "tolerances", "suite"):
            if name not in parser:
                parser.add_section(name)
        quad = parser["quadrature"]
        n_theta = _number(quad, "n_theta", int, default=64)
        n_phi = _number(quad, "n_phi", int, default=128)
        if quad_override:
            n_theta, n_phi = quad_override
        if n_theta < 16 or n_phi < 16:
            raise ConfigError("quadrature degrees must be at least 16")
        self.quad_degrees = (n_theta, n_phi)

        self.tolerances = dict(DEFAULT_TOLERANCES)
        for key in parser["tolerances"]:
            if key not in self.tolerances:
                raise ConfigError(f"unknown tolerance {key!r}")
            self.tolerances[key] = _number(parser["tolerances"], key)
        for key, value in tol_overrides:
            if key not in self.tolerances:
                raise ConfigError(f"unknown tolerance {key!r}")
            self.tolerances[key] = value

        suite = parser["suite"]
        self.checks = tuple(suite.get("checks", " ".join(GEOMETRY_CHECKS)).split())
        unknown = [name for name in self.checks if name not in GEOMETRY_CHECKS]
        if unknown:
            raise ConfigError(
                f"unknown check {unknown[0]!r} in [suite] checks; "
                f"known: {' '.join(GEOMETRY_CHECKS)}"
            )
        self.seed = seed if seed is not None else _number(suite, "seed", int, default=0)

    @functools.cached_property
    def rule(self):
        """The quadrature rule, built on first use: a sampled surface's suite
        and the regraph never integrate."""
        return gauss_sphere_rule(*self.quad_degrees)

    def pair_data(self):
        """Node data of the configured pair at the quadrature nodes."""
        if self.surface2 is not None:
            pair = transport.identity_pair(self.surface, self.surface2)
        elif self.iso is not None:
            pair = transport.isometry_pair(self.surface, self.iso)
        else:
            raise ConfigError("pair suites need an [isometry] or [surface2] section")
        return pair.node_data(self.rule.theta, self.rule.phi)

    def environment(self, command):
        nt, nphi = self.quad_degrees
        return {
            "version": __version__,
            "numpy": np.__version__,
            "backend": active_backend(),
            "config": self.digest,
            "quad": f"{nt}x{nphi}",
            "seed": self.seed,
        }


# -- command implementations ----------------------------------------------


def cmd_check_cone(args) -> int:
    mats = [parse_matrix(t) for t in args.matrix]
    ops = [symfun.SymOperator(m) for m in mats]
    for op, text in zip(ops, args.matrix):
        report = symfun.cone_classify(op)
        print(
            f"{text!r}: {report.label.value} "
            f"(roots {report.roots[0]:.12g}, {report.roots[1]:.12g})"
        )
    if len(ops) == 2:
        gap = symfun.garding_gap(ops[0], ops[1])
        print(
            f"pair: sigma11={gap.sigma11:.12g} geo_mean={gap.geo_mean:.12g} "
            f"gap={gap.gap:.12g} equality={gap.equality}"
        )
    return EXIT_PASS


def _geometry_report(config) -> tuple:
    """Run the single-surface checks; returns (report, hypothesis_ok)."""
    surface = config.surface
    tol = config.tolerances
    report = RunReport("geometry", config.environment("geometry"))
    sampled = isinstance(surface, SampledGridSurface)

    if sampled:
        fields = geometry.evaluate_on_grid(surface)
    else:
        fields = geometry.evaluate_surface(surface, config.rule.theta, config.rule.phi)

    checks = config.checks
    if "pre_integral" in checks:
        if sampled:
            res = float(geometry.sampled_pre_integral_residual(surface, fields).max())
            report.add(
                "pre_integral.sampled",
                "Hess(Phi) = phi' g + <V,nu> h (two-route discretization)",
                res,
                tol["pre_integral_sampled"],
            )
        else:
            report.add(
                "pre_integral",
                "Hess(Phi) = phi' g + <V,nu> h",
                float(fields.pre_integral_residual.max()),
                tol["pre_integral"],
            )
    if "gauss" in checks:
        report.add(
            "gauss_relation",
            "sigma2(W) = (n(n-1)/2)(Kbar - K), n = 2",
            float(fields.gauss_residual.max()),
            tol["gauss"],
        )
        flipped = float(np.abs(fields.sigma2 - (fields.k_norm - 1.0)).max())
        report.add(
            "gauss_relation.flipped_sign",
            "sigma2(W) = (n(n-1)/2)(K - Kbar) [informational]",
            flipped,
            None,
            passed=True,
            note="opposite-sign form, recorded for comparison",
        )
    if "newton" in checks:
        if sampled:
            res = float(geometry.sampled_newton_residual(surface, fields).max())
            report.add(
                "newton_divergence.sampled",
                "div(sigma1(W) Id - W) = 0 (grid-differenced field)",
                res,
                tol["newton_sampled"],
            )
        else:
            report.add(
                "newton_divergence",
                "div(sigma1(W) Id - W) = 0",
                float(fields.newton_residual.max()),
                tol["newton"],
            )
    if "deriv_v" in checks:
        # 100 points, one row each: rho, theta, phi (the chart check does
        # not read phi), then the vectors u and w
        low = [-1.5, 0.2, 0.0] + [-1.0] * 6
        high = [1.5, math.pi - 0.2, 2.0 * math.pi] + [1.0] * 6
        draws = np.random.default_rng(config.seed).uniform(low, high, size=(100, 9))
        residual = ambient.lie_derivative_residual(
            draws[:, 0], draws[:, 1], draws[:, 3:6], draws[:, 6:9]
        )
        report.add(
            "conformal_field",
            "<D_u V, w> + <D_w V, u> = 2 phi' <u, w>",
            float(np.abs(residual).max()),
            tol["deriv_v"],
        )
    if "reflection" in checks and not sampled:
        # the parity check reads W only, so second-order jets suffice
        mirror_jets = node_arrays(surface.reflected().height_jet(fields.theta, fields.phi))
        mirrored = geometry.evaluate_fields(fields.theta, fields.phi, mirror_jets)
        report.add(
            "reflection_parity",
            "W(-y) = -W(y) at corresponding nodes",
            float(np.abs(mirrored.w_frame + fields.w_frame).max()),
            tol["reflection"],
        )
    if "normal" in checks:
        report.add(
            "normal_unit",
            "<nu, nu> = -1, future-directed",
            float(fields.nu_norm_residual.max()),
            tol["normal"],
        )
        report.add(
            "normal_tangency",
            "<nu, X_i> = 0",
            float(fields.nu_tangency_residual.max()),
            tol["normal"],
        )
        gram = kernels.congruence(np.moveaxis(fields.frame, 0, -1), np.moveaxis(fields.g, 0, -1))
        report.add(
            "frame_orthonormal",
            "g(e_a, e_b) = delta_ab",
            max(float(np.abs(gram[a][b] - float(a == b)).max()) for a, b in np.ndindex(2, 2)),
            tol["frame"],
        )

    # curvature gate: a hypothesis on the surface, not a lemma check
    gate_ok, label = geometry.curvature_gate_fields(fields)
    report.add(
        "curvature_gate",
        "sigma2(W) > 0 everywhere, one cone component",
        float(-fields.sigma2.min()) if not gate_ok else 0.0,
        geometry.GATE_SIGMA2_TOL,
        passed=gate_ok,
        note=f"cone label {label.value}" if label else "gate failed",
    )

    # the two candidate values of the radial Christoffel contraction at the
    # highest point (informational; the parity argument is sign-robust)
    top = int(np.argmax(fields.y))
    ytop = float(fields.y[top])
    report.add(
        "radial_christoffel_contraction",
        "g^{ik} Gamma^rho_{kj} at the top point",
        None,
        None,
        passed=True,
        note=(
            f"computed tanh(rho)={math.tanh(ytop):.12g}; "
            f"cosh(rho)sinh(rho)={math.cosh(ytop) * math.sinh(ytop):.12g}"
        ),
    )
    return report, gate_ok


def cmd_geometry(args) -> int:
    config = _load_config(args)
    if config.surface2 is not None or config.iso is not None:
        raise ConfigError("geometry is a single-surface suite; drop the pair sections")
    report, gate_ok = _geometry_report(config)
    _emit(report, args.report)
    if not gate_ok:
        return EXIT_INVALID
    return EXIT_PASS if report.overall_pass else EXIT_CHECK_FAILED


def cmd_verify_identities(args) -> int:
    config = _load_config(args)
    tol = config.tolerances
    data = config.pair_data()
    report = RunReport("verify-identities", config.environment("verify-identities"))
    idents, sym = integrals.verify_identities(
        data,
        config.rule,
        rel_tol=tol["identity_rel"],
        metric_tol=tol["metric_pullback"],
    )
    for rep in idents:
        report.add(
            f"integral_identity.{rep.label}",
            "int D(.) fac Hess(potential) = int (n-1) fac' sigma-form",
            rep.residual_rel,
            tol["identity_rel"],
            note=rep.sign_note,
        )
        report.add(
            f"pointwise_identity.{rep.label}",
            "sum D_ij (phi~' phi' g_ij + phi~' h_ij <V,nu>) = sigma-form",
            rep.pointwise_max,
            tol["pointwise"],
        )
    report.add(
        "tilde_symmetry",
        "int D(W) phi~' Hess(Phi) is symmetric under the tilde swap",
        sym,
        tol["tilde_symmetry"],
    )
    _emit(report, args.report)
    return EXIT_PASS if report.overall_pass else EXIT_CHECK_FAILED


def cmd_rigidity(args) -> int:
    config = _load_config(args)
    tol = config.tolerances
    report = RunReport("rigidity", config.environment("rigidity"))
    result = integrals.rigidity_experiment(
        config.pair_data(),
        config.rule,
        w_tol=tol["w_mismatch"],
        integral_rel_tol=tol["rigidity_integral_rel"],
        metric_tol=tol["metric_pullback"],
    )
    report.add(
        "rigidity_verdict",
        "vanishing rigidity integral forces W = W~",
        None,
        None,
        passed=result.verdict == "Rigid",
        note=f"verdict {result.verdict}",
    )
    report.add(
        "rigidity_integral",
        "int (phi~' <V,nu> + phi' <V~,nu~>) (sigma2(W) - sigma11(W,W~)) = 0",
        result.integral_rel,
        tol["rigidity_integral_rel"],
        passed=result.integral_pass,
        note=f"area {result.area:.12g}",
    )
    report.add(
        "w_mismatch",
        "W = W~ under the correspondence",
        result.max_w_mismatch,
        tol["w_mismatch"],
        passed=result.w_mismatch_pass,
    )
    report.add(
        "metric_pullback",
        "g = f* g~ (local isometry)",
        result.max_metric_residual,
        tol["metric_pullback"],
    )
    report.add(
        "support_combination_sign",
        "phi~' <V,nu> + phi' <V~,nu~> < 0 on all of M",
        None,
        None,
        passed=result.sign_factor_min > 0.0,
        note=f"min of the negated factor {result.sign_factor_min:.6g}",
    )
    report.add(
        "cone_gap_sign",
        "sigma11(W, W~) - sigma2(W) >= 0 for matched sigma2",
        max(0.0, -result.gap_min),
        integrals.CONE_GAP_TOL,
        passed=result.cone_gap_pass,
        note=f"gap range [{result.gap_min:.3e}, {result.gap_max:.3e}]",
    )
    _emit(report, args.report)
    if result.verdict == "Rigid" and report.overall_pass:
        return EXIT_PASS
    return EXIT_CHECK_FAILED


# -- plumbing ---------------------------------------------------------------


def _load_config(args) -> ExperimentConfig:
    if not args.config:
        raise ConfigError("this command needs --config PATH")
    try:
        with open(args.config, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    quad = None
    if args.quad:
        try:
            quad = tuple(int(v) for v in args.quad.lower().split("x"))
        except ValueError as exc:
            raise ConfigError(f"bad --quad value {args.quad!r}") from exc
        if len(quad) != 2:
            raise ConfigError(f"bad --quad value {args.quad!r}")
    tols = []
    for item in args.tol or ():
        if "=" not in item:
            raise ConfigError(f"--tol expects NAME=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        tols.append((name.strip(), _finite(f"--tol {item}", value)))
    return ExperimentConfig(text, quad_override=quad, tol_overrides=tols, seed=args.seed)


def _emit(report: RunReport, path):
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(report.render())
        print(report.summary())
    else:
        sys.stdout.write(report.render())
        print(report.summary())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsrigidity",
        description="numerical verification lab for spacelike hypersurface rigidity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cone = sub.add_parser("check-cone", help="classify symmetric matrices")
    cone.add_argument("matrix", nargs="+", help="'diag 1 -2', 'identity 2', or '1 0; 0 1'")
    cone.set_defaults(func=cmd_check_cone)

    for name, func in (
        ("geometry", cmd_geometry),
        ("verify-identities", cmd_verify_identities),
        ("rigidity", cmd_rigidity),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=False)
        p.add_argument("--quad", help="override quadrature degrees, e.g. 64x128")
        p.add_argument("--tol", action="append", help="override NAME=VALUE")
        p.add_argument("--report", help="write the machine-readable report here")
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, DimensionMismatch, NotInCone) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (GateFailed, NonSpacelike, NotAGraph, ChartPole, CorrespondenceInvalid) as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except DsRigidityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

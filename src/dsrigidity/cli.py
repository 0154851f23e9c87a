"""Command-line verification harness.

Commands
--------
check-cone MATRIX [MATRIX2]   cone classification, optional pair gap
geometry --config PATH        pointwise lemma checks on one surface
verify-identities --config P  the four integral identities + symmetry
rigidity --config PATH        rigidity experiment on a pair

The three suites share one runner, ``run_suite``: it loads the config,
adds the suite's records to a report named after the command, writes the
report and its summary, and maps the result to an exit code.

Exit codes: 0 all checks pass; 1 at least one check failed;
2 invalid input (ConfigError and the other package errors) or a
HypothesisViolation (curvature or height gate, spacelike bound, chart pole,
non-graph image, non-isometric correspondence).

Configuration is flat INI text, read without ``%`` interpolation, so each
value is the raw text after its ``=``; see configs/ for canonical examples.
"""

import argparse
import configparser
import ctypes
import functools
import math
import platform
import sys
from contextlib import nullcontext

import numpy as np

from . import __version__, ambient, geometry, integrals, kernels, symfun, transport
from .backend import active_backend
from .errors import ConfigError, DsRigidityError, HypothesisViolation
from .quadrature import gauss_sphere_rule
from .reports import RunReport, config_digest
from .surfaces import AnalyticSurface, HarmonicMode, SampledGridSurface, check_grid

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
    "identity_rel": 1e-6,
    "pointwise": 1e-8,
    "tilde_symmetry": 1e-6,
    "rigidity_integral_rel": 1e-8,
    "w_mismatch": 1e-6,
    "metric_pullback": 1e-8,
}

#: configured heights stay within |y| <= HEIGHT_BOUND; a boost of rapidity
#: |a| <= 1 moves them by at most |a|, and cosh(177)^4 = 3e306 is a float
HEIGHT_BOUND = 176.0

#: larger matrix entries exit 2: at 1e75 sigma2 of an 8x8 operator stays below
#: 6e151, so the pair gap's product sigma2(W) sigma2(W~) is a float
MAX_ENTRY = 1e75

#: grids of more nodes exit 2: at a traced peak of about 1.2 KB a node, 512x1024 takes 0.6 GB
MAX_NODES = 512 * 1024


def _check_nodes(where, n_theta, n_phi):
    """ConfigError naming ``where`` for a grid past MAX_NODES, before any allocation."""
    if n_theta * n_phi > MAX_NODES:
        raise ConfigError(f"{where}: {n_theta}x{n_phi} has {n_theta * n_phi} nodes, "
                          f"more than the {MAX_NODES} (512x1024) a run may allocate")


# -- inline matrix parsing -------------------------------------------------


def parse_matrix(text: str) -> np.ndarray:
    """The symmetric part (M + M^T) / 2 of the matrix M that 'diag 1 -2',
    'identity 3' or row text '1 0; 0 1' names; M must be square and finite,
    of a dimension in ``symfun.DIMENSIONS`` and entries at most MAX_ENTRY."""
    text = text.strip()
    if not text:
        raise ConfigError("empty matrix input")
    tokens = text.split()
    kind = tokens[0].lower()
    rows = None if kind in ("diag", "identity") else text.split(";")
    try:
        n = len(rows) if rows else len(tokens) - 1 if kind == "diag" else int(tokens[1])
        if kind == "identity" and len(tokens) != 2:
            raise ValueError(text)
        if n not in symfun.DIMENSIONS:  # before n^2 entries are allocated
            raise ConfigError(f"matrix text {text!r} has dimension {n}, outside 2..8")
        if rows:
            mat = np.array([[float(v) for v in row.split()] for row in rows])
        else:
            mat = np.diag([float(t) for t in tokens[1:]]) if kind == "diag" else np.eye(n)
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"cannot parse matrix from {text!r}") from exc
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError(f"matrix text {text!r} is not square")
    if not np.isfinite(mat).all():
        raise ConfigError(f"matrix text {text!r} has a non-finite entry")
    if np.abs(mat).max() > MAX_ENTRY:
        raise ConfigError(f"matrix text {text!r} has an entry larger than {MAX_ENTRY:g} in size")
    return 0.5 * (mat + mat.T)


# -- configuration ---------------------------------------------------------


def _number(section, key, kind=float, default=None):
    """A finite number from ``[section] key`` (``_finite``); a missing key
    gives ``default``, or a ConfigError when there is none."""
    where = f"[{section.name}] {key}"
    text = section.get(key)
    if text is None and default is None:
        raise ConfigError(f"{where} is missing")
    return default if text is None else _finite(where, text, kind)


def _finite(where, text, kind=float):
    """``kind(text)``, or a ConfigError naming ``where`` and the bad text."""
    try:
        value = kind(text)
    except ValueError:
        raise ConfigError(f"{where}: bad number {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: {text!r} is not finite")
    return value


def _grid(where, text):
    """``(n_theta, n_phi)`` from 'NTHETAxNPHI' text, or a ConfigError naming ``where``."""
    try:
        n_theta, n_phi = (int(v) for v in text.lower().split("x"))
    except ValueError:
        raise ConfigError(f"bad {where} value {text!r}") from None
    return n_theta, n_phi


def _parse_modes(section):
    where = f"[{section.name}] modes"
    modes = []
    for chunk in section.get("modes", "").split():
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{where}: {chunk!r} must look like amplitude:l:m")
        numbers = tuple(_finite(where, part, kind) for kind, part in zip((float, int, int), parts))
        try:
            modes.append(HarmonicMode(*numbers))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return modes


def _analytic(section, modes):
    """The analytic surface of a section, its heights inside the domain."""
    surface = AnalyticSurface(_number(section, "rho0"), modes)
    bound = surface.height_bound()
    if bound > HEIGHT_BOUND:
        raise ConfigError(
            f"[{section.name}] rho0: heights up to |y| = {bound:.6g} leave the "
            f"domain |y| <= {HEIGHT_BOUND:g}, past which cosh(y)^4 overflows"
        )
    return surface


def _parse_surface(section) -> object:
    kind = section.get("kind", "slice").strip()
    if kind in ("slice", "perturbed_slice"):
        return _analytic(section, _parse_modes(section))
    if kind == "sampled":
        where = f"[{section.name}] resolution"
        n_theta, n_phi = _grid(where, section.get("resolution", "64x128"))
        check_grid(where, n_theta, n_phi)
        _check_nodes(where, n_theta, n_phi)
        if "samples" in section:
            path, key = section.get("samples"), f"[{section.name}] samples"
            try:
                values = np.load(path) if path.endswith(".npy") else np.loadtxt(path, ndmin=2)
                if values.shape != (n_theta, n_phi):
                    shape = "x".join(map(str, values.shape))
                    raise ConfigError(f"{key}: {path!r} holds a {shape} grid, "
                                      f"but {where} is {n_theta}x{n_phi}")
                surface = SampledGridSurface(values)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"{key}: {exc}") from exc
            if not np.all(np.abs(surface.values) <= HEIGHT_BOUND):
                raise ConfigError(f"{key}: a height leaves the domain "
                                  f"|y| <= {HEIGHT_BOUND:g}, past which cosh(y)^4 overflows")
            return surface
        base = _analytic(section, _parse_modes(section))
        return SampledGridSurface.from_height(base, n_theta, n_phi)
    raise ConfigError(f"[{section.name}] kind: unknown surface kind {kind!r}")


def _parse_axis(section):
    text = section.get("axis", "1 0 0")
    axis = np.array([_finite(f"[{section.name}] axis", v) for v in text.split()])
    if axis.shape != (3,) or not axis.any():
        raise ConfigError(f"[{section.name}] axis: {text!r} is not a nonzero 3-vector")
    return axis


def _parse_isometry(section) -> ambient.AmbientIsometry:
    kind = section.get("kind", "identity").strip()
    if kind == "identity":
        return ambient.identity_isometry()
    if kind == "boost":
        rapidity = _number(section, "rapidity")
        if abs(rapidity) > 1.0:
            raise ConfigError(f"[{section.name}] rapidity: {rapidity:g} is outside |a| <= 1, the "
                              f"cap that keeps image heights within |y| <= {HEIGHT_BOUND + 1:g}")
        return ambient.boost(rapidity, ambient.unit_vector(_parse_axis(section)))
    if kind == "rotation":
        return ambient.rotation(_number(section, "angle"), _parse_axis(section))
    if kind == "equator_reflection":
        return ambient.reflect_equator()
    raise ConfigError(f"[{section.name}] kind: unknown isometry kind {kind!r}")


def _parse_error_text(text, exc):
    """One line for configparser's read error ``exc``: its line and what is wrong there."""
    lineno = getattr(exc, "lineno", None) or exc.errors[0][0]
    line = text.split("\n")[lineno - 1].strip()
    reason = {
        configparser.MissingSectionHeaderError: "comes before any [section] header",
        configparser.DuplicateSectionError: "repeats a section header",
        configparser.DuplicateOptionError: "repeats a key of its section",
    }.get(type(exc), "is neither a [section] header nor a key = value line")
    return f"line {lineno} {line!r} {reason}"


class ExperimentConfig:
    def __init__(self, text: str, quad_override=None):
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config: {_parse_error_text(text, exc)}") from None
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
        if self.surface2 is not None and (
            parser.get("isometry", "kind", fallback="identity").strip() != "identity"
        ):
            raise ConfigError(
                "a two-surface pair uses the identity correspondence; "
                "drop the [isometry] section or set kind = identity"
            )

        for name in ("quadrature", "tolerances"):
            if name not in parser:
                parser.add_section(name)
        quad = parser["quadrature"]
        n_theta = _number(quad, "n_theta", int, default=64)
        n_phi = _number(quad, "n_phi", int, default=128)
        where = "[quadrature] n_theta, n_phi"
        if quad_override:
            n_theta, n_phi = quad_override
            where = "--quad"
        if n_theta < 16 or n_phi < 16:
            raise ConfigError(f"{where}: quadrature degrees {n_theta}x{n_phi} must be at least 16")
        _check_nodes(where, n_theta, n_phi)
        self.quad_degrees = (n_theta, n_phi)

        self.tolerances = dict(DEFAULT_TOLERANCES)
        for key in parser["tolerances"]:
            if key not in self.tolerances:
                raise ConfigError(f"[tolerances]: unknown tolerance {key!r}")
            value = _number(parser["tolerances"], key)
            if value < 0.0:
                raise ConfigError(f"[tolerances] {key}: {value:g} is negative; a tolerance is >= 0")
            self.tolerances[key] = value

    @property
    def rule(self):
        """The quadrature rule, looked up on use: a sampled surface's suite
        and the regraph never integrate."""
        return gauss_sphere_rule(*self.quad_degrees)

    def pair_data(self):
        """Node data of the configured pair at the quadrature nodes."""
        if self.surface2 is not None:
            pair = transport.IdentityCorrespondence(self.surface, self.surface2)
        elif self.iso is not None:
            pair = transport.IsometryCorrespondence(self.surface, self.iso)
        else:
            raise ConfigError("pair suites need an [isometry] or [surface2] section")
        rule = self.rule
        return pair.node_data(rule.theta, rule.phi, rule)

    def environment(self):
        nt, nphi = self.quad_degrees
        return {
            "version": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "backend": active_backend(),
            "config": self.digest,
            "quad": f"{nt}x{nphi}",
        }


# -- command implementations ----------------------------------------------


def cmd_check_cone(args) -> int:
    ops = [parse_matrix(t) for t in args.matrix]
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


def _geometry_records(config, report) -> bool:
    """Add the single-surface checks; returns whether the curvature gate holds."""
    if config.surface2 is not None or config.iso is not None:
        raise ConfigError("geometry is a single-surface suite; drop the pair sections")
    surface = config.surface
    tol = config.tolerances
    sampled = isinstance(surface, SampledGridSurface)

    if sampled:
        fields = geometry.evaluate_on_grid(surface)
        res = float(geometry.sampled_pre_integral_residual(surface, fields).max())
        report.add(
            "pre_integral.sampled",
            "Hess(Phi) = phi' g + <V,nu> h (two-route discretization)",
            res,
            tol["pre_integral_sampled"],
        )
    else:
        rule = config.rule
        fields = geometry.evaluate_surface(surface, rule)
        report.add(
            "pre_integral",
            "Hess(Phi) = phi' g + <V,nu> h",
            float(fields.pre_integral_residual.max()),
            tol["pre_integral"],
        )
    report.add(
        "gauss_relation",
        "sigma2(W) = (n(n-1)/2)(Kbar - K), n = 2",
        float(fields.gauss_residual.max()),
        tol["gauss"],
    )
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
    # 100 points of one fixed stream, one column each: rho, theta, phi (the
    # chart check does not read phi), then the vectors u and w
    low = [-1.5, 0.2, 0.0] + [-1.0] * 6
    high = [1.5, math.pi - 0.2, 2.0 * math.pi] + [1.0] * 6
    draws = np.random.default_rng(0).uniform(low, high, size=(100, 9)).T
    residual = ambient.lie_derivative_residual(draws[0], draws[1], draws[3:6], draws[6:9])
    report.add(
        "conformal_field",
        "<D_u V, w> + <D_w V, u> = 2 phi' <u, w>",
        float(np.abs(residual).max()),
        tol["deriv_v"],
    )
    if not sampled:
        # the parity check reads W only, so second-order jets suffice
        m = surface.reflected().height_jet(*rule.mesh)
        mirrored = geometry.evaluate_fields(rule.theta, rule.phi, m, rule)
        report.add(
            "reflection_parity",
            "W(-y) = -W(y) at corresponding nodes",
            float(np.abs(mirrored.w_frame + fields.w_frame).max()),
            tol["reflection"],
        )
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
    report.add(
        "frame_orthonormal",
        "g(e_a, e_b) = delta_ab",
        float(kernels.orthonormality_residual(fields.frame, fields.g).max()),
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
    return gate_ok


def _identity_records(config, report) -> None:
    """Add the four integral identities and the tilde symmetry (hypotheses raise)."""
    tol = config.tolerances
    idents, sym = integrals.verify_identities(config.pair_data(), config.rule,
                                              metric_tol=tol["metric_pullback"])
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


def _rigidity_records(config, report) -> None:
    """Add the rigidity verdict, failing unless Rigid, and its inputs (hypotheses raise)."""
    tol = config.tolerances
    result = integrals.rigidity_experiment(
        config.pair_data(),
        config.rule,
        w_tol=tol["w_mismatch"],
        integral_tol=tol["rigidity_integral_rel"],
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


SUITES = {
    "geometry": _geometry_records,
    "verify-identities": _identity_records,
    "rigidity": _rigidity_records,
}


def run_suite(args) -> int:
    """Run suite ``args.command`` on its config, write the report (to ``--report``,
    opened before the run, or stdout) and its summary; exit 2 when a recorded
    hypothesis fails (the geometry suite returns False for its curvature gate;
    the pair suites return None and raise instead, leaving ``--report`` empty),
    1 when a check fails, else 0."""
    config = _load_config(args)
    try:
        out = open(args.report, "w", encoding="utf-8") if args.report else nullcontext(sys.stdout)
    except OSError as exc:
        raise ConfigError(f"--report: cannot write {args.report!r}: {exc.strerror}") from None
    report = RunReport(args.command, config.environment())
    with out as handle:
        hypotheses_hold = SUITES[args.command](config, report)
        handle.write(report.render())
    print(report.summary())
    if hypotheses_hold is False:
        return EXIT_INVALID
    return EXIT_PASS if report.overall_pass else EXIT_CHECK_FAILED


# -- plumbing ---------------------------------------------------------------


def _load_config(args) -> ExperimentConfig:
    if not args.config:
        raise ConfigError("this command needs --config PATH")
    try:
        with open(args.config, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    quad = _grid("--quad", args.quad) if args.quad else None
    return ExperimentConfig(text, quad_override=quad)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="dsrigidity",
        description="numerical verification lab for spacelike hypersurface rigidity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cone = sub.add_parser("check-cone", help="classify symmetric matrices")
    cone.add_argument("matrix", nargs="+", help="'diag 1 -2', 'identity 2', or '1 0; 0 1'")
    cone.set_defaults(func=cmd_check_cone)

    for name in SUITES:
        p = sub.add_parser(name)
        p.add_argument("--config", required=False, help="INI config; [tolerances] sets tolerances")
        p.add_argument("--quad", help="override quadrature degrees, e.g. 64x128")
        p.add_argument("--report", help="write the machine-readable report here")
        p.set_defaults(func=run_suite)
    return parser


@functools.cache
def _keep_heap_mapped() -> None:
    """Keep freed heap memory mapped for the life of the process, where glibc's
    ``mallopt`` is found.  Otherwise glibc gives the top of the heap, where
    numpy's arrays live, back to the kernel after each verdict (and partway
    through one), and the next one faults every page in again.  Either
    setting alone freezes glibc's dynamic mmap threshold at 128 KiB, and every
    larger array would be a fresh mapping, so both are set."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 * 2**20)  # M_MMAP_THRESHOLD: arrays up to glibc's 32 MiB cap from the heap
    mallopt(-1, -1)  # M_TRIM_THRESHOLD: never trim the heap top


def main(argv=None) -> int:
    _keep_heap_mapped()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except DsRigidityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

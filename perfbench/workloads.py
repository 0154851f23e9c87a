"""Running one benchmark case in-process and grading its outcome.

CLI cases call ``dsrigidity.cli.main`` with stdout and stderr captured;
regraph cases parse the config with ``cli.ExperimentConfig`` and call
``transport.transform_surface``.  Both are looked up on their modules at
call time, so a span recorder installed on those modules sees the call.
"""

import contextlib
import io
import math
import re
import traceback
from dataclasses import dataclass

import numpy as np

from dsrigidity import cli, transport
from inputs import REGRAPH_ROUNDTRIP_TOL

DEFAULT_SIZES = {
    "pair_analytic": (32, 64),
    "sampled_grid": (40, 80),
    "regraph_image": (32, 64),
}
WARMUP_SIZES = {
    "pair_analytic": (16, 16),
    "sampled_grid": (16, 32),
    "regraph_image": (16, 32),
}
SURFACES_PER_VERDICT = {"pair_analytic": 2, "sampled_grid": 1, "regraph_image": 1}
RESIDUAL_FLOOR = 1e-16
_RECORD = re.compile(r"^record .* residual=(\S+) tol=(\S+) pass=")


@dataclass
class Result:
    """What one call returned: exit code, output bytes, uncaught error."""

    rc: object
    stdout: bytes
    stderr: str
    error: object = None
    regraph: object = None  # (surface, isometry, sampled image) for regraph cases


def execute(case):
    """Run ``case`` once; exceptions are caught and returned as ``error``."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if case.command == "regraph":
                with open(case.config_path, encoding="utf-8") as handle:
                    config = cli.ExperimentConfig(handle.read())
                image, _ = transport.transform_surface(
                    config.surface, config.iso, regraph_grid=case.size
                )
                return Result(None, image.values.tobytes(), "", None,
                              (config.surface, config.iso, image))
            argv = [case.command, "--config", case.config_path]
            if case.command != "geometry":
                argv += ["--quad", f"{case.size[0]}x{case.size[1]}"]
            rc = cli.main(argv)
    except Exception as exc:  # the benchmark records the failure and goes on
        tail = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return Result(None, out.getvalue().encode(), err.getvalue(), tail)
    return Result(rc, out.getvalue().encode(), err.getvalue())


def regraph_roundtrip_error(surface, iso, image):
    """Largest |rho - height| after mapping each regraphed point back."""
    tt, pp = np.meshgrid(image.theta_grid, image.phi_grid, indexing="ij")
    t = image.values
    ch = np.cosh(t)
    x = np.stack([
        np.sinh(t), ch * np.sin(tt) * np.cos(pp), ch * np.sin(tt) * np.sin(pp), ch * np.cos(tt)
    ])
    xs = np.einsum("ab,b...->a...", iso.inverse().matrix, x)
    r = np.sqrt(xs[1] ** 2 + xs[2] ** 2 + xs[3] ** 2)
    theta = np.arccos(np.clip(xs[3] / r, -1.0, 1.0))
    phi = np.arctan2(xs[2], xs[1]) % (2.0 * math.pi)
    return float(np.abs(np.arcsinh(xs[0]) - surface.height(theta, phi)).max())


def _headroom(tol, residual):
    return math.log10(tol / max(residual, RESIDUAL_FLOOR))


def report_headroom(stdout):
    """Minimum log10(tol / residual) over the graded records of a report."""
    values = []
    for line in stdout.decode().splitlines():
        match = _RECORD.match(line)
        if match and "-" not in match.groups():
            values.append(_headroom(float(match[2]), float(match[1])))
    return min(values) if values else None


def grade(case, result):
    """(failure reason or None, tolerance headroom in decades or None)."""
    if result.error is not None:
        return f"uncaught {result.error}", None
    if case.command == "regraph":
        surface, iso, image = result.regraph
        if not np.all(np.isfinite(image.values)):
            return "regraphed heights are not finite", None
        err = regraph_roundtrip_error(surface, iso, image)
        if not err <= REGRAPH_ROUNDTRIP_TOL:
            return f"round-trip error {err:.3e} exceeds {REGRAPH_ROUNDTRIP_TOL:g}", None
        return None, _headroom(REGRAPH_ROUNDTRIP_TOL, err)
    if result.rc != case.expect_rc:
        failed_checks = [
            line for line in result.stdout.decode().splitlines() if line.startswith("[FAIL]")
        ]
        detail = result.stderr.strip().splitlines()[-1:] + failed_checks or ["no message"]
        return f"exit {result.rc}, expected {case.expect_rc} ({'; '.join(detail)})", None
    text = result.stderr if case.expect_rc == 2 else result.stdout.decode()
    if case.expect_text not in text:
        return f"output lacks {case.expect_text!r}", None
    return None, report_headroom(result.stdout) if case.expect_rc == 0 else None


def same_output(a, b):
    """True when two runs of one case gave identical exit code and bytes."""
    return (a.rc, a.stdout, a.stderr, a.error) == (b.rc, b.stdout, b.stderr, b.error)

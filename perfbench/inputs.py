"""Seeded benchmark inputs, each written as a config file with its expected outcome.

Every input is drawn from ``numpy.random.default_rng([seed, workload id,
index])``, so input ``i`` of a seed is the same however many inputs a run
consumes.  The expected outcome is fixed by how the input is built, never by
running the program:

* isometric pairs (a perturbed slice and its image under a boost or a
  rotation) must pass both ``verify-identities`` and ``rigidity``;
* non-isometric controls (``[surface2]`` at a different base height) must
  make ``rigidity`` exit 1 with verdict NotIsometric and
  ``verify-identities`` exit 2 with a hypothesis violation;
* sampled surfaces must pass all six ``geometry`` checks;
* regraphed images must map back onto the source surface within
  ``REGRAPH_ROUNDTRIP_TOL``.

Ranges keep every input inside the hypotheses of the checks it feeds: the
boost rapidity stays below ``rho0 - 0.2`` (at most 0.5), so the image keeps a
positive height (modes move the height by at most 0.1 * max|Y_lm| < 0.08),
and sampled surfaces use modes with l <= 2 and amplitude <= 0.01, so the
second-order stencil error at 40x80 stays under the pinned sampled
tolerances: two l = 2 modes of amplitude 0.01 on rho0 = 0.5 leave 0.09
decades of headroom there, while an l = 3, m = 2 mode of amplitude 0.05
reaches a Newton residual of 7e-3 even at 64x128, against a tolerance of
1e-3.
"""

import math
from dataclasses import dataclass

import numpy as np

WORKLOAD_IDS = {"pair_analytic": 1, "sampled_grid": 2, "regraph_image": 3}
CONTROL_SHARE = 0.25
REGRAPH_ROUNDTRIP_TOL = 1e-9
GEOMETRY_CHECKS = "pre_integral gauss newton deriv_v reflection normal"


@dataclass(frozen=True)
class Case:
    """One verdict: which command runs on which input, and what it must give.

    For CLI commands ``expect_rc`` is the exit code and ``expect_text`` a
    string the output must contain (stderr for exit code 2, stdout
    otherwise).  Regraph cases have ``expect_rc = None`` and are graded by
    the round-trip bound.
    """

    input_name: str
    command: str
    config_path: str
    size: tuple
    expect_rc: object
    expect_text: str


def _num(x) -> str:
    return repr(float(x))


def _modes(rng, max_degree, min_amp, max_amp):
    """One or two distinct (amplitude, l, m) modes with random signs."""
    count = int(rng.integers(1, 3))
    modes = {}
    while len(modes) < count:
        degree = int(rng.integers(1, max_degree + 1))
        order = int(rng.integers(0, degree + 1))
        amp = rng.uniform(min_amp, max_amp) * (1.0 if rng.random() < 0.5 else -1.0)
        modes.setdefault((degree, order), amp)
    return " ".join(f"{_num(a)}:{l}:{m}" for (l, m), a in modes.items())


def _axis(rng):
    v = rng.normal(size=3)
    return " ".join(_num(x) for x in v / np.linalg.norm(v))


def _surface_section(name, rho0, modes):
    return f"[{name}]\nkind = perturbed_slice\nrho0 = {_num(rho0)}\nmodes = {modes}\n"


def _isometric_pair(rng):
    rho0 = rng.uniform(0.5, 0.8)
    text = _surface_section("surface", rho0, _modes(rng, 3, 0.005, 0.05))
    if rng.random() < 0.5:
        limit = min(0.5, rho0 - 0.2)
        text += (
            "\n[isometry]\nkind = boost\n"
            f"rapidity = {_num(rng.uniform(-limit, limit))}\naxis = {_axis(rng)}\n"
        )
    else:
        text += (
            "\n[isometry]\nkind = rotation\n"
            f"angle = {_num(rng.uniform(0.0, 2.0 * math.pi))}\naxis = {_axis(rng)}\n"
        )
    return text


def _control_pair(rng):
    rho0 = rng.uniform(0.5, 0.8)
    rho2 = rng.uniform(0.5, 0.8)
    while abs(rho2 - rho0) < 0.05:
        rho2 = rng.uniform(0.5, 0.8)
    return (
        _surface_section("surface", rho0, _modes(rng, 3, 0.005, 0.05))
        + "\n"
        + _surface_section("surface2", rho2, _modes(rng, 3, 0.005, 0.05))
    )


def _sampled(rng, size):
    return (
        f"[surface]\nkind = sampled\nresolution = {size[0]}x{size[1]}\n"
        f"rho0 = {_num(rng.uniform(0.5, 0.8))}\nmodes = {_modes(rng, 2, 0.002, 0.01)}\n"
        f"\n[suite]\nchecks = {GEOMETRY_CHECKS}\nseed = {int(rng.integers(0, 2**31))}\n"
    )


def make_input(workload, seed, index, size):
    """Config text of input ``index`` and the cases that run on it.

    Returns ``(text, cases)`` where each case still needs the config path;
    ``cases`` is a list of ``(command, expect_rc, expect_text)``.
    """
    rng = np.random.default_rng([seed, WORKLOAD_IDS[workload], index])
    if workload == "pair_analytic":
        if rng.random() < CONTROL_SHARE:
            return _control_pair(rng), [
                ("verify-identities", 2, "hypothesis violation:"),
                ("rigidity", 1, 'note="verdict NotIsometric"'),
            ]
        return _isometric_pair(rng), [
            ("verify-identities", 0, "verdict pass=true"),
            ("rigidity", 0, 'note="verdict Rigid"'),
        ]
    if workload == "sampled_grid":
        return _sampled(rng, size), [("geometry", 0, "verdict pass=true")]
    if workload == "regraph_image":
        return _isometric_pair(rng), [("regraph", None, "")]
    raise ValueError(f"unknown workload {workload!r}")


def write_input(workload, seed, index, size, directory, name=None):
    """Write input ``index`` under ``directory``; returns its cases."""
    text, specs = make_input(workload, seed, index, size)
    name = name or f"{workload}-s{seed}-i{index:03d}"
    path = directory / f"{name}.cfg"
    path.write_text(text, encoding="utf-8")
    return [
        Case(name, command, str(path), tuple(size), rc, expect)
        for command, rc, expect in specs
    ]

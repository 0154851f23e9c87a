import contextlib
import ctypes
import io
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsrigidity import cli, errors
from dsrigidity.errors import ConfigError

REPO = Path(__file__).resolve().parents[1]


def run(argv):
    return cli.main(argv)


def test_successive_main_calls_share_no_options(tmp_path, capsys):
    # the parser is built once per process; each call parses its own options
    assert cli.build_parser() is cli.build_parser()
    cfg = str(REPO / "configs" / "geometry.cfg")
    quads = []
    for k, options in enumerate((["--quad", "16x32"], ["--quad", "20x40"], [])):
        path = tmp_path / f"report{k}.txt"
        assert run(["geometry", "--config", cfg, "--report", str(path)] + options) == 0
        quads.append(re.search(r'^meta quad="(\S+)"$', path.read_text(encoding="utf-8"), re.M)[1])
    capsys.readouterr()
    assert quads == ["16x32", "20x40", "64x128"]


def test_check_cone_single(capsys):
    assert run(["check-cone", "identity 2"]) == 0
    out = capsys.readouterr().out
    assert "PlusCone" in out
    assert run(["check-cone", "diag 1 -2"]) == 0
    assert "Outside" in capsys.readouterr().out


def test_check_cone_pair_gap(capsys):
    assert run(["check-cone", "identity 2", "diag 2 1"]) == 0
    out = capsys.readouterr().out
    assert "gap=0.0857864376" in out


def test_check_cone_rejects_garbage(capsys):
    assert run(["check-cone", "not a matrix"]) == 2
    assert run(["check-cone", "1 2; 3"]) == 2
    assert run(["check-cone", "diag 1 2", "identity 3"]) == 2  # dimension mismatch
    capsys.readouterr()
    nine = "; ".join(" ".join("1" if i == j else "0" for j in range(9)) for i in range(9))
    for text, message in (
        (nine, f"matrix text {nine!r} has dimension 9, outside 2..8"),
        ("1 2 3; 4 5 6", "matrix text '1 2 3; 4 5 6' is not square"),
        # 'identity N' takes one N; 'eye' is no spelling of it
        ("identity 2 3", "cannot parse matrix from 'identity 2 3'"),
        ("eye 2", "matrix text 'eye 2' has dimension 1, outside 2..8"),
    ):
        assert run(["check-cone", text]) == 2, text
        assert capsys.readouterr().err == f"error: {message}\n"
    for text in ("diag nan 1", "diag 1 inf", "1 0; 0 -inf"):
        assert run(["check-cone", text]) == 2, text
        assert f"matrix text {text!r} has a non-finite entry" in capsys.readouterr().err
    # finite entries whose sigma2 products overflow once read 'Outside (roots nan, nan)'
    for text in ("diag 1e200 1e200", "1 0; 0 -1e76"):
        assert run(["check-cone", text]) == 2, text
        assert f"matrix text {text!r} has an entry larger than 1e+75" in capsys.readouterr().err
    largest = "diag" + " 1e75" * 8
    assert run(["check-cone", largest, largest]) == 0
    out = capsys.readouterr().out
    assert "PlusCone" in out and "nan" not in out and "inf" not in out
    # the dimension is read from the text before np.eye allocates N^2 entries
    tracemalloc.start()
    try:
        assert run(["check-cone", "identity 3000"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "matrix text 'identity 3000' has dimension 3000, outside 2..8" in capsys.readouterr().err
    assert peak < 1_000_000


def test_matrix_parser():
    np.testing.assert_allclose(cli.parse_matrix("diag 1 -2"), np.diag([1.0, -2.0]))
    np.testing.assert_allclose(cli.parse_matrix("identity 3"), np.eye(3))
    np.testing.assert_allclose(
        cli.parse_matrix("0 1; 1 0"), np.array([[0.0, 1.0], [1.0, 0.0]])
    )
    # row text is symmetrized to (M + M^T) / 2, bit for bit
    assert np.array_equal(cli.parse_matrix("1 2; 0 1"), [[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ConfigError, match="'1 2 3; 4 5 6' is not square"):
        cli.parse_matrix("1 2 3; 4 5 6")


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_geometry_command_passes(tmp_path, capsys):
    cfg = _write(
        tmp_path / "geo.cfg",
        "[surface]\nkind = slice\nrho0 = 0.5\n",
    )
    report = tmp_path / "report.txt"
    code = run(["geometry", "--config", cfg, "--quad", "24x48", "--report", str(report)])
    assert code == 0
    text = report.read_text()
    assert "pre_integral" in text and "pass=true" in text
    assert "claim=" in text


def test_geometry_gate_failure_is_exit_two_with_passing_lemmas(tmp_path, capsys):
    cfg = _write(tmp_path / "eq.cfg", "[surface]\nkind = slice\nrho0 = 0.0\n")
    code = run(["geometry", "--config", cfg, "--quad", "24x48"])
    out = capsys.readouterr().out
    assert code == 2
    assert "[FAIL] curvature_gate" in out
    assert "[PASS] pre_integral" in out
    assert "[PASS] newton_divergence" in out


def test_geometry_nonspacelike_exit_two(tmp_path, capsys):
    cfg = _write(
        tmp_path / "bad.cfg",
        "[surface]\nkind = perturbed_slice\nrho0 = 0.3\nmodes = 3.0:2:0\n",
    )
    assert run(["geometry", "--config", cfg, "--quad", "24x48"]) == 2


def test_identities_command(tmp_path, capsys):
    cfg = _write(
        tmp_path / "pair.cfg",
        "[surface]\nkind = perturbed_slice\nrho0 = 0.6\nmodes = 0.05:2:0\n\n"
        "[isometry]\nkind = boost\nrapidity = 0.25\naxis = 1 0 0\n",
    )
    assert run(["verify-identities", "--config", cfg, "--quad", "32x64"]) == 0
    out = capsys.readouterr().out
    assert "tilde_symmetry" in out


def test_identities_read_the_metric_pullback_tolerance(tmp_path, capsys):
    text = (REPO / "configs" / "identities.cfg").read_text()
    cfg = _write(tmp_path / "strict.cfg", text + "\n[tolerances]\nmetric_pullback = 1e-30\n")
    assert run(["verify-identities", "--config", cfg, "--quad", "32x64"]) == 2
    err = capsys.readouterr().err
    assert "(tolerance 1e-30) at node " in err and "(theta=" in err


def test_rigidity_command_verdicts(tmp_path, capsys):
    text = (
        "[surface]\nkind = slice\nrho0 = 0.6\n\n"
        "[isometry]\nkind = boost\nrapidity = 0.25\naxis = 1 0 0\n"
    )
    rigid = _write(tmp_path / "rigid.cfg", text)
    assert run(["rigidity", "--config", rigid, "--quad", "32x64"]) == 0
    assert "verdict Rigid" in capsys.readouterr().out

    # an isometric pair that misses a threshold is a failing verdict, not a crash
    strict = _write(tmp_path / "strict.cfg", text + "\n[tolerances]\nw_mismatch = 1e-15\n")
    assert run(["rigidity", "--config", strict, "--quad", "16x16"]) == 1
    out = capsys.readouterr().out
    assert "verdict ThresholdsMissed" in out
    assert "[FAIL] w_mismatch" in out and "[PASS] metric_pullback" in out

    control = _write(
        tmp_path / "control.cfg",
        "[surface]\nkind = perturbed_slice\nrho0 = 0.6\nmodes = 0.05:2:0\n\n"
        "[surface2]\nkind = perturbed_slice\nrho0 = 0.6\nmodes = 0.08:2:0\n",
    )
    assert run(["rigidity", "--config", control, "--quad", "32x64"]) == 1
    assert "NotIsometric" in capsys.readouterr().out
    # the hypothesis violation names the worst node
    assert run(["verify-identities", "--config", control, "--quad", "32x64"]) == 2
    err = capsys.readouterr().err
    assert "pulled-back metric deviates by" in err
    assert " at node " in err and "(theta=" in err and ", phi=" in err

    negative = _write(
        tmp_path / "neg.cfg",
        "[surface]\nkind = slice\nrho0 = -0.3\n\n"
        "[isometry]\nkind = boost\nrapidity = 0.1\naxis = 1 0 0\n",
    )
    assert run(["rigidity", "--config", negative, "--quad", "32x64"]) == 2


def test_config_validation(tmp_path, capsys):
    assert run(["geometry", "--config", str(tmp_path / "missing.cfg")]) == 2
    cfg = _write(tmp_path / "lowquad.cfg", "[surface]\nkind = slice\nrho0 = 0.5\n")
    assert run(["geometry", "--config", cfg, "--quad", "8x16"]) == 2
    assert "--quad: quadrature degrees 8x16 must be at least 16" in capsys.readouterr().err
    cfg = _write(tmp_path / "lowquad.cfg", "[surface]\nkind = slice\nrho0 = 0.5\n"
                 "[quadrature]\nn_theta = 16\nn_phi = 8\n")
    assert run(["geometry", "--config", cfg]) == 2
    message = "[quadrature] n_theta, n_phi: quadrature degrees 16x8 must be at least 16"
    assert message in capsys.readouterr().err
    fast = _write(
        tmp_path / "fast.cfg",
        "[surface]\nkind = slice\nrho0 = 0.6\n\n"
        "[isometry]\nkind = boost\nrapidity = 1.5\naxis = 1 0 0\n",
    )
    assert run(["rigidity", "--config", fast, "--quad", "24x48"]) == 2
    assert "[isometry] rapidity: 1.5 is outside |a| <= 1" in capsys.readouterr().err
    sampled = "[surface]\nkind = sampled\nrho0 = 0.5\nresolution = 24x48\n"
    analytic = "[surface]\nkind = slice\nrho0 = 0.5\n"
    boost = "\n[isometry]\nkind = boost\nrapidity = 0.1\naxis = 1 0 0\n"
    for text in (
        sampled + boost,
        analytic + "\n" + sampled.replace("[surface]", "[surface2]"),
        sampled + "\n" + analytic.replace("[surface]", "[surface2]"),
    ):
        pair_cfg = _write(tmp_path / "sampled_pair.cfg", text)
        for command in ("verify-identities", "rigidity"):
            assert run([command, "--config", pair_cfg, "--quad", "16x16"]) == 2
            assert "analytic surfaces" in capsys.readouterr().err

    # a [surface2] pair corresponds by chart identity; any other isometry exits 2
    second = "\n" + analytic.replace("[surface]", "[surface2]")
    for kind, code in (("boost", 2), ("identity", 0)):
        pair_cfg = _write(tmp_path / "two_surface.cfg", analytic + second + boost.replace(
            "boost", kind))
        for command in ("verify-identities", "rigidity"):
            assert run([command, "--config", pair_cfg, "--quad", "16x16"]) == code, kind
            message = "a two-surface pair uses the identity correspondence"
            assert (message in capsys.readouterr().err) == (code == 2), kind

    # malformed, missing and non-finite numbers name the section, key and text
    perturbed = "[surface]\nkind = perturbed_slice\nrho0 = 0.5\n"
    boost_without = "\n[isometry]\nkind = boost\naxis = 1 0 0\n"
    for command, text, message in (
        ("geometry", analytic.replace("0.5", "abc"), "[surface] rho0: bad number 'abc'"),
        # values are raw text: a '%' is not interpolation syntax, and a slice reads modes
        ("geometry", analytic.replace("0.5", "0.5%"), "[surface] rho0: bad number '0.5%'"),
        ("geometry", perturbed + "modes = %(x)s\n",
         "[surface] modes: '%(x)s' must look like amplitude:l:m"),
        ("geometry", analytic + "modes = 0.04:3:1 bogus\n",
         "[surface] modes: 'bogus' must look like amplitude:l:m"),
        ("geometry", analytic.replace("0.5", "nan"), "[surface] rho0: 'nan' is not finite"),
        ("geometry", "[surface]\nkind = slice\n", "[surface] rho0 is missing"),
        ("geometry", perturbed + "modes = 0.05:2:x\n", "[surface] modes: bad number 'x'"),
        ("geometry", perturbed + "modes = 0.05:2:3\n", "[surface] modes: invalid mode"),
        ("geometry", perturbed + "modes = 0.01:2:0:\n",
         "[surface] modes: '0.01:2:0:' must look like amplitude:l:m"),
        ("geometry", analytic.replace("slice", "bowl"),
         "[surface] kind: unknown surface kind 'bowl'"),
        ("geometry", sampled.replace("24x48", "x"), "bad [surface] resolution value 'x'"),
        ("geometry", analytic + "[tolerances]\nnope = 1\n",
         "[tolerances]: unknown tolerance 'nope'"),
        ("rigidity", analytic + boost.replace("boost", "screw"),
         "[isometry] kind: unknown isometry kind 'screw'"),
        ("rigidity", analytic + boost.replace("0.1", "-1.5"),
         "[isometry] rapidity: -1.5 is outside |a| <= 1, the cap that keeps image heights "
         "within |y| <= 177"),
        ("geometry", analytic + "[quadrature]\nn_theta = x\n", "[quadrature] n_theta: bad"),
        ("geometry", analytic + "[tolerances]\ngauss = tiny\n", "[tolerances] gauss: bad"),
        ("geometry", analytic + "[tolerances]\ngauss = -1\n", "[tolerances] gauss: -1 is neg"),
        ("rigidity", analytic + boost_without, "[isometry] rapidity is missing"),
        ("rigidity", analytic + boost.replace("1 0 0", "0 0 0"), "axis: '0 0 0' is not a"),
        ("rigidity", analytic + boost.replace("1 0 0", "1 0"), "axis: '1 0' is not a"),
        ("rigidity", analytic + boost.replace("boost", "rotation").replace("rapidity", "angle")
         .replace("0.1", "inf"), "[isometry] angle: 'inf' is not finite"),
        # (l + m)! of the normalization leaves the float range from l + m = 171
        ("geometry", perturbed + "modes = 0.01:86:86\n",
         "[surface] modes: invalid mode (l=86, m=86)"),
        # heights past the domain where cosh(y)^4 is a float
        *(("geometry", analytic.replace("0.5", rho0), "[surface] rho0: heights up to")
          for rho0 in ("300", "-300", "800", "-800")),
        ("rigidity", analytic + "\n" + analytic.replace("[surface]", "[surface2]")
         .replace("0.5", "-800"), "[surface2] rho0: heights up to"),
    ):
        bad = _write(tmp_path / "bad_number.cfg", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run([command, "--config", bad, "--quad", "16x16"]) == 2, text
        assert message in capsys.readouterr().err, text
    # axes whose squares leave the float range normalize exactly and run
    rotation = boost.replace("boost", "rotation").replace("rapidity", "angle")
    for axis in ("1e300 1e300 1e300", "1e-320 0 0"):
        for isometry in (boost, rotation):
            cfg = _write(tmp_path / "axis.cfg", analytic + isometry.replace("1 0 0", axis))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert run(["rigidity", "--config", cfg, "--quad", "16x32"]) in (0, 1), axis
            assert "overall:" in capsys.readouterr().out, axis
    rigidity = (REPO / "configs" / "rigidity.cfg").read_text() + "\n[tolerances]\n"
    for line, message in (
        ("w_mismatch = nan", "[tolerances] w_mismatch: 'nan' is not finite"),
        ("metric_pullback = inf", "[tolerances] metric_pullback: 'inf' is not finite"),
        # a negative tolerance would fail every check, an isometric pair's too
        ("metric_pullback = -1", "[tolerances] metric_pullback: -1 is negative"),
    ):
        cfg = _write(tmp_path / "tolerance.cfg", rigidity + line + "\n")
        assert run(["rigidity", "--config", cfg]) == 2, line
        assert message in capsys.readouterr().err, line
    # a zero tolerance is allowed
    cfg = _write(tmp_path / "tolerance.cfg", rigidity + "w_mismatch = 0\n")
    assert run(["rigidity", "--config", cfg, "--quad", "16x16"]) != 2
    assert "overall:" in capsys.readouterr().out

    # sampled grids the stencils cannot run on: odd n_phi, empty, negative
    # and too-small grids, from heights or from a samples file
    samples = tmp_path / "tiny.txt"
    np.savetxt(samples, np.full((2, 2), 0.5))
    for res, source in (
        ("16x31", "rho0 = 0.5"),
        ("0x8", "rho0 = 0.5"),
        ("3x0", "rho0 = 0.5"),
        ("3x-2", "rho0 = 0.5"),
        ("2x4", "rho0 = 0.5"),
        ("2x2", f"samples = {samples}"),
        ("3x2", "rho0 = 0.5"),  # the smallest grids that run
        ("4x8", "rho0 = 0.5"),
    ):
        text = f"[surface]\nkind = sampled\n{source}\nresolution = {res}\n"
        grid_cfg = _write(tmp_path / "grid.cfg", text)
        code = run(["geometry", "--config", grid_cfg])
        out, err = capsys.readouterr()
        if res in ("3x2", "4x8"):
            assert code in (0, 1) and "verdict pass=" in out, res
        else:
            assert code == 2, res
            assert f"[surface] resolution: '{res}'" in err, res

    # grids past cli.MAX_NODES exit 2 naming the key, before anything is allocated
    for text, extra, message in (
        (analytic, ["--quad", "100000x100000"], "--quad: 100000x100000 has"),
        (analytic + "[quadrature]\nn_theta = 100000\nn_phi = 100000\n", [],
         "[quadrature] n_theta, n_phi: 100000x100000 has"),
        ("[surface]\nkind = sampled\nrho0 = 0.5\nresolution = 100000x100000\n", [],
         "[surface] resolution: 100000x100000 has"),
    ):
        cfg = _write(tmp_path / "huge.cfg", text)
        tracemalloc.start()
        try:
            assert run(["geometry", "--config", cfg, *extra]) == 2, text
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert message in capsys.readouterr().err, text
        assert peak < 10_000_000, text


def test_report_path_is_checked_before_the_suite_runs(tmp_path, capsys, monkeypatch):
    # a --report path that cannot be written exits 2 before any field is formed
    calls = []
    evaluate_fields = cli.geometry.evaluate_fields
    monkeypatch.setattr(cli.geometry, "evaluate_fields",
                        lambda *args: calls.append(args[0].size) or evaluate_fields(*args))
    cfg = str(REPO / "configs" / "geometry.cfg")
    missing = str(tmp_path / "missing" / "report.txt")
    for path, reason in ((missing, "No such file or directory"), (str(tmp_path), "Is a directory")):
        assert run(["geometry", "--config", cfg, "--quad", "32x64", "--report", path]) == 2
        assert capsys.readouterr() == ("", f"error: --report: cannot write {path!r}: {reason}\n")
    assert calls == []


def test_exits_of_the_runner_and_of_its_hypothesis_base(tmp_path, capsys):
    # the runner's dispatch: a missing --config, a config that configparser
    # cannot read or without [surface] exit 2 before any record (an unwritable
    # --report has its own test); a read error is one line naming the line,
    # never '<string>'
    geometry = str(REPO / "configs" / "geometry.cfg")
    for argv, message in (
        (["geometry"], "error: this command needs --config PATH\n"),
        (["geometry", "--config", _write(tmp_path / "bare.cfg", "rho0 = 0.5\n")],
         "error: cannot parse config: line 1 'rho0 = 0.5' comes before any [section] header\n"),
        (["geometry", "--config", _write(tmp_path / "twice.cfg",
                                         "[surface]\nkind = slice\nrho0 = 0.5\nrho0 = 0.6\n")],
         "error: cannot parse config: line 4 'rho0 = 0.6' repeats a key of its section\n"),
        (["geometry", "--config", _write(tmp_path / "sections.cfg",
                                         "[surface]\nrho0 = 0.5\n\n[surface]\n")],
         "error: cannot parse config: line 4 '[surface]' repeats a section header\n"),
        (["geometry", "--config", _write(tmp_path / "novalue.cfg",
                                         "[surface]\nrho0 = 0.5\nslice\n[quadrature]\nx\n")],
         "error: cannot parse config: line 3 'slice' is neither a [section] header "
         "nor a key = value line\n"),
        (["rigidity", "--config", _write(tmp_path / "nosurface.cfg", "[quadrature]\n")],
         "error: config needs a [surface] section\n"),
        (["check-cone", ""], "error: empty matrix input\n"),
    ):
        assert run(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err == message, argv
    # tolerances come from [tolerances] alone; argparse rejects a --tol
    with pytest.raises(SystemExit) as exc:
        run(["geometry", "--config", geometry, "--tol", "gauss=1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol gauss=1e-3" in capsys.readouterr().err

    # an equator reflection of the two-mode slice: the identities hold on the
    # pair, but the image leaves the positive-height region the rigidity
    # experiment needs, which is a hypothesis violation
    text = (REPO / "tests" / "golden" / "perturbed.cfg").read_text()
    cfg = _write(tmp_path / "reflected.cfg", text + "\n[isometry]\nkind = equator_reflection\n")
    assert run(["verify-identities", "--config", cfg]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    assert run(["rigidity", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("hypothesis violation: image surface leaves the positive-height region")
    # the --report path is opened before the suite runs, so the violation
    # leaves it empty
    report = tmp_path / "violated.txt"
    assert run(["rigidity", "--config", cfg, "--report", str(report)]) == 2
    assert capsys.readouterr().err.startswith("hypothesis violation: image surface leaves")
    assert report.read_text() == ""
    for name in ("ChartPole", "NonSpacelike", "NotAGraph", "GateFailed", "CorrespondenceInvalid"):
        assert issubclass(getattr(errors, name), errors.HypothesisViolation), name
    assert not issubclass(ConfigError, errors.HypothesisViolation)


_BAD_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "abc", "1e400", "", "0.5%", "%(kind)s"])


def _mostly(draw, good, bad):
    """A draw from ``good``, or about one time in sixteen from ``bad``."""
    return draw(bad if draw(st.integers(0, 15)) == 9 else good)


@st.composite
def _surface_section(draw, name, pair):
    kinds = ["slice", "perturbed_slice"] + ([] if pair else ["sampled"])
    kind = _mostly(draw, st.sampled_from(kinds), st.sampled_from(["bowl", "sampled"]))
    rho0 = _mostly(draw, st.floats(0.2, 1.5).map(repr), st.one_of(
        st.floats(-1e3, 1e3).map(repr), _BAD_NUMBERS))
    lines = [f"[{name}]", f"kind = {kind}", f"rho0 = {rho0}"]
    modes = []
    for _ in range(draw(st.integers(0, 3))):
        degree = _mostly(draw, st.integers(0, 8), st.integers(0, 200))
        order = _mostly(draw, st.integers(0, degree), st.integers(-3, degree + 3))
        amplitude = _mostly(draw, st.floats(-0.1, 0.1).map(repr), _BAD_NUMBERS)
        modes.append(f"{amplitude}:{degree}:{order}")
    lines.append("modes = " + " ".join(modes))
    if kind == "sampled":
        n_phi = _mostly(draw, st.integers(1, 16).map(lambda k: 2 * k), st.integers(-1, 33))
        lines.append(f"resolution = {draw(st.integers(3, 16))}x{n_phi}")
    return "\n".join(lines) + "\n"


@st.composite
def _configs(draw):
    # a single surface for geometry or a pair for the pair suites, each
    # sometimes with a section of the other
    pair = draw(st.booleans())
    text = draw(_surface_section("surface", pair))
    second = pair and draw(st.booleans())
    if _mostly(draw, st.just(second), st.just(not second)):
        text += "\n" + draw(_surface_section("surface2", pair))
    kinds = ["boost", "rotation", "equator_reflection"] if pair and not second else [None]
    kind = _mostly(draw, st.sampled_from(kinds),
                   st.sampled_from(["identity", "boost", "screw"]))
    if kind is not None:
        text += f"\n[isometry]\nkind = {kind}\n"
        value = _mostly(draw, st.floats(-1.0, 1.0).map(repr),
                        st.one_of(st.floats(-1.5, 1.5).map(repr), _BAD_NUMBERS))
        text += f"rapidity = {value}\n" if kind == "boost" else f"angle = {value}\n"
        if draw(st.booleans()):
            axis = _mostly(draw, st.lists(st.floats(0.1, 2.0), min_size=3, max_size=3),
                           st.lists(st.floats(-2.0, 2.0), max_size=4))
            text += "axis = " + " ".join(map(repr, axis)) + "\n"
    tolerances = {}
    for _ in range(draw(st.integers(0, 3))):
        name = _mostly(draw, st.sampled_from(list(cli.DEFAULT_TOLERANCES)), st.just("nope"))
        tolerances[name] = _mostly(
            draw, st.one_of(st.floats(0.0, 1e-9), st.floats(1e-9, 1.0)).map(repr),
            st.sampled_from(["-1", "nan", "tiny", "0", "1e-9%"]))
    if tolerances:
        text += "\n[tolerances]\n" + "".join(f"{k} = {v}\n" for k, v in tolerances.items())
    quad = f"{draw(st.integers(16, 24))}x{draw(st.integers(16, 48))}"
    return text, quad


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(case=_configs())
def test_every_drawn_config_runs_to_a_verdict_or_names_the_bad_input(case, tmp_path_factory):
    # exit 0, 1 or 2, never a traceback (a RuntimeWarning is an error too);
    # an exit 2 names the bad input or the violated hypothesis, or is the
    # geometry suite's failed curvature gate; a failing report's residuals
    # are finite
    text, quad = case
    cfg = tmp_path_factory.getbasetemp() / "drawn.cfg"
    cfg.write_text(text)
    for command in cli.SUITES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([command, "--config", str(cfg), "--quad", quad])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), (command, text)
        if code == 2 and not (command == "geometry" and "[FAIL] curvature_gate" in out):
            assert out == "" and re.match(r"(error|hypothesis violation): \S", err), (command, text)
        if code == 1:
            residuals = re.findall(r"^record .* residual=(\S+) tol=", out, re.M)
            assert residuals and all(math.isfinite(float(r)) for r in residuals
                                     if r != "-"), (command, text)


def test_quad_is_checked_under_python_optimizations():
    # an assert would vanish under -O
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", "-m", "dsrigidity.cli", "geometry",
         "--config", "configs/geometry.cfg", "--quad", "16x16x16"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 2, result.stderr
    assert "bad --quad value" in result.stderr


HEAP_PROBE = """
import contextlib, io, resource
from dsrigidity import cli
for command, config, quad in (("verify-identities", "identities", "32x64"),
                              ("rigidity", "rigidity", "32x64"), ("geometry", "geometry", "32x64"),
                              ("rigidity", "rigidity", "128x256")):
    argv = [command, "--config", f"configs/{config}.cfg", "--quad", quad]
    counts = []
    for run in range(11):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    print(command, quad, *counts[3:])
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="no glibc mallopt")
def test_main_keeps_the_heap_mapped_between_verdicts():
    # Minor faults of 8 warm runs after 3 warm-ups; a single run can read a
    # few dozen, so the median is graded.  Without the policy glibc trims the
    # heap top after each verdict and the next one faults its working set in
    # again: medians up to 280 at 32x64 and about 5,300 for rigidity at
    # 128x256, where every array is past glibc's default 128 KiB mmap
    # threshold.  There the threshold alone reads 1,100 to 7,700, the trim
    # alone 42,900.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", HEAP_PROBE], cwd=REPO, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    faults = {(command, quad): statistics.median(map(int, counts))
              for command, quad, *counts in map(str.split, result.stdout.splitlines())}
    assert len(faults) == 4
    assert all(count < 16 for count in faults.values()), faults


def test_main_runs_unchanged_where_the_c_library_has_no_mallopt(monkeypatch, capsys):
    argv = ["rigidity", "--config", str(REPO / "configs" / "rigidity.cfg"), "--quad", "16x32"]
    expected = run(argv), capsys.readouterr()
    looked_up = []
    monkeypatch.setattr(cli, "ctypes", SimpleNamespace(
        CDLL=lambda name: looked_up.append(name) or SimpleNamespace()))
    cli._keep_heap_mapped.cache_clear()
    try:
        assert (run(argv), capsys.readouterr()) == expected
    finally:
        cli._keep_heap_mapped.cache_clear()
    assert looked_up == [None]


def test_tolerance_override_can_force_failure(tmp_path, capsys):
    cfg = _write(tmp_path / "geo.cfg",
                 "[surface]\nkind = slice\nrho0 = 0.5\n[tolerances]\nderiv_v = 1e-30\n")
    assert run(["geometry", "--config", cfg, "--quad", "24x48"]) == 1
    assert "[FAIL] conformal_field" in capsys.readouterr().out


def test_reports_are_byte_identical(tmp_path):
    cfg = _write(tmp_path / "geo.cfg", "[surface]\nkind = slice\nrho0 = 0.5\n")
    r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    run(["geometry", "--config", cfg, "--quad", "24x48", "--report", str(r1)])
    run(["geometry", "--config", cfg, "--quad", "24x48", "--report", str(r2)])
    assert r1.read_bytes() == r2.read_bytes()


def test_sampled_surface_config(tmp_path, capsys):
    cfg = _write(
        tmp_path / "sampled.cfg",
        "[surface]\nkind = sampled\nrho0 = 0.5\nmodes = 0.05:2:0\n"
        "resolution = 96x192\n",
    )
    code = run(["geometry", "--config", cfg, "--quad", "24x48"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pre_integral.sampled" in out
    assert "newton_divergence.sampled" in out


def test_sampled_geometry_builds_no_quadrature_rule(tmp_path, capsys, monkeypatch):
    # a sampled surface's suite integrates nothing; the report still names
    # the configured degrees
    def forbidden(*args):
        raise AssertionError("quadrature rule built for a sampled surface")

    monkeypatch.setattr(cli, "gauss_sphere_rule", forbidden)
    cfg = _write(
        tmp_path / "sampled.cfg",
        "[surface]\nkind = sampled\nrho0 = 0.5\nresolution = 24x48\n",
    )
    assert run(["geometry", "--config", cfg, "--quad", "20x40"]) == 0
    assert 'meta quad="20x40"' in capsys.readouterr().out


def test_geometry_forms_curvature_fields_once(capsys, kernel_calls):
    # each field group is formed once, on the configured surface: the
    # reflection check reads the mirror's W only, which needs no group past
    # the surface core
    assert run(["geometry", "--config", str(REPO / "configs" / "geometry.cfg")]) == 0
    assert "reflection_parity" in capsys.readouterr().out
    nodes = 64 * 128
    assert kernel_calls.pop("surface_core") == [nodes, nodes]
    assert kernel_calls == dict.fromkeys(kernel_calls, [nodes])


def test_sampled_geometry_forms_no_jet_route_newton(capsys, kernel_calls):
    # the sampled suite differences the Newton tensor on the grid and reads
    # the connection and the curvature once each
    assert run(["geometry", "--config", str(REPO / "tests" / "golden" / "sampled.cfg")]) == 0
    assert "newton_divergence.sampled" in capsys.readouterr().out
    nodes = 40 * 80
    assert kernel_calls == {
        "surface_core": [nodes], "normal_fields": [nodes], "connection": [nodes],
        "potential_jets": [], "frame_hessian": [nodes], "curvature_fields": [nodes],
        "newton_divergence": [],
    }


@pytest.mark.parametrize("command, connections, hessians", [
    ("rigidity", [], []),
    ("verify-identities", [64 * 128], [64 * 128] * 2),
])
def test_pair_suites_form_only_the_groups_they_read(command, connections, hessians, capsys,
                                                    kernel_calls):
    # rigidity reads the two surface cores and the pushed shape operator;
    # the identities add the two potential Hessians on the base connection;
    # neither reads the normal group, the curvature or the Newton residual
    assert run([command, "--config", str(REPO / "configs" / "rigidity.cfg")]) == 0
    capsys.readouterr()
    nodes = 64 * 128
    assert kernel_calls == {
        "surface_core": [nodes, nodes], "normal_fields": [], "connection": connections,
        "potential_jets": hessians[:1], "frame_hessian": hessians, "curvature_fields": [],
        "newton_divergence": [],
    }


def test_report_meta_names_the_python_version(tmp_path, capsys):
    report = tmp_path / "report.txt"
    assert run(["geometry", "--config", str(REPO / "configs" / "geometry.cfg"),
                "--quad", "16x32", "--report", str(report)]) == 0
    capsys.readouterr()
    assert f'meta python="{platform.python_version()}"\n' in report.read_text()


def test_samples_file_roundtrip(tmp_path, capsys):
    from dsrigidity.surfaces import AnalyticSurface, SampledGridSurface

    grid = SampledGridSurface.from_height(AnalyticSurface(0.5), 24, 48)
    path = tmp_path / "heights.npy"
    np.save(path, grid.values)
    cfg = _write(
        tmp_path / "fromfile.cfg",
        f"[surface]\nkind = sampled\nresolution = 24x48\nsamples = {path}\n",
    )
    assert run(["geometry", "--config", cfg, "--quad", "24x48"]) == 0

    values = grid.values.copy()
    values[3, 4] = np.nan
    np.save(path, values)
    assert run(["geometry", "--config", cfg, "--quad", "24x48"]) == 2
    assert capsys.readouterr().err == (
        "error: [surface] samples: non-finite height nan at grid index [3, 4] "
        "(theta=0.4581, phi=0.5236)\n"
    )

    values[3, 4] = -300.0  # past the height domain
    np.save(path, values)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["geometry", "--config", cfg, "--quad", "24x48"]) == 2
    assert "[surface] samples: a height leaves the domain" in capsys.readouterr().err

    # a grid of another shape names the file, both shapes and the resolution key;
    # a one-line text file reads as one grid row
    np.save(path, grid.values[:, :46])
    row = tmp_path / "row.txt"
    np.savetxt(row, grid.values[:1])
    for samples, shape in ((path, "24x46"), (row, "1x48")):
        text = f"[surface]\nkind = sampled\nresolution = 24x48\nsamples = {samples}\n"
        assert run(["geometry", "--config", _write(tmp_path / "shape.cfg", text)]) == 2
        assert capsys.readouterr().err == (
            f"error: [surface] samples: {str(samples)!r} holds a {shape} grid, "
            "but [surface] resolution is 24x48\n"
        )

    path.unlink()
    assert run(["geometry", "--config", cfg, "--quad", "24x48"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [surface] samples: ") and str(path) in err

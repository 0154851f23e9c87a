import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

from dsrigidity import cli

REPO = Path(__file__).resolve().parents[1]


def run(argv):
    return cli.main(argv)


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
    for text in ("diag nan 1", "diag 1 inf", "1 0; 0 -inf"):
        assert run(["check-cone", text]) == 2, text
        assert f"matrix text {text!r} has a non-finite entry" in capsys.readouterr().err


def test_matrix_parser():
    np.testing.assert_allclose(cli.parse_matrix("diag 1 -2"), np.diag([1.0, -2.0]))
    np.testing.assert_allclose(cli.parse_matrix("identity 3"), np.eye(3))
    np.testing.assert_allclose(
        cli.parse_matrix("0 1; 1 0"), np.array([[0.0, 1.0], [1.0, 0.0]])
    )


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


def test_identities_read_the_metric_pullback_tolerance(capsys):
    cfg = str(REPO / "configs" / "identities.cfg")
    argv = ["verify-identities", "--config", cfg, "--quad", "32x64"]
    assert run(argv + ["--tol", "metric_pullback=1e-30"]) == 2
    err = capsys.readouterr().err
    assert "(tolerance 1e-30) at node " in err and "(theta=" in err


def test_rigidity_command_verdicts(tmp_path, capsys):
    rigid = _write(
        tmp_path / "rigid.cfg",
        "[surface]\nkind = slice\nrho0 = 0.6\n\n"
        "[isometry]\nkind = boost\nrapidity = 0.25\naxis = 1 0 0\n",
    )
    assert run(["rigidity", "--config", rigid, "--quad", "32x64"]) == 0
    assert "verdict Rigid" in capsys.readouterr().out

    # an isometric pair that misses a threshold is a failing verdict, not a crash
    argv = ["rigidity", "--config", rigid, "--quad", "16x16", "--tol", "w_mismatch=1e-15"]
    assert run(argv) == 1
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
    fast = _write(
        tmp_path / "fast.cfg",
        "[surface]\nkind = slice\nrho0 = 0.6\n\n"
        "[isometry]\nkind = boost\nrapidity = 1.5\naxis = 1 0 0\n",
    )
    assert run(["rigidity", "--config", fast, "--quad", "24x48"]) == 2
    badtol = _write(tmp_path / "geo.cfg", "[surface]\nkind = slice\nrho0 = 0.5\n")
    assert run(["geometry", "--config", badtol, "--quad", "24x48", "--tol", "nope=1"]) == 2
    typo = _write(
        tmp_path / "typo.cfg",
        "[surface]\nkind = slice\nrho0 = 0.5\n\n[suite]\nchecks = gauss typo_check\n",
    )
    capsys.readouterr()
    assert run(["geometry", "--config", typo, "--quad", "24x48"]) == 2
    assert "'typo_check'" in capsys.readouterr().err

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

    # malformed, missing and non-finite numbers name the section, key and text
    perturbed = "[surface]\nkind = perturbed_slice\nrho0 = 0.5\n"
    boost_without = "\n[isometry]\nkind = boost\naxis = 1 0 0\n"
    for command, text, message in (
        ("geometry", analytic.replace("0.5", "abc"), "[surface] rho0: bad number 'abc'"),
        ("geometry", analytic.replace("0.5", "nan"), "[surface] rho0: 'nan' is not finite"),
        ("geometry", "[surface]\nkind = slice\n", "[surface] rho0 is missing"),
        ("geometry", perturbed + "modes = 0.05:2:x\n", "[surface] modes: bad number 'x'"),
        ("geometry", perturbed + "modes = 0.05:2:3\n", "[surface] modes: invalid mode"),
        ("geometry", analytic + "[quadrature]\nn_theta = x\n", "[quadrature] n_theta: bad"),
        ("geometry", analytic + "[tolerances]\ngauss = tiny\n", "[tolerances] gauss: bad"),
        ("geometry", analytic + "[suite]\nseed = x\n", "[suite] seed: bad number 'x'"),
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
    rigidity = str(REPO / "configs" / "rigidity.cfg")
    for item, message in (
        ("w_mismatch=nan", "--tol w_mismatch=nan: 'nan' is not finite"),
        ("metric_pullback=inf", "--tol metric_pullback=inf: 'inf' is not finite"),
        ("w_mismatch=tiny", "--tol w_mismatch=tiny: bad number 'tiny'"),
    ):
        assert run(["rigidity", "--config", rigidity, "--tol", item]) == 2, item
        assert message in capsys.readouterr().err, item

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


def test_tolerance_override_can_force_failure(tmp_path, capsys):
    cfg = _write(tmp_path / "geo.cfg", "[surface]\nkind = slice\nrho0 = 0.5\n")
    code = run(
        ["geometry", "--config", cfg, "--quad", "24x48", "--tol", "deriv_v=1e-30"]
    )
    assert code == 1
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


def test_geometry_forms_curvature_fields_once(capsys, monkeypatch):
    # the reflection check reads the mirror's W only, which needs no
    # third-order jets and no curvature fields
    from dsrigidity import kernels

    calls = []
    curvature_fields = kernels.curvature_fields

    def counted(*args):
        calls.append(args[0].shape[0])
        return curvature_fields(*args)

    monkeypatch.setattr(kernels, "curvature_fields", counted)
    assert run(["geometry", "--config", str(REPO / "configs" / "geometry.cfg")]) == 0
    assert "reflection_parity" in capsys.readouterr().out
    assert calls == [64 * 128]


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
    assert "grid index [3, 4] (theta=0.4581, phi=0.5236)" in capsys.readouterr().err

    values[3, 4] = -300.0  # past the height domain
    np.save(path, values)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["geometry", "--config", cfg, "--quad", "24x48"]) == 2
    assert "[surface] samples: a height leaves the domain" in capsys.readouterr().err

    path.unlink()
    assert run(["geometry", "--config", cfg, "--quad", "24x48"]) == 2
    assert "samples file" in capsys.readouterr().err

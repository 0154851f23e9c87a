"""Golden reports: the record and verdict lines of each suite, byte for byte.

The ``meta`` lines (versions, digest, backend) are left out; every other
line of the report must match ``tests/golden/``.  ``tests/golden/digests.json``
pins, at three quadrature sizes, a sha256 of each command's output: stdout
without its ``meta`` lines, stderr and the exit code; and, keyed
``regraph <case>``, a blake2b of the heights of each regraph case.  After a
change that is meant to move a residual or a height, regenerate all of them
with

    PYTHONPATH=src python tests/test_golden.py

and explain each moved line where the change is recorded.
"""

import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

import pytest

from dsrigidity import ambient, cli, transport
from dsrigidity.surfaces import AnalyticSurface

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

# (command, config, exit code).  control.cfg pairs two different surfaces
# through the identity correspondence; verify-identities stops at its
# metric-pullback gate, so only rigidity reports on it.  sampled.cfg runs
# the geometry suite on stencil jets of a sampled grid, perturbed.cfg on a
# non-umbilic analytic surface, where the height has a gradient.
CASES = [
    ("geometry", REPO / "configs" / "geometry.cfg", 0),
    ("geometry", GOLDEN / "sampled.cfg", 0),
    ("geometry", GOLDEN / "perturbed.cfg", 0),
    ("verify-identities", REPO / "configs" / "identities.cfg", 0),
    ("verify-identities", REPO / "configs" / "rigidity.cfg", 0),
    ("rigidity", REPO / "configs" / "identities.cfg", 0),
    ("rigidity", REPO / "configs" / "rigidity.cfg", 0),
    ("rigidity", GOLDEN / "control.cfg", 1),
]


# the argv of each digested run: every suite on every config, at the
# config's own quadrature and at two overrides, then check-cone cases
CONFIGS = sorted((REPO / "configs").glob("*.cfg")) + sorted(GOLDEN.glob("*.cfg"))
RUNS = [
    [command, "--config", str(config.relative_to(REPO)), *quad]
    for command in ("geometry", "verify-identities", "rigidity")
    for config in CONFIGS
    for quad in ([], ["--quad", "32x64"], ["--quad", "128x256"])
] + [
    ["check-cone", "1 2; 0 1"],
    ["check-cone", "diag 1 -2"],
    ["check-cone", "diag -1 -2", "diag -2 -4"],
    ["check-cone", "2 0.5 0; 0.5 1 0.25; 0 0.25 3", "identity 3"],
    ["check-cone", "3 1; 0 2", "diag 2 4"],
]

# the regraphs whose heights are pinned, by case id: source, isometry, grid
REGRAPHS = {
    "boost": (AnalyticSurface(0.6, [(0.05, 2, 0)]), ambient.boost(0.3, [1.0, 0, 0]), (32, 64)),
    "rotation": (AnalyticSurface(0.4, [(0.05, 2, 1), (0.03, 3, 0)]),
                 ambient.rotation(0.7, [1.0, 2.0, 0.5]), (16, 32)),
    "reflected_boost": (AnalyticSurface(0.4, [(0.05, 2, 1), (0.03, 3, 0)]),
                        ambient.AmbientIsometry(ambient.reflect_equator().matrix
                                                @ ambient.boost(-0.3, [0.6, 0.0, 0.8]).matrix),
                        (16, 32)),
    "oblique_boost": (AnalyticSurface(-0.3, [(0.04, 3, 2)]),
                      ambient.boost(0.8, [0.0, 0.6, 0.8]), (24, 48)),
}
DIGESTS = GOLDEN / "digests.json"


def golden_path(command, config):
    return GOLDEN / f"{command}__{config.stem}.txt"


def report_lines(command, config, report_path):
    """Exit code and the report's record and verdict lines."""
    code = cli.main([command, "--config", str(config), "--report", str(report_path)])
    lines = report_path.read_text(encoding="utf-8").splitlines(keepends=True)
    return code, "".join(ln for ln in lines if ln.startswith(("record ", "verdict ")))


def run_digest(argv):
    """sha256 of a run's stdout without ``meta`` lines, its stderr and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        argv = [str(REPO / arg) if arg.endswith(".cfg") else arg for arg in argv]
        code = cli.main(argv)
    stdout = "".join(
        ln for ln in out.getvalue().splitlines(keepends=True) if not ln.startswith("meta ")
    )
    return hashlib.sha256(f"{stdout}\0{err.getvalue()}\0{code}".encode()).hexdigest()


def regraph_digest(case):
    """blake2b of the heights that ``transform_surface`` gives regraph ``case``."""
    surface, iso, grid = REGRAPHS[case]
    sampled, _ = transport.transform_surface(surface, iso, regraph_grid=grid)
    return hashlib.blake2b(sampled.values.tobytes(), digest_size=16).hexdigest()


@pytest.mark.parametrize("argv", RUNS, ids=shlex.join)
def test_output_matches_digest(argv):
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert run_digest(argv) == digests[shlex.join(argv)]


@pytest.mark.parametrize("case", REGRAPHS)
def test_regraph_heights_are_pinned_bit_for_bit(case):
    # the root finder's heights; the closing spacelike check must not move them
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert regraph_digest(case) == digests[f"regraph {case}"]


@pytest.mark.parametrize(
    "command, config, expected_code",
    CASES,
    ids=[f"{c}-{p.stem}" for c, p, _ in CASES],
)
def test_report_matches_golden(command, config, expected_code, tmp_path, capsys):
    code, text = report_lines(command, config, tmp_path / "report.txt")
    capsys.readouterr()
    assert code == expected_code
    assert text == golden_path(command, config).read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for command, config, _ in CASES:
            _, text = report_lines(command, config, Path(tmp) / "report.txt")
            golden_path(command, config).write_text(text, encoding="utf-8")
            print(f"wrote {golden_path(command, config).relative_to(REPO)}", file=sys.stderr)
    digests = {shlex.join(argv): run_digest(argv) for argv in RUNS}
    digests.update({f"regraph {case}": regraph_digest(case) for case in REGRAPHS})
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS.relative_to(REPO)}", file=sys.stderr)

"""Golden reports: the record and verdict lines of each suite, byte for byte.

The ``meta`` lines (versions, digest, backend) are left out; every other
line of the report must match ``tests/golden/``.  After a change that is
meant to move a residual, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and explain each moved line where the change is recorded.
"""

import sys
from pathlib import Path

import pytest

from dsrigidity import cli

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

# (command, config, exit code).  control.cfg pairs two different surfaces
# through the identity correspondence; verify-identities stops at its
# metric-pullback gate, so only rigidity reports on it.
CASES = [
    ("geometry", REPO / "configs" / "geometry.cfg", 0),
    ("verify-identities", REPO / "configs" / "identities.cfg", 0),
    ("verify-identities", REPO / "configs" / "rigidity.cfg", 0),
    ("rigidity", REPO / "configs" / "identities.cfg", 0),
    ("rigidity", REPO / "configs" / "rigidity.cfg", 0),
    ("rigidity", GOLDEN / "control.cfg", 1),
]


def golden_path(command, config):
    return GOLDEN / f"{command}__{config.stem}.txt"


def report_lines(command, config, report_path):
    """Exit code and the report's record and verdict lines."""
    code = cli.main([command, "--config", str(config), "--report", str(report_path)])
    lines = report_path.read_text(encoding="utf-8").splitlines(keepends=True)
    return code, "".join(ln for ln in lines if ln.startswith(("record ", "verdict ")))


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

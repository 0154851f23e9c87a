"""Set-up probe: a fresh interpreter imports the CLI and finishes one warm-up verdict.

``run.py`` takes the CPU time of this whole process, from spawn to exit, as ``setup_s``.

Usage: python3 perfbench/warmup.py COMMAND CONFIG NTxNP
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from inputs import Case  # noqa: E402
from workloads import execute  # noqa: E402


def main(argv):
    command, config, size = argv
    n_theta, n_phi = (int(v) for v in size.split("x"))
    result = execute(Case("warmup", command, config, (n_theta, n_phi), None, ""))
    if result.error is not None:
        print(f"warm-up verdict failed: {result.error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

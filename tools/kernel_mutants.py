"""Single-operator mutants of a module of ``src/dsrigidity`` and which checks kill them.

Each mutant changes one operator of the module (``--module``: ``kernels``, the
default, ``quadrature``, ``integrals``, ``transport`` or ``ambient``): ``+`` <->
``-``, ``*`` <-> ``/`` (in a binary operation or an augmented assignment), or
drops one unary minus.
Every mutant is written into its own copy of the package and run under a hard
timeout in a fresh process; it is killed when the check exits nonzero or runs
out of time (a mutated bracketing loop can run for ever).

    python tools/kernel_mutants.py --check perturbed --out mutants.json
    python tools/kernel_mutants.py --check acceptance --only-survivors-of mutants.json
    python tools/kernel_mutants.py --module integrals --check pairs
    python tools/kernel_mutants.py --module transport --check regraph

Checks:
  perturbed   ``geometry`` on ``tests/golden/perturbed.cfg``, the two-mode slice
              whose height has a gradient; any failed record kills
  acceptance  ``tests/test_acceptance.py``
  pairs       ``verify-identities`` and ``rigidity`` on ``configs/identities.cfg``
              and on ``configs/rigidity.cfg``; any nonzero exit kills
  regraph     the pinned regraph digests of ``tests/test_golden.py`` and the
              ``transform_surface`` tests of ``tests/test_transport.py`` that
              compare heights with the dense-scan oracle

The check first runs once on the unmutated (unparsed) module and must pass.
The script is a tool for judging the tests, not part of them.
"""

import argparse
import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "dsrigidity"
MODULES = ("kernels", "quadrature", "integrals", "transport", "ambient")
CLI = [sys.executable, "-m", "dsrigidity.cli"]
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
#: each check is a list of commands, run in turn until one exits nonzero
CHECKS = {
    "perturbed": [CLI + ["geometry", "--config", "tests/golden/perturbed.cfg"]],
    "acceptance": [PYTEST + ["tests/test_acceptance.py"]],
    "pairs": [CLI + [command, "--config", f"configs/{config}.cfg"]
              for config in ("identities", "rigidity")
              for command in ("verify-identities", "rigidity")],
    "regraph": [PYTEST + ["tests/test_golden.py::test_regraph_heights_are_pinned_bit_for_bit"]
                + [f"tests/test_transport.py::{test}" for test in (
                    "test_transform_surface_matches_dense_scan_oracle",
                    "test_transform_surface_with_a_foot_on_the_source_pole",
                    "test_regraph_evaluates_only_the_unfinished_lines",
                    "test_regraph_brackets_heights_past_three")]],
}
SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
SYMBOL = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


def _sites(tree):
    """(node, description) for each mutable operator, in a fixed walk order."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAP:
            old, new = SYMBOL[type(node.op)], SYMBOL[SWAP[type(node.op)]]
            sites.append((node, f"{old} -> {new}"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            sites.append((node, "drop unary -"))
    return sites


def mutants(source):
    """(line, col, description) of every mutant of ``source``, indexed from 0."""
    return [(node.lineno, node.col_offset, what) for node, what in _sites(ast.parse(source))]


class _Mutate(ast.NodeTransformer):
    def __init__(self, target):
        self.target = target

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        return node.operand if node is self.target else node

    def generic_visit(self, node):
        if node is self.target and hasattr(node, "op") and type(node.op) in SWAP:
            node.op = SWAP[type(node.op)]()
        return super().generic_visit(node)


def mutated_source(source, index):
    """The source with mutant ``index`` applied; ``None`` gives the unmutated unparse."""
    tree = ast.parse(source)
    if index is not None:
        tree = _Mutate(_sites(tree)[index][0]).visit(tree)
    return ast.unparse(ast.fix_missing_locations(tree))


def run_check(check, module, source, timeout):
    """'passed', 'killed' or 'timeout' for the check on a package whose ``module``
    has ``source``; ``timeout`` bounds each command of the check."""
    with tempfile.TemporaryDirectory(prefix="kernel-mutant-") as work:
        package = Path(work) / "dsrigidity"
        shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
        (package / f"{module}.py").write_text(source)
        env = dict(os.environ, PYTHONPATH=work, PYTHONDONTWRITEBYTECODE="1")
        for command in CHECKS[check]:
            proc = subprocess.Popen(command, cwd=REPO, env=env, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL, start_new_session=True)
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)  # the check's own children too
                proc.wait()
                return "timeout"
            if code != 0:
                return "killed"
    return "passed"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--module", choices=MODULES, default="kernels")
    parser.add_argument("--check", choices=sorted(CHECKS), default="perturbed")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="seconds before a mutant's run is stopped and counted as killed")
    parser.add_argument("--only-survivors-of", metavar="JSON",
                        help="run only the mutants that passed in an earlier --out file")
    parser.add_argument("--out", metavar="JSON", help="write one entry per mutant here")
    args = parser.parse_args(argv)

    path = PACKAGE / f"{args.module}.py"
    source = path.read_text()
    sites = mutants(source)
    indices = range(len(sites))
    if args.only_survivors_of:
        earlier = json.loads(Path(args.only_survivors_of).read_text())
        indices = [entry["index"] for entry in earlier if entry["status"] == "passed"]
    if run_check(args.check, args.module, mutated_source(source, None), args.timeout) != "passed":
        sys.exit(f"the unmutated {args.module} module fails the {args.check} check")

    results = []
    for index in indices:
        status = run_check(args.check, args.module, mutated_source(source, index), args.timeout)
        line, col, what = sites[index]
        print(f"{index:4d} {path.name}:{line}:{col} {what}: {status}", flush=True)
        results.append({"index": index, "line": line, "col": col, "mutation": what,
                        "status": status})
    survivors = [r for r in results if r["status"] == "passed"]
    print(f"{args.module} {args.check}: {len(results) - len(survivors)} of {len(results)} "
          f"mutants killed, {len(survivors)} survive")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")


if __name__ == "__main__":
    main()

"""Public API exists because the pipeline uses it.

Every module-level public function or class in ``src/dsrigidity`` must be
referenced somewhere in ``src/`` besides its own definition; the entries
below are the deliberate exceptions.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dsrigidity"

UNCALLED_ON_PURPOSE = {
    # acceptance criterion 11: integrals over the round sphere
    "integrate_sphere": "quadrature rule checked against the sphere measure",
    # acceptance criterion 5: sigma_k hyperbolicity along the identity direction
    "sigma_line_coefficients": "sigma_k(W + t I) coefficients of Garding's theory",
    # the regraph entry point that library callers and the benchmark use
    "transform_surface": "re-expresses an isometric image as a sampled graph",
    # the pseudosphere model in which isometries act on points; the pipeline
    # works on chart jets, the ambient tests on points
    "embed": "chart point to pseudosphere coordinates",
    "unembed": "pseudosphere coordinates back to a chart point, off-shell checked",
}


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _public_definitions(tree):
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _references(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_definition_has_a_caller_in_src():
    trees = _trees()
    referenced = set().union(*(_references(tree) for tree in trees.values()))
    uncalled = sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _public_definitions(tree)
        if name not in referenced and name not in UNCALLED_ON_PURPOSE
    )
    assert not uncalled, f"public definitions with no caller in src/: {uncalled}"


def test_exceptions_are_still_uncalled_and_defined():
    trees = _trees()
    defined = {name for tree in trees.values() for name in _public_definitions(tree)}
    referenced = set().union(*(_references(tree) for tree in trees.values()))
    assert set(UNCALLED_ON_PURPOSE) <= defined
    assert not set(UNCALLED_ON_PURPOSE) & referenced

"""Public API exists because the pipeline uses it.

Every module-level public function or class in ``src/dsrigidity`` must be
referenced somewhere in ``src/`` besides its own definition, and every
public method, property or dataclass field of a non-enum class must be
read as an attribute somewhere in ``src/`` (a keyword argument at
construction is not a read), and every defaulted parameter of a function or
``__init__`` must be set, by keyword or position, by some call in ``src/``
and left at its default by another; the entries below are the deliberate
exceptions.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dsrigidity"

UNCALLED_ON_PURPOSE = {
    # acceptance criterion 5: sigma_k hyperbolicity along the identity direction
    "sigma_line_coefficients": "sigma_k(W + t I) coefficients of Garding's theory",
    # the regraph entry point that library callers and the benchmark use
    "transform_surface": "re-expresses an isometric image as a sampled graph",
}

#: defaulted parameters that no call in src/ sets
UNSET_ON_PURPOSE = {
    # the console entry point: the installed script calls main() on sys.argv
    "cli.py:main(argv)": "argv for callers that run the CLI in-process",
}

#: defaulted parameters that every call in src/ sets
OVERRIDDEN_ON_PURPOSE = {
    # perfbench's regraph cases build configs without it
    "cli.py:ExperimentConfig(quad_override)": "the --quad grid that overrides [quadrature]",
    # 27 tests build constant slices
    "surfaces.py:AnalyticSurface(modes)": "the harmonic modes on top of the constant height",
    # the jet oracle's pole-adjacent nodes lie on no product grid; both correspondences
    "transport.py:node_data(grid)": "the product grid whose flat nodes theta and phi are",
}

#: class members that only the acceptance gate reads
UNREAD_ON_PURPOSE = {
    # acceptance criterion 1: the normal and K of an umbilic slice in closed form
    "SurfaceFields.nu": "the unit normal, checked against the slice's closed form",
    "SurfaceFields.k_norm": "the intrinsic curvature, checked against sech^2(rho0)",
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


def _is_enum(cls):
    return any(getattr(base, "id", getattr(base, "attr", "")).endswith("Enum")
               for base in cls.bases)


def _public_members(tree):
    """'Class.name' for each public method, property and field of a non-enum class."""
    members = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or _is_enum(cls):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, ast.AnnAssign):
                names = [node.target.id]
            elif isinstance(node, ast.Assign):  # name = property(...)
                names = [target.id for target in node.targets]
            else:
                continue
            members += [f"{cls.name}.{name}" for name in names if not name.startswith("_")]
    return members


def _attribute_loads(tree):
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


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


def test_every_public_member_is_read_in_src():
    trees = _trees()
    read = set().union(*(_attribute_loads(tree) for tree in trees.values()))
    unread = sorted(
        f"{module}:{member}"
        for module, tree in trees.items()
        for member in _public_members(tree)
        if member.split(".")[1] not in read and member not in UNREAD_ON_PURPOSE
    )
    assert not unread, f"public members that no code in src/ reads: {unread}"


def test_member_exceptions_are_still_unread_and_defined():
    trees = _trees()
    defined = {member for tree in trees.values() for member in _public_members(tree)}
    read = set().union(*(_attribute_loads(tree) for tree in trees.values()))
    assert set(UNREAD_ON_PURPOSE) <= defined
    assert not {member.split(".")[1] for member in UNREAD_ON_PURPOSE} & read


def _defaulted_parameters(tree):
    """(function, parameter, position) for each defaulted parameter, a class
    name standing for its ``__init__``; position None for a keyword-only
    parameter, and a method's positions count its arguments after self or cls."""
    owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
             for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        name, args = owner.get(id(node), node.name), node.args
        positional = args.posonlyargs + args.args
        skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
        first = len(positional) - len(args.defaults)
        out += [(name, positional[k].arg, k - skip) for k in range(first, len(positional))]
        out += [(name, arg.arg, None)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return out


def _calls(trees):
    """The calls in src/ by callee name, ``cls(...)`` under its class's name."""
    calls = {}
    for tree in trees.values():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in ast.walk(cls):
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "cls":
                        calls.setdefault(cls.name, []).append(node)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return calls


def _sets(call, parameter, position):
    """Whether ``call`` may pass ``parameter``: by keyword, ``**``, position
    or a ``*`` spread."""
    if any(kw.arg in (parameter, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_defaulted_parameter_is_set_by_a_call_in_src():
    # a default that only tests override is a knob the pipeline never turns
    trees = _trees()
    calls = _calls(trees)
    unset = sorted(
        f"{module}:{function}({parameter})"
        for module, tree in trees.items()
        for function, parameter, position in _defaulted_parameters(tree)
        if not any(_sets(call, parameter, position) for call in calls.get(function, ()))
    )
    assert unset == sorted(UNSET_ON_PURPOSE), f"defaulted parameters no call in src/ sets: {unset}"


def _overridden(trees):
    """'module:function(parameter)' for each defaulted parameter that no call
    in src/ leaves at its default, once per definition."""
    calls = _calls(trees)
    return sorted(
        f"{module}:{function}({parameter})"
        for module, tree in trees.items()
        for function, parameter, position in _defaulted_parameters(tree)
        if all(_sets(call, parameter, position) for call in calls.get(function, ()))
    )


def test_every_defaulted_parameter_is_left_at_its_default_by_a_call_in_src():
    # a default that every call overrides is a second call form that only tests take
    overridden = _overridden(_trees())
    assert set(overridden) == set(OVERRIDDEN_ON_PURPOSE), (
        f"defaulted parameters every call in src/ sets: {overridden}")


def test_override_exceptions_still_hold_and_are_defined():
    trees = _trees()
    defined = {f"{module}:{function}({parameter})" for module, tree in trees.items()
               for function, parameter, _ in _defaulted_parameters(tree)}
    assert set(OVERRIDDEN_ON_PURPOSE) <= defined
    assert set(OVERRIDDEN_ON_PURPOSE) <= set(_overridden(trees))

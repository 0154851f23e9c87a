"""One array layout from jets to reports: tensor components first, nodes last.

Every jet (height jets and the transport's lifts alike), ``SurfaceFields``
tensor, ``PairNodeData`` tensor and ambient chart tensor keeps the node axis
last and is C-contiguous, so each component ``a[i, j]`` is a contiguous node
array, and no module of ``src/`` moves axes between two layouts.
"""

import ast
import dataclasses
from pathlib import Path

import numpy as np

from dsrigidity import ambient, geometry, jets, transport
from dsrigidity.surfaces import AnalyticSurface, SampledGridSurface, grid_scalar_jets

SRC = Path(__file__).resolve().parent.parent / "src" / "dsrigidity"

#: tensor axes of every array field; the rest are (n,) node arrays
FIELD_AXES = {
    "dy": (2,), "d2y": (2, 2), "d3y": (2, 2, 2), "g": (2, 2), "g_inv": (2, 2), "h": (2, 2),
    "w_chart": (2, 2), "frame": (2, 2), "w_frame": (2, 2), "hess_phi_frame": (2, 2),
    "gamma": (2, 2, 2), "nu": (3,), "nu_tangency_residual": (2,),
    "w_tilde_frame": (2, 2), "hess_phi_tilde_frame": (2, 2), "potential_d": (2,),
    "potential_d2": (2, 2),
}
LAZY_FIELDS = ("nu", "nu_norm_residual", "nu_tangency_residual", "w_chart", "gamma",
               "hess_phi_frame", "pre_integral_residual", "k_norm", "gauss_residual",
               "newton_residual")


def _assert_component_first(name, value, n):
    assert value.shape == FIELD_AXES.get(name, ()) + (n,), name
    assert value.flags.c_contiguous, name


def _assert_fields_component_first(fields, n):
    names = [f.name for f in dataclasses.fields(fields)] + list(LAZY_FIELDS)
    for name in names:
        value = getattr(fields, name)
        if isinstance(value, np.ndarray):
            _assert_component_first(name, value, n)


def test_jets_put_the_node_axis_last(scattered_nodes):
    theta, phi = scattered_nodes
    surface = AnalyticSurface(0.6, [(0.05, 2, 0), (0.02, 3, 1)])
    for name, value in zip(("y", "dy", "d2y", "d3y"), surface.jets(theta, phi), strict=True):
        _assert_component_first(name, value, theta.size)
    for name, value in zip(("y", "dy", "d2y"), surface.height_jet(theta, phi), strict=True):
        _assert_component_first(name, value, theta.size)
    values = SampledGridSurface.from_height(surface, 6, 12).values
    for order in (1, 2, 3):
        node_jets = grid_scalar_jets(values, order)
        assert len(node_jets) == order + 1
        for name, value in zip(("y", "dy", "d2y", "d3y"), node_jets):
            _assert_component_first(name, value, values.size)


def test_lifts_put_the_node_axis_last(scattered_nodes):
    theta, phi = scattered_nodes
    rng = np.random.default_rng(7)
    a, b = (
        (f, rng.normal(size=(2, theta.size)), rng.normal(size=(2, 2, theta.size)))
        for f in (np.cos(theta) + 1.5, np.sin(phi) + 0.5)
    )
    for lifted in (jets.arcsinh(a), jets.hypot(a, b), jets.atan2(b, a)):
        for name, value in zip(("y", "dy", "d2y"), lifted, strict=True):
            _assert_component_first(name, value, theta.size)


def test_surface_fields_put_the_node_axis_last(scattered_nodes):
    theta, phi = scattered_nodes
    surface = AnalyticSurface(0.6, [(0.05, 2, 0), (0.02, 3, 1)])
    _assert_fields_component_first(geometry.evaluate_surface(surface, theta, phi), theta.size)
    grid = SampledGridSurface.from_height(surface, 12, 24)
    _assert_fields_component_first(geometry.evaluate_on_grid(grid), 12 * 24)


def test_pair_node_data_puts_the_node_axis_last(perturbed_surface, scattered_nodes):
    theta, phi = scattered_nodes
    for pair in (
        transport.IsometryCorrespondence(perturbed_surface, ambient.boost(0.25, [1.0, 0, 0])),
        transport.IdentityCorrespondence(perturbed_surface, AnalyticSurface(0.65)),
    ):
        data = pair.node_data(theta, phi)
        for name in [f.name for f in dataclasses.fields(data)] + ["hess_phi_tilde_frame"]:
            value = getattr(data, name)
            if isinstance(value, np.ndarray):
                _assert_component_first(name, value, theta.size)
        for fields in (data.base, data.tilde):
            _assert_fields_component_first(fields, theta.size)


def test_ambient_chart_puts_the_node_axis_last(scattered_nodes):
    theta, _ = scattered_nodes
    n, k = theta.size, 7
    rho = np.linspace(-1.5, 1.5, n)
    g = ambient.metric_components(rho, theta)
    gam = ambient.christoffel_components(rho, theta)
    assert g.shape == (3, 3, n) and gam.shape == (3, 3, 3, n)
    assert g.flags.c_contiguous and gam.flags.c_contiguous
    # node k's slice is the tensor of a scalar call at node k
    np.testing.assert_allclose(g[..., k], ambient.metric_components(rho[k], theta[k]), rtol=1e-14)
    np.testing.assert_allclose(
        gam[..., k], ambient.christoffel_components(rho[k], theta[k]), rtol=1e-14
    )
    # chart vectors are (3, n): node k's residual reads column k of u and w
    u, w = np.random.default_rng(3).uniform(-1.0, 1.0, (2, 3, n))
    residual = ambient.lie_derivative_residual(rho, theta, u, w)
    assert residual.shape == (n,)
    at_k = ambient.lie_derivative_residual(rho[[k]], theta[[k]], u[:, [k]], w[:, [k]])
    np.testing.assert_allclose(residual[k], at_k[0], rtol=1e-12, atol=1e-15)


def test_src_moves_no_axes():
    # one layout everywhere: a moveaxis call would convert between two
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "moveaxis"
    ]
    assert not calls, f"np.moveaxis called in src/: {calls}"


#: value arithmetic, ``@`` included: isometries compose by their matrices
ARITHMETIC_DUNDERS = {
    f"__{prefix}{op}__"
    for op in ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "pow", "divmod")
    for prefix in ("", "r", "i")
} | {"__neg__", "__pos__", "__abs__"}


def test_src_defines_no_arithmetic_types():
    # jets are tuples of arrays: no class carries its own arithmetic
    methods = [
        f"{path.name}:{node.name}.{item.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in ARITHMETIC_DUNDERS
    ]
    assert not methods, f"arithmetic dunders defined in src/: {methods}"

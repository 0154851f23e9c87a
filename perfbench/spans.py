"""Span recorder wrapped, from outside, around the public calls of each layer.

Inside ``Recorder.recording`` every public function and method defined in
the traced ``dsrigidity`` modules (plus the ``Jet3`` arithmetic operators and
the ``ExperimentConfig`` constructor) is replaced by a wrapper that records
a span ``(name, start, end, parent, attrs)``.  A span's name is
``<module>.<qualname>``, so the module is the layer.  Names bound to the
same function in other modules (``from .quadrature import reduce_sum``) are
replaced too.  On leaving the block every original object is put back, so
untraced calls run the program exactly as shipped.  Spans stay in memory
until the caller writes them out.
"""

import contextlib
import enum
import functools
import hashlib
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = (
    "ambient", "cli", "geometry", "integrals", "jets", "kernels",
    "quadrature", "reports", "surfaces", "symfun", "transport",
)
JET_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)
EXTRA_METHODS = {"cli.ExperimentConfig": ("__init__",), "jets.Jet3": JET_OPERATORS}


def _kernel_attrs(args, kwargs):
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    return {"nodes": int(arrays[0].shape[0]), "bytes": int(sum(a.nbytes for a in arrays))}


def _fields_attrs(args, kwargs):
    theta, phi, node_jets = args[:3]
    digest = hashlib.blake2b(digest_size=16)
    for arr in (theta, phi, node_jets[0], node_jets[1]):
        digest.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return {"nodes": int(np.shape(theta)[0]), "key": digest.hexdigest()}


def _height_jet_attrs(args, kwargs):
    return {"nodes": int(np.size(args[1]))}


ATTRS = {
    "kernels.surface_core": _kernel_attrs,
    "kernels.curvature_fields": _kernel_attrs,
    "geometry.evaluate_fields": _fields_attrs,
    "surfaces.AnalyticSurface.height_jet": _height_jet_attrs,
}


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n.startswith("dsrigidity") and m]


def _public_functions(module):
    """(span name, function) for each public function defined in ``module``.

    A function bound under several names (``surface_core`` and
    ``surface_core_py``) is wrapped once, under its shortest public name.
    """
    found = {}
    for attr, obj in vars(module).items():
        func = getattr(obj, "py_func", obj)  # a numba dispatcher wraps py_func
        if attr.startswith("_") or not inspect.isfunction(func):
            continue
        if func.__module__ != module.__name__:
            continue
        found.setdefault(id(obj), (obj, []))[1].append(attr)
    return [(min(attrs, key=len), obj) for obj, attrs in found.values()]


def _public_methods(layer, module):
    """(class, attribute, span name) for the traced methods of each class."""
    out = []
    for cls in vars(module).values():
        if not inspect.isclass(cls) or cls.__module__ != module.__name__:
            continue
        if issubclass(cls, (enum.Enum, BaseException)):
            continue
        extra = EXTRA_METHODS.get(f"{layer}.{cls.__name__}", ())
        for attr, raw in vars(cls).items():
            func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if not inspect.isfunction(func):
                continue
            if attr.startswith("_") and attr not in extra:
                continue
            out.append((cls, attr, f"{layer}.{cls.__name__}.{attr}"))
    return out


class Recorder:
    """Spans of the layer calls made inside ``recording`` blocks."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, attrs or None]
        self._stack = []
        self._patches = []  # (owner, attribute, original object)

    def _wrap(self, func, name):
        attrs_of = ATTRS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            attrs = attrs_of(args, kwargs) if attrs_of else None
            span = [name, 0.0, 0.0, self._stack[-1], attrs]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def _replace(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _install(self):
        modules = {layer: importlib.import_module(f"dsrigidity.{layer}") for layer in LAYERS}
        package = _package_modules()
        for layer, module in modules.items():
            for short, func in _public_functions(module):
                wrapped = self._wrap(func, f"{layer}.{short}")
                for mod in package:
                    for attr, obj in list(vars(mod).items()):
                        if obj is func:
                            self._replace(mod, attr, wrapped)
            for cls, attr, name in _public_methods(layer, module):
                raw = vars(cls)[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name))
                elif isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(raw.__func__, name))
                else:
                    new = self._wrap(raw, name)
                self._replace(cls, attr, new)

    def _restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def recording(self, root):
        """Wrap the layers and record spans under a root span named ``root``."""
        if self._patches:
            raise RuntimeError("recording blocks do not nest")
        span = [root, time.perf_counter(), 0.0, -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            self._install()
            yield
        finally:
            self._restore()
            span[2] = time.perf_counter()
            self._stack.clear()


def self_times(spans):
    """Each span's duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


def _is_layer(layer):
    return lambda name: name.startswith(layer + ".")


def layer_metrics(spans, verdicts):
    """Per-layer metrics per traced verdict, from the spans of ``verdicts`` verdicts.

    Times are self times in seconds, so each span's time is counted in
    exactly one layer; counts are calls or nodes.  Everything is divided by
    the number of traced verdicts.
    """
    selfs = self_times(spans)
    names = [s[0] for s in spans]

    def total(pred):
        return sum(t for n, t in zip(names, selfs) if pred(n))

    def count(pred):
        return sum(1 for n in names if pred(n))

    def attr_sum(pred, key):
        return sum(s[4][key] for s in spans if pred(s[0]) and s[4])

    kernels = _is_layer("kernels")
    core = "kernels.surface_core".__eq__
    fields = "geometry.evaluate_fields".__eq__
    height_jet = lambda n: n.startswith("surfaces.") and n.endswith(".height_jet")
    height = lambda n: n.startswith("surfaces.") and n.endswith(".height")
    node_data = lambda n: n.startswith("transport.") and n.endswith("Correspondence.node_data")
    requests = [i for i, n in enumerate(names) if n == "transport.IsometricPair.node_data"]
    computed = {s[3] for s in spans if node_data(s[0])}
    integrate = {"quadrature.integrate_surface", "quadrature.integrate_sphere", "quadrature.reduce_sum"}
    regraph = {i for i, n in enumerate(names) if n == "transport.transform_surface"}
    render = {"reports.RunReport.render", "reports.RunReport.summary", "reports.CheckRecord.line"}
    root = []
    for i, s in enumerate(spans):
        root.append(i if s[3] < 0 else root[s[3]])
    keys = {(root[i], s[4]["key"]) for i, s in enumerate(spans) if fields(s[0])}

    nodes = attr_sum(core, "nodes")
    kernel_s = total(kernels)
    verdict_s = sum(s[2] - s[1] for s in spans if s[0] == "verdict")
    per = {
        "kernels.surface_core.self_s": total(core),
        "kernels.curvature_fields.self_s": total("kernels.curvature_fields".__eq__),
        "kernels.nodes": nodes,
        "kernels.bytes_computed": attr_sum(kernels, "bytes"),
        "geometry.evaluate_fields.calls": count(fields),
        "geometry.evaluate_fields.nodes": attr_sum(fields, "nodes"),
        "geometry.self_s": total(_is_layer("geometry")),
        "surfaces.height_jet.self_s": total(height_jet),
        "surfaces.height_jet.nodes": attr_sum(height_jet, "nodes"),
        "surfaces.grid_jets.self_s": total("surfaces.SampledGridSurface.grid_jets".__eq__),
        "surfaces.height.calls": count(height),
        "surfaces.height.self_s": total(height),
        "jets.ops": count(_is_layer("jets")),
        "jets.self_s": total(_is_layer("jets")),
        "transport.node_data.calls": count(node_data),
        "transport.node_data.self_s": total(node_data),
        "transport.regraph.self_s": total("transport.transform_surface".__eq__),
        "transport.regraph.height_calls": sum(
            1 for s in spans if height(s[0]) and s[3] in regraph
        ),
        "integrals.self_s": total(_is_layer("integrals")),
        "integrals.tables.calls": count("integrals.pair_integrand_tables".__eq__),
        "quadrature.rule_s": total("quadrature.gauss_sphere_rule".__eq__),
        "quadrature.integrate.calls": sum(
            1 for s in spans
            if s[0] in integrate and names[s[3]] not in integrate
        ),
        "quadrature.integrate.self_s": total(integrate.__contains__),
        "ambient.lie_derivative.calls": count("ambient.lie_derivative_residual".__eq__),
        "ambient.self_s": total(_is_layer("ambient")),
        "symfun.calls": count(_is_layer("symfun")),
        "cli.parse_s": total("cli.ExperimentConfig.__init__".__eq__),
        "reports.render_s": total(render.__contains__),
    }
    out = {name: value / verdicts for name, value in per.items()}
    out["kernels.ns_per_node"] = 1e9 * kernel_s / nodes if nodes else 0.0
    out["kernels.verdict_share"] = kernel_s / verdict_s if verdict_s else 0.0
    out["geometry.eval_useful"] = len(keys) / per["geometry.evaluate_fields.calls"] if keys else 0.0
    out["transport.node_data.reuse"] = (
        sum(1 for i in requests if i not in computed) / len(requests) if requests else 0.0
    )
    return out

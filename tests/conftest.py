import numpy as np
import pytest

from dsrigidity import kernels
from dsrigidity.quadrature import gauss_sphere_rule
from dsrigidity.surfaces import AnalyticSurface


@pytest.fixture(scope="session")
def rule_64():
    return gauss_sphere_rule(64, 128)


@pytest.fixture(scope="session")
def rule_32():
    return gauss_sphere_rule(32, 64)


@pytest.fixture(scope="session")
def slice_half():
    return AnalyticSurface(0.5)


@pytest.fixture(scope="session")
def perturbed_surface():
    return AnalyticSurface(0.6, [(0.05, 2, 0)])


@pytest.fixture(scope="session")
def scattered_nodes():
    rng = np.random.default_rng(42)
    theta = rng.uniform(0.1, np.pi - 0.1, 250)
    phi = rng.uniform(0.0, 2.0 * np.pi, 250)
    return theta, phi


@pytest.fixture
def kernel_calls(monkeypatch):
    """Node counts of the calls to each kernel that forms ``SurfaceFields``."""

    def counted(kernel, seen):
        def call(*args, **kwargs):
            seen.append(np.shape(args[0])[-1])
            return kernel(*args, **kwargs)

        return call

    calls = {}
    for name in (
        "surface_core", "normal_fields", "connection", "potential_jets", "frame_hessian",
        "curvature_fields", "newton_divergence",
    ):
        calls[name] = []
        monkeypatch.setattr(kernels, name, counted(getattr(kernels, name), calls[name]))
    return calls

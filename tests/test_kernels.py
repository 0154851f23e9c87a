import math
import warnings

import numpy as np
import pytest

from dsrigidity import geometry
from dsrigidity.errors import NonSpacelike
from dsrigidity.surfaces import AnalyticSurface


def test_surface_kernels_satisfy_their_invariants():
    rng = np.random.default_rng(1)
    n = 300
    theta = rng.uniform(0.15, math.pi - 0.15, n)
    phi = rng.uniform(0.0, 2 * math.pi, n)
    surf = AnalyticSurface(0.55, [(0.05, 2, 0), (0.02, 4, 3)])
    y, dy, d2y, d3y = surf.jets(theta, phi)

    f = geometry.evaluate_fields(theta, phi, (y, dy, d2y, d3y))
    eye = np.broadcast_to(np.eye(2), (n, 2, 2))
    np.testing.assert_allclose(f.g_inv @ f.g, eye, atol=1e-13)
    frame_t = f.frame.transpose(0, 2, 1)
    np.testing.assert_allclose(f.frame @ f.g @ frame_t, eye, atol=1e-13)
    np.testing.assert_allclose(f.w_frame, f.frame @ f.h @ frame_t, atol=1e-13)
    np.testing.assert_array_equal(f.w_frame, f.w_frame.transpose(0, 2, 1))
    np.testing.assert_allclose(f.sigma1, np.trace(f.w_frame, axis1=1, axis2=2), atol=1e-14)
    np.testing.assert_allclose(f.sigma2, np.linalg.det(f.w_frame), atol=1e-14)
    np.testing.assert_allclose(f.gamma, f.gamma.transpose(0, 1, 3, 2), atol=1e-14)

    # one node with |grad y| >= cosh y; numpy must not warn on the way to the error
    bad = 123
    dy = dy.copy()
    dy[bad, 0] = 2.0 * math.cosh(y[bad])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonSpacelike, match=f"at node {bad} "):
            geometry.evaluate_fields(theta, phi, (y, dy, d2y, d3y))

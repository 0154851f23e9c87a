"""The transport's three second-order chain rules on jet tuples.

A jet is the tuple ``(f, d, d2)`` of a value with its gradient and Hessian
with respect to the chart variables (theta, phi): the pair suites read
nothing beyond second order.  ``f`` is a node array, ``d`` ``(2, n)`` and
``d2`` ``(2, 2, n)`` put the derivative axes first and the nodes last, the
layout of every stored tensor and of the height jets that
``geometry.evaluate_fields`` takes.

The isometric transport lifts the image coordinates through ``arcsinh``,
``hypot`` and ``atan2``, each one hand-written chain rule that takes and
returns such tuples.  No jet is multiplied by another jet.  Every Hessian is
formed symmetric term by term, so ``d2[0, 1]`` and ``d2[1, 0]`` carry the
same bits.
"""

import numpy as np


def _sq(a):
    """a_i a_j of a gradient."""
    return a[:, None] * a[None, :]


def _outer(a, b):
    """Symmetric a_i b_j + a_j b_i of two gradients."""
    ab = a[:, None] * b[None, :]
    return ab + np.swapaxes(ab, 0, 1)


def arcsinh(j):
    x, d, d2 = j
    q = 1.0 + x * x
    u1 = q**-0.5
    return np.arcsinh(x), u1 * d, -x * q**-1.5 * _sq(d) + u1 * d2


def hypot(a, b):
    """Jet of r = sqrt(a^2 + b^2) where r > 0:
    r_i = (a a_i + b b_i) / r, r_ij = (a a_ij + b b_ij + a_i a_j + b_i b_j - r_i r_j) / r."""
    (a, da, d2a), (b, db, d2b) = a, b
    r = np.hypot(a, b)
    d = (a * da + b * db) / r
    d2 = a * d2a + b * d2b + _sq(da) + _sq(db) - _sq(d)
    return r, d, d2 / r


def atan2(b, a):
    """Jet of atan2(b, a) where D = a^2 + b^2 > 0.

    The gradient is t_i = (a b_i - b a_i) / D.  The Hessian
    [a b_ij - b a_ij + a_j b_i - b_j a_i] / D - t_i D_j / D is symmetric, and
    its antisymmetric terms cancel, so it is formed as
    (a b_ij - b a_ij) / D - (t_i e_j + t_j e_i) with e = (a a_i + b b_i) / D.
    """
    (b, db, d2b), (a, da, d2a) = b, a
    inv = 1.0 / (a * a + b * b)
    t = (a * db - b * da) * inv
    e = (a * da + b * db) * inv
    return np.arctan2(b, a), t, (a * d2b - b * d2a) * inv - _outer(t, e)

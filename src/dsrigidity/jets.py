"""Second-order jets in the two chart variables and the transport's lifts.

A :class:`Jet3` carries a value with its gradient and Hessian with respect
to the chart variables (theta, phi): the pair suites read nothing beyond
second order.  (The class keeps its name because perfbench traces its
operators as ``jets.Jet3``.)  ``f`` is a node array, ``d[i]`` and
``d2[i, j]`` put the derivative axes first, so every component is a node
array too.  ``AnalyticSurface.height_jet`` returns one.

The isometric transport builds the embedded point in closed form, applies
the Lorentz matrix through the two linear operations of the class (a sum of
jets and a jet times a scalar act on each component alike, exactly) and
lifts the image coordinates through ``arcsinh``, ``hypot`` and ``atan2``,
each one hand-written second-order chain rule.  No jet is multiplied by
another jet.  Every Hessian is formed symmetric term by term, so
``d2[0, 1]`` and ``d2[1, 0]`` carry the same bits.
"""

import numpy as np


class Jet3:
    __slots__ = ("f", "d", "d2")

    def __init__(self, f, d, d2):
        self.f = f
        self.d = d
        self.d2 = d2

    def __add__(self, other):
        """Sum of two jets over the same nodes."""
        return Jet3(self.f + other.f, self.d + other.d, self.d2 + other.d2)

    def __mul__(self, c):
        """The jet times a scalar: every component scaled by c."""
        return Jet3(self.f * c, self.d * c, self.d2 * c)


def _sq(a):
    """a_i a_j of a gradient."""
    return a[:, None] * a[None, :]


def _outer(a, b):
    """Symmetric a_i b_j + a_j b_i of two gradients."""
    ab = a[:, None] * b[None, :]
    return ab + np.swapaxes(ab, 0, 1)


def arcsinh(j):
    x = j.f
    q = 1.0 + x * x
    u1 = q**-0.5
    return Jet3(np.arcsinh(x), u1 * j.d, -x * q**-1.5 * _sq(j.d) + u1 * j.d2)


def hypot(a, b):
    """Jet of r = sqrt(a^2 + b^2) where r > 0:
    r_i = (a a_i + b b_i) / r, r_ij = (a a_ij + b b_ij + a_i a_j + b_i b_j - r_i r_j) / r."""
    r = np.hypot(a.f, b.f)
    d = (a.f * a.d + b.f * b.d) / r
    d2 = a.f * a.d2 + b.f * b.d2 + _sq(a.d) + _sq(b.d) - _sq(d)
    return Jet3(r, d, d2 / r)


def atan2(b, a):
    """Jet of atan2(b, a) where D = a^2 + b^2 > 0.

    The gradient is t_i = (a b_i - b a_i) / D.  The Hessian
    [a b_ij - b a_ij + a_j b_i - b_j a_i] / D - t_i D_j / D is symmetric, and
    its antisymmetric terms cancel, so it is formed as
    (a b_ij - b a_ij) / D - (t_i e_j + t_j e_i) with e = (a a_i + b b_i) / D.
    """
    inv = 1.0 / (a.f * a.f + b.f * b.f)
    t = (a.f * b.d - b.f * a.d) * inv
    e = (a.f * a.d + b.f * b.d) * inv
    return Jet3(np.arctan2(b.f, a.f), t, (a.f * b.d2 - b.f * a.d2) * inv - _outer(t, e))

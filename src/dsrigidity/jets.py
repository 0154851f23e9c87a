"""Forward-mode automatic differentiation: second-order jets in two variables.

A :class:`Jet3` carries a value together with its gradient and Hessian with
respect to the two chart variables (theta, phi): the pair suites read
nothing beyond second order.  (The class keeps its name because perfbench
traces its operators as ``jets.Jet3``.)  Components are numpy arrays
broadcast over an arbitrary batch of evaluation points, so one jet
evaluation covers a whole quadrature grid.  Complex components are
supported where needed (``log`` of a complex jet yields the azimuth angle
and its derivatives without a two-argument arctangent).

Derivative layout: ``d[i]`` and ``d2[i, j]`` with the derivative axes
leading, so elementwise broadcasting against the batch axes is automatic.
``d2`` is kept symmetric by construction.
"""

import numpy as np

NVARS = 2


def _zeros_like(value, extra_shape):
    return np.zeros(extra_shape + np.shape(value), dtype=np.asarray(value).dtype)


class Jet3:
    __slots__ = ("f", "d", "d2")

    def __init__(self, f, d, d2):
        self.f = f
        self.d = d
        self.d2 = d2

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value):
        value = np.asarray(value, dtype=float) + 0.0
        return cls(
            value,
            _zeros_like(value, (NVARS,)),
            _zeros_like(value, (NVARS, NVARS)),
        )

    @classmethod
    def variable(cls, value, index):
        jet = cls.constant(value)
        jet.d = jet.d.copy()
        jet.d[index] = np.ones_like(jet.f)
        return jet

    # -- helpers -------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Jet3):
            return other
        return Jet3.constant(other)

    def _aligned_with(self, other):
        """Broadcast both jets to a common batch shape (views, no copies)."""
        batch = np.broadcast_shapes(np.shape(self.f), np.shape(other.f))

        def fix(jet):
            old = np.shape(jet.f)
            if old == batch:
                return jet
            pad = (1,) * (len(batch) - len(old))

            def up(arr, naxes):
                arr = np.reshape(arr, np.shape(arr)[:naxes] + pad + old)
                return np.broadcast_to(arr, np.shape(arr)[:naxes] + batch)

            return Jet3(
                np.broadcast_to(jet.f, batch),
                up(jet.d, 1),
                up(jet.d2, 2),
            )

        return fix(self), fix(other)

    def _chain(self, u, u1, u2):
        """Apply a scalar function with derivatives u1, u2 at self.f."""
        d = u1 * self.d
        outer = self.d[:, None] * self.d[None, :]
        d2 = u2 * outer + u1 * self.d2
        return Jet3(u, d, d2)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        s, o = self._aligned_with(self._coerce(other))
        return Jet3(s.f + o.f, s.d + o.d, s.d2 + o.d2)

    __radd__ = __add__

    def __neg__(self):
        return Jet3(-self.f, -self.d, -self.d2)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet3) and np.ndim(other) == 0:
            # a scalar factor scales every component; no constant jet needed
            return Jet3(self.f * other, self.d * other, self.d2 * other)
        s, o = self._aligned_with(self._coerce(other))
        f = s.f * o.f
        d = s.d * o.f + s.f * o.d
        d2 = (
            s.d2 * o.f
            + s.d[:, None] * o.d[None, :]
            + o.d[:, None] * s.d[None, :]
            + s.f * o.d2
        )
        return Jet3(f, d, d2)

    __rmul__ = __mul__

    def reciprocal(self):
        x = self.f
        return self._chain(1.0 / x, -1.0 / x**2, 2.0 / x**3)

    def __truediv__(self, other):
        return self * self._coerce(other).reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.reciprocal()


# -- transcendental lifts ---------------------------------------------


def sin(j):
    s, c = np.sin(j.f), np.cos(j.f)
    return j._chain(s, c, -s)


def cos(j):
    s, c = np.sin(j.f), np.cos(j.f)
    return j._chain(c, -s, -c)


def sinh(j):
    s, c = np.sinh(j.f), np.cosh(j.f)
    return j._chain(s, c, s)


def cosh(j):
    s, c = np.sinh(j.f), np.cosh(j.f)
    return j._chain(c, s, c)


def log(j):
    """Natural log; valid for complex components (branch-local)."""
    x = j.f
    return j._chain(np.log(x), 1.0 / x, -1.0 / x**2)


def sqrt(j):
    r = np.sqrt(j.f)
    return j._chain(r, 0.5 / r, -0.25 / r**3)


def arcsinh(j):
    x = j.f
    q = 1.0 + x**2
    return j._chain(np.arcsinh(x), q**-0.5, -x * q**-1.5)


def azimuth(jx, jy):
    """Jet of atan2(y, x) built from Im log(x + i y).

    The value uses the principal branch; derivatives are branch-free
    wherever (x, y) != (0, 0).
    """
    w = log(Jet3(jx.f + 1j * jy.f, jx.d + 1j * jy.d, jx.d2 + 1j * jy.d2))
    phi = np.arctan2(np.asarray(jy.f), np.asarray(jx.f))
    return Jet3(phi, w.d.imag, w.d2.imag)

"""Forward-mode second-order jets and the jet-algebra transport they fed.

This is the general ``Jet3`` route the isometric transport used before it
was written as closed-form chain rules: products of jets, reciprocals,
transcendental lifts and the azimuth as Im log(x + i y) of a complex jet.
It is kept as an oracle.  ``transport_oracle`` pushes a surface's height
jet through an isometry by jet algebra, inverts the chart map and forms
the frame products with stacked ``@`` and einsum, and
``tests/test_transport.py`` holds ``IsometryCorrespondence.node_data`` to
it.

A :class:`Jet3` carries a value together with its gradient and Hessian with
respect to the two chart variables (theta, phi).  Components are numpy
arrays broadcast over an arbitrary batch of evaluation points.  Derivative
layout: ``d[i]`` and ``d2[i, j]`` with the derivative axes leading.
"""

import numpy as np

from dsrigidity import geometry
from dsrigidity.surfaces import node_arrays

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


# -- the jet-algebra transport -----------------------------------------


def embedded_jets(y, theta, phi):
    """Jets of the pseudosphere embedding of a graph surface with height jet y."""
    y = Jet3(y.f, y.d, y.d2)
    jt = Jet3.variable(theta, 0)
    jp = Jet3.variable(phi, 1)
    st = sin(jt)
    c = cosh(y)
    return sinh(y), c * (st * cos(jp)), c * (st * sin(jp)), c * cos(jt)


def transport_oracle(surface, iso, theta, phi):
    """Image chart angles, image height arrays (y, dy, d2y) node axis first,
    the chart map's Jacobian (n, a, i), the image shape operator in the pushed
    frame and the frame Hessian of the pulled-back potential, by jet algebra."""
    theta = np.ascontiguousarray(theta, dtype=float)
    phi = np.ascontiguousarray(phi, dtype=float)
    y_jet = surface.height_jet(theta, phi)
    base = geometry.evaluate_fields(theta, phi, node_arrays(y_jet))

    lam = iso.matrix
    x = embedded_jets(y_jet, theta, phi)
    xt = [sum((lam[a, b] * x[b] for b in range(1, 4)), lam[a, 0] * x[0]) for a in range(4)]
    r = sqrt(xt[1] * xt[1] + xt[2] * xt[2] + xt[3] * xt[3])
    rho_t = arcsinh(xt[0])
    theta_t = azimuth(xt[3], sqrt(xt[1] * xt[1] + xt[2] * xt[2]))
    phi_t = azimuth(xt[1] / r, xt[2] / r)

    # invert the chart map through second order
    u = (theta_t, phi_t)
    u1 = np.stack([np.moveaxis(j.d, 0, -1) for j in u], axis=-2)  # (n, a, i)
    u2 = np.stack([np.moveaxis(j.d2, (0, 1), (-2, -1)) for j in u], axis=-3)
    ainv = np.linalg.inv(u1)  # (n, i, a)
    dy = np.einsum("ni,nia->na", np.moveaxis(rho_t.d, 0, -1), ainv)
    m2 = np.moveaxis(rho_t.d2, (0, 1), (-2, -1)) - np.einsum("na,naij->nij", dy, u2)
    d2y = np.einsum("nia,nij,njb->nab", ainv, m2, ainv)
    tilde = geometry.evaluate_fields(theta_t.f, phi_t.f, (rho_t.f, dy, d2y))

    pushed = base.frame @ np.swapaxes(u1, 1, 2)
    pot = -xt[0]
    hess = np.moveaxis(pot.d2, (0, 1), (-2, -1)) - np.einsum(
        "nkij,nk->nij", base.gamma, np.moveaxis(pot.d, 0, -1)
    )
    return {
        "theta": theta_t.f,
        "phi": phi_t.f,
        "y": rho_t.f,
        "dy": dy,
        "d2y": d2y,
        "jacobian": u1,
        "w_tilde_frame": np.einsum("nai,nij,nbj->nab", pushed, tilde.h, pushed),
        "hess_phi_tilde_frame": base.frame @ hess @ np.swapaxes(base.frame, 1, 2),
    }

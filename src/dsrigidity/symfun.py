"""Elementary symmetric functions of self-adjoint operators and their cones.

Everything here treats an operator through its matrix in some frame.  The
second symmetric function is evaluated entrywise,

    sigma2(W) = sum_{i<j} w_ii w_jj - w_ij w_ji,

which is basis-independent and exact for rational input (no eigensolver).
The positivity cone of sigma2 relative to the identity direction is read
off the quadratic t -> sigma2(W + t I), whose roots are real for every
symmetric W.
"""

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from math import comb, fsum

import numpy as np

from .errors import DimensionMismatch, NonHyperbolic, NotInCone

#: absolute tolerance on cone roots for the Boundary label
BOUNDARY_TOL = 1e-12
#: relative tolerance for detecting the equality case of the cone inequality
EQUALITY_TOL = 1e-10
#: discriminants below -HYPERBOLICITY_TOL * scale signal non-symmetric input
HYPERBOLICITY_TOL = 1e-9


class ConeLabel(Enum):
    PLUS = "PlusCone"
    MINUS = "MinusCone"
    OUTSIDE = "Outside"
    BOUNDARY = "Boundary"


#: cone labels in label-index order (see ``cone_roots``)
CONE_LABELS = tuple(ConeLabel)


@dataclass(frozen=True, eq=False)
class SymOperator:
    """A symmetric n x n matrix (2 <= n <= 8), symmetrized at construction."""

    entries: np.ndarray

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got {entries.shape}")
        n = entries.shape[0]
        if not 2 <= n <= 8:
            raise DimensionMismatch(f"dimension {n} outside supported range 2..8")
        if not np.all(np.isfinite(entries)):
            raise ValueError("matrix entries must be finite")
        sym = 0.5 * (entries + entries.T)
        sym.setflags(write=False)
        object.__setattr__(self, "entries", sym)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class ConeReport:
    """Roots of t -> sigma2(W + t I) and the resulting cone label."""

    roots: tuple
    label: ConeLabel


@dataclass(frozen=True)
class GardingGap:
    """Polarized form versus geometric mean for a pair in the plus cone."""

    sigma11: float
    geo_mean: float
    gap: float
    equality: bool


def _mat(w) -> np.ndarray:
    if isinstance(w, SymOperator):
        return w.entries
    return np.asarray(w, dtype=float)


def _out(x):
    """A Python float for one operator, the array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def sigma1(w):
    """Trace of the operator (first symmetric function)."""
    return _out(np.trace(_mat(w), axis1=-2, axis2=-1))


def sigma2(w):
    """Second symmetric function via the entrywise pair formula."""
    m = _mat(w)
    terms = [
        m[..., i, i] * m[..., j, j] - m[..., i, j] * m[..., j, i]
        for i, j in combinations(range(m.shape[-1]), 2)
    ]
    return _out(sum(terms[1:], terms[0]))


def sigma_all(w) -> list:
    """All symmetric functions (sigma_0 .. sigma_n) as sums of principal minors.

    sigma_k, the signed coefficient of the characteristic polynomial, is the
    sum of the k x k principal minors (at most 70 of them for n <= 8).  Each
    minor keeps a determinant's accuracy, so sigma_k above the rank of W is
    zero up to the roundoff of those minors; no eigendecomposition is
    performed.  Subnormal entries are flushed to zero first: a subnormal
    LU pivot makes ``np.linalg.det`` divide by zero, and the flush moves
    sigma_k by at most one subnormal times |W|^(k-1).
    """
    m = _mat(w)
    m = np.where(np.abs(m) < np.finfo(float).tiny, 0.0, m)
    n = m.shape[0]
    out = [1.0]
    for k in range(1, n + 1):
        idx = np.array(list(combinations(range(n), k)))
        minors = np.linalg.det(m[idx[:, :, None], idx[:, None, :]])
        out.append(fsum(minors))
    return out


def d_sigma2(w) -> np.ndarray:
    """Entrywise derivative of sigma2: sigma1(W) I - W^T."""
    m = _mat(w)
    return np.multiply.outer(sigma1(m), np.eye(m.shape[-1])) - np.swapaxes(m, -1, -2)


def sigma11(w, wt):
    """Polarized form of sigma2: 0.5 sum_ij d(sigma2)/dw_ij(W) wt_ij."""
    a, b = _mat(w), _mat(wt)
    if a.shape != b.shape:
        raise DimensionMismatch(f"operator shapes differ: {a.shape} vs {b.shape}")
    return _out(0.5 * np.einsum("...ij,...ij->...", d_sigma2(a), b))


def cone_roots(w):
    """Roots t1 <= t2 of t -> sigma2(W + t I) and the cone label index.

    The quadratic has coefficients a = n(n-1)/2, b = (n-1) sigma1(W) and
    c = sigma2(W).  The label index k names ``CONE_LABELS[k]``.  Takes one
    operator or a stack; raises NonHyperbolic when a discriminant is
    negative beyond roundoff, which symmetric input cannot produce.
    """
    m = _mat(w)
    n = m.shape[-1]
    a = n * (n - 1) / 2.0
    b = (n - 1) * sigma1(m)
    c = sigma2(m)
    disc = b * b - 4.0 * a * c
    scale = np.maximum(b * b, np.abs(4.0 * a * c))
    bad = np.flatnonzero(disc < -HYPERBOLICITY_TOL * np.maximum(scale, 1.0))
    if bad.size:
        k = bad[0]
        raise NonHyperbolic(
            f"negative discriminant {np.ravel(disc)[k]:.3e} "
            f"at scale {np.ravel(scale)[k]:.3e}"
        )
    root = np.sqrt(np.maximum(disc, 0.0))
    t1 = (-b - root) / (2.0 * a)
    t2 = (-b + root) / (2.0 * a)
    boundary = (np.abs(t1) <= BOUNDARY_TOL) | (np.abs(t2) <= BOUNDARY_TOL)
    # indices into CONE_LABELS: plus 0, minus 1, outside 2, boundary 3
    label = np.select([boundary, t2 < 0.0, t1 > 0.0], [3, 0, 1], 2)
    return _out(t1), _out(t2), label


def cone_classify(w) -> ConeReport:
    """Classify one operator against the sigma2 positivity cones."""
    t1, t2, label = cone_roots(w)
    return ConeReport(roots=(t1, t2), label=CONE_LABELS[int(label)])


def garding_gap(w, wt) -> GardingGap:
    """Gap of the degree-two cone inequality for a plus-cone pair.

    sigma11(W, Wt) >= sqrt(sigma2(W) sigma2(Wt)) whenever both operators
    lie in the plus cone, with equality exactly for proportional pairs.
    """
    a, b = _mat(w), _mat(wt)
    if a.shape != b.shape:
        raise DimensionMismatch(f"operator shapes differ: {a.shape} vs {b.shape}")
    for name, m in (("first", a), ("second", b)):
        label = cone_classify(m).label
        if label is not ConeLabel.PLUS:
            raise NotInCone(f"{name} operator is {label.value}, not PlusCone")
    s11 = sigma11(a, b)
    geo = float(np.sqrt(sigma2(a) * sigma2(b)))
    gap = s11 - geo
    equality = gap <= EQUALITY_TOL * max(1.0, abs(geo))
    return GardingGap(sigma11=s11, geo_mean=geo, gap=gap, equality=equality)


def sigma_line_coefficients(w, k) -> np.ndarray:
    """Coefficients (descending in t) of t -> sigma_k(W + t I).

    sigma_k(W + t I) = sum_{j=0..k} C(n-j, k-j) sigma_j(W) t^(k-j).
    """
    m = _mat(w)
    n = m.shape[0]
    sig = sigma_all(m)
    return np.array([comb(n - j, k - j) * sig[j] for j in range(k + 1)])

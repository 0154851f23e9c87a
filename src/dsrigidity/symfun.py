"""Elementary symmetric functions of self-adjoint operators and their cones.

Everything here treats an operator through its matrix in some frame.  The
second symmetric function is evaluated entrywise,

    sigma2(W) = sum_{i<j} w_ii w_jj - w_ij w_ji,

which is basis-independent and exact for rational input (no eigensolver).
The positivity cone of sigma2 relative to the identity direction is read
off the quadratic t -> sigma2(W + t I), whose roots are real for every
symmetric W.

The functions take one ``(k, k)`` operator or a ``(k, k, ...)`` stack of
them as a float array, the matrix indices first, as the geometry stores
its tensors; a stack gives one result per trailing index.  Nothing here
symmetrizes: ``cli.parse_matrix`` symmetrizes and checks the matrices of
the command line.
"""

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from math import comb, fsum

import numpy as np

from .errors import DimensionMismatch, NonHyperbolic, NotInCone

#: Boundary label: the smaller cone root is at most this times the larger in size
BOUNDARY_TOL = 1e-12
#: equality case of the cone inequality: the gap is at most this times the mean
EQUALITY_TOL = 1e-10
#: discriminants below -HYPERBOLICITY_TOL * scale signal non-symmetric input
HYPERBOLICITY_TOL = 1e-9
#: the operator dimensions ``cli.parse_matrix`` accepts; ``sigma_all`` sums
#: at most 70 principal minors for each sigma_k over this range
DIMENSIONS = range(2, 9)


class ConeLabel(Enum):
    PLUS = "PlusCone"
    MINUS = "MinusCone"
    OUTSIDE = "Outside"
    BOUNDARY = "Boundary"


#: cone labels in label-index order (see ``cone_roots``)
CONE_LABELS = tuple(ConeLabel)


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
    return np.asarray(w, dtype=float)


def _out(x):
    """A Python float for one operator, the array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def sigma1(w):
    """Trace of the operator (first symmetric function)."""
    m = _mat(w)
    return _out(sum((m[i, i] for i in range(1, m.shape[0])), m[0, 0]))


def sigma2(w):
    """Second symmetric function via the entrywise pair formula."""
    m = _mat(w)
    terms = [
        m[i, i] * m[j, j] - m[i, j] * m[j, i]
        for i, j in combinations(range(m.shape[0]), 2)
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
    eye = np.eye(m.shape[0]).reshape(m.shape[:2] + (1,) * (m.ndim - 2))
    return sigma1(m) * eye - np.swapaxes(m, 0, 1)


def contract(a, b):
    """sum_ij a_ij b_ij, summed from 0 down each column, then across the
    columns from 0.  On 2x2 stacks that is (p00 + p10) + (p01 + p11), the
    bits, signed zeros too, of ``np.einsum("nij,nij->n")`` on node-major stacks."""
    return sum(sum(a * b))


def sigma11(w, wt):
    """Polarized form of sigma2: 0.5 sum_ij d(sigma2)/dw_ij(W) wt_ij."""
    a, b = _mat(w), _mat(wt)
    if a.shape != b.shape:
        raise DimensionMismatch(f"operator shapes differ: {a.shape} vs {b.shape}")
    return _out(0.5 * contract(d_sigma2(a), b))


def cone_roots(w):
    """Roots t1 <= t2 of t -> sigma2(W + t I) and the cone label index.

    The quadratic has coefficients a = n(n-1)/2, b = (n-1) sigma1(W) and
    c = sigma2(W).  The label index k names ``CONE_LABELS[k]``.  Takes one
    operator or a stack.
    """
    m = _mat(w)
    return cone_roots_from_sums(m.shape[0], sigma1(m), sigma2(m))


def cone_roots_from_sums(n, s1, s2):
    """``cone_roots`` of n x n operators whose sigma1 and sigma2 are ``s1``
    and ``s2``; raises NonHyperbolic when a discriminant is negative beyond
    roundoff, which symmetric input cannot produce.
    """
    a = n * (n - 1) / 2.0
    b = (n - 1) * s1
    disc = b * b - 4.0 * a * s2
    scale = np.maximum(b * b, np.abs(4.0 * a * s2))
    bad = np.flatnonzero(disc < -HYPERBOLICITY_TOL * scale)
    if bad.size:
        k = bad[0]
        raise NonHyperbolic(
            f"negative discriminant {np.ravel(disc)[k]:.3e} "
            f"at scale {np.ravel(scale)[k]:.3e}"
        )
    # the larger root first, the smaller from the product s2 / a: no cancellation
    big = -(b + np.copysign(np.sqrt(np.maximum(disc, 0.0)), b)) / (2.0 * a)
    small = np.divide(s2, a * big, out=np.zeros(np.shape(big)), where=big != 0.0)
    t1, t2 = np.minimum(big, small), np.maximum(big, small)
    boundary = np.abs(small) <= BOUNDARY_TOL * np.abs(big)
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
    equality = gap <= EQUALITY_TOL * geo
    return GardingGap(sigma11=s11, geo_mean=geo, gap=gap, equality=equality)


def sigma_line_coefficients(w, k) -> np.ndarray:
    """Coefficients (descending in t) of t -> sigma_k(W + t I).

    sigma_k(W + t I) = sum_{j=0..k} C(n-j, k-j) sigma_j(W) t^(k-j).
    """
    m = _mat(w)
    n = m.shape[0]
    sig = sigma_all(m)
    return np.array([comb(n - j, k - j) * sig[j] for j in range(k + 1)])

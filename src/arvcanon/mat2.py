"""Exact 2x2 complex linear algebra and the signature-matrix structure.

Matrices are plain ``(2, 2)`` complex ndarrays throughout the package.  They
act on row vectors by right multiplication, so the Moebius action of ``M`` on
a point ``w`` is the ratio of the two entries of ``(w, 1) M``.  This module
collects the closed-form pieces every other module leans on: determinants and
adjugates, Hermitian eigenvalues, the j-defect classification, the SU(1,1)
normalizer that puts a j-contractive matrix into lower-triangular form, and
the projective Moebius action with an explicit point at infinity.  Everything
is a pure function of its arguments; there is no shared state of any kind.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateActionError, InputError, PreconditionError

#: signature matrix; transfer families are j-contractive in the upper half-plane.
J = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)

#: flip matrix used by the half-line reflection; J1 @ J @ J1 == -J.
J1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

#: default tolerance on |det - 1| for matrices tagged as transfer values.
DET_TOL = 1e-10

#: default classification band for j-defect eigenvalues, relative to norm(T)^2.
CLASS_TOL = 1e-10


def mat2(a11, a12, a21, a22):
    """Assemble a (2, 2) complex array from its entries."""
    return np.array([[a11, a12], [a21, a22]], dtype=complex)


def as_mat2(m, name="matrix"):
    """Coerce to a finite (2, 2) complex array; raise InputError otherwise."""
    a = np.asarray(m, dtype=complex)
    if a.shape != (2, 2):
        raise InputError(f"{name} must be 2x2, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise InputError(f"{name} has non-finite entries")
    return a


def det2(m):
    """Determinant of a 2x2 array."""
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def adjugate(m):
    """Adjugate; equals the inverse when det == 1."""
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex)


def norm2(m):
    """Operator 2-norm (largest singular value), closed form."""
    f = float(np.sum(np.abs(m) ** 2))
    d = abs(det2(m)) ** 2
    disc = max(f * f - 4.0 * d, 0.0)
    return float(np.sqrt((f + np.sqrt(disc)) / 2.0))


def herm_eigs(h):
    """Eigenvalues (ascending) of a Hermitian 2x2 array, closed form."""
    p = h[0, 0].real
    r = h[1, 1].real
    mean = 0.5 * (p + r)
    disc = float(np.hypot(0.5 * (p - r), abs(h[0, 1])))
    return mean - disc, mean + disc


class JKind(enum.Enum):
    """Sign class of j - T j T*."""

    EXPANDING = "expanding"
    UNITARY = "unitary"
    CONTRACTIVE = "contractive"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class JClass:
    """Classification of a matrix against the signature form, with the two
    real eigenvalues of the defect j - T j T* that produced it."""

    kind: JKind
    eigenvalues: tuple

    @property
    def is_contractive(self):
        return self.kind in (JKind.CONTRACTIVE, JKind.UNITARY)


def j_defect(t, tol=CLASS_TOL):
    """Defect ``j - T j T*`` and its sign classification.

    The defect is symmetrized, ``(X + X*)/2``, to suppress round-off
    asymmetry.  Eigenvalues within ``tol * max(1, norm(T)^2)`` of zero count
    as zero, since round-off in forming the defect scales with norm(T)^2.
    """
    t = as_mat2(t, "T")
    x = J - t @ J @ t.conj().T
    x = 0.5 * (x + x.conj().T)
    lo, hi = herm_eigs(x)
    band = tol * max(1.0, norm2(t) ** 2)
    if abs(lo) <= band and abs(hi) <= band:
        kind = JKind.UNITARY
    elif lo >= -band:
        kind = JKind.CONTRACTIVE
    elif hi <= band:
        kind = JKind.EXPANDING
    else:
        kind = JKind.INDEFINITE
    return x, JClass(kind, (lo, hi))


@dataclass(frozen=True)
class ProjPoint:
    """Point of the projective line: a complex number or the point at
    infinity, kept explicit so disk-boundary cases stay exact."""

    value: complex = 0j
    at_infinity: bool = False

    @classmethod
    def infinity(cls):
        return cls(0j, True)

    def as_complex(self):
        if self.at_infinity:
            raise DegenerateActionError("projective point at infinity")
        return self.value

    def __eq__(self, other):
        if isinstance(other, ProjPoint):
            if self.at_infinity or other.at_infinity:
                return self.at_infinity == other.at_infinity
            return self.value == other.value
        if self.at_infinity:
            return False
        return self.value == other


def mobius_right(w, m):
    """Image of ``w`` under the right action ``(w, 1) M``, projectively.

    Returns the ratio of first to second entry of the image row; the point at
    infinity when the second entry vanishes.  Raises DegenerateActionError
    only when the whole image row is zero, which cannot happen for
    invertible ``m``.
    """
    m = as_mat2(m, "M")
    if isinstance(w, ProjPoint) and w.at_infinity:
        row = m[0, :]
    else:
        wv = w.value if isinstance(w, ProjPoint) else complex(w)
        row = wv * m[0, :] + m[1, :]
    num, den = complex(row[0]), complex(row[1])
    if num == 0 and den == 0:
        raise DegenerateActionError("Moebius action annihilates (w, 1)")
    if den == 0:
        return ProjPoint.infinity()
    return ProjPoint(num / den)


def su11_normalizer(t, check=True, det_tol=DET_TOL, class_tol=CLASS_TOL):
    """The unique U in SU(1,1) such that ``T U`` is lower triangular with
    positive diagonal, for j-contractive T with det T = 1.

    U is built from the first row ``(a, b)`` of T as
    ``(|a|^2 - |b|^2)^(-1/2) [[conj(a), -b], [-conj(b), a]]``; contractivity
    guarantees ``|a| > |b|``.  With ``check=False`` the (relatively costly)
    det and j-class preconditions are skipped; the ``|a| > |b|`` guard stays.
    """
    t = as_mat2(t, "T")
    if check:
        if abs(det2(t) - 1.0) > det_tol:
            raise PreconditionError(
                f"su11_normalizer needs det T = 1, got det = {det2(t)}"
            )
        _, cls = j_defect(t, class_tol)
        if not cls.is_contractive:
            raise PreconditionError(
                f"su11_normalizer needs a j-contractive matrix, got {cls.kind.value}"
            )
    a, b = t[0, 0], t[0, 1]
    lam2 = abs(a) ** 2 - abs(b) ** 2
    if lam2 <= 0.0:
        raise PreconditionError(
            "first row not j-timelike (|a| <= |b|): matrix is not j-contractive"
        )
    u = np.array([[np.conj(a), -b], [-np.conj(b), a]], dtype=complex)
    return u / np.sqrt(lam2)

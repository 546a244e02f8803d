"""Exact 2x2 complex linear algebra and the signature-matrix structure.

Matrices are complex ndarrays whose last two axes are the 2x2 entries, so
every helper here takes a single ``(2, 2)`` matrix or a whole ``(..., 2, 2)``
stack, such as a transfer family over (z, l), and works on it entrywise.
They act on row vectors by right multiplication, so the Moebius action of
``M`` on a point ``w`` is the ratio of the two entries of ``(w, 1) M``.  This
module collects the closed-form pieces every other module leans on:
products, determinants and adjugates, Hermitian eigenvalues, the j-defect
classification, the SU(1,1) normalizer that puts a j-contractive matrix into
lower-triangular form, and the Moebius action.  Everything is a pure
function of its arguments; there is no shared state of any kind.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateActionError, InputError, PreconditionError, _raise_first

#: signature matrix; transfer families are j-contractive in the upper half-plane.
J = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)

#: flip matrix used by the half-line reflection; J1 @ J @ J1 == -J.
J1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

#: default tolerance on |det - 1| for matrices tagged as transfer values.
DET_TOL = 1e-10

#: default classification band for j-defect eigenvalues, relative to norm(T)^2.
CLASS_TOL = 1e-10


def mat2(a11, a12, a21, a22):
    """Assemble a (..., 2, 2) complex stack from broadcast entries."""
    e = np.broadcast_arrays(*(np.asarray(x, dtype=complex) for x in (a11, a12, a21, a22)))
    return np.stack(e, axis=-1).reshape(e[0].shape + (2, 2))


def as_mat2(m, name="matrix"):
    """Coerce to a finite (..., 2, 2) complex stack; raise InputError otherwise."""
    a = np.asarray(m, dtype=complex)
    if a.shape[-2:] != (2, 2):
        raise InputError(f"{name} must be 2x2, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InputError(f"{name} has non-finite entries")
    return a


def _h(m):
    """Conjugate transpose of every matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def det2(m):
    """Determinant of a 2x2 stack.  The real products inside each complex
    product are rounded one by one, as numpy's scalar arithmetic rounds
    them where its array loops may fuse them into multiply-adds, so a stack
    gets the same bits as its matrices taken one at a time."""
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    det = np.empty(np.shape(a), dtype=complex)
    det.real = (a.real * d.real - a.imag * d.imag) - (b.real * c.real - b.imag * c.imag)
    det.imag = (a.real * d.imag + a.imag * d.real) - (b.real * c.imag + b.imag * c.real)
    return det[()]


def mul2(x, y, out=None):
    """Product x @ y of broadcast 2x2 stacks, formed entrywise: numpy's
    matmul costs about half a microsecond a matrix, this about forty
    nanoseconds on a stack of thousands (a lone matrix is faster through
    ``@``).  Each entry x_i1 y_1j + x_i2 y_2j is written into ``out`` (new
    when None) with one temporary; ``out`` may be x itself, for a product
    in place, since each row of x is read before it is written."""
    x, y = np.asarray(x), np.asarray(y)
    if out is None:
        out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    for i in (0, 1):
        first = x[..., i, 0] * y[..., 0, 0]
        first += x[..., i, 1] * y[..., 1, 0]
        second = out[..., i, 1]
        np.multiply(x[..., i, 1], y[..., 1, 1], out=second)
        second += x[..., i, 0] * y[..., 0, 1]
        out[..., i, 0] = first
    return out


def adjugate(m):
    """Adjugate; equals the inverse when det == 1."""
    return mat2(m[..., 1, 1], -m[..., 0, 1], -m[..., 1, 0], m[..., 0, 0])


def norm2(m):
    """Operator 2-norm (largest singular value), closed form."""
    f = np.sum(np.abs(m) ** 2, axis=(-2, -1))
    d = np.abs(det2(m)) ** 2
    return np.sqrt((f + np.sqrt(np.maximum(f * f - 4.0 * d, 0.0))) / 2.0)


def herm_eigs(h):
    """Eigenvalues (ascending) of a Hermitian 2x2 stack, closed form."""
    p = h[..., 0, 0].real
    r = h[..., 1, 1].real
    mean = 0.5 * (p + r)
    disc = np.hypot(0.5 * (p - r), np.abs(h[..., 0, 1]))
    return mean - disc, mean + disc


class JKind(enum.Enum):
    """Sign class of j - T j T*."""

    EXPANDING = "expanding"
    UNITARY = "unitary"
    CONTRACTIVE = "contractive"
    INDEFINITE = "indefinite"


#: JKind by the code j_defect classifies into, its tests taken in this order
_KINDS = np.array([JKind.UNITARY, JKind.CONTRACTIVE, JKind.EXPANDING,
                   JKind.INDEFINITE], dtype=object)


@dataclass(frozen=True)
class JClass:
    """Classification of a matrix against the signature form, with the two
    real eigenvalues of the defect j - T j T* that produced it; for a stack,
    ``kind`` is an array of JKind and the eigenvalues are arrays."""

    kind: JKind
    eigenvalues: tuple

    @property
    def is_contractive(self):
        return np.logical_or(self.kind == JKind.CONTRACTIVE, self.kind == JKind.UNITARY)


def j_defect(t, tol=CLASS_TOL):
    """Defect ``j - T j T*`` and its sign classification.

    For T = [[a, b], [c, d]] it is [[|a|^2 - |b|^2 - 1, a c* - b d*],
    [c a* - d b*, 1 + |c|^2 - |d|^2]], Hermitian by construction.
    Eigenvalues within ``tol * max(1, norm(T)^2)`` of zero count as zero,
    since round-off in forming the defect scales with norm(T)^2.
    """
    t = as_mat2(t, "T")
    a, b, c, d = t[..., 0, 0], t[..., 0, 1], t[..., 1, 0], t[..., 1, 1]
    x = np.empty(t.shape, dtype=complex)
    x[..., 0, 0] = (a * np.conj(a)).real - (b * np.conj(b)).real - 1.0
    x[..., 1, 1] = 1.0 + (c * np.conj(c)).real - (d * np.conj(d)).real
    x[..., 0, 1] = a * np.conj(c) - b * np.conj(d)
    x[..., 1, 0] = np.conj(x[..., 0, 1])
    lo, hi = herm_eigs(x)
    band = tol * np.maximum(1.0, norm2(t) ** 2)
    code = np.select([(np.abs(lo) <= band) & (np.abs(hi) <= band), lo >= -band,
                      hi <= band], [0, 1, 2], 3)
    return x, JClass(_KINDS[code], (lo, hi))


def mobius_right(w, m):
    """Image of ``w`` under the right action ``(w, 1) M``, elementwise over
    broadcast points and stacks: ``(w m11 + m21) / (w m12 + m22)``.

    Complex infinity where only the denominator vanishes.  Raises
    DegenerateActionError where the whole image row is zero, which cannot
    happen for invertible ``m``.
    """
    m = as_mat2(m, "M")
    num = w * m[..., 0, 0] + m[..., 1, 0]
    den = w * m[..., 0, 1] + m[..., 1, 1]
    if np.any((num == 0) & (den == 0)):
        raise DegenerateActionError("Moebius action annihilates (w, 1)")
    inf = np.full(np.shape(num), complex(np.inf))
    return np.divide(num, den, out=inf, where=den != 0)[()]


def su11_normalizer(t):
    """The unique U in SU(1,1) such that ``T U`` is lower triangular with
    positive diagonal, for j-contractive T with det T = 1; of each matrix
    of a stack, the first failing one named in the error.

    U is built from the first row ``(a, b)`` of T as
    ``(|a|^2 - |b|^2)^(-1/2) [[conj(a), -b], [-conj(b), a]]``; contractivity
    guarantees ``|a| > |b|``.
    """
    t = as_mat2(t, "T")
    a, b = t[..., 0, 0], t[..., 0, 1]
    lam2 = np.abs(a) ** 2 - np.abs(b) ** 2
    det = det2(t)
    _, cls = j_defect(t)
    _raise_first(
        PreconditionError,
        (np.abs(det - 1.0) > DET_TOL,
         lambda *i: f"su11_normalizer needs det T = 1, got det = {det[i]}"),
        (~cls.is_contractive, lambda *i: "su11_normalizer needs a j-contractive "
         f"matrix, got {np.asarray(cls.kind)[i].value}"),
        (lam2 <= 0.0, lambda *i: "first row not j-timelike (|a| <= |b|): "
         "matrix is not j-contractive"))
    return mat2(np.conj(a), -b, -np.conj(b), a) / np.sqrt(lam2)[..., None, None]

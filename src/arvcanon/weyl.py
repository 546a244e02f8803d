"""Weyl-disk geometry and the half-line Schur functions.

Every j-contractive unit-determinant matrix T maps the closed unit disk to a
disk: normalize T to lower-triangular form [[lam, 0], [h, 1/lam]] with the
SU(1,1) factor; the image disk has center -h/lam and radius lam^(-2), and its
diameter equals 2 / (|T11|^2 - |T12|^2) directly in terms of T.  Along a
j-monotonic family the disks are nested, and in the limit-point case they
shrink to the Schur function value s_plus(z).  Disks are stored as
center/radius (never as quadratic forms) so nesting checks stay O(1).
Schur values shrink disks along the stored head only: at its end L the
tail's own Schur value, a fixed point of the stripping flow, pulled back
through T(z, L) closes every point still open.  Disks over a (z, l) grid
and Schur values over a z grid come from one call of the vectorised
propagation kernel (one per pass over a long head); no threads involved.
"""

from dataclasses import dataclass

import numpy as np

from . import coefficients as coeff
from . import propagate as prop
from . import riccati as ric
from .errors import (DegenerateActionError, InconsistencyError, InputError,
                     PreconditionError)
from .mat2 import DET_TOL, as_mat2, det2, j_defect, mobius_right

LIMIT_POINT = "limit_point"
LIMIT_CIRCLE = "limit_circle"

#: default disk-shrinkage target for Schur evaluation.
SCHUR_TOL = 1e-9

#: slack allowed when asserting monotone nesting of successive disks.
NESTING_SLACK = 1e-10

#: stored intervals the first Schur disk-shrinkage pass may cross.
_REACH = 512


@dataclass(frozen=True)
class Disk:
    """Closed disk inside the closed unit disk."""

    center: complex
    radius: float

    def nested_in(self, other, slack=NESTING_SLACK):
        """Whether self is contained in other, up to slack."""
        return abs(self.center - other.center) <= other.radius - self.radius + slack


def _disk_arrays(m, logc):
    """Centers and radii of the disks of exp(logc) * m (stacks, det 1).

    Scale invariance of the defining quadratic form makes the center
    computable from m alone; the radius is formed in the log domain so it
    cleanly underflows to 0 rather than overflowing.
    """
    a, b = m[..., 0, 0], m[..., 0, 1]
    lam2 = np.abs(a) ** 2 - np.abs(b) ** 2
    if np.any(lam2 <= 0.0):
        raise PreconditionError("matrix is not j-contractive (|T11| <= |T12|)")
    # -h / lam for the first column h of T U, U the normalizer built from (a, b)
    center = (m[..., 1, 1] * np.conj(b) - m[..., 1, 0] * np.conj(a)) / lam2
    log_r = -2.0 * np.asarray(logc) - np.log(lam2)
    radius = np.where(log_r < 700.0, np.exp(np.minimum(log_r, 700.0)), np.inf)
    return center, radius


def _disk_from_scaled(m, logc):
    """Disk of the true matrix exp(logc) * m with unit determinant."""
    center, radius = _disk_arrays(m, logc)
    return Disk(complex(center), float(radius))


def weyl_disk(t, assume_contractive=False, det_tol=DET_TOL, class_tol=1e-10):
    """Weyl disk of a j-contractive matrix with det T = 1."""
    t = as_mat2(t, "T")
    if not assume_contractive:
        if abs(det2(t) - 1.0) > det_tol:
            raise PreconditionError(f"weyl_disk needs det T = 1, got {det2(t)}")
        _, cls = j_defect(t, class_tol)
        if not cls.is_contractive:
            raise PreconditionError(
                f"weyl_disk needs a j-contractive matrix, got {cls.kind.value}"
            )
    return _disk_from_scaled(t, 0.0)


def diameter_direct(t):
    """Diameter formula 2 / (|T11|^2 - |T12|^2), straight from T (no
    normalization); agrees with 2 * radius of weyl_disk(T)."""
    denom = abs(t[0, 0]) ** 2 - abs(t[0, 1]) ** 2
    if denom <= 0.0:
        raise PreconditionError("matrix is not j-contractive (|T11| <= |T12|)")
    return 2.0 / denom


def disks_grid(system, zs, ls):
    """Weyl-disk centers and radii, each shaped (nz, nl), of a coefficient
    system over a spectral grid and lengths: one scaled kernel call, so deep
    and large-|z| disks neither overflow nor lose their center."""
    zs = np.asarray(zs, dtype=complex).ravel()
    if np.any(zs.imag <= 0.0):
        raise PreconditionError("Weyl disks need Im z > 0 at every grid point")
    return _disk_arrays(*prop.transfer_grid(system, zs, ls))


def weyl_disk_at(system, z, l):
    """Weyl disk of a coefficient system at (z, l)."""
    center, radius = disks_grid(system, [z], [l])
    return Disk(complex(center[0, 0]), float(radius[0, 0]))


def classify_limit(p):
    """Limit point iff the total measure mass under the tail policy is
    infinite; finite tails and zero tail density give limit circle."""
    return LIMIT_POINT if np.isinf(p.total_mass()) else LIMIT_CIRCLE


@dataclass(frozen=True)
class SchurValue:
    """Schur-function sample with the residual disk radius that certified it
    and the length at which the iteration stopped; a value closed by the tail
    has residual radius 0 and stops at the head's end L."""

    value: complex
    residual_radius: float
    l_stop: float


def _unimodular_constant(p):
    """The degenerate single-coefficient case: constant a with |a| = 1 makes
    s_plus identically that constant."""
    a0 = p.a[0]
    if (p.tail == coeff.TAIL_FINITE or abs(abs(a0) - 1.0) > 1e-14
            or np.any(np.abs(p.a - a0) > 1e-14)):
        return None
    return complex(a0)


def _tail_closure(zs, p, m):
    """s_plus from the head's transfer matrix T(z, L), scaled to m: the
    tail's own Schur value (the stationarity root of a constant tail, the
    in-disk fixed point of a periodic tail's monodromy m) pulled back
    through adj(m)."""
    if p.tail == coeff.TAIL_PERIODIC:
        s = ric.disk_root(m[:, 0, 1], m[:, 1, 1] - m[:, 0, 0], -m[:, 1, 0])
    else:
        s = ric.riccati_fixed_point(zs, p.a[-1])
    return (s * m[:, 1, 1] - m[:, 1, 0]) / (m[:, 0, 0] - s * m[:, 0, 1])


def schur_grid(zs, p, tol=SCHUR_TOL):
    """Half-line Schur function at every z of a grid: Weyl-disk shrinkage
    along the head, closed exactly by the tail.

    The disks at l = 1, 2, 4, ... < L and at L come from one kernel call
    while the head crossed has at most ``_REACH`` intervals, then from one
    call per fourfold reach for the points not yet converged; a point stops
    at the first radius below tol, nesting asserted up to there.  A point
    still open at L takes ``_tail_closure`` of T(z, L), with residual
    radius 0.  Returns (value, residual_radius, l_stop).
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    if np.any(zs.imag <= 0.0):
        raise PreconditionError(f"schur_plus needs Im z > 0, got z = {zs[zs.imag <= 0][0]}")
    if not isinstance(p, coeff.ArovParameters):
        raise InputError(
            f"Schur functions need disk-gauge coefficients, got {type(p).__name__}"
        )
    if classify_limit(p) != LIMIT_POINT:
        raise PreconditionError("schur_plus needs the limit-point case")
    shortcut = _unimodular_constant(p)
    if shortcut is not None:
        zero = np.zeros(zs.size)
        return np.full(zs.size, shortcut), zero, zero
    ls = [min(1.0, p.length)]
    while ls[-1] < p.length:
        ls.append(min(2.0 * ls[-1], p.length))
    ls = np.array(ls)
    # stored intervals crossed to reach each length: a long head is crossed
    # about as far as l_stop needs
    crossed = np.searchsorted(p.knots, ls)
    value, radius, l_stop = np.empty(zs.size, complex), np.empty(zs.size), np.empty(zs.size)
    todo, upto, reach = np.arange(zs.size), 0, _REACH
    while todo.size:
        upto = max(upto + 1, int(np.searchsorted(crossed, reach, side="right")))
        reach *= 4
        m, c = prop.transfer_grid(p, zs[todo], ls[:upto])
        centers, radii = _disk_arrays(m, c)
        hit = radii < tol
        if upto == ls.size:
            hit[:, -1] = True  # the tail closes every point still open
        conv = hit.any(axis=1)
        stop = np.where(conv, np.argmax(hit, axis=1), upto - 1)
        loose = np.abs(np.diff(centers, axis=1)) > \
            radii[:, :-1] - radii[:, 1:] + NESTING_SLACK
        loose &= np.arange(1, upto) <= stop[:, None]
        if loose.any():
            i, j = np.argwhere(loose)[0]
            raise InconsistencyError(
                f"Weyl disks failed to nest at l = {ls[j + 1]}: |dc| = "
                f"{abs(centers[i, j + 1] - centers[i, j]):.3e}, "
                f"r_prev - r = {radii[i, j] - radii[i, j + 1]:.3e}")
        done, at = todo[conv], stop[conv]
        value[done], radius[done], l_stop[done] = centers[conv, at], radii[conv, at], ls[at]
        tail = conv & (stop == ls.size - 1)
        value[todo[tail]] = _tail_closure(zs[todo[tail]], p, m[tail, -1])
        radius[todo[tail]] = 0.0
        todo = todo[~conv]
    return value, radius, l_stop


def schur_plus(z, p, tol=SCHUR_TOL):
    """Half-line Schur function at one point (see ``schur_grid``)."""
    value, radius, l_stop = schur_grid([z], p, tol=tol)
    return SchurValue(complex(value[0]), float(radius[0]), float(l_stop[0]))


def schur_stripped(s, t):
    """Schur value after stripping by the transfer matrix t: the Moebius
    image of s under the right action of t."""
    image = mobius_right(complex(s), t)
    if image.at_infinity:
        raise DegenerateActionError(
            "stripped Schur value at projective infinity (|s| = 1 boundary collision)"
        )
    return image.as_complex()


def mobius_factor(z):
    """The reflection weight v(z) = (z - i) / (z + i), of a point or array."""
    return (z - 1j) / (z + 1j)


def schur_minus_grid(zs, p_left, tol=SCHUR_TOL):
    """Left half-line Schur function s_minus(z) = v(z) * s_plus of the
    reflected system at every z of a grid; vanishes at z = i by
    construction.  Returns (value, residual_radius, l_stop)."""
    zs = np.asarray(zs, dtype=complex).ravel()
    value, radius, l_stop = schur_grid(zs, coeff.reflect(p_left), tol)
    v = mobius_factor(zs)
    return v * value, np.abs(v) * radius, l_stop


def schur_minus(z, p_left, tol=SCHUR_TOL):
    """Left half-line Schur function at one point (see ``schur_minus_grid``)."""
    value, radius, l_stop = schur_minus_grid([z], p_left, tol)
    return SchurValue(complex(value[0]), float(radius[0]), float(l_stop[0]))


def herglotz_from_schur(s):
    """Cayley transform m = i (1 + s) / (1 - s); maps the closed unit disk
    onto the closed upper half-plane, with a pole (projective infinity) at
    s = 1."""
    s = complex(s)
    if s == 1.0:
        raise DegenerateActionError("Herglotz transform has a pole at s = 1")
    return 1j * (1.0 + s) / (1.0 - s)

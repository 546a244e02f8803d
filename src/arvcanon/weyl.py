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
and Schur values over a z grid come from one ``transfer_grid`` call (one
per pass over a long head, each pass a span from the length where the last
one stopped, composed onto its transfer matrix); no threads involved.
Stripped values s_plus(z; l) over a (z, l) grid pull the tail's value back
through the suffix products T(z; l -> L) of one ``transfer_to_end`` call:
the contracting direction of the stripping flow, so unlike the forward
image of s_plus under T(z, l) they keep round-off at any measure.
"""

from dataclasses import dataclass

import numpy as np

from . import coefficients as coeff
from . import propagate as prop
from . import riccati as ric
from .errors import (DegenerateActionError, DomainError, InconsistencyError,
                     InputError, PreconditionError)
from .mat2 import DET_TOL, adjugate, as_mat2, det2, j_defect, mobius_right, mul2

LIMIT_POINT = "limit_point"
LIMIT_CIRCLE = "limit_circle"

#: disk radius that certifies a Schur value: a disk this small fixes its
#: center to round-off (45 ulps of 1).  Radii decay exponentially in l, so
#: each rung of the doubling ladder roughly squares them: on 10^4- and
#: 10^5-interval heads at Im z = 0.05, 0.5 and 1, 1e-14 stops on the same
#: rung as 1e-9, where 1e-15 can cost one more.
SCHUR_TOL = 1e-14

#: slack allowed when asserting monotone nesting of successive disks.
NESTING_SLACK = 1e-10

#: stored intervals the first Schur disk-shrinkage pass may cross.
_REACH = 512


@dataclass(frozen=True)
class Disk:
    """Closed disk inside the closed unit disk."""

    center: complex
    radius: float

    def nested_in(self, other):
        """Whether self is contained in other, up to NESTING_SLACK."""
        return abs(self.center - other.center) <= other.radius - self.radius + NESTING_SLACK


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


def weyl_disk(t):
    """Weyl disk of a j-contractive matrix with det T = 1, both checked
    first: the formula ``disks_grid`` runs over (z, l) stacks, applied to
    one matrix."""
    t = as_mat2(t, "T")
    if abs(det2(t) - 1.0) > DET_TOL:
        raise PreconditionError(f"weyl_disk needs det T = 1, got {det2(t)}")
    _, cls = j_defect(t)
    if not cls.is_contractive:
        raise PreconditionError(
            f"weyl_disk needs a j-contractive matrix, got {cls.kind.value}"
        )
    return _disk_from_scaled(t, 0.0)


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
    and the length at which the iteration stopped: a value stopped inside the
    head has a radius below ``SCHUR_TOL``, at round-off; a value closed by
    the tail has residual radius 0 and stops at the head's end L."""

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


def _tail_value(zs, p, m):
    """The tail's own Schur value at every z, a fixed point of the stripping
    flow: the stationarity root of a constant tail, the in-disk fixed point
    of a periodic tail's monodromy T(z, 0 -> L), scaled to m; a monodromy
    whose exponent or log-scale overflowed (NaN or inf entries) is refused
    before the quadratic is formed from it."""
    if p.tail == coeff.TAIL_PERIODIC:
        if not np.isfinite(m).all():
            raise DomainError("an exponent or log-scale overflows: the period is too long "
                              "at this z")
        return ric.disk_root(m[:, 0, 1], m[:, 1, 1] - m[:, 0, 0], -m[:, 1, 0])
    return ric.riccati_fixed_point(zs, p.a[-1])


def _schur_points(zs, p):
    """The spectral points of a Schur evaluation, with its preconditions:
    Im z > 0, disk-gauge coefficients, the limit-point case."""
    zs = np.asarray(zs, dtype=complex).ravel()
    if np.any(zs.imag <= 0.0):
        raise PreconditionError(f"schur_plus needs Im z > 0, got z = {zs[zs.imag <= 0][0]}")
    if not isinstance(p, coeff.ArovParameters):
        raise InputError(
            f"Schur functions need disk-gauge coefficients, got {type(p).__name__}"
        )
    if classify_limit(p) != LIMIT_POINT:
        raise PreconditionError("schur_plus needs the limit-point case")
    return zs


def schur_grid(zs, p):
    """Half-line Schur function at every z of a grid: Weyl-disk shrinkage
    along the head, closed exactly by the tail.

    The disks at l = 1, 2, 4, ... < L and at L come in passes: the first
    kernel call crosses at most ``_REACH`` stored intervals, and each later
    pass, for the points not yet converged, crosses four times as far.  A
    later pass resumes from the scaled T(z, l) at which the previous one
    stopped: ``transfer_grid`` from l gives T(l -> l') over the pieces past
    l only, and head @ m composes it with T(z, l), so no piece of the head
    is crossed twice.  A point stops at the first radius below ``SCHUR_TOL``,
    where its disk fixes it to round-off, nesting asserted up to there
    (across passes too), so a point whose disk closes early crosses only
    the pieces it needs.  A point still open at L takes
    the tail's own value (``_tail_value``) pulled back through adj T(z, L),
    with residual radius 0.  Returns (value, residual_radius, l_stop).
    """
    zs = _schur_points(zs, p)
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
        start, upto = upto, max(upto + 1, int(np.searchsorted(crossed, reach, side="right")))
        reach *= 4
        m, c = prop.transfer_grid(p, zs[todo], ls[start:upto], ls[start - 1] if start else 0.0)
        if start:  # from T(z, ls[start - 1]), whose disk opens the nesting check
            m = np.concatenate((head, mul2(head, m)), axis=1)
            c = np.concatenate((hc, hc + c), axis=1)
        base = max(start - 1, 0)  # the index in ls of column 0
        centers, radii = _disk_arrays(m, c)
        hit = radii < SCHUR_TOL
        if upto == ls.size:
            hit[:, -1] = True  # the tail closes every point still open
        conv = hit.any(axis=1)
        stop = np.where(conv, np.argmax(hit, axis=1), hit.shape[1] - 1)
        loose = np.abs(np.diff(centers, axis=1)) > \
            radii[:, :-1] - radii[:, 1:] + NESTING_SLACK
        loose &= np.arange(1, hit.shape[1]) <= stop[:, None]
        if loose.any():
            i, j = np.argwhere(loose)[0]
            raise InconsistencyError(
                f"Weyl disks failed to nest at l = {ls[base + j + 1]}: |dc| = "
                f"{abs(centers[i, j + 1] - centers[i, j]):.3e}, "
                f"r_prev - r = {radii[i, j] - radii[i, j + 1]:.3e}")
        done, at = todo[conv], stop[conv]
        value[done], radius[done], l_stop[done] = centers[conv, at], radii[conv, at], ls[base + at]
        tail = conv & (base + stop == ls.size - 1)
        value[todo[tail]] = mobius_right(_tail_value(zs[todo[tail]], p, m[tail, -1]),
                                         adjugate(m[tail, -1]))
        radius[todo[tail]] = 0.0
        todo = todo[~conv]
        head, hc = m[~conv, -1:], c[~conv, -1:]
    return value, radius, l_stop


def schur_plus(z, p):
    """Half-line Schur function at one point (see ``schur_grid``)."""
    value, radius, l_stop = schur_grid([z], p)
    return SchurValue(complex(value[0]), float(radius[0]), float(l_stop[0]))


def stripped_grid(zs, p, ls):
    """Stripped Schur values s_plus(z; l), the Schur function of
    ``strip_head(p, l)``, at every (z, l) of a grid: (nz, nl), lengths in
    any order.  The tail's own value is pulled back through adj T(z; l -> L)
    from one ``transfer_to_end`` call: the contracting direction of the
    stripping flow, where the forward flow from s_plus grows its round-off
    like e^(2 mu).  Rows of a constant tail at l >= L are the stationarity
    root itself (T(L -> L) is the identity); a periodic tail's row at l is
    its row at l mod L, the monodromy the same call's row at 0.  Same
    preconditions and shortcut as ``schur_grid``."""
    zs = _schur_points(zs, p)
    ls = np.asarray(ls, dtype=float).ravel()
    if not np.all((ls >= 0.0) & (ls < np.inf)):
        raise DomainError(f"stripped values need finite lengths l >= 0, got {ls}")
    shortcut = _unimodular_constant(p)
    if shortcut is not None:
        return np.full((zs.size, ls.size), shortcut)
    if p.tail == coeff.TAIL_PERIODIC:
        m, _ = prop.transfer_to_end(p, zs, np.append(np.mod(ls, p.length), 0.0))
        s, m = _tail_value(zs, p, m[:, -1]), m[:, :-1]
    else:
        m, _ = prop.transfer_to_end(p, zs, np.minimum(ls, p.length))
        s = _tail_value(zs, p, None)
    return mobius_right(s[:, None], adjugate(m))


def mobius_factor(z):
    """The reflection weight v(z) = (z - i) / (z + i), of a point or array."""
    return (z - 1j) / (z + 1j)


def schur_minus_grid(zs, p_left):
    """Left half-line Schur function s_minus(z) = v(z) * s_plus of the
    reflected system at every z of a grid; vanishes at z = i by
    construction.  Returns (value, residual_radius, l_stop)."""
    zs = np.asarray(zs, dtype=complex).ravel()
    value, radius, l_stop = schur_grid(zs, coeff.reflect(p_left))
    v = mobius_factor(zs)
    return v * value, np.abs(v) * radius, l_stop


def schur_minus(z, p_left):
    """Left half-line Schur function at one point (see ``schur_minus_grid``)."""
    value, radius, l_stop = schur_minus_grid([z], p_left)
    return SchurValue(complex(value[0]), float(radius[0]), float(l_stop[0]))


def herglotz_from_schur(s):
    """Cayley transform m = i (1 + s) / (1 - s); maps the closed unit disk
    onto the closed upper half-plane, with a pole (projective infinity) at
    s = 1."""
    s = complex(s)
    if s == 1.0:
        raise DegenerateActionError("Herglotz transform has a pole at s = 1")
    return 1j * (1.0 + s) / (1.0 - s)

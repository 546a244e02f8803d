"""Riccati flow of stripped Schur values and boundary asymptotics.

Along the coefficient-stripping flow the Schur value obeys, in the measure
variable,

    ds/dmu = conj(a) (iz + 1) s^2 - 2 i z s + a (iz - 1),

a quadratic whose unique root in the closed unit disk is the Schur function
of the constant-coefficient system.  That root is the repelling direction of
the forward flow: any other initial value leaves the closed disk after
finitely much measure, which is what certifies a wrong initial guess and
makes staying bounded a sharp test.  The flow is solved exactly, with no
stepping: s(l) is the Moebius image of s(0) under the transfer matrix
T(z, l).  The nontangential limit of a Schur function at +i*infinity, when
it exists, determines the coefficient at the origin through a continuous
bijection of the disk, implemented here as ``a_to_c``/``c_to_a`` together
with Richardson extrapolation along a ray.
"""

from dataclasses import dataclass

import numpy as np

from . import coefficients as coeff
from . import propagate as prop
from .errors import (CoefficientError, DomainError, InconsistencyError,
                     InputError, PreconditionError)

STATUS_OK = "ok"
STATUS_ESCAPED = "escaped"

#: |s| beyond 1 + ESCAPE_SLACK flags an escaped trajectory.
ESCAPE_SLACK = 1e-6


def riccati_rhs(s, z, a):
    """Right-hand side of the stripping flow in the measure variable."""
    s, z, a = complex(s), complex(z), complex(a)
    iz = 1j * z
    return np.conj(a) * (iz + 1.0) * s * s - 2.0 * iz * s + a * (iz - 1.0)


def disk_root(qa, qb, qc, tol=1e-9):
    """Root in the closed unit disk of qa w^2 + qb w + qc = 0, elementwise
    over complex arrays of one shape.

    The roots are qc / q and q / qa for q = -(qb + sqrt(qb^2 - 4 qa qc)) / 2,
    the sign of the square root chosen so nothing cancels; a vanishing qa
    leaves qc / q, the root of the linear equation.  The root of smaller
    modulus is taken: of a stationarity or monodromy quadratic at Im z > 0
    exactly one root lies in the closed disk.
    """
    sq = np.sqrt(qb * qb - 4.0 * qa * qc)
    sq = np.where((np.conj(qb) * sq).real < 0.0, -sq, sq)
    q = -0.5 * (qb + sq)
    small = np.abs(qc) * np.abs(qa) <= np.abs(q) ** 2  # |qc / q| <= |q / qa|
    num, den = np.where(small, qc, q), np.where(small, q, qa)
    root = np.divide(num, den, out=np.where(num == 0.0, 0j, complex(np.inf)),
                     where=den != 0.0)
    bad = ~(np.abs(root) <= 1.0 + tol)
    if bad.any():
        i = np.argmax(bad)
        raise InconsistencyError(
            "no root in the closed unit disk of the quadratic with coefficients "
            f"{qa.flat[i]}, {qb.flat[i]}, {qc.flat[i]}")
    return root


def riccati_fixed_point(z, a, tol=1e-9):
    """Root of the stationarity quadratic lying in the closed unit disk, at a
    spectral point or an array of them (``disk_root``; at z = i the leading
    coefficient vanishes and the root is a itself)."""
    z, a = np.asarray(z, dtype=complex), complex(a)
    if np.any(z.imag <= 0.0):
        raise PreconditionError(f"fixed point needs Im z > 0, got Im z = {z.imag.min()}")
    if abs(a) > 1.0 + coeff.COEFF_TOL:
        raise CoefficientError(f"|a| = {abs(a)} > 1")
    iz = 1j * z
    s = disk_root(np.conj(a) * (iz + 1.0), -2.0 * iz, a * (iz - 1.0), tol)
    return complex(s) if s.ndim == 0 else s


@dataclass(frozen=True)
class RiccatiState:
    """Endpoint of a Riccati trajectory.  status is "escaped" when the value
    left the closed unit disk before the requested length; that is not a
    failure, it certifies the initial value was not the Schur function."""

    s: complex
    l: float
    z: complex
    mu: float
    status: str

    @property
    def valid(self):
        return self.status == STATUS_OK


def _outside(row):
    """Whether the point u / v of projective rows (u, v) has escaped."""
    return np.abs(row[..., 0]) > (1.0 + ESCAPE_SLACK) * np.abs(row[..., 1])


def _escape(z, s, p, l_lo, l_hi):
    """Escape point of the flow from s at l_lo, known to lie in (l_lo, l_hi]:
    the first piece whose end is outside the disk (the last one at the
    latest), bisected on its closed-form propagator down to round-off."""
    mu = p.mu(l_lo)
    pieces = p.pieces(l_hi, l_lo)
    for i, (a, dmu) in enumerate(pieces):
        g = prop.generator(z, a)

        def row(t):
            e, _ = prop.expm_tracefree_scaled(g, t)
            return s * e[0] + e[1]

        end = row(dmu)
        if i + 1 < len(pieces) and not _outside(end):
            s, mu = end[0] / end[1], mu + dmu
            continue
        lo, hi = 0.0, dmu
        while lo < (t := 0.5 * (lo + hi)) < hi:
            lo, hi = (lo, t) if _outside(row(t)) else (t, hi)
        u, v = row(hi)
        return RiccatiState(complex(u / v), p.l_of_mu(mu + hi), z, mu + hi, STATUS_ESCAPED)


def riccati_trajectory(z, s0, p, ls):
    """States of the stripping flow from s0 at the ascending lengths ls, up
    to and including the first escaped one.

    One kernel call gives T(z, l) at every length, and s(l) is the Moebius
    image of s0 under it (projective, so the log-scale is never needed).
    Disks nest along l, so the first length with |s| > 1 + ESCAPE_SLACK
    brackets the escape; the escaped state holds the escape point itself.
    """
    z, s0 = complex(z), complex(s0)
    if abs(s0) > 1.0 + coeff.COEFF_TOL:
        raise InputError(f"|s0| = {abs(s0)} > 1")
    if not isinstance(p, coeff.ArovParameters):
        raise InputError(f"the flow needs disk-gauge coefficients, not {type(p).__name__}")
    ls = np.asarray(ls, dtype=float).ravel()
    if np.any(np.diff(ls) < 0.0):
        raise InputError("trajectory lengths must be ascending")
    m, _ = prop.transfer_grid(p, [z], ls)
    rows = s0 * m[0, :, 0] + m[0, :, 1]
    n = int(np.argmax(np.append(_outside(rows), True)))  # first escaped row
    s = rows[:n, 0] / rows[:n, 1]
    states = [RiccatiState(complex(sk), float(l), z, float(mu), STATUS_OK)
              for sk, l, mu in zip(s, ls, p.mu(ls[:n]))]
    if n < ls.size:
        states.append(_escape(z, s[-1] if n else s0, p, ls[n - 1] if n else 0.0, ls[n]))
    return states


def integrate_riccati(z, s0, p, l):
    """Propagate a Schur value along the stripping flow up to length l:
    ``riccati_trajectory`` at one length."""
    return riccati_trajectory(z, s0, p, [l])[-1]


def a_to_c(a, tol=1e-12):
    """Boundary-limit coordinate of a disk coefficient:
    c = a / (1 + sqrt(1 - |a|^2)).  Fixes the unit circle pointwise."""
    a = complex(a)
    r2 = abs(a) ** 2
    if r2 > 1.0 + tol:
        raise DomainError(f"|a| = {abs(a)} > 1")
    return a / (1.0 + np.sqrt(max(1.0 - r2, 0.0)))


def c_to_a(c, tol=1e-12):
    """Inverse of a_to_c: a = 2 c / (1 + |c|^2)."""
    c = complex(c)
    r2 = abs(c) ** 2
    if r2 > 1.0 + tol:
        raise DomainError(f"|c| = {abs(c)} > 1")
    return 2.0 * c / (1.0 + r2)


def blaschke_matrix(a):
    """SU(1,1) representative of the disk automorphism w -> (w - a)/(1 - conj(a) w):
    [[1, -conj(a)], [-a, 1]] / sqrt(1 - |a|^2).  Satisfies
    blaschke_matrix(a_to_c(a))^2 == blaschke_matrix(a) on the open disk."""
    a = complex(a)
    r2 = abs(a) ** 2
    if r2 >= 1.0:
        raise DomainError(f"blaschke_matrix needs |a| < 1, got |a| = {abs(a)}")
    return np.array([[1.0, -np.conj(a)], [-a, 1.0]], dtype=complex) / np.sqrt(1.0 - r2)


def richardson_extrapolate(values, ratio):
    """Iterated Richardson extrapolation for samples f(y_k) on a geometric
    grid y_k = y_0 * ratio^k, assuming an error expansion in powers of 1/y.

    Returns (estimate, spread) where spread is the magnitude of the last
    correction, a practical error indicator.
    """
    t = [complex(v) for v in values]
    if len(t) == 0:
        raise InputError("no samples to extrapolate")
    if len(t) == 1:
        return t[0], 0.0
    last = t[-1]
    for m in range(1, len(values)):
        factor = ratio ** m - 1.0
        t = [t[k + 1] + (t[k + 1] - t[k]) / factor for k in range(len(t) - 1)]
        prev, last = last, t[-1]
    return last, abs(last - prev)


@dataclass(frozen=True)
class BoundaryLimit:
    """Extrapolated nontangential limit along a ray, with diagnostics."""

    estimate: complex
    spread: float
    samples: tuple
    ys: tuple
    converged: bool


DEFAULT_RAY_RADII = tuple(10.0 ** e for e in (2.0, 2.5, 3.0, 3.5, 4.0))


def boundary_limit(evaluator, delta=np.pi / 2.0, ys=DEFAULT_RAY_RADII,
                   spread_tol=1e-2):
    """Estimate the limit of a Schur evaluator along the ray arg z = delta.

    Samples at |z| in ``ys`` (geometric), Richardson-extrapolates in 1/|z|,
    and reports the spread of the extrapolation tableau.  converged=False is
    the no-limit diagnostic; a limit need not exist for rough coefficients.
    For canonical evaluators the estimate approximates the boundary
    coordinate c of the leading coefficient, and c_to_a recovers a.
    """
    if not 0.0 < delta < np.pi:
        raise DomainError(f"ray angle must lie in (0, pi), got {delta}")
    ys = tuple(float(y) for y in ys)
    if len(ys) < 2 or any(y2 <= y1 for y1, y2 in zip(ys, ys[1:])):
        raise InputError("ys must be an increasing tuple of at least two radii")
    ratio = ys[1] / ys[0]
    if any(abs(y2 / y1 - ratio) > 1e-9 * ratio for y1, y2 in zip(ys, ys[1:])):
        raise InputError("ys must be geometrically spaced for the extrapolation")
    direction = np.exp(1j * delta)
    samples = []
    for y in ys:
        value = evaluator(y * direction)
        samples.append(complex(getattr(value, "value", value)))
    estimate, spread = richardson_extrapolate(samples, ratio)
    return BoundaryLimit(
        estimate, spread, tuple(samples), ys, bool(spread <= spread_tol)
    )

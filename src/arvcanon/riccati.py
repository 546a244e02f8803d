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
T(z, l), and the escape point is found on the same closed-form propagators
(whole periods skipped on the period's repeated squares, the products
through a bracket's pieces, then the escaping piece's mass halved to its
float spacing, through which a bisection pushes a row in complex scalars).
The same repulsion grows round-off in s(0) like e^(2 mu), so this forward
flow is for a given s0, and a row whose s has lost its digits is refused;
the stripped Schur values themselves are pulled back from the tail
(``weyl.stripped_grid``) and never escape.  The nontangential limit of a
Schur function at +i*infinity, when it exists, determines the coefficient
at the origin through a continuous bijection of the disk, ``a_to_c`` /
``c_to_a``; ``boundary_limit`` extrapolates it from one evaluator call.
"""

from dataclasses import dataclass

import numpy as np

from . import coefficients as coeff
from . import propagate as prop
from .errors import (CoefficientError, DegenerateActionError, DomainError,
                     InconsistencyError, InputError, PreconditionError)

STATUS_OK = "ok"
STATUS_ESCAPED = "escaped"

#: |s| beyond 1 + ESCAPE_SLACK flags an escaped trajectory.
ESCAPE_SLACK = 1e-6

#: the largest first-order round-off bound of s = u / v on a trajectory's row
#: (u, v) = (s0, 1) T(z, l); past it, s cannot be told within the escape slack
ROW_TOL = 1e-6


def disk_root(qa, qb, qc):
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
    bad = ~(np.abs(root) <= 1.0 + 1e-9)  # slack for a root on the circle
    if bad.any():
        i = np.argmax(bad)
        raise InconsistencyError(
            "no root in the closed unit disk of the quadratic with coefficients "
            f"{qa.flat[i]}, {qb.flat[i]}, {qc.flat[i]}")
    return root


def riccati_fixed_point(z, a):
    """Root of the stationarity quadratic lying in the closed unit disk, at a
    spectral point or an array of them (``disk_root``; at z = i the leading
    coefficient vanishes and the root is a itself)."""
    z, a = np.asarray(z, dtype=complex), complex(a)
    if np.any(z.imag <= 0.0):
        raise PreconditionError(f"fixed point needs Im z > 0, got Im z = {z.imag.min()}")
    if abs(a) > 1.0 + coeff.COEFF_TOL:
        raise CoefficientError(f"|a| = {abs(a)} > 1")
    iz = 1j * z
    s = disk_root(np.conj(a) * (iz + 1.0), -2.0 * iz, a * (iz - 1.0))
    return complex(s) if s.ndim == 0 else s


@dataclass(frozen=True)
class RiccatiState:
    """Endpoint of a Riccati trajectory, the forward flow from a given s0.
    status is "escaped" when the value left the closed unit disk before the
    requested length; that is not a failure, it certifies s0 was not the
    Schur function.  Stripped Schur values are not states of this flow:
    ``weyl.stripped_grid`` pulls them back from the tail, and they never
    escape."""

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


def _periods_inside(row, period, reps):
    """(count, row): the most whole periods, below reps, after which the
    row (u, v) is still inside the disk, and the row there, scaled.  Disks
    nest, so a row once outside stays outside: the count is read off the
    row pushed through the period's repeated squares P^(2^b), largest
    first, each scaled to its largest entry (the row is projective)."""
    powers = [period]
    for _ in range(1, (reps - 1).bit_length()):
        square = powers[-1] @ powers[-1]
        powers.append(square / np.abs(square).max())
    count = 0
    for b in reversed(range(len(powers))):
        pushed = row @ powers[b]
        if count + 2 ** b < reps and not _outside(pushed):
            row, count = pushed / np.abs(pushed).max(), count + 2 ** b
    return count, row


def _escape(z, s, p, l_lo, l_hi, mu):
    """Escape point of the flow from s at l_lo, of measure mu, known to lie
    in (l_lo, l_hi]: the first piece whose end is outside the disk (the last
    one at the latest), then bisected on that piece's closed-form
    propagators.  The bracket's pieces are its folded stream unrolled: q
    copies of the stream (the rotated period), the pieces through the head,
    the constant tail's mass.  Of more than one period, the whole periods
    the row stays inside are skipped (``_periods_inside``) on the powers of
    the rotated period, its product from one kernel call over the stream,
    and when more than one period is left the escape lies in the next one,
    the only one unrolled.  Of more than one piece, one kernel call gives
    the products through each; a bracket of one piece needs none.

    One call gives the propagators of the piece's mass d halved down to its
    float spacing, d, d/2, ..., d/2^b.  The first bracket is the piece, its
    right end the row at its left end pushed through d; step j pushes the
    left end's row through d/2^j, in complex scalars, to the midpoint, the
    new right end when outside the disk and the new left end (rescaled: the
    row is projective) otherwise.  The escape state is the last right end."""
    zs, gen = np.array([z]), p.generator_table
    k, d, ends, at, q, t = p.piece_arrays([l_hi], l_lo)
    reps, n = 0 if q is None else int(q[0]), ends[at[0]]
    row = (s, 1.0)
    if reps > 1:
        period = prop.scaled_products(zs, gen, k, d, [k.size])[0][:, 0, 0].reshape(2, 2)
        count, row = _periods_inside(row, period, reps)
        mu, reps = mu + count * float(np.sum(d)), reps - count
        if reps > 1:
            reps, n, t = 1, 0, None
    k, d = np.append(np.tile(k, reps), k[:n]), np.append(np.tile(d, reps), d[:n])
    if t is not None:
        k, d = np.append(k, p.n_intervals - 1), np.append(d, t[0])
    k, d = k[d > 0.0], d[d > 0.0]
    i = 0
    if k.size > 1:
        products = prop.scaled_products(zs, gen, k, d, np.arange(1, k.size + 1))[0]
        ends = np.asarray(row) @ products[:, 0].T.reshape(-1, 2, 2)
        i = int(np.argmax(np.append(_outside(ends[:-1]), True)))
        if i:
            row, mu = ends[i - 1], mu + float(np.sum(d[:i]))
    b = int(np.ceil(np.log2(d[i] / np.spacing(d[i]))))
    widths = np.ldexp(d[i], -np.arange(b + 1))
    e11, e12, e21, e22 = prop._propagators(zs, gen, k[i:i + 1], widths)[0][:, 0].tolist()
    u, v, lo = complex(row[0]), complex(row[1]), 0.0
    for j, w in enumerate(widths.tolist()):
        x, y = u * e11[j] + v * e21[j], u * e12[j] + v * e22[j]
        mid = x / y if y else complex(np.inf)
        if not j or abs(mid) > 1.0 + ESCAPE_SLACK:  # the piece's end is the first right end
            hi = mid
        else:
            r = max(abs(x), abs(y))
            u, v, lo = x / r, y / r, lo + w
    mu = mu + lo + w
    return RiccatiState(hi, p.l_of_mu(mu), z, mu, STATUS_ESCAPED)


def riccati_trajectory(z, s0, p, ls):
    """States of the stripping flow from s0 at the ascending lengths ls, up
    to and including the first escaped one.

    One kernel call gives T(z, l) at every length, and s(l) is the Moebius
    image of s0 under it (projective, so the log-scale is never needed).
    Disks nest along l, so the first length with |s| > 1 + ESCAPE_SLACK
    brackets the escape; the escaped state holds the escape point itself.
    A row before it whose s has a round-off bound past ROW_TOL is refused.
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
    # u and v carry round-off of about eps (|s0||T1j| + |T2j|) of the scaled
    # T, and s = u / v to first order that of u, and |s| times that of v, over |v|
    (u, v), (wu, wv) = rows[:n].T, (abs(s0) * np.abs(m[0, :n, 0]) + np.abs(m[0, :n, 1])).T
    with np.errstate(all="ignore"):
        s = u / v
        err = np.finfo(float).eps * (wu + np.abs(s) * wv) / np.abs(v)
    j = int(np.argmax(np.append(~(err <= ROW_TOL), True)))  # infinite or NaN if underflowed
    if j < n:
        raise DegenerateActionError(f"the row (s0, 1) T(z, l) leaves s = u / v a round-off "
                                    f"bound of {err[j]:.3g}, past {ROW_TOL}, at l = {ls[j]}")
    mus = p.mu(ls[:n])
    states = [RiccatiState(complex(sk), float(l), z, float(mu), STATUS_OK)
              for sk, l, mu in zip(s, ls, mus)]
    if n < ls.size:
        states.append(_escape(z, s[-1] if n else s0, p, ls[n - 1] if n else 0.0, ls[n],
                              float(mus[-1]) if n else 0.0))
    return states


def integrate_riccati(z, s0, p, l):
    """Propagate a Schur value along the stripping flow up to length l:
    ``riccati_trajectory`` at one length."""
    return riccati_trajectory(z, s0, p, [l])[-1]


def a_to_c(a):
    """Boundary-limit coordinate of a disk coefficient:
    c = a / (1 + sqrt(1 - |a|^2)).  Fixes the unit circle pointwise."""
    a = complex(a)
    r2 = abs(a) ** 2
    if r2 > 1.0 + coeff.COEFF_TOL:
        raise DomainError(f"|a| = {abs(a)} > 1")
    return a / (1.0 + np.sqrt(max(1.0 - r2, 0.0)))


def c_to_a(c):
    """Inverse of a_to_c: a = 2 c / (1 + |c|^2)."""
    c = complex(c)
    r2 = abs(c) ** 2
    if r2 > 1.0 + coeff.COEFF_TOL:
        raise DomainError(f"|c| = {abs(c)} > 1")
    return 2.0 * c / (1.0 + r2)


def richardson_extrapolate(values, ratio):
    """Iterated Richardson extrapolation for samples f(y_k) on a geometric
    grid y_k = y_0 * ratio^k, assuming an error expansion in powers of 1/y.

    Returns (estimate, spread) where spread is the magnitude of the last
    correction, a practical error indicator.
    """
    t = [complex(v) for v in values]
    if len(t) == 0:
        raise InputError("no samples to extrapolate")
    prev = last = t[-1]  # one sample is its own estimate, of spread 0
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


#: the ray points i y of ``boundary_limit`` (geometric in y), and the largest
#: spread of its extrapolation that reads as converged
DEFAULT_RAY_RADII = tuple(10.0 ** e for e in (2.0, 2.5, 3.0, 3.5, 4.0))
SPREAD_TOL = 1e-2


def boundary_limit(evaluator):
    """Estimate the limit of a Schur function at +i*infinity: one call of
    the evaluator on the ray points 1j * DEFAULT_RAY_RADII, which returns
    the Schur values there as an array of that shape (``lambda w:
    weyl.schur_grid(w, p)[0]``; anything else is an InputError), then
    Richardson extrapolation in 1/y.  A spread of the tableau above
    SPREAD_TOL reads converged=False, the no-limit diagnostic: a limit need
    not exist for rough coefficients.  For canonical evaluators the estimate
    approximates the boundary coordinate c of the leading coefficient, and
    c_to_a recovers a."""
    ys = DEFAULT_RAY_RADII
    samples = np.asarray(evaluator(1j * np.array(ys)))
    if samples.shape != (len(ys),) or not np.isfinite(samples).all():
        raise InputError(f"the evaluator must return {len(ys)} finite Schur values, "
                         f"one per ray point, got {samples!r}")
    samples = tuple(samples.astype(complex).tolist())
    estimate, spread = richardson_extrapolate(samples, ys[1] / ys[0])
    return BoundaryLimit(estimate, spread, samples, ys, bool(spread <= SPREAD_TOL))

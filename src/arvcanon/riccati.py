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
(one kernel call for the products through each of the bracket's pieces,
the whole periods of a periodic tail skipped on the repeated squares of
the period's product, then one call for a table of every trial mass that a
fixed-width bisection of the escaping piece tries, which its rounds push a
row through).  The same repulsion grows round-off in s(0) like e^(2 mu), so
this forward flow is for a given s0, and a row (s0, 1) T(z, l) that decays
below the float range (s0 = s+ exactly, past measure 354) is refused; the
stripped Schur values themselves are pulled back from the tail
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

#: trial masses of one round of the escape search, in units of the round's
#: width: round r tries j d / 65^r for j = 1..64 within a piece of mass d,
#: so each round narrows the bracket 65-fold
_TRIALS = np.arange(1, 65)


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


def _pushed(row, e):
    """Projective rows (u, v) M of the row (u, v) through a (4, 1, n) entry
    stack."""
    (u, v), (e11, e12, e21, e22) = row, e[:, 0]
    return np.stack((u * e11 + v * e21, u * e12 + v * e22), axis=-1)


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


def _escape(z, s, p, l_lo, l_hi):
    """Escape point of the flow from s at l_lo, known to lie in (l_lo, l_hi]:
    the first piece whose end is outside the disk (the last one at the
    latest), read off the products through every piece of the bracket, then
    bisected on that piece's closed-form propagators.  The bracket's pieces
    are its folded stream unrolled: q copies of the stream (the rotated
    period), the pieces through the head, the constant tail's mass.  Of
    more than one period, the whole periods the row stays inside are
    skipped (``_periods_inside``) on the powers of the rotated period, its
    product from one kernel call over the stream, and when more than one
    period is left the escape lies in the next one, the only one unrolled.

    Round r of the bisection tries _TRIALS multiples of h_r = d / 65^r, d
    the piece's mass, from the bracket's left end, and keeps the first trial
    outside the disk (or the bracket's right end when none is) as the right
    end of the next bracket, h_r wide.  The widths are fixed in advance, so
    one call gives the propagators of every trial mass of every round, down
    to the float spacing of d, and each round pushes the row at its left end
    through its 64 of them (exp(G(a + b)) = exp(G a) exp(G b)).  The escape
    state is the last bracket's right end."""
    zs, gen = np.array([z]), p.generator_table
    k, d, ends, at, q, t = p.piece_arrays([l_hi], l_lo)
    reps, n = 0 if q is None else int(q[0]), ends[at[0]]
    row, mu = (s, 1.0), p.mu(l_lo)
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
    ends = _pushed(row, prop.scaled_products(zs, gen, k, d, np.arange(1, k.size + 1))[0])
    i = int(np.argmax(np.append(_outside(ends[:-1]), True)))
    lo_row, hi_row = ends[i - 1] if i else row, ends[i]
    rounds = max(1, int(np.ceil(np.log(d[i] / np.spacing(d[i])) / np.log(65.0))))
    widths = d[i] / 65.0 ** np.arange(1, rounds + 1)
    table, _ = prop._propagators(zs, gen, k[i:i + 1], np.outer(widths, _TRIALS).ravel())
    table = table.reshape(4, 1, rounds, _TRIALS.size)
    lo = 0.0
    for r, h in enumerate(widths.tolist()):
        rows = _pushed(lo_row, table[:, :, r])
        j = int(np.argmax(np.append(_outside(rows), True)))  # first outside
        if j:
            lo_row, lo = rows[j - 1], lo + j * h
        if j < _TRIALS.size:
            hi_row = rows[j]
    u, v = hi_row
    mu = mu + float(np.sum(d[:i])) + lo + h
    return RiccatiState(complex(u / v), p.l_of_mu(mu), z, mu, STATUS_ESCAPED)


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
    dead = np.abs(rows[:n]).max(axis=-1) < np.finfo(float).tiny
    if dead.any():
        raise DegenerateActionError(f"the row (s0, 1) T(z, l) decays below the float "
                                    f"range at l = {ls[np.argmax(dead)]}")
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

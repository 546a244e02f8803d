"""Exponential type, boundary-value diagnostics, and harmonic measure.

The exponential type of a transfer family has two independent faces: the
closed-form coefficient integral (sum of sqrt(det P) masses, or of
sqrt(1 - |a|^2) masses in disk gauge, a periodic tail folded to one period)
and the measured growth rate log ||A(iy, l)|| / y extrapolated in 1/y.
Agreement of the two is the classical type formula and an acceptance gate.

Boundary values of the half-line Schur functions are approximated at x + i*eps
on a decreasing eps ladder (any eps > 0: the tail closes every value), never
extrapolated to eps = 0: nontangential limits exist almost everywhere but
without uniform rates, so the honest output is the trend.  The reflectionless
defect |s_plus - conj(s_minus)| and a harmonic-measure comparison across a
length ladder quantify how far a two-sided system is from being
reflectionless on its a.c. band.

Grid points are independent: each grid is propagated in one call of the
vectorised kernel, and the only reductions are quadrature sums, which are
order-insensitive well below the tolerances used.
"""

from dataclasses import dataclass

import numpy as np

from . import coefficients as coeff
from . import propagate as prop
from . import weyl
from .errors import DomainError, InputError
from .mat2 import mobius_right, norm2
from .riccati import richardson_extrapolate

#: y-samples of the numeric growth rate.
TYPE_RAY = (50.0, 100.0, 200.0, 400.0, 800.0)

#: default eps ladder for boundary-value approximation.
EPS_LADDER = (1e-2, 1e-3, 1e-4)

#: pointwise a.c.-band proxy: max(|s+|, |s-|) < 1 - AC_DELTA.
AC_DELTA = 0.02

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def exponential_type_integral(system, l):
    """Closed-form exponential type: sqrt(det P) integrated against the
    density over [0, l] (det P = 1 - |a|^2 in disk gauge), the system's
    ``folded_sum``; exact for the stored piecewise-constant coefficients
    under every tail, in O(N) for any l."""
    if not isinstance(system, (coeff.ArovParameters, coeff.GeneralCoefficients)):
        raise InputError(f"unsupported coefficient object {type(system).__name__}")
    p, alpha = system.generator_table[:2]
    rate = np.sqrt(np.maximum(p ** 2 - np.abs(alpha) ** 2, 0.0))
    return float(system.folded_sum(rate, [l])[0])


def exponential_type_numeric(system, l):
    """Measured exponential type: log ||A(iy, l)|| / y at the y of TYPE_RAY,
    Richardson-extrapolated in 1/y, from one scaled kernel call, so
    y * sigma of a few thousand cannot overflow."""
    ys = TYPE_RAY
    m, c = prop.transfer_grid(system, 1j * np.array(ys), [l])
    m, c = m[:, 0], c[:, 0]
    estimate, _ = richardson_extrapolate((c + np.log(norm2(m))) / ys, ys[1] / ys[0])
    return float(estimate.real)


@dataclass(frozen=True)
class TypeReport:
    """Both faces of the exponential type and their relative gap."""

    sigma_integral: float
    sigma_numeric: float
    ys: tuple
    rel_gap: float


def type_report(system, l):
    si = exponential_type_integral(system, l)
    sn = exponential_type_numeric(system, l)
    gap = abs(sn - si) / max(si, 1e-6)
    return TypeReport(si, sn, TYPE_RAY, gap)


# ---------------------------------------------------------------------------
# Harmonic measure


def harmonic_measure(w, theta1, theta2):
    """Harmonic measure, seen from each w in the open unit disk, of the arc
    swept counterclockwise from theta1 to theta2.

    Closed form: the antiderivative of the Poisson kernel at w is the
    argument of the disk automorphism xi -> (xi - w)/(1 - conj(w) xi), so the
    measure is the swept angle of the image arc over 2 pi.  The full circle
    has measure 1; from w = 0 the measure is arc length over 2 pi.
    """
    w = np.asarray(w, dtype=complex)
    outside = np.abs(w) >= 1.0
    if outside.any():
        raise DomainError(f"harmonic measure needs |w| < 1, got |w| = {np.abs(w[outside][0])}")
    theta1, sweep = float(theta1), float(theta2) - float(theta1)
    if not np.isfinite(sweep):
        raise InputError(f"arc ({theta1}, {theta2}) has a non-finite end")
    if sweep >= 2.0 * np.pi:
        return np.ones(w.shape)[()]
    sweep %= 2.0 * np.pi
    if sweep == 0.0:
        return np.zeros(w.shape)[()]

    def image_angle(theta):
        xi = np.exp(1j * theta)
        return np.angle((xi - w) / (1.0 - np.conj(w) * xi))

    delta = image_angle(theta1 + sweep) - image_angle(theta1)
    return (delta % (2.0 * np.pi)) / (2.0 * np.pi)


# ---------------------------------------------------------------------------
# Reflectionless diagnostics


@dataclass(frozen=True)
class ReflectionlessReport:
    """Pointwise boundary diagnostics at one eps.

    defect[i] = |s_plus(x_i + i eps) - conj(s_minus(x_i + i eps))|;
    ac[i] marks the pointwise a.c.-band proxy max(|s+|, |s-|) < 1 - AC_DELTA;
    ok[i] is True at every point: every Schur value is certified at
    round-off or closed exactly by the tail, so no point can fail on its own.
    """

    xs: np.ndarray
    eps: float
    s_plus: np.ndarray
    s_minus: np.ndarray
    defect: np.ndarray
    ac: np.ndarray
    ok: np.ndarray


def reflectionless_defect(p_left, p_right, xs, eps):
    """Evaluate both half-line Schur functions just above the real axis and
    report the reflectionless defect per grid point: ``reflectionless_ladder``
    at one eps."""
    return reflectionless_ladder(p_left, p_right, xs, (eps,))[0]


def reflectionless_ladder(p_left, p_right, xs, eps_ladder=EPS_LADDER):
    """Reports for a decreasing eps ladder, exhibiting the eps -> 0 trend,
    every (eps, x) point of each half in one ``weyl`` grid call.
    No extrapolation to eps = 0 is attempted: boundary values exist a.e. but
    their rates are not uniform, so only the trend is reported."""
    eps = np.array([float(e) for e in eps_ladder])
    if np.any(np.diff(eps) >= 0.0):
        raise InputError("eps ladder must be strictly decreasing")
    if not np.all((eps > 0.0) & np.isfinite(eps)):
        raise DomainError("eps must be positive and finite")
    xs = np.asarray(xs, dtype=float).ravel()
    zs = (xs + 1j * eps[:, None]).ravel()
    sp = weyl.schur_grid(zs, p_right)[0].reshape(eps.size, xs.size)
    sm = weyl.schur_minus_grid(zs, p_left)[0].reshape(eps.size, xs.size)
    defect = np.abs(sp - np.conj(sm))
    ac = np.maximum(np.abs(sp), np.abs(sm)) < 1.0 - AC_DELTA
    ok = np.ones(xs.size, dtype=bool)
    return [ReflectionlessReport(xs, float(e), *row, ok)
            for e, *row in zip(eps, sp, sm, defect, ac)]


# ---------------------------------------------------------------------------
# Harmonic-measure comparison across a length ladder


@dataclass(frozen=True)
class BPReport:
    """Signed harmonic-measure defect per probe length.

    defects[j] integrates, over the band set, the measure of the conjugate
    arc seen from the stripped left value minus the measure of the arc seen
    from the stripped right value; the defect decaying along the length
    ladder is the operational reflectionless signature."""

    l_values: tuple
    defects: np.ndarray
    n_points: int
    n_excluded: np.ndarray
    hypothesis_violations: tuple


def bp_defect(p_left, p_right, e_intervals, arc, l_values, x_step, eps):
    """Harmonic-measure defect of a two-sided system on a length ladder.

    e_intervals: list of (lo, hi) subsets of the a.c. band; arc = (t1, t2) a
    circular arc; the integrand compares the stripped boundary values at
    x + i*eps.  Sample points where a stripped value reaches the unit circle
    are excluded and counted.  The interior hypothesis |s(i, l)| < 1 is
    checked at every probe length and violations are reported, not decided.
    """
    t1, t2 = float(arc[0]), float(arc[1])
    eps, x_step = float(eps), float(x_step)
    l_values = tuple(float(l) for l in l_values)
    if not (0.0 < x_step < np.inf and 0.0 < eps < np.inf):
        raise InputError(f"x step {x_step} and eps {eps} must be positive and finite")
    if not e_intervals:
        raise InputError("no band intervals")
    grids = []
    for lo, hi in e_intervals:
        lo, hi = float(lo), float(hi)
        if not (lo < hi and np.isfinite(hi - lo)):
            raise InputError(f"bad band interval ({lo}, {hi})")
        try:
            grids.append(np.linspace(lo, hi, max(int(np.ceil((hi - lo) / x_step)) + 1, 2)))
        except (OverflowError, ValueError):
            raise InputError(f"x step {x_step} gives too many points on ({lo}, {hi})")
    all_x = np.concatenate(grids)

    # the plus half's stripped values at every grid point and at z = i for
    # all lengths, pulled back from the tail in one call; the minus half's
    # base values, stripped forwards by J1 m J1 (m with its entries
    # reversed) of the transfer matrices at the same points, one call each
    zs = np.append(all_x + 1j * eps, 1j)
    sp = weyl.stripped_grid(zs, p_right, l_values)
    sm0, _, _ = weyl.schur_minus_grid(zs[:-1], p_left)
    m_x, _ = prop.transfer_grid(p_right, zs, l_values)
    (sp, sp_i), (m_x, m_i) = np.split(sp, [-1]), np.split(m_x, [-1])
    # interior hypothesis at each probe length; v(i) = 0 for the minus half
    hyp = np.abs(np.stack([sp_i[0], mobius_right(0j, m_i[0, :, ::-1, ::-1])], axis=1))
    j, side = np.nonzero(hyp >= 1.0)
    violations = tuple(zip(np.take(l_values, j).tolist(),
                           np.take(("plus", "minus"), side).tolist(), hyp[j, side].tolist()))

    sm = mobius_right(sm0[:, None], m_x[..., ::-1, ::-1])
    keep = (np.abs(sp) < 1.0) & (np.abs(sm) < 1.0)
    vals = harmonic_measure(np.where(keep, sm, 0.0), -t2, -t1) - \
        harmonic_measure(np.where(keep, sp, 0.0), t1, t2)
    defects = np.zeros(len(l_values))
    bounds = np.cumsum([0] + [g.size for g in grids])
    for j in range(len(l_values)):
        for grid, lo, hi in zip(grids, bounds, bounds[1:]):
            k = keep[lo:hi, j]
            if k.sum() >= 2:
                defects[j] += float(_trapezoid(vals[lo:hi, j][k], grid[k]))
    return BPReport(l_values, defects, all_x.size, (~keep).sum(axis=0), violations)

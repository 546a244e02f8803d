"""Exponential type, boundary-value diagnostics, and harmonic measure.

The exponential type of a transfer family has two independent faces: the
closed-form coefficient integral (sum of sqrt(det P) masses, or of
sqrt(1 - |a|^2) masses in disk gauge) and the measured growth rate
log ||A(iy, l)|| / y extrapolated in 1/y.  Agreement of the two is the
classical type formula and one of the package's acceptance gates.

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
from .mat2 import J1, norm2
from .riccati import richardson_extrapolate

#: default y-samples for the numeric growth rate.
TYPE_RAY = (50.0, 100.0, 200.0, 400.0, 800.0)

#: default eps ladder for boundary-value approximation.
EPS_LADDER = (1e-2, 1e-3, 1e-4)

#: pointwise a.c.-band proxy: max(|s+|, |s-|) < 1 - AC_DELTA.
AC_DELTA = 0.02

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def exponential_type_integral(system, l):
    """Closed-form exponential type: the sum over the pieces of [0, l] of
    sqrt(det P) times their mass (det P = 1 - |a|^2 in disk gauge); exact
    for the stored piecewise-constant coefficients under every tail."""
    l = float(l)
    if l < 0.0:
        raise DomainError("l must be nonnegative")
    if not isinstance(system, (coeff.ArovParameters, coeff.GeneralCoefficients)):
        raise InputError(f"unsupported coefficient object {type(system).__name__}")
    k, d = system.span_arrays(l)
    p, alpha = system.generator_table[:2]
    det_p = p[k] ** 2 - np.abs(alpha[k]) ** 2
    return float(np.sum(np.sqrt(np.maximum(det_p, 0.0)) * d))


def exponential_type_numeric(system, l, ys=TYPE_RAY):
    """Measured exponential type: log ||A(iy, l)|| / y on a geometric y-grid,
    Richardson-extrapolated in 1/y.  ``system`` may also be a callable
    z -> (M, logscale) producing scaled transfer matrices, which is how
    overflow at y * sigma of a few thousand is avoided; a coefficient system
    is propagated at every y in one kernel call."""
    ys = tuple(float(y) for y in ys)
    if callable(system):
        scaled = [system(1j * y) for y in ys]
    else:
        m, c = prop.transfer_grid(system, 1j * np.array(ys), [l])
        scaled = zip(m[:, 0], c[:, 0])
    samples = [(c + np.log(norm2(m))) / y for (m, c), y in zip(scaled, ys)]
    estimate, _ = richardson_extrapolate(samples, ys[1] / ys[0])
    return float(estimate.real)


@dataclass(frozen=True)
class TypeReport:
    """Both faces of the exponential type and their relative gap."""

    sigma_integral: float
    sigma_numeric: float
    ys: tuple
    rel_gap: float


def type_report(system, l, ys=TYPE_RAY):
    si = exponential_type_integral(system, l)
    sn = exponential_type_numeric(system, l, ys)
    gap = abs(sn - si) / max(si, 1e-6)
    return TypeReport(si, sn, tuple(ys), gap)


# ---------------------------------------------------------------------------
# Harmonic measure and the disk pseudo-metric


def harmonic_measure(w, theta1, theta2):
    """Harmonic measure, seen from w in the open unit disk, of the arc swept
    counterclockwise from theta1 to theta2.

    Closed form: the antiderivative of the Poisson kernel at w is the
    argument of the disk automorphism xi -> (xi - w)/(1 - conj(w) xi), so the
    measure is the swept angle of the image arc over 2 pi.  The full circle
    has measure 1; from w = 0 the measure is arc length over 2 pi.
    """
    w = complex(w)
    if abs(w) >= 1.0:
        raise DomainError(f"harmonic measure needs |w| < 1, got |w| = {abs(w)}")
    sweep = float(theta2) - float(theta1)
    if sweep >= 2.0 * np.pi:
        return 1.0
    if sweep < 0.0:
        sweep %= 2.0 * np.pi
    if sweep == 0.0:
        return 0.0

    def image_angle(theta):
        xi = np.exp(1j * theta)
        return np.angle((xi - w) / (1.0 - np.conj(w) * xi))

    delta = image_angle(theta1 + sweep) - image_angle(float(theta1))
    return float(delta % (2.0 * np.pi)) / (2.0 * np.pi)


def gamma_metric(w, z):
    """Moebius-invariant disk pseudo-distance
    2 |w - z| / (sqrt(1 - |w|^2) sqrt(1 - |z|^2)); it dominates differences
    of harmonic measures of a common arc."""
    w, z = complex(w), complex(z)
    if abs(w) >= 1.0 or abs(z) >= 1.0:
        raise DomainError("gamma_metric needs both points strictly inside the disk")
    return float(
        2.0 * abs(w - z) / np.sqrt((1.0 - abs(w) ** 2) * (1.0 - abs(z) ** 2))
    )


# ---------------------------------------------------------------------------
# Reflectionless diagnostics


@dataclass(frozen=True)
class ReflectionlessReport:
    """Pointwise boundary diagnostics at one eps.

    defect[i] = |s_plus(x_i + i eps) - conj(s_minus(x_i + i eps))|;
    ac[i] marks the pointwise a.c.-band proxy max(|s+|, |s-|) < 1 - delta;
    ok[i] is True at every point: every Schur value is closed exactly by the
    tail, so no point can fail on its own.
    """

    xs: np.ndarray
    eps: float
    s_plus: np.ndarray
    s_minus: np.ndarray
    defect: np.ndarray
    ac: np.ndarray
    ok: np.ndarray
    delta: float


def reflectionless_defect(p_left, p_right, xs, eps, delta=AC_DELTA,
                          tol=weyl.SCHUR_TOL):
    """Evaluate both half-line Schur functions just above the real axis and
    report the reflectionless defect per grid point, every point of each
    half in one ``weyl`` grid call."""
    xs = np.asarray(xs, dtype=float).ravel()
    eps = float(eps)
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    zs = xs + 1j * eps
    sp, _, _ = weyl.schur_grid(zs, p_right, tol)
    sm, _, _ = weyl.schur_minus_grid(zs, p_left, tol)
    defect = np.abs(sp - np.conj(sm))
    ac = np.maximum(np.abs(sp), np.abs(sm)) < 1.0 - delta
    ok = np.ones(xs.size, dtype=bool)
    return ReflectionlessReport(xs, eps, sp, sm, defect, ac, ok, delta)


def reflectionless_ladder(p_left, p_right, xs, eps_ladder=EPS_LADDER,
                          delta=AC_DELTA, tol=weyl.SCHUR_TOL):
    """Reports for a decreasing eps ladder, exhibiting the eps -> 0 trend.
    No extrapolation to eps = 0 is attempted: boundary values exist a.e. but
    their rates are not uniform, so only the trend is reported."""
    eps_ladder = tuple(float(e) for e in eps_ladder)
    if any(e2 >= e1 for e1, e2 in zip(eps_ladder, eps_ladder[1:])):
        raise InputError("eps ladder must be strictly decreasing")
    return [
        reflectionless_defect(p_left, p_right, xs, e, delta=delta, tol=tol)
        for e in eps_ladder
    ]


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


def bp_defect(p_left, p_right, e_intervals, arc, l_values, x_step, eps,
              tol=weyl.SCHUR_TOL):
    """Harmonic-measure defect of a two-sided system on a length ladder.

    e_intervals: list of (lo, hi) subsets of the a.c. band; arc = (t1, t2) a
    circular arc; the integrand compares the stripped boundary values at
    x + i*eps.  Sample points where a stripped value reaches the unit circle
    are excluded and counted.  The interior hypothesis |s(i, l)| < 1 is
    checked at every probe length and violations are reported, not decided.
    """
    t1, t2 = float(arc[0]), float(arc[1])
    eps = float(eps)
    l_values = tuple(float(l) for l in l_values)
    grids = []
    for lo, hi in e_intervals:
        lo, hi = float(lo), float(hi)
        if hi <= lo:
            raise InputError(f"bad band interval ({lo}, {hi})")
        n = max(int(np.ceil((hi - lo) / float(x_step))) + 1, 2)
        grids.append(np.linspace(lo, hi, n))
    all_x = np.concatenate(grids)

    # base boundary values: every grid point of each half in one call
    zs = all_x + 1j * eps
    sp0, _, _ = weyl.schur_grid(zs, p_right, tol)
    sm0, _, _ = weyl.schur_minus_grid(zs, p_left, tol)

    sp_i = weyl.schur_plus(1j, p_right, tol=tol).value
    sm_i = 0j  # v(i) = 0

    # transfer matrices at z = i and at every grid point, all lengths at once
    m_i, _ = prop.transfer_grid(p_right, [1j], l_values)
    m_x, _ = prop.transfer_grid(p_right, zs, l_values)
    defects = np.zeros(len(l_values))
    excluded = np.zeros(len(l_values), dtype=int)
    violations = []
    for j, l in enumerate(l_values):
        # interior hypothesis at the probe length
        for tag, base, mat in (("plus", sp_i, m_i[0, j]),
                               ("minus", sm_i, J1 @ m_i[0, j] @ J1)):
            val = weyl.schur_stripped(base, mat)
            if abs(val) >= 1.0:
                violations.append((l, tag, abs(val)))
        total = 0.0
        offset = 0
        for grid in grids:
            vals = np.full(grid.size, np.nan)
            for i in range(grid.size):
                m = m_x[offset + i, j]
                sp = weyl.schur_stripped(sp0[offset + i], m)
                sm = weyl.schur_stripped(sm0[offset + i], J1 @ m @ J1)
                if abs(sp) >= 1.0 or abs(sm) >= 1.0:
                    excluded[j] += 1
                    continue
                vals[i] = harmonic_measure(sm, -t2, -t1) - harmonic_measure(sp, t1, t2)
            keep = ~np.isnan(vals)
            if keep.sum() >= 2:
                total += float(_trapezoid(vals[keep], grid[keep]))
            offset += grid.size
        defects[j] = total
    return BPReport(l_values, defects, all_x.size, excluded, tuple(violations))

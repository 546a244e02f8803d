"""Shared generators and independent oracles for the test suite."""

import numpy as np

from arvcanon import ArovParameters, InputError, TAIL_CONSTANT
from arvcanon import coefficients as coeff
from arvcanon.mat2 import J, as_mat2, det2, norm2
from arvcanon.propagate import generator, transfer
from arvcanon.riccati import (ESCAPE_SLACK, STATUS_ESCAPED, STATUS_OK,
                              RiccatiState, riccati_rhs)


def random_parameters(rng, n_max=12, total_mu=2.0, a_cap=0.95,
                      tail=TAIL_CONSTANT, zero_mass_interval=False):
    """Random piecewise-constant disk-gauge system with controlled total
    measure mass (keeps matrix entries small enough that round-off stays far
    below the acceptance tolerances)."""
    n = int(rng.integers(1, n_max + 1))
    widths = rng.uniform(0.05, 0.3, n)
    grid = np.cumsum(widths)
    m = rng.uniform(0.2, 1.2, n)
    if zero_mass_interval and n > 2:
        m[int(rng.integers(1, n - 1))] = 0.0
    mass = float(np.sum(m * widths))
    if mass > 0:
        m *= total_mu / mass
    radii = rng.uniform(0.0, a_cap, n)
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    a = radii * np.exp(1j * angles)
    return ArovParameters(grid, m, a, tail)


def random_upper_z(rng, re_max=1.5, im_range=(0.1, 1.5)):
    return complex(rng.uniform(-re_max, re_max), rng.uniform(*im_range))


def random_contractive(rng):
    """Random j-contractive det-1 matrix: a transfer value at a random upper
    half-plane point."""
    p = random_parameters(rng, n_max=6, total_mu=float(rng.uniform(0.3, 2.0)))
    z = random_upper_z(rng)
    l = float(rng.uniform(0.3, 1.0)) * p.length
    return transfer(z, p, l)


def peano_series(z, pieces, order=45):
    """Truncated iterated-integral series for the ordered product of
    constant-generator pieces.

    Each iterated integral is evaluated exactly (per-interval polynomial
    recursion in the local measure variable), so the only error is series
    truncation; no matrix exponential is involved anywhere.  This is the
    independent brute-force oracle for the closed-form propagation path.
    """
    segs = [(generator(z, a), float(d)) for a, d in pieces]
    eye = np.eye(2, dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)
    coeffs = [[eye] for _ in segs]
    total = eye.copy()
    for _ in range(order):
        value = zero
        new_coeffs = []
        for (g, d), poly in zip(segs, coeffs):
            lifted = [value] + [(c @ g) / (j + 1) for j, c in enumerate(poly)]
            value = lifted[-1]
            for j in range(len(lifted) - 2, -1, -1):
                value = value * d + lifted[j]
            new_coeffs.append(lifted)
        coeffs = new_coeffs
        total = total + value
    return total


def is_su11(u, tol=1e-10):
    """Check membership in SU(1,1): U j U* = j and det U = 1."""
    u = as_mat2(u, "U")
    return (
        norm2(u @ J @ u.conj().T - J) <= tol * max(1.0, norm2(u) ** 2)
        and abs(det2(u) - 1.0) <= tol
    )


def random_su11(rng, t_max=1.5):
    """Random SU(1,1) element ``[[p, q], [conj(q), conj(p)]]`` with
    |p|^2 - |q|^2 = 1; used by the gamma-invariance checks."""
    t = rng.uniform(0.0, t_max)
    alpha, beta = rng.uniform(0.0, 2 * np.pi, size=2)
    p = np.cosh(t) * np.exp(1j * alpha)
    q = np.sinh(t) * np.exp(1j * beta)
    return np.array([[p, q], [np.conj(q), np.conj(p)]], dtype=complex)


# --- RK4 oracle of the stripping flow ---------------------------------------------
#
# The classical integrator the library used before it solved the flow exactly;
# kept as the independent reference the exact flow is checked against.

#: default measure step for the classical 4th-order integrator.  2.5e-4
#: keeps the flow within ~2.5e-9 of direct stripping over measure spans of 5
#: across random systems; a 1e-3 step can drift past 1e-7 there because the
#: forward flow amplifies local truncation error.
DEFAULT_STEP = 2.5e-4

#: per-step |ds| above which the step is halved.
JUMP_CAP = 0.05


class StepUnderflowError(RuntimeError):
    """Adaptive step control reduced the step below the useful resolution."""


def _rk4_step(s, a, z, h):
    k1 = riccati_rhs(s, z, a)
    k2 = riccati_rhs(s + 0.5 * h * k1, z, a)
    k3 = riccati_rhs(s + 0.5 * h * k2, z, a)
    k4 = riccati_rhs(s + h * k3, z, a)
    return s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_riccati(z, s0, p, l, step=DEFAULT_STEP, escape_slack=ESCAPE_SLACK):
    """Propagate a Schur value along the stripping flow up to length l.

    Classical 4th-order stepping in the measure variable with per-interval
    constant coefficient; the step halves whenever a single update moves s by
    more than JUMP_CAP.  Stops early with status "escaped" once
    |s| > 1 + escape_slack.
    """
    z, s0 = complex(z), complex(s0)
    if abs(s0) > 1.0 + coeff.COEFF_TOL:
        raise InputError(f"|s0| = {abs(s0)} > 1")
    if step <= 0.0:
        raise InputError("step must be positive")
    s = s0
    mu_done = 0.0
    for a, dmu in p.pieces(float(l)):
        remaining = dmu
        while remaining > 0.0:
            h = min(step, remaining)
            while True:
                s_new = _rk4_step(s, a, z, h)
                if abs(s_new - s) <= JUMP_CAP or h <= 1e-14:
                    break
                h *= 0.5
            if h <= 1e-14 and abs(s_new - s) > JUMP_CAP:
                raise StepUnderflowError(
                    f"step collapsed below 1e-14 at mu = {mu_done} (z = {z})"
                )
            s = s_new
            remaining -= h
            mu_done += h
            if abs(s) > 1.0 + escape_slack:
                return RiccatiState(
                    s, p.l_of_mu(mu_done), z, mu_done, STATUS_ESCAPED
                )
    return RiccatiState(s, float(l), z, mu_done, STATUS_OK)

"""Shared generators and independent oracles for the test suite."""

import numpy as np

from arvcanon import ArovParameters, TAIL_CONSTANT
from arvcanon.mat2 import J, as_mat2, det2, norm2
from arvcanon.propagate import generator, transfer


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

"""Shared generators and independent oracles for the test suite."""

import contextlib
import json
import re
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import brentq

from arvcanon import (ArovParameters, GeneralCoefficients, InputError, TAIL_CONSTANT,
                      TAIL_FINITE, TAIL_PERIODIC)
from arvcanon import coefficients as coeff
from arvcanon import propagate as prop
from arvcanon.coefficients import COEFF_TOL, _sorted_unique
from arvcanon.errors import (CoefficientError, DegenerateActionError, DomainError,
                             PreconditionError)
from arvcanon.mat2 import J, J1, as_mat2, det2, mat2, mobius_right, norm2
from arvcanon.propagate import transfer, transfer_grid
from arvcanon.riccati import ESCAPE_SLACK, STATUS_ESCAPED, STATUS_OK, RiccatiState
from arvcanon.spectral import harmonic_measure
from arvcanon.weyl import schur_minus_grid, stripped_grid


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


def random_general(rng, n, tail):
    """Random general-gauge system: P >= 0 Hermitian and Q anti-Hermitian,
    both with equal diagonal entries."""
    # P = [[p, b], [conj b, p]] >= 0 and Q = [[i r, c], [-conj c, i r]]
    p = rng.uniform(0.5, 1.5, n)
    b = rng.uniform(0.0, 0.9, n) * p * np.exp(2j * np.pi * rng.uniform(size=n))
    r, c = rng.normal(size=n), rng.normal(size=n) + 1j * rng.normal(size=n)
    P = np.stack([np.stack([p, b], -1), np.stack([np.conj(b), p], -1)], -2)
    Q = np.stack([np.stack([1j * r, c], -1), np.stack([-np.conj(c), 1j * r], -1)], -2)
    return GeneralCoefficients(np.cumsum(rng.uniform(0.05, 0.3, n)),
                               rng.uniform(0.0, 1.5, n), P, Q, tail)


# --- coefficient files and CSV output -------------------------------------------------------------

NUMBER_TOKEN = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")

#: replacements for one number token of a valid file
TOKEN_SWAPS = ("NaN", "Infinity", "-Infinity", "true", "false", "null", "[]",
               "[[]]", "[[0.5, 1], []]", '"1.5"', "-0", "0", "-0.0", "1e400",
               str(2**53 + 1), str(-(2**60 + 3)), str(2**70 + 12345), "5e-324")


@st.composite
def coefficient_texts(draw):
    """JSON coefficient texts: a valid file of either gauge or a full line,
    with up to two mutations (characters dropped or duplicated, duplicate
    keys, number tokens swapped for NaN, Infinity, literals, lists, strings
    and large or signed-zero integers, a string key full of digits and
    escaped quotes)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["disk", "general", "full line"]))
    tail = draw(st.sampled_from([TAIL_CONSTANT, TAIL_PERIODIC, TAIL_FINITE]))
    if kind == "general":
        payload = random_general(rng, int(rng.integers(1, 4)), tail).to_dict()
    else:
        halves = [random_parameters(rng, n_max=4, tail=tail).to_dict() for _ in range(2)]
        payload = {"left": halves[0], "right": halves[1]} if kind == "full line" else halves[0]
    text = json.dumps(payload, indent=draw(st.sampled_from([None, 1])))
    for _ in range(draw(st.integers(0, 2))):
        how = draw(st.sampled_from(["drop", "duplicate", "key", "string", "token", "token"]))
        i = draw(st.integers(0, len(text) - 1))
        if how == "drop":
            text = text[:i] + text[i + 1:]
        elif how == "duplicate":
            text = text[:i] + text[i] + text[i:]
        elif how == "key":  # a duplicate key: the last one wins
            key = draw(st.sampled_from(['"grid"', '"m"', '"a"', '"tail"', '"left"']))
            text = text.replace("{", "{" + key + ': [0.5, 2], ', 1)
        elif how == "string":
            text = text.replace("{", r'{"n1 -0": "2.5e3 \"7, -0\" [1] true", ', 1)
        else:
            tokens = list(NUMBER_TOKEN.finditer(text))
            if tokens:
                tok = tokens[draw(st.integers(0, len(tokens) - 1))]
                text = text[:tok.start()] + draw(st.sampled_from(TOKEN_SWAPS)) + text[tok.end():]
    return text


def csv_reference(header, columns, cfg, units):
    """The CSV text of the command line written one number at a time:
    format(x, ".17g") per number, strings as they are."""
    lines = [f"# arvcanon config={cfg} units={units}", ",".join(header)]
    lines += [",".join(v if isinstance(v, str) else format(float(v), ".17g") for v in row)
              for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def random_upper_z(rng, re_max=1.5, im_range=(0.1, 1.5)):
    return complex(rng.uniform(-re_max, re_max), rng.uniform(*im_range))


def random_contractive(rng):
    """Random j-contractive det-1 matrix: a transfer value at a random upper
    half-plane point."""
    p = random_parameters(rng, n_max=6, total_mu=float(rng.uniform(0.3, 2.0)))
    z = random_upper_z(rng)
    l = float(rng.uniform(0.3, 1.0)) * p.length
    return transfer(z, p, l)


# --- generators written out from the paper's forms ----------------------------------

#: the signature matrix j = diag(-1, 1)
SIGNATURE = np.diag([-1.0, 1.0])


def disk_generator(z, a):
    """Disk-gauge interval generator (i z A - B) j per unit measure, with
    A = [[1, -conj(a)], [-a, 1]] and B = [[0, conj(a)], [-a, 0]]."""
    A = np.array([[1.0, -np.conj(a)], [-a, 1.0]])
    B = np.array([[0.0, np.conj(a)], [-a, 0.0]])
    return (1j * z * A - B) @ SIGNATURE


def general_generator(z, P, Q):
    """General-gauge interval generator (i z P - Q) j per unit measure."""
    return (1j * z * P - Q) @ SIGNATURE


def generators(system, z):
    """(i z P - Q) j per stored interval and per unit mass, with the density:
    (G (n, 2, 2), density (n,)), for either gauge."""
    if isinstance(system, ArovParameters):
        a = system.a
        P = np.stack([np.stack([np.ones_like(a), -np.conj(a)], -1),
                      np.stack([-a, np.ones_like(a)], -1)], -2)
        Q = np.stack([np.stack([np.zeros_like(a), np.conj(a)], -1),
                      np.stack([-a, np.zeros_like(a)], -1)], -2)
        density = system.m
    else:
        P, Q, density = system.P, system.Q, system.n
    return (1j * z * P - Q) @ SIGNATURE, density


def unrolled_pieces(system, l_to, l_from=0.0):
    """(k, d) of the pieces covering [l_from, l_to], cut here from the grid,
    the density and the tail alone: every stored interval of every period
    the span meets, clipped to the span, then the constant tail's mass past
    max(l_from, L); interval k carries mass d."""
    knots = np.concatenate(([0.0], system.grid))
    L, n = knots[-1], system.grid.size
    density = system.m if isinstance(system, ArovParameters) else system.n
    periods = (np.arange(int(l_from // L), int(np.ceil(l_to / L)))
               if system.tail == TAIL_PERIODIC else np.arange(1))
    starts = periods[:, None] * L + knots
    lo = np.clip(starts[:, :-1], l_from, l_to).ravel()
    hi = np.clip(starts[:, 1:], l_from, l_to).ravel()
    k = np.tile(np.arange(n), periods.size)[hi > lo]
    d = (hi - lo)[hi > lo] * density[k]
    if system.tail == TAIL_CONSTANT and l_to > L:
        k, d = np.append(k, n - 1), np.append(d, (l_to - max(l_from, L)) * density[-1])
    return k, d


def stream_mass(system, l_to, l_from=0.0):
    """The mass of [l_from, l_to] as the folded piece stream of
    ``piece_arrays`` carries it: q streams, the pieces through the head and
    the constant tail's mass."""
    k, d, ends, at, q, t = system.piece_arrays([l_to], l_from)
    return float((0 if q is None else q[0]) * d[:ends[-1]].sum() + d[:ends[at[0]]].sum()
                 + (0.0 if t is None else t[0]))


def expm_transfer(system, z, l_to, l_from=0.0):
    """The ordered product of scipy expm propagators over the pieces of
    ``unrolled_pieces``: (M, log-scale), the product normalised after every
    piece."""
    gens, density = generators(system, z)
    m, logc = np.eye(2, dtype=complex), 0.0
    for k, d in zip(*unrolled_pieces(system, l_to, l_from)):
        m = m @ expm(gens[k] * d)
        s = np.max(np.abs(m))
        m, logc = m / s, logc + np.log(s)
    return m, logc


def peano_series(z, pieces, order=45):
    """Truncated iterated-integral series for the ordered product of
    constant-generator pieces.

    Each iterated integral is evaluated exactly (per-interval polynomial
    recursion in the local measure variable), so the only error is series
    truncation; no matrix exponential is involved anywhere.  This is the
    independent brute-force oracle for the closed-form propagation path.
    """
    segs = [(disk_generator(z, a), float(d)) for a, d in pieces]
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


# --- paper identities the library's numbers are checked against -------------------
#
# Formulas of the paper that no command runs; the acceptance criteria and the
# unit tests use them as oracles.


@dataclass(frozen=True)
class ABPair:
    """The Hermitian/anti-Hermitian generator pair attached to a unit-disk
    coefficient: A = [[1, -conj(a)], [-a, 1]], B = [[0, conj(a)], [-a, 0]]."""

    a: complex
    A: np.ndarray
    B: np.ndarray

    @property
    def a_plus_b(self):
        """A + B = [[1, 0], [-2a, 1]]."""
        return self.A + self.B


def ab_from_a(a):
    """Expand a unit-disk coefficient into its (A, B) generator pair."""
    a = complex(a)
    if not np.isfinite(a.real) or not np.isfinite(a.imag):
        raise InputError("coefficient a must be finite")
    if abs(a) > 1.0 + COEFF_TOL:
        raise CoefficientError(f"coefficient out of range: |a| = {abs(a)} > 1")
    ac = np.conj(a)
    A = mat2(1.0, -ac, -a, 1.0)
    B = mat2(0.0, ac, -a, 0.0)
    return ABPair(a, A, B)


def reparametrize(p, g_breaks, g_values):
    """Change of length variable: new parameters with cumulative measure
    ``mu~(l) = mu(g(l))`` and coefficient ``a~(l) = a(g(l))``.

    ``g`` is given as a piecewise-linear increasing map through the points
    ``(g_breaks[i], g_values[i])`` with g(0) = 0, extended linearly beyond the
    last breakpoint.  The transfer matrix of the result at l equals the
    original's at g(l); observables do not change.  Periodic tails are not
    supported (the image of a periodic pattern under a generic map is not
    periodic).
    """
    xb = np.asarray(g_breaks, dtype=float)
    gv = np.asarray(g_values, dtype=float)
    if xb.ndim != 1 or xb.shape != gv.shape or xb.size < 2:
        raise PreconditionError("grid map needs matching break/value arrays (>= 2 points)")
    if xb[0] != 0.0 or gv[0] != 0.0:
        raise PreconditionError("grid map must satisfy g(0) = 0")
    if np.any(np.diff(xb) <= 0.0) or np.any(np.diff(gv) <= 0.0):
        raise PreconditionError("grid map must be strictly increasing")
    if p.tail == TAIL_PERIODIC:
        raise DomainError("reparametrize does not support periodic tails")

    slope_end = (gv[-1] - gv[-2]) / (xb[-1] - xb[-2])

    def extended(x, xs, ys, step):
        """np.interp through (xs, ys), continued past xs[-1] by step(x - xs[-1])."""
        out, beyond = np.interp(x, xs, ys), x > xs[-1]
        out[beyond] = ys[-1] + step(x[beyond] - xs[-1])
        return out

    # the new knots: every slope break of g and every preimage of an old knot
    knots = extended(p.grid, gv, xb, lambda d: d / slope_end)
    knots = _sorted_unique(xb[(xb > 0.0) & (xb < knots[-1])], knots)
    knots = np.concatenate(([0.0], knots[knots > 0.0]))
    old = extended(knots, xb, gv, lambda d: slope_end * d)
    # each new interval takes the old interval holding its image's midpoint
    k = np.minimum(p.grid.searchsorted(0.5 * (old[1:] + old[:-1]), side="right"),
                   p.grid.size - 1)
    return ArovParameters(knots[1:], p.m[k] * np.diff(old) / np.diff(knots), p.a[k], p.tail)


def blaschke_matrix(a):
    """SU(1,1) representative of the disk automorphism w -> (w - a)/(1 - conj(a) w):
    [[1, -conj(a)], [-a, 1]] / sqrt(1 - |a|^2).  Satisfies
    blaschke_matrix(a_to_c(a))^2 == blaschke_matrix(a) on the open disk."""
    a = complex(a)
    r2 = abs(a) ** 2
    if r2 >= 1.0:
        raise DomainError(f"blaschke_matrix needs |a| < 1, got |a| = {abs(a)}")
    return np.array([[1.0, -np.conj(a)], [-a, 1.0]], dtype=complex) / np.sqrt(1.0 - r2)


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


def diameter_direct(t):
    """Diameter formula 2 / (|T11|^2 - |T12|^2), straight from T (no
    normalization); agrees with 2 * radius of weyl_disk(T)."""
    denom = abs(t[0, 0]) ** 2 - abs(t[0, 1]) ** 2
    if denom <= 0.0:
        raise PreconditionError("matrix is not j-contractive (|T11| <= |T12|)")
    return 2.0 / denom


def schur_stripped(s, t):
    """Schur value after stripping by the transfer matrix t: the Moebius
    image of s under the right action of t, elementwise over stacks."""
    image = mobius_right(s, t)
    if np.any(np.isinf(image)):
        raise DegenerateActionError(
            "stripped Schur value at projective infinity (|s| = 1 boundary collision)"
        )
    return image


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


def riccati_rhs(s, z, a):
    """Right-hand side of the stripping flow in the measure variable."""
    s, z, a = complex(s), complex(z), complex(a)
    iz = 1j * z
    return np.conj(a) * (iz + 1.0) * s * s - 2.0 * iz * s + a * (iz - 1.0)


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
    k, d = unrolled_pieces(p, float(l))
    for a, dmu in zip(p.a[k].tolist(), d.tolist()):
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


def escape_oracle(z, s0, p, l, scan=64):
    """Escape point (mu, s) of the forward flow from s0 within [0, l], or
    None when the value stays in the disk: the pieces of ``unrolled_pieces``
    propagated one scipy expm at a time, the first piece whose end lies
    outside |s| = 1 + ESCAPE_SLACK scanned at ``scan`` equal masses, and
    brentq on |s(t)| - (1 + ESCAPE_SLACK) between the last scan point inside
    and the first one outside."""
    gens, _ = generators(p, z)
    row, mu = np.array([s0, 1.0], dtype=complex), 0.0

    def excess(w):
        return abs(w[0] / w[1]) - (1.0 + ESCAPE_SLACK)

    for k, d in zip(*unrolled_pieces(p, float(l))):
        def at(t, row=row, g=gens[k]):
            return row @ expm(g * t)

        if excess(at(d)) > 0.0:
            ts = np.linspace(0.0, d, scan + 1)
            j = next(j for j, t in enumerate(ts) if excess(at(t)) > 0.0)
            t = brentq(lambda t: excess(at(t)), ts[j - 1], ts[j], xtol=1e-300,
                       rtol=4.0 * np.finfo(float).eps)
            u, v = at(t)
            return mu + t, complex(u / v)
        row, mu = at(d), mu + d
        row = row / np.max(np.abs(row))
    return None


# --- disk-shrinkage oracle of the Schur function -----------------------------------
#
# The doubling iteration the library ran before it closed Schur values with the
# tail; kept as the independent reference the closure is checked against.


def doubling_oracle(p, z, tol=1e-9):
    """Weyl-disk shrinkage written out: the doubling ladder l = 1, 2, 4, ...
    of a constant- or periodic-tail disk-gauge system, each transfer matrix
    an ordered product of scipy expm propagators carried along the line, and
    each disk read off the quadratic form |s T11 + T21| <= |s T12 + T22|;
    nesting is asserted on the way.  Returns (center, radius, l) at the
    first radius below tol."""

    def g(k):
        return p.m[k] * disk_generator(z, p.a[k])

    knots, n, L = p.knots, p.n_intervals, p.length
    t, c, pos, k, period = np.eye(2, dtype=complex), 0.0, 0.0, 0, 0
    l, prev = 1.0, None
    while True:
        while pos < l:  # carry the product to l, interval by interval
            end = period * L + knots[k + 1] if k < n else np.inf
            hi = min(end, l)
            t = t @ expm(g(min(k, n - 1)) * (hi - pos))
            scale = np.max(np.abs(t))
            t, c, pos = t / scale, c + np.log(scale), hi
            if hi == end:
                k += 1
                if k == n and p.tail == TAIL_PERIODIC:
                    k, period = 0, period + 1
        # T = exp(c) t has det 1: radius 1 / (|T11|^2 - |T12|^2)
        lam2 = abs(t[0, 0]) ** 2 - abs(t[0, 1]) ** 2
        center = (t[1, 1] * np.conj(t[0, 1]) - t[1, 0] * np.conj(t[0, 0])) / lam2
        radius = np.exp(-2.0 * c) / lam2
        assert prev is None or abs(center - prev[0]) <= prev[1] - radius + 1e-10
        if radius < tol:
            return complex(center), float(radius), l
        prev, l = (center, radius), 2.0 * l


# --- per-point oracle of the harmonic-measure defect -------------------------------
#
# The loop the library ran before it stripped whole (x, l) stacks at once; kept as
# the reference the stack version is checked against.


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def bp_defect_loop(p_left, p_right, e_intervals, arc, l_values, x_step, eps):
    """``bp_defect`` written point by point: per probe length and sample
    point, the plus half's stripped value pulled back at that point alone
    (``stripped_grid`` at one point, which gives a point the bits it gets in
    a grid), one Moebius stripping of the minus half and two scalar harmonic
    measures.  Returns (defects, n_excluded, hypothesis_violations)."""
    t1, t2 = float(arc[0]), float(arc[1])
    l_values = tuple(float(l) for l in l_values)
    grids = [np.linspace(lo, hi, max(int(np.ceil((hi - lo) / x_step)) + 1, 2))
             for lo, hi in e_intervals]
    zs = np.concatenate(grids) + 1j * eps
    sp_x = [stripped_grid([z], p_right, l_values)[0] for z in zs]
    sm0, _, _ = schur_minus_grid(zs, p_left)
    sp_i = stripped_grid([1j], p_right, l_values)[0]
    m_i, _ = transfer_grid(p_right, [1j], l_values)
    m_x, _ = transfer_grid(p_right, zs, l_values)
    defects = np.zeros(len(l_values))
    excluded = np.zeros(len(l_values), dtype=int)
    violations = []
    for j, l in enumerate(l_values):
        for tag, val in (("plus", sp_i[j]),
                         ("minus", schur_stripped(0j, J1 @ m_i[0, j] @ J1))):
            if abs(val) >= 1.0:
                violations.append((l, tag, abs(val)))
        total = 0.0
        offset = 0
        for grid in grids:
            vals = np.full(grid.size, np.nan)
            for i in range(grid.size):
                m = m_x[offset + i, j]
                sp = sp_x[offset + i][j]
                sm = schur_stripped(sm0[offset + i], J1 @ m @ J1)
                if abs(sp) >= 1.0 or abs(sm) >= 1.0:
                    excluded[j] += 1
                    continue
                vals[i] = harmonic_measure(sm, -t2, -t1) - harmonic_measure(sp, t1, t2)
            keep = ~np.isnan(vals)
            if keep.sum() >= 2:
                total += float(_trapezoid(vals[keep], grid[keep]))
            offset += grid.size
        defects[j] = total
    return defects, excluded, tuple(violations)


# --- bit references: earlier forms of the kernel and of the piece builder ----------------


def _reference_mul(x, y):
    """Entrywise product of 2x2 stacks, each entry a new array, stacked by
    ``np.array``."""
    x11, x12, x21, x22 = x
    y11, y12, y21, y22 = y
    return np.array((x11 * y11 + x12 * y21, x11 * y12 + x12 * y22,
                     x21 * y11 + x22 * y21, x21 * y12 + x22 * y22))


def _reference_renorm(x, c):
    _, e = np.frexp(np.abs(x).max(axis=0))
    x *= np.ldexp(1.0, -e)
    return x, c + float(np.log(2.0)) * e


def _reference_expm(g11, g12, g21, d):
    """exp(G d) with every intermediate a new array, held to the end."""
    g1221 = g12 * g21
    rho = np.sqrt(g11 * g11 + g1221)
    x = rho * d
    ph = np.exp(1j * x.imag)
    nonzero = x != 0.0
    s = np.where(nonzero, -0.5 * ph * np.expm1(-2.0 * x) / np.where(nonzero, rho, 1.0), d)
    e = np.empty((4,) + s.shape, dtype=complex)
    np.multiply(s, g12, out=e[1])
    np.multiply(s, g21, out=e[2])
    flip = (rho * np.conj(g11)).real < 0.0
    big = np.where(flip, rho - g11, rho + g11)
    small = np.divide(g1221, big, out=np.zeros_like(big), where=big != 0.0)
    decay = np.exp(-2.0 * x.real) * np.conj(ph)
    np.add(decay, s * np.where(flip, small, big), out=e[0])
    np.add(decay, s * np.where(flip, big, small), out=e[3])
    return _reference_renorm(e, x.real)


def _reference_scan(x, c):
    step = 1
    while step < x.shape[-1]:
        y, cy = _reference_renorm(_reference_mul(x[..., :-step], x[..., step:]),
                                  c[..., :-step] + c[..., step:])
        x[..., step:] = y
        c[..., step:] = cy
        step *= 2
    return x, c


REFERENCE_KERNEL = {"_mul": _reference_mul, "_renorm": _reference_renorm,
                    "_expm": _reference_expm, "_scan": _reference_scan}


@contextlib.contextmanager
def reference_kernel():
    """Run ``propagate`` on the reference forms of its closed form, product,
    renormalisation and scan: a new array for every intermediate, none
    dropped before the function returns.  The kernel must give their bits."""
    saved = {name: getattr(prop, name) for name in REFERENCE_KERNEL}
    try:
        for name, f in REFERENCE_KERNEL.items():
            setattr(prop, name, f)
        yield
    finally:
        for name, f in saved.items():
            setattr(prop, name, f)


def _reference_cut(system, lo, points):
    """``_cut`` with the masses, from the knots sliced by a mask and the
    points appended, each piece's interval counted off the knots below it:
    (k, d, ends).  A span of no length is one piece of no mass."""
    grid = system.grid
    pts = np.unique(np.concatenate(([lo], grid[(grid > lo) & (grid < points[-1])], points)))
    if pts.size == 1:
        pts = np.append(pts, lo)
    k = np.minimum(np.sum(grid[None, :] <= pts[:-1, None], axis=1), grid.size - 1)
    ends = np.array([np.flatnonzero(pts == x)[0] for x in points])
    return k, (pts[1:] - pts[:-1]) * system.density[k], ends


def reference_piece_arrays(system, ls, l_from=0.0):
    """``piece_arrays`` on its own cut (``_reference_cut``), with the
    periodic stream rotated by slicing and concatenation and the turn's
    heads moved by a masked add."""
    ls, l_from = np.asarray(ls, dtype=float).ravel(), float(l_from)
    first, last = ls.min(initial=np.inf), ls.max(initial=0.0)
    if not (0.0 <= l_from < np.inf and first >= l_from and last < np.inf):
        raise DomainError(f"lengths must be finite and at least l_from = {l_from} >= 0")
    L, q, t = system.length, None, None
    if last > L and system.tail == TAIL_FINITE:
        raise DomainError(f"l = {ls[ls > L][0]} beyond finite tail at {L}")
    if last <= L or system.tail == TAIL_CONSTANT:
        if last > L:
            t = np.where(ls > L, (ls - max(l_from, L)) * system.density[-1], 0.0)
            ls = np.minimum(ls, L)
        lo = min(l_from, L)
        heads = coeff._sorted_unique([lo], ls)
        return (*_reference_cut(system, lo, heads), heads.searchsorted(ls), q, t)
    (q0, r0), (q, h) = divmod(l_from, L), np.divmod(ls, L)
    wrap = h < r0
    q = (q - q0 - wrap).astype(np.int64)
    points = coeff._sorted_unique([r0], h, [L])
    k, d, ends = _reference_cut(system, 0.0, points)
    at = points.searchsorted(h)
    if r0 > 0.0:
        i = points.searchsorted(r0)
        c = ends[i]
        k, d = np.concatenate((k[c:], k[:c])), np.concatenate((d[c:], d[:c]))
        ends = np.concatenate((ends[i:] - c, ends[:i + 1] + (k.size - c)))
        at -= i
        at[wrap] += points.size
    return k, d, ends, at, q, t

"""Coefficient data model for canonical systems, in both gauges.

Coefficients are piecewise constant on a strictly increasing grid
``0 = l_0 < l_1 < ... < l_N`` (the stored ``grid`` array holds the right
endpoints ``l_1..l_N``).  A disk-gauge system is the pair (measure density
``m_k >= 0``, unit-disk coefficient ``a_k``) per interval; a general-gauge
system is the triple (density ``n_k >= 0``, Hermitian ``P_k >= 0``,
anti-Hermitian ``Q_k``) with trace(j P) = trace(j Q) = 0.  Only absolutely
continuous measures (densities) are supported; any continuous measure can be
reparametrized to this class without changing observables.

Beyond the last knot a tail policy applies:

* ``constant`` -- extend the last interval's coefficients forever,
* ``periodic`` -- repeat the whole pattern with period ``l_N``,
* ``finite``   -- the system ends at ``l_N``.

JSON schema (one object per system)::

    {"grid": [l1, ...], "m": [...], "a": [[re, im], ...],
     "tail": "constant|periodic|finite"}

General-gauge variant: ``{"grid": [...], "n": [...], "P": [...], "Q": [...],
"tail": ...}`` where each P/Q entry is a 2x2 array of ``[re, im]`` pairs.
Full-line systems are ``{"left": {...}, "right": {...}}`` with the left half
stored mirrored (position l in the file means -l on the line).
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import (CoefficientError, DomainError, InputError, ParseError,
                     PreconditionError, _raise_first)
from .mat2 import J, _h, herm_eigs, mat2, norm2

TAIL_CONSTANT = "constant"
TAIL_PERIODIC = "periodic"
TAIL_FINITE = "finite"
_TAILS = (TAIL_CONSTANT, TAIL_PERIODIC, TAIL_FINITE)

#: slack accepted on |a| <= 1 and on Hermiticity/trace constraints.
COEFF_TOL = 1e-12


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


def ab_from_a(a, tol=COEFF_TOL):
    """Expand a unit-disk coefficient into its (A, B) generator pair."""
    a = complex(a)
    if not np.isfinite(a.real) or not np.isfinite(a.imag):
        raise InputError("coefficient a must be finite")
    if abs(a) > 1.0 + tol:
        raise CoefficientError(f"coefficient out of range: |a| = {abs(a)} > 1")
    ac = np.conj(a)
    A = mat2(1.0, -ac, -a, 1.0)
    B = mat2(0.0, ac, -a, 0.0)
    return ABPair(a, A, B)


def _as_grid(grid):
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise CoefficientError("grid must be a nonempty 1-d array of knots")
    if not np.all(np.isfinite(g)):
        raise CoefficientError("grid has non-finite entries")
    if g[0] <= 0.0 or np.any(np.diff(g) <= 0.0):
        raise CoefficientError("grid must be strictly increasing and start above 0")
    return g


def _sorted_unique(x):
    """np.unique without its lazily loaded machinery (most of a megabyte)."""
    x = np.sort(x)
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


class _Piecewise:
    """Grid, tail policy and the piece builder shared by both gauges;
    subclasses set ``density`` (per-interval mass density) and
    ``generator_table``: (p, alpha, r, gamma) per stored interval, the
    generator (i z P - Q) j for P = [[p, -conj(alpha)], [-alpha, p]] and
    Q = [[i r, conj(gamma)], [-gamma, i r]]; disk gauge is (1, a, 0, a)."""

    @property
    def n_intervals(self):
        return self.grid.size

    @property
    def length(self):
        """Right endpoint of the stored grid."""
        return float(self.grid[-1])

    @property
    def knots(self):
        """All knots including the leading 0."""
        return np.concatenate(([0.0], self.grid))

    @property
    def widths(self):
        return np.diff(self.knots)

    def _cut(self, lo, points):
        """Stored intervals from lo through the ascending points, all inside
        [lo, L], cut at every point: (k, d, ends), ends[i] being the number
        of pieces before points[i]."""
        grid = self.grid
        pts = np.concatenate(([lo], grid[grid.searchsorted(lo, side="right"):
                                         grid.searchsorted(points[-1])], points))
        if len(points) > 1:  # one point closes the span: pts is already sorted
            pts = _sorted_unique(pts)
        # lo = L opens a span of no mass: it keeps the last interval
        k = np.minimum(grid.searchsorted(pts[:-1], side="right"), grid.size - 1)
        return k, (pts[1:] - pts[:-1]) * self.density[k], pts.searchsorted(points)

    def span_arrays(self, l_to, l_from=0.0):
        """(k, d) of the pieces covering [l_from, l_to]; a periodic tail is
        unrolled by integer period count, so every span ends."""
        l_from, l_to = float(l_from), float(l_to)
        if not 0.0 <= l_from <= l_to < np.inf:
            raise DomainError(f"bad span [{l_from}, {l_to}]")
        L = self.length
        if l_to > L and self.tail == TAIL_FINITE:
            raise DomainError(f"span reaches l = {l_to} beyond finite tail at {L}")
        if l_to <= L:
            return self._cut(l_from, [l_to])[:2]
        if self.tail == TAIL_CONSTANT:
            last, tail = self.n_intervals - 1, (l_to - max(l_from, L)) * self.density[-1]
            if l_from >= L:
                return np.array([last]), np.array([tail])
            k, d, _ = self._cut(l_from, [L])
            return np.append(k, last), np.append(d, tail)
        (q0, r0), (q1, r1) = divmod(l_from, L), divmod(l_to, L)
        if q0 == q1:
            return self._cut(r0, [r1])[:2]
        parts = ([self._cut(r0, [L])] + [self._cut(0.0, [L])] * int(q1 - q0 - 1)
                 + [self._cut(0.0, [r1])])
        return tuple(np.concatenate([part[i] for part in parts]) for i in (0, 1))

    def piece_arrays(self, ls):
        """The folded piece stream from 0 to every length in ls (any order):
        (k, d, ends, at, q, t).  The grid is cut once at every distinct head
        (the folded lengths, 0 and, under a periodic tail, L): interval k and
        mass d per piece, ends[j] pieces before head j.  Length i is
        H[-1]^q[i] H[at[i]] exp(G_last t[i]), H the products through the
        heads; q (period index) and t (mass past L) are None without a
        periodic or constant tail."""
        ls = np.asarray(ls, dtype=float).ravel()
        if not np.all((ls >= 0.0) & (ls < np.inf)):
            raise DomainError(f"lengths must be finite and nonnegative, got {ls}")
        L = self.length
        h, q, t = np.minimum(ls, L), None, None
        beyond = ls > L
        if beyond.any():
            if self.tail == TAIL_FINITE:
                raise DomainError(f"l = {ls[beyond][0]} beyond finite tail at {L}")
            if self.tail == TAIL_CONSTANT:
                t = np.where(beyond, (ls - L) * self.density[-1], 0.0)
            else:
                q, h = np.divmod(ls, L)
                q = q.astype(np.int64)
        heads = _sorted_unique(np.concatenate(([0.0], h, [L] if q is not None else [])))
        return (*self._cut(0.0, heads), np.searchsorted(heads, h), q, t)


@dataclass(frozen=True)
class ArovParameters(_Piecewise):
    """Piecewise-constant disk-gauge parameters (m, a) with a tail policy.

    Immutable after construction; safe to share across threads.
    """

    grid: np.ndarray
    m: np.ndarray
    a: np.ndarray
    tail: str = TAIL_CONSTANT

    def __post_init__(self):
        g = _as_grid(self.grid)
        m = np.asarray(self.m, dtype=float)
        a = np.asarray(self.a, dtype=complex)
        if m.shape != g.shape or a.shape != g.shape:
            raise CoefficientError(
                f"m and a must have one entry per interval: grid has {g.size}, "
                f"m has {m.size}, a has {a.size}"
            )
        if not np.all(np.isfinite(m)):
            raise CoefficientError("density m has non-finite entries")
        bad = np.nonzero(m < 0.0)[0]
        if bad.size:
            raise CoefficientError(f"density m[{bad[0]}] = {m[bad[0]]} is negative")
        if not np.all(np.isfinite(a.view(float))):
            raise CoefficientError("coefficient a has non-finite entries")
        bad = np.nonzero(np.abs(a) > 1.0 + COEFF_TOL)[0]
        if bad.size:
            raise CoefficientError(
                f"coefficient a[{bad[0]}] has |a| = {abs(a[bad[0]])} > 1"
            )
        if self.tail not in _TAILS:
            raise CoefficientError(f"unknown tail policy {self.tail!r}")
        for name, arr in (("grid", g), ("m", m), ("a", a)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "density", m)
        object.__setattr__(self, "generator_table", (
            np.broadcast_to(1.0, g.size), a, np.broadcast_to(0.0, g.size), a))

    @property
    def mu_knots(self):
        """Cumulative measure at the knots; mu(0) = 0."""
        return np.concatenate(([0.0], np.cumsum(self.m * self.widths)))

    def mu(self, l):
        """Cumulative measure mu(l) of a length, or an array of them,
        tail-aware; continuous, nondecreasing, piecewise linear with
        mu(0) = 0."""
        l = np.asarray(l, dtype=float)
        if np.any(l < 0.0):
            raise DomainError(f"mu is defined for l >= 0, got {l}")
        L, mk = self.length, self.mu_knots
        if self.tail == TAIL_FINITE and not np.all(l <= L):
            raise DomainError(f"l = {np.max(l)} beyond finite tail at {L}")
        if self.tail == TAIL_PERIODIC:
            q, r = np.divmod(l, L)
            out = q * mk[-1] + np.interp(r, self.knots, mk)
        else:
            out = np.where(l > L, mk[-1] + self.m[-1] * (l - L), np.interp(l, self.knots, mk))
        return float(out) if out.ndim == 0 else out

    def l_of_mu(self, mu):
        """Leftmost l with mu(l) == mu (inverse of the distribution function)."""
        mu = float(mu)
        if mu < 0.0:
            raise DomainError("mu must be nonnegative")
        mk = self.mu_knots
        if mu <= mk[-1]:
            idx = int(np.searchsorted(mk, mu, side="left"))
            if idx == 0:
                return 0.0
            a, b = mk[idx - 1], mk[idx]
            if b == a:
                return float(self.knots[idx - 1])
            frac = (mu - a) / (b - a)
            return float(self.knots[idx - 1] + frac * self.widths[idx - 1])
        if self.tail == TAIL_FINITE or self.total_mass() <= mk[-1]:
            raise DomainError(f"mu = {mu} beyond total mass {mk[-1]}")
        if self.tail == TAIL_CONSTANT:
            return float(self.length + (mu - mk[-1]) / self.m[-1])
        q, r = divmod(mu - mk[-1], mk[-1]) if mk[-1] > 0 else (0.0, 0.0)
        return float((q + 1) * self.length + self.l_of_mu(r))

    def total_mass(self):
        """Total measure mass under the tail policy (may be inf)."""
        mk = float(self.mu_knots[-1])
        if self.tail == TAIL_FINITE:
            return mk
        if self.tail == TAIL_CONSTANT:
            return np.inf if self.m[-1] > 0 else mk
        return np.inf if mk > 0 else 0.0

    def piece_at(self, l):
        """(a, m) of the interval containing l (right-continuous)."""
        l = float(l)
        if l < 0.0:
            raise DomainError("l must be nonnegative")
        L = self.length
        if l >= L:
            if self.tail == TAIL_FINITE:
                if l > L:
                    raise DomainError(f"l = {l} beyond finite tail at {L}")
                return complex(self.a[-1]), float(self.m[-1])
            if self.tail == TAIL_CONSTANT:
                return complex(self.a[-1]), float(self.m[-1])
            l = l % L
        k = int(np.searchsorted(self.grid, l, side="right"))
        k = min(k, self.n_intervals - 1)
        return complex(self.a[k]), float(self.m[k])

    def kappa_integral(self, l):
        """Closed-form integral of 2 a exp(-2 mu) d(mu) over [0, l]; exact for
        the stored piecewise-constant class."""
        if float(l) < 0.0:
            raise DomainError("l must be nonnegative")
        k, d = self.span_arrays(l)
        decay = np.exp(-2.0 * np.concatenate(([0.0], np.cumsum(d))))
        return complex(np.sum(self.a[k] * -np.diff(decay)))

    def to_dict(self):
        return {
            "grid": self.grid.tolist(),
            "m": self.m.tolist(),
            "a": [[z.real, z.imag] for z in self.a],
            "tail": self.tail,
        }


def constant_parameters(a, m=1.0, length=1.0, tail=TAIL_CONSTANT):
    """Single-interval system with constant coefficients."""
    return ArovParameters(
        grid=np.array([float(length)]),
        m=np.array([float(m)]),
        a=np.array([complex(a)]),
        tail=tail,
    )


def reflect(p):
    """Half-line reflection in disk gauge.

    The input describes coefficients on the negative half-line, stored
    mirrored (position l in storage means -l on the line).  The reflected
    right-half-line system keeps the grid and density and conjugates the
    coefficient.  Involution: reflect(reflect(p)) == p bit for bit.
    """
    if not isinstance(p, ArovParameters):
        raise InputError(f"reflection needs disk-gauge coefficients, got {type(p).__name__}")
    return ArovParameters(
        grid=np.array(p.grid, copy=True),
        m=np.array(p.m, copy=True),
        a=np.conj(p.a),
        tail=p.tail,
    )


def strip_head(p, l0):
    """Remove the leading [0, l0] of the system (coefficient stripping via
    truncation of the parameters).  For periodic systems this rotates the
    pattern, preserving the period."""
    l0 = float(l0)
    if l0 < 0.0:
        raise DomainError("l0 must be nonnegative")
    if l0 == 0.0:
        return p
    L = p.length
    if l0 >= L:
        if p.tail == TAIL_FINITE:
            raise DomainError(f"cannot strip {l0} from a finite system of length {L}")
        if p.tail == TAIL_CONSTANT:
            return constant_parameters(p.a[-1], p.m[-1], length=max(L, 1.0))
        l0 = l0 % L
        if l0 == 0.0:
            return p
    if p.tail == TAIL_PERIODIC:
        # rotate: tail (l0, L] first, then the head (0, l0] moved to (L-l0, L]
        j = int(np.searchsorted(p.grid, l0, side="left"))
        tail_from = j + 1 if p.grid[j] == l0 else j
        new_grid = np.concatenate(
            (p.grid[tail_from:] - l0, L - l0 + p.grid[:j], [L])
        )
        new_m = np.concatenate((p.m[tail_from:], p.m[:j], p.m[j:j + 1]))
        new_a = np.concatenate((p.a[tail_from:], p.a[:j], p.a[j:j + 1]))
        keep = np.diff(new_grid, prepend=0.0) > 0.0  # a moved sliver below round-off
        return ArovParameters(new_grid[keep], new_m[keep], new_a[keep], p.tail)
    keep = p.grid > l0 + 1e-15 * max(1.0, L)
    new_grid = p.grid[keep] - l0
    new_m = p.m[keep]
    new_a = p.a[keep]
    if new_grid.size == 0:
        new_grid = np.array([L - l0])
        new_m = p.m[-1:]
        new_a = p.a[-1:]
    return ArovParameters(new_grid, new_m, new_a, p.tail)


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

    def g(x):
        if x <= xb[-1]:
            return float(np.interp(x, xb, gv))
        return float(gv[-1] + slope_end * (x - xb[-1]))

    def g_inv(y):
        if y <= gv[-1]:
            return float(np.interp(y, gv, xb))
        return float(xb[-1] + (y - gv[-1]) / slope_end)

    L_new = g_inv(p.length)
    # refine: every slope break of g and every preimage of an old knot
    breakpoints = sorted(
        {float(b) for b in xb if 0.0 < b < L_new}
        | {g_inv(k) for k in p.grid if g_inv(float(k)) < L_new}
        | {L_new}
    )
    new_grid, new_m, new_a = [], [], []
    lo = 0.0
    for hi in breakpoints:
        width = hi - lo
        if width <= 0.0:
            continue
        span = g(hi) - g(lo)
        mid_old = 0.5 * (g(hi) + g(lo))
        a_k, m_k = p.piece_at(mid_old)
        new_grid.append(hi)
        new_m.append(m_k * span / width)
        new_a.append(a_k)
        lo = hi
    return ArovParameters(np.array(new_grid), np.array(new_m), np.array(new_a), p.tail)


@dataclass(frozen=True)
class GeneralCoefficients(_Piecewise):
    """Piecewise-constant general-gauge coefficients (n, P, Q)."""

    grid: np.ndarray
    n: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    tail: str = TAIL_FINITE

    def __post_init__(self):
        g = _as_grid(self.grid)
        n = np.asarray(self.n, dtype=float)
        P = np.asarray(self.P, dtype=complex)
        Q = np.asarray(self.Q, dtype=complex)
        if n.shape != g.shape:
            raise CoefficientError("n must have one entry per interval")
        if P.shape != (g.size, 2, 2) or Q.shape != (g.size, 2, 2):
            raise CoefficientError("P and Q must be stacks of 2x2 matrices, one per interval")
        if self.tail not in _TAILS:
            raise CoefficientError(f"unknown tail policy {self.tail!r}")
        for name, arr in (("grid", g), ("n", n), ("P", P), ("Q", Q)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        # trace(j P) = trace(j Q) = 0 leaves P11 = P22 and Q11 = Q22
        object.__setattr__(self, "density", n)
        object.__setattr__(self, "generator_table", (
            P[:, 0, 0].real, -P[:, 1, 0], Q[:, 0, 0].imag, -Q[:, 1, 0]))

    def to_dict(self):
        def cplx(mstack):
            return [
                [[[z.real, z.imag] for z in row] for row in mat] for mat in mstack
            ]

        return {
            "grid": self.grid.tolist(),
            "n": self.n.tolist(),
            "P": cplx(self.P),
            "Q": cplx(self.Q),
            "tail": self.tail,
        }


def validate_general(c, tol=1e-10):
    """Check every general-gauge invariant; return the input on success.

    Violations raise CoefficientError naming the first failed constraint:
    n >= 0, P Hermitian positive semidefinite, Q anti-Hermitian,
    trace(j P) = trace(j Q) = 0.
    """
    bad = np.nonzero(c.n < 0.0)[0]
    if bad.size:
        raise CoefficientError(f"n[{bad[0]}] = {c.n[bad[0]]} is negative")
    finite = np.isfinite(c.P).all(axis=(1, 2)) & np.isfinite(c.Q).all(axis=(1, 2))
    # non-finite intervals fail the first check; zeros keep the others quiet
    P = np.where(finite[:, None, None], c.P, 0.0)
    Q = np.where(finite[:, None, None], c.Q, 0.0)
    scale, qscale = np.maximum(1.0, norm2(P)), np.maximum(1.0, norm2(Q))
    lo, _ = herm_eigs(0.5 * (P + _h(P)))
    tr_p = np.trace(J @ P, axis1=1, axis2=2)
    tr_q = np.trace(J @ Q, axis1=1, axis2=2)
    _raise_first(
        CoefficientError,
        (~finite, lambda k: f"non-finite P/Q at interval {k}"),
        (norm2(P - _h(P)) > tol * scale, lambda k: f"P[{k}] not Hermitian"),
        (lo < -tol * scale, lambda k: f"P[{k}] not positive semidefinite (eig {lo[k]})"),
        (norm2(Q + _h(Q)) > tol * qscale, lambda k: f"Q[{k}] not anti-Hermitian"),
        (np.abs(tr_p) > tol * scale, lambda k: f"trace(j P[{k}]) = {tr_p[k]} nonzero"),
        (np.abs(tr_q) > tol * qscale, lambda k: f"trace(j Q[{k}]) = {tr_q[k]} nonzero"))
    return c


def dirac_coefficients(length=1.0, n_intervals=1, tail=TAIL_FINITE):
    """P = I, Q = 0, nu = Lebesgue: the classical Dirac form."""
    grid = np.linspace(0.0, float(length), n_intervals + 1)[1:]
    P = np.broadcast_to(np.eye(2, dtype=complex), (n_intervals, 2, 2)).copy()
    Q = np.zeros((n_intervals, 2, 2), dtype=complex)
    return GeneralCoefficients(grid, np.ones(n_intervals), P, Q, tail)


def schroedinger_coefficients(q, grid, tail=TAIL_FINITE):
    """Half-line Schroedinger form with piecewise-constant potential q:
    P = [[1,1],[1,1]]/2 and Q = (i/2) [[q-1, q+1], [q+1, q-1]]."""
    grid = _as_grid(grid)
    q = np.broadcast_to(np.asarray(q, dtype=float), grid.shape)
    P = np.full((grid.size, 2, 2), 0.5 + 0j)
    Q = 0.5j * np.stack([q - 1.0, q + 1.0, q + 1.0, q - 1.0], -1).reshape(-1, 2, 2)
    return GeneralCoefficients(grid, np.ones(grid.size), P, Q, tail)


# ---------------------------------------------------------------------------
# JSON input/output


def _parse_real_list(values, key):
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{key}: expected a list of numbers ({exc})")


def _parse_complex_list(values, key):
    if isinstance(values, np.ndarray) and values.shape[1:] == (2,):
        return values[:, 0] + 1j * values[:, 1]
    out = []
    for i, v in enumerate(values):
        if isinstance(v, (int, float)):
            out.append(complex(v))
        elif isinstance(v, (list, tuple, np.ndarray)) and len(v) == 2:
            out.append(complex(float(v[0]), float(v[1])))
        else:
            raise ParseError(f"{key}[{i}]: expected number or [re, im] pair, got {v!r}")
    return np.array(out, dtype=complex)


def _parse_matrix_stack(values, key):
    try:  # uniform [re, im] pairs: one float array
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 4 and arr.shape[1:] == (2, 2, 2):
            return arr[..., 0] + 1j * arr[..., 1]
    except (TypeError, ValueError):
        pass
    try:
        arr = np.asarray(
            [[[complex(float(e[0]), float(e[1])) if isinstance(e, (list, tuple, np.ndarray))
               else complex(e) for e in row] for row in m] for m in values],
            dtype=complex,
        )
    except (TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"{key}: expected a list of 2x2 matrices of [re, im] pairs ({exc})")
    if arr.ndim != 3 or arr.shape[1:] != (2, 2):
        raise ParseError(f"{key}: expected a list of 2x2 matrices, got shape {arr.shape}")
    return arr


def parameters_from_dict(d):
    """Build an ArovParameters or GeneralCoefficients from a parsed JSON dict."""
    if not isinstance(d, dict):
        raise ParseError(f"coefficient object must be a JSON object, got {type(d).__name__}")
    disk = "a" in d or "m" in d
    if not disk and not {"n", "P", "Q"} & d.keys():
        raise ParseError("coefficient object has neither (m, a) nor (n, P, Q) keys")
    for key in ("grid", "m", "a") if disk else ("grid", "n", "P", "Q"):
        if key not in d:
            raise ParseError(f"missing key {key!r} in "
                             f"{'disk' if disk else 'general'}-gauge coefficient object")
    grid = _parse_real_list(d["grid"], "grid")
    if disk:
        return ArovParameters(grid, _parse_real_list(d["m"], "m"),
                              _parse_complex_list(d["a"], "a"), d.get("tail", TAIL_CONSTANT))
    return validate_general(GeneralCoefficients(
        grid, _parse_real_list(d["n"], "n"), _parse_matrix_stack(d["P"], "P"),
        _parse_matrix_stack(d["Q"], "Q"), d.get("tail", TAIL_FINITE)))


_NUMBER = object()


def _compact(node, values, pos):
    """Put back the numbers of a JSON tree parsed by _load_json, in document
    order from pos: numeric lists become float arrays, lists of equal-length
    numeric lists 2-d arrays.  Returns (node, next position)."""
    if node is _NUMBER:
        return values[pos], pos + 1
    if isinstance(node, list) and node:
        width = len(node[0]) if isinstance(node[0], list) else 0
        if all(v is _NUMBER for v in node) or width and all(
                isinstance(v, list) and len(v) == width and
                all(e is _NUMBER for e in v) for v in node):
            n = len(node) * max(width, 1)
            return values[pos:pos + n].reshape((len(node), width) if width else n), pos + n
    for key in node if isinstance(node, dict) else range(len(node)) \
            if isinstance(node, list) else ():
        node[key], pos = _compact(node[key], values, pos)
    return node, pos


def _load_json(fh):
    """json.load with the numbers in one float buffer, not one Python object
    each: a large coefficient file parses in a fraction of the memory."""
    from array import array  # loaded on first use: import arvcanon stays as lean
    numbers = array("d")

    def number(token):
        numbers.append(float(token))
        return _NUMBER

    def members(pairs):
        if len(dict(pairs)) < len(pairs):  # document order lost: reparse
            raise KeyError("duplicate key")
        return dict(pairs)

    try:
        data = json.load(fh, parse_float=number, parse_int=number,
                         object_pairs_hook=members)
    except KeyError:
        fh.seek(0)
        return json.load(fh)
    return _compact(data, np.array(numbers), 0)[0]


def load_parameters(path):
    """Parse a coefficient file.  Returns ArovParameters, GeneralCoefficients
    or, for full-line files, a (left, right) tuple."""
    try:
        with open(path) as fh:
            data = _load_json(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if isinstance(data, dict) and ("left" in data or "right" in data):
        for key in ("left", "right"):
            if key not in data:
                raise ParseError(f"full-line file needs both halves, missing {key!r}")
        return parameters_from_dict(data["left"]), parameters_from_dict(data["right"])
    return parameters_from_dict(data)


def save_parameters(obj, path):
    if isinstance(obj, tuple):
        payload = {"left": obj[0].to_dict(), "right": obj[1].to_dict()}
    else:
        payload = obj.to_dict()
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")

"""Coefficient data model for canonical systems, in both gauges.

Coefficients are piecewise constant on a strictly increasing grid
``0 = l_0 < l_1 < ... < l_N`` (the stored ``grid`` array holds the right
endpoints ``l_1..l_N``).  A disk-gauge system is the pair (measure density
``m_k >= 0``, unit-disk coefficient ``a_k``) per interval; a general-gauge
system is the triple (density ``n_k >= 0``, Hermitian ``P_k >= 0``,
anti-Hermitian ``Q_k``) with trace(j P) = trace(j Q) = 0.  Only absolutely
continuous measures (densities) are supported; any continuous measure can be
reparametrized to this class without changing observables.  Both gauges are
checked when they are built, in code and from files alike: a constructor
that returns has checked every invariant above.

Beyond the last knot a tail policy applies:

* ``constant`` -- extend the last interval's coefficients forever,
* ``periodic`` -- repeat the whole pattern with period ``l_N``,
* ``finite``   -- the system ends at ``l_N``.

JSON schema (one object per system)::

    {"grid": [l1, ...], "m": [...], "a": [[re, im], ...],
     "tail": "constant|periodic|finite"}

General-gauge variant: ``{"grid": [...], "n": [...], "P": [...], "Q": [...],
"tail": ...}``, each P/Q entry a 2x2 array of ``[re, im]`` pairs; in a, P
and Q a number x stands for [x, 0].  Full-line systems are ``{"left": {...},
"right": {...}}``, the left half stored mirrored (l in the file is -l).

``load_parameters`` parses a file with no Python frame per number and no
Python object kept past its chunk of text: orjson reads each full,
rectangular numeric list, correctly rounded, about 16 kB at a time with its
brackets, and numpy copies the numbers into one array per list.  One
json.loads of an outline, the text with each such list replaced by null,
gives the structure around them.  Any other list (ragged or empty, numbers
mixed with pairs, NaN, Infinity, a number beyond the float range) is read
by json.loads into plain lists, and so is a whole file that holds a literal
(true, false, null).  The numbers are bit for bit those of ``json.loads``,
except that an integer beyond the float range reads as infinity.
"""

import functools
import itertools
import json
import math
import numbers
import re
from dataclasses import dataclass, fields, replace

import numpy as np
import orjson

from .errors import (CoefficientError, DomainError, InputError, ParseError,
                     _raise_first)
from .mat2 import J, _h, herm_eigs, norm2

TAIL_CONSTANT = "constant"
TAIL_PERIODIC = "periodic"
TAIL_FINITE = "finite"
_TAILS = (TAIL_CONSTANT, TAIL_PERIODIC, TAIL_FINITE)

#: slack accepted on |a| <= 1.
COEFF_TOL = 1e-12

#: slack, relative to max(1, |P|) or max(1, |Q|), accepted on the
#: general-gauge constraints.
GENERAL_TOL = 1e-10


def _as_grid(grid):
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise CoefficientError("grid must be a nonempty 1-d array of knots")
    if not np.all(np.isfinite(g)):
        raise CoefficientError("grid has non-finite entries")
    if g[0] <= 0.0 or np.any(np.diff(g) <= 0.0):
        raise CoefficientError("grid must be strictly increasing and start above 0")
    return g


def _pairs(x):
    """Complex entries as a float array of [re, im] pairs, what the parse reads."""
    return np.stack((x.real, x.imag), -1)


def _sorted_unique(*parts):
    """The distinct values of the concatenated arrays, ascending: np.unique
    without its lazily loaded machinery (most of a megabyte), sorted in place
    in the one copy the concatenation makes."""
    x = np.concatenate(parts)
    x.sort()
    keep = np.empty(x.size, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


class _Piecewise:
    """Grid, density, tail policy and the piece builder shared by both
    gauges.  The constructor checks the grid, the density (named by
    ``_DENSITY``: one finite, nonnegative entry per interval) and the tail,
    then the subclass's own coefficients (``_coefficients``), freezes every
    array and sets ``density`` and ``generator_table``: (p, alpha, r, gamma)
    per stored interval, the generator (i z P - Q) j for
    P = [[p, -conj(alpha)], [-alpha, p]] and Q = [[i r, conj(gamma)],
    [-gamma, i r]]; disk gauge is (1, a, 0, a).  ``_cut`` is the only code
    that cuts the grid, and ``piece_arrays`` the only code that folds a span
    into pieces, a constant tail's mass among them: a span from any start
    length, a periodic one as the period rotated to start at the span's
    phase.  ``folded_sum`` integrates a rate over that stream, and
    ``strip_head`` and ``mu`` are built on the two."""

    def __post_init__(self):
        g, key = _as_grid(self.grid), self._DENSITY
        d = np.asarray(getattr(self, key), dtype=float)
        if d.shape != g.shape:
            raise CoefficientError(f"{key} must have one entry per interval: grid has "
                                   f"{g.size}, {key} has {d.size}")
        if not np.all(np.isfinite(d)):
            raise CoefficientError(f"density {key} has non-finite entries")
        bad = np.nonzero(d < 0.0)[0]
        if bad.size:
            raise CoefficientError(f"density {key}[{bad[0]}] = {d[bad[0]]} is negative")
        if not isinstance(self.tail, str) or self.tail not in _TAILS:
            raise CoefficientError(f"unknown tail policy {self.tail!r}")
        for name, arr in (("grid", g), (key, d), *self._coefficients(g.size).items()):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "density", d)
        object.__setattr__(self, "generator_table", self._generators())

    @functools.cached_property
    def generator_bound(self):
        """(max of p + |alpha|, max of |r| + |gamma|) over the stored
        intervals: |z| times the first plus the second bounds every entry of
        the generator at z.  Formed on first use."""
        p, alpha, r, gamma = (np.abs(g) for g in self.generator_table)
        return float(np.max(p + alpha)), float(np.max(r + gamma))

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

    def to_dict(self):
        """The JSON object of the system as plain lists, for json.dumps
        (``save_parameters`` writes the arrays of ``_json_fields``)."""
        return {k: v.tolist() if isinstance(v, np.ndarray) else v
                for k, v in self._json_fields().items()}

    def _cut(self, lo, points):
        """Stored intervals from lo through the ascending points, all inside
        [lo, L], cut at every point: (k, pts, ends), piece i being interval
        k[i] over [pts[i], pts[i + 1]] and ends[i] the number of pieces
        before points[i]."""
        grid = self.grid
        parts = ([lo], grid[grid.searchsorted(lo, side="right"):grid.searchsorted(points[-1])],
                 points)
        # one point closes the span: the parts are already in order
        pts = _sorted_unique(*parts) if len(points) > 1 else np.concatenate(parts)
        # every knot but the last: lo = L opens a span of no mass, which keeps
        # the last interval
        k = grid[:-1].searchsorted(pts[:-1], side="right")
        return k, pts, pts.searchsorted(points)

    def piece_arrays(self, ls, l_from=0.0):
        """The folded piece stream of the spans from l_from to every length
        in ls (any order, none below l_from): (k, d, ends, at, q, t).  The
        grid is cut once at every distinct head (the folded lengths, the
        start and, under a periodic tail, the period's end): interval k and
        mass d per piece, ends[j] pieces before head j.  The span to length
        i is H[-1]^q[i] H[at[i]] exp(G_last t[i]), H the products through
        the heads; q (period count) and t (mass past max(l_from, L)) are
        None without a periodic or constant tail.  A periodic stream that
        starts at phase r0 = l_from mod L is the period rotated to start
        there, the pieces of [r0, L] then those of [0, r0], so H[-1] is the
        rotated period; for l_from = 0 it is the period itself."""
        ls, l_from = np.asarray(ls, dtype=float).ravel(), float(l_from)
        # the extremes, once: each pass over the lengths costs about as much
        # as the cut of a short span
        first, last = ls.min(initial=np.inf), ls.max(initial=0.0)
        if not (0.0 <= l_from < np.inf and first >= l_from and last < np.inf):
            raise DomainError(f"lengths must be finite and at least l_from = {l_from} >= 0, "
                              f"got {ls}")
        L, q, t = self.length, None, None
        if last > L and self.tail == TAIL_FINITE:
            raise DomainError(f"l = {ls[ls > L][0]} beyond finite tail at {L}")
        if last <= L or self.tail == TAIL_CONSTANT:
            if last > L:
                t = np.where(ls > L, (ls - max(l_from, L)) * self.density[-1], 0.0)
                ls = np.minimum(ls, L)
            lo = min(l_from, L)
            heads = _sorted_unique([lo], ls)
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # such a count raises below
                (q0, r0), (q, h) = divmod(l_from, L), np.divmod(ls, L)
            if not q.max() - q0 < 2.0 ** 63:  # an int64 count would wrap
                raise DomainError(f"l = {ls[np.argmax(q)]} is 2^63 periods or more past {l_from}")
            # one cut of the period at every head and r0: the heads from r0 to
            # L, then the turn's heads from 0 to r0, on the pieces rotated to
            # start at r0
            lo, heads, ls = 0.0, _sorted_unique([r0], h, [L]), h
        k, pts, ends = self._cut(lo, heads)
        d, at = np.diff(pts) * self.density[k], heads.searchsorted(ls)
        if q is None:
            return k, d, ends, at, q, t
        wrap = False
        if r0 > 0.0:
            i, n = heads.searchsorted(r0), k.size
            c = ends[i]
            turn = np.arange(c - n, c)  # pieces c to n - 1, then 0 to c - 1
            k, d = k[turn], d[turn]
            ends = np.concatenate((ends[i:] - c, ends[:i + 1] + (n - c)))
            wrap = at < i  # heads in [0, r0) lie past the rotated period's turn
            at = (at - i) % heads.size
        return k, d, ends, at, (q - q0 - wrap).astype(np.int64), t

    def folded_sum(self, rate, ls):
        """The integral over [0, l] of a rate (one value per stored interval,
        or one for all) against the density, for every length in ls: the
        sum of rate[k] d over the folded piece stream of ``piece_arrays``,
        each span's head pieces plus q periods plus the constant tail's
        mass, in O(N) for any lengths.  Refuses what ``piece_arrays``
        refuses."""
        k, d, ends, at, q, t = self.piece_arrays(ls)
        rate = np.broadcast_to(rate, self.density.shape)
        cum = np.concatenate(([0.0], np.cumsum(rate[k] * d)))[ends]
        out = cum[at]
        if q is not None:
            out += q * cum[-1]
        if t is not None:
            out += t * rate[-1]
        return out


@dataclass(frozen=True)
class ArovParameters(_Piecewise):
    """Piecewise-constant disk-gauge parameters (m, a) with a tail policy.

    Immutable after construction; safe to share across threads.
    """

    grid: np.ndarray
    m: np.ndarray
    a: np.ndarray
    tail: str = TAIL_CONSTANT

    _DENSITY = "m"

    #: the table is (1, a, 0, a) with |a| <= 1 + COEFF_TOL
    generator_bound = (2.0 + COEFF_TOL, 1.0 + COEFF_TOL)

    def _coefficients(self, n):
        a = np.asarray(self.a, dtype=complex)
        if a.shape != (n,):
            raise CoefficientError(f"a must have one entry per interval: grid has {n}, "
                                   f"a has {a.size}")
        if not np.all(np.isfinite(a.view(float))):
            raise CoefficientError("coefficient a has non-finite entries")
        bad = np.nonzero(np.abs(a) > 1.0 + COEFF_TOL)[0]
        if bad.size:
            raise CoefficientError(f"coefficient a[{bad[0]}] has |a| = {abs(a[bad[0]])} > 1")
        return {"a": a}

    def _generators(self):
        n = self.grid.size
        return np.broadcast_to(1.0, n), self.a, np.broadcast_to(0.0, n), self.a

    @property
    def mu_knots(self):
        """Cumulative measure at the knots; mu(0) = 0."""
        return np.concatenate(([0.0], np.cumsum(self.m * self.widths)))

    def mu(self, l):
        """Cumulative measure mu(l) of a length, or an array of them: the
        density's ``folded_sum``, so tail-aware, continuous, nondecreasing and
        piecewise linear with mu(0) = 0.  A negative, NaN or infinite length
        raises DomainError, as do one past a finite tail and a periodic one
        of 2^63 periods or more."""
        out = self.folded_sum(1.0, l)
        return float(out[0]) if np.ndim(l) == 0 else out.reshape(np.shape(l))

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
            a, b = mk[idx - 1], mk[idx]  # a < mu <= b
            frac = (mu - a) / (b - a)
            return float(self.knots[idx - 1] + frac * self.widths[idx - 1])
        if self.tail == TAIL_FINITE or self.total_mass() <= mk[-1]:
            raise DomainError(f"mu = {mu} beyond total mass {mk[-1]}")
        if self.tail == TAIL_CONSTANT:
            return float(self.length + (mu - mk[-1]) / self.m[-1])
        q, r = divmod(mu - mk[-1], mk[-1])  # mk[-1] > 0: the total mass is infinite
        return float((q + 1) * self.length + self.l_of_mu(r))

    def total_mass(self):
        """Total measure mass under the tail policy (may be inf)."""
        mk = float(self.mu_knots[-1])
        if self.tail == TAIL_FINITE:
            return mk
        if self.tail == TAIL_CONSTANT:
            return np.inf if self.m[-1] > 0 else mk
        return np.inf if mk > 0 else 0.0

    def kappa_integral(self, l):
        """Closed-form integral of 2 a exp(-2 mu) d(mu) over [0, l]; exact for
        the stored piecewise-constant class.  It sums the folded piece stream
        of ``piece_arrays``: the head, q periods before it as a geometric sum
        in exp(-2 mu(L)), and the constant tail's mass, in O(N) for any l."""
        k, d, ends, at, q, t = self.piece_arrays([l])
        mu = np.concatenate(([0.0], np.cumsum(d)))
        cum = np.concatenate(([0.0], np.cumsum(self.a[k] * -np.diff(np.exp(-2.0 * mu)))))
        mu, cum = mu[ends], cum[ends]  # at the heads
        kappa = cum[at[0]]
        if q is not None and q[0]:
            # period j before the head is damped by exp(-2 j mu(L))
            q, mu_l = int(q[0]), mu[-1]
            periods = np.expm1(-2.0 * q * mu_l) / np.expm1(-2.0 * mu_l) if mu_l > 0.0 else q
            kappa = cum[-1] * periods + np.exp(-2.0 * q * mu_l) * kappa
        if t is not None:
            kappa += self.a[-1] * np.exp(-2.0 * mu[at[0]]) * -np.expm1(-2.0 * t[0])
        return complex(kappa)

    def _json_fields(self):
        return {"grid": self.grid, "m": self.m, "a": _pairs(self.a), "tail": self.tail}


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
    """Remove the leading [0, l0] of the system, in either gauge
    (coefficient stripping via truncation of the parameters): the stored
    intervals as ``_cut`` cuts them at l0, moved to start at 0, every
    per-interval field taken by the same index.  A periodic system is
    rotated, [l0, L] first and then [0, l0] moved to the end, so the period
    L is kept; a moved sliver below the round-off of L is dropped.  Past L
    a constant tail leaves its last interval and a periodic one is stripped
    at l0 mod L."""
    l0 = float(l0)
    if not 0.0 <= l0 < np.inf:
        raise DomainError(f"l0 must be finite and nonnegative, got {l0}")
    if l0 == 0.0:
        return p
    L = p.length
    if l0 >= L:
        if p.tail == TAIL_FINITE:
            raise DomainError(f"cannot strip {l0} from a finite system of length {L}")
        if p.tail == TAIL_CONSTANT:
            return _take(p, [max(L, 1.0)], [-1])
        l0 = l0 % L
        if l0 == 0.0:
            return p
    k, pts, (c, _) = p._cut(0.0, np.array([l0, L]))
    grid = pts[c + 1:] - l0
    if p.tail == TAIL_PERIODIC:
        grid, k = np.concatenate((grid, pts[1:c] + (L - l0), [L])), np.append(k[c:], k[:c])
    else:
        k = k[c:]
    keep = np.diff(grid, prepend=0.0) > 0.0
    return _take(p, grid[keep], k[keep])


def _take(p, grid, k):
    """The system of p's gauge and tail on a new grid, interval i carrying
    every per-interval field of p's stored interval k[i]."""
    names = (f.name for f in fields(p) if f.name not in ("grid", "tail"))
    return replace(p, grid=grid, **{name: getattr(p, name)[k] for name in names})


@dataclass(frozen=True)
class GeneralCoefficients(_Piecewise):
    """Piecewise-constant general-gauge coefficients (n, P, Q).  The
    constructor raises CoefficientError naming the first failed constraint:
    P Hermitian positive semidefinite, Q anti-Hermitian, trace(j P) =
    trace(j Q) = 0."""

    grid: np.ndarray
    n: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    tail: str = TAIL_FINITE

    _DENSITY = "n"

    def _coefficients(self, n):
        P = np.asarray(self.P, dtype=complex)
        Q = np.asarray(self.Q, dtype=complex)
        if P.shape != (n, 2, 2) or Q.shape != (n, 2, 2):
            raise CoefficientError("P and Q must be stacks of 2x2 matrices, one per interval")
        finite = np.isfinite(P).all(axis=(1, 2)) & np.isfinite(Q).all(axis=(1, 2))
        # non-finite intervals fail the first check; zeros keep the others quiet
        p = np.where(finite[:, None, None], P, 0.0)
        q = np.where(finite[:, None, None], Q, 0.0)
        tol_p, tol_q = (GENERAL_TOL * np.maximum(1.0, norm2(x)) for x in (p, q))
        lo, _ = herm_eigs(0.5 * (p + _h(p)))
        tr_p = np.trace(J @ p, axis1=1, axis2=2)
        tr_q = np.trace(J @ q, axis1=1, axis2=2)
        _raise_first(
            CoefficientError,
            (~finite, lambda k: f"non-finite P/Q at interval {k}"),
            (norm2(p - _h(p)) > tol_p, lambda k: f"P[{k}] not Hermitian"),
            (lo < -tol_p, lambda k: f"P[{k}] not positive semidefinite (eig {lo[k]})"),
            (norm2(q + _h(q)) > tol_q, lambda k: f"Q[{k}] not anti-Hermitian"),
            (np.abs(tr_p) > tol_p, lambda k: f"trace(j P[{k}]) = {tr_p[k]} nonzero"),
            (np.abs(tr_q) > tol_q, lambda k: f"trace(j Q[{k}]) = {tr_q[k]} nonzero"))
        return {"P": P, "Q": Q}

    def _generators(self):
        # trace(j P) = trace(j Q) = 0 leaves P11 = P22 and Q11 = Q22
        P, Q = self.P, self.Q
        return P[:, 0, 0].real, -P[:, 1, 0], Q[:, 0, 0].imag, -Q[:, 1, 0]

    def _json_fields(self):
        return {"grid": self.grid, "n": self.n, "P": _pairs(self.P), "Q": _pairs(self.Q),
                "tail": self.tail}


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


def _require_numbers(values, key):
    """ParseError for a string, boolean or null where a number belongs, all
    of which numpy would read as one ("1.5" as 1.5, true as 1, null as nan),
    and for a complex number, whose imaginary part a float read drops.  A
    real array, the form every rectangular numeric list of a file is read
    into, passes without a look at its entries, and a list of plain floats
    and ints (not bools) with one look at their types, in C."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind not in "iuf":
            raise ParseError(f"{key}: expected real numbers, got an array of {values.dtype}")
    elif isinstance(values, (list, tuple)):
        if not set(map(type, values)) <= {float, int}:
            for v in values:
                _require_numbers(v, key)
    elif isinstance(values, (bool, np.bool_)) or not isinstance(values, numbers.Real):
        raise ParseError(f"{key}: expected a real number, got {values!r}")


def _parse_real_list(values, key):
    _require_numbers(values, key)
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{key}: expected a list of numbers ({exc})")
    except OverflowError as exc:  # a Python int past the float range
        raise CoefficientError(f"{key} has non-finite entries ({exc})")


def _parse_entries(values, key, shape):
    """A list of complex entries of the given shape, () for a or (2, 2) for
    P and Q, each number of an entry real or an [re, im] pair.  Uniform
    pairs are one float view, bit for bit (x + 1j * y would turn -0.0 and
    infinite parts); numbers mixed with pairs are made pairs first."""
    _require_numbers(values, key)

    def pairs(v, depth):
        if depth:
            return [pairs(e, depth - 1) for e in v]
        return v if isinstance(v, (list, tuple, np.ndarray)) else (v, 0.0)

    try:
        arr = np.asarray(values, dtype=float)
        if arr.ndim and arr.shape[1:] == shape:  # real entries
            return arr.astype(complex)
    except (ValueError, OverflowError):  # ragged (numbers mixed with pairs) or too large
        arr = None
    try:
        if arr is None or arr.shape[1:] != shape + (2,):
            arr = np.asarray(pairs(values, len(shape) + 1), dtype=float)
        if arr.shape[1:] != shape + (2,):
            raise ValueError(f"got shape {arr.shape}")
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{key}: expected a list of {'2x2 matrices of ' if shape else ''}"
                         f"numbers or [re, im] pairs ({exc})")
    except OverflowError as exc:  # a Python int past the float range
        raise CoefficientError(f"{key} has non-finite entries ({exc})")
    return np.ascontiguousarray(arr).view(complex)[..., 0]


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
                              _parse_entries(d["a"], "a", ()), d.get("tail", TAIL_CONSTANT))
    return GeneralCoefficients(grid, _parse_real_list(d["n"], "n"),
                               _parse_entries(d["P"], "P", (2, 2)),
                               _parse_entries(d["Q"], "Q", (2, 2)), d.get("tail", TAIL_FINITE))


#: JSON strings (keys included), kept as they are in the outline
_STRINGS = r'"[^"\\]*(?:\\.[^"\\]*)*"'

#: characters of a list read at a time: orjson makes a Python float of every
#: number of a chunk before numpy copies them out
_CHUNK = 1 << 14

#: a list's leading brackets
_OPEN = re.compile(r"(?:\[\s*)+")


def _array(text, lo, hi):
    """The JSON list text[lo:hi] as one float array, or None where it is not
    a full, rectangular list of numbers.  Its depth d is the count of its
    leading brackets; it is read about _CHUNK characters at a time, each
    chunk cut at a comma after d - 1 closing brackets (a top-level element's
    end) and read by orjson with its brackets, so every number is read once
    and no copy of the whole list is made.  Each chunk must hold numbers,
    be d deep, rectangular and of the first chunk's inner shape.  Raises TypeError or
    ValueError (orjson.JSONDecodeError among them) on a chunk that is not
    numbers or that orjson refuses."""
    depth = _OPEN.match(text, lo).group().count("[")
    cut, parts, shape = re.compile(r"\]\s*" * (depth - 1) + ","), [], None
    lo += 1
    while lo < hi - 1:
        end = cut.search(text, min(lo + _CHUNK, hi - 1), hi - 1)
        end = end.end() - 1 if end else hi - 1
        values = orjson.loads(f"[{text[lo:end]}]")
        lo, count, inner = end + 1, len(values), []
        for level in range(depth - 1, 0, -1):
            widths = set(map(len, values))
            if len(widths) != 1:
                return None
            inner.append(widths.pop())
            count *= inner[-1]
            values = itertools.chain.from_iterable(values)
            values = list(values) if level > 1 else values
        if not count or parts and inner != shape:  # no numbers, or no element between commas
            return None
        parts.append(np.fromiter(values, float, count))
        shape = inner
    return np.concatenate(parts).reshape(-1, *shape) if parts else None


def _rebuild(node, arrays):
    """Put the arrays back into an outline from _load_json, in document
    order in place of its nulls; objects (tuples of pairs) become dicts, the
    last of duplicate keys winning.  A list of numbers is returned as it is."""
    if node is None:
        return next(arrays)
    if isinstance(node, tuple):
        return {key: _rebuild(value, arrays) for key, value in node}
    if isinstance(node, list) and not set(map(type, node)) <= {float}:
        return [_rebuild(value, arrays) for value in node]
    return node


def _load_json(fh):
    """json.load with each full, rectangular numeric list read by orjson into
    one float array (_array), no Python object kept per number.  Each list
    is replaced by null in an outline of the text: its strings, its keys,
    its other values and one null per array, which one json.loads reads into
    the structure (duplicate keys kept in order) for _rebuild to fill.  A
    list _array does not take (ragged or empty, numbers mixed with pairs,
    NaN, Infinity, a number beyond the float range) stays in the outline and
    is read by json.loads into plain lists, each integer token as float()
    reads it plus 0.0: -0 is +0.0, as JSON has it, and an integer past the
    float range is infinity.  A text with a literal (true, false, null)
    outside its strings is read whole that way; an outline json.loads
    refuses is read whole by json.loads, which raises the text's own error."""
    text = fh.read()
    loads = functools.partial(json.loads, parse_int=lambda token: float(token) + 0.0)
    cuts = [0, *(i for m in re.finditer(_STRINGS, text) for i in m.span()), len(text)]
    stretches = list(zip(cuts[::2], cuts[1::2], cuts[2::2] + [len(text)]))
    # u and l are only found in true, false and null
    if any(text.find(c, lo, hi) >= 0 for lo, hi, _ in stretches for c in "ul"):
        return loads(text)
    outline, arrays = [], []
    for lo, hi, after in stretches:
        first, last = text.find("[", lo, hi), text.rfind("]", lo, hi) + 1
        try:
            array = _array(text, first, last) if 0 <= first < last else None
        except (TypeError, ValueError):  # not numbers, or orjson refuses them
            array = None
        if array is not None:
            outline += [text[lo:first], "null"]
            arrays.append(array)
            lo = last
        outline.append(text[lo:after])
    try:
        outline = loads("".join(outline), object_pairs_hook=tuple)
    except json.JSONDecodeError:
        json.loads(text)  # raises the error at its place in the text
        raise
    return _rebuild(outline, iter(arrays))


def load_parameters(path):
    """Parse a coefficient file.  Returns ArovParameters, GeneralCoefficients
    or, for full-line files, a (left, right) tuple."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = _load_json(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text at byte {exc.start}: {exc.reason}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if isinstance(data, dict) and ("left" in data or "right" in data):
        for key in ("left", "right"):
            if key not in data:
                raise ParseError(f"full-line file needs both halves, missing {key!r}")
        return parameters_from_dict(data["left"]), parameters_from_dict(data["right"])
    return parameters_from_dict(data)


#: float arrays of at most this many dimensions are written through the
#: numpy converter: their separators, "]" * b + ", " + "[" * b for b below
#: it, fit the converter's 32-byte column
_JSON_DEPTH = 16


@functools.cache
def _json_separators():
    """The separators of a JSON list of numbers, by the count b of lists
    they close and open, and a last, empty one: each a 32-byte item, the
    size of one number's words in the numpy converter."""
    seps = [("]" * b + ", " + "[" * b).encode() for b in range(_JSON_DEPTH)] + [b""]
    return np.frombuffer(b"".join(sep.ljust(32, b"\0") for sep in seps), "V32")


def _json_parts(value):
    """json.dumps(value, sort_keys=True) in parts: text, and each nonempty
    float ndarray of at most _JSON_DEPTH dimensions, at any depth of nested
    dicts (whose keys are strings), as itself."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and value.size and value.ndim <= _JSON_DEPTH:
            yield value
        else:
            yield json.dumps(value.tolist())
    elif isinstance(value, dict):
        yield "{"
        for i, key in enumerate(sorted(value)):
            yield f"{', ' if i else ''}{json.dumps(key)}: "
            yield from _json_parts(value[key])
        yield "}"
    else:
        yield json.dumps(value, sort_keys=True)


def _write_numbers(fh, x, kind, runs):
    """Write one block of the numbers x as JSON, each led by the separator
    ``_json_separators()[kind]``: the text of runs[j] = (stop, after) is
    that of the numbers up to position stop, then after.  One converter
    call takes every number as a row of its own, its separator in the
    column before it and its leading line break dropped with the zero
    bytes.  The numbers are the bytes of format(x, ".17g") but where JSON
    spells them otherwise: -0.0 (a JSON integer -0 reads as +0.0), NaN,
    Infinity and -Infinity."""
    from .decimals import _number_words
    words = _number_words(x[:, None], slice(None), 1)
    cells = words.view("V32")[..., 0]  # (separator, number) of 32 bytes each
    cells[:, 0] = np.take(_json_separators(), kind)
    odd = np.flatnonzero(~np.isfinite(x) | (x == 0.0) & np.signbit(x))
    if odd.size:
        cells[odd, 1] = np.frombuffer(b"".join(json.dumps(v).encode().ljust(32, b"\0")
                                               for v in x[odd].tolist()), "V32")
    text, lo = words.view(np.uint8), 0
    for stop, after in runs:
        run = text[lo:stop]
        fh.write(str(run[run > 10], "ascii") + after)
        lo = stop


def write_json(payload, fh):
    """Write a dict as JSON text: one key per line, in sorted order, each
    value on its key's line.  A float ndarray, at any depth of nested dicts,
    is written as json.dumps writes its list, but each number as the bytes
    of format(x, ".17g") (integral values with no decimal point), -0.0,
    NaN, Infinity or -Infinity, so every float keeps its bits.  The numbers
    of all the payload's arrays are converted in one pass through the numpy
    converter, at most _BLOCK a call, and written a block at a time: the
    whole text is never held.  Every other value is encoded by json's C
    encoder; json.dump with an indent takes the pure-Python one (CPython
    3.10 and 3.11), several times slower on long lists of numbers.  The
    converter is imported on first use, so ``import arvcanon`` does not
    compile it."""
    from .decimals import _BLOCK
    parts = ["{\n"]
    for i, key in enumerate(sorted(payload)):
        parts += [",\n" if i else "", f" {json.dumps(key)}: ", *_json_parts(payload[key])]
    texts, arrays = [""], []
    for part in parts + ["\n}\n"]:
        if isinstance(part, str):
            texts[-1] += part
        else:
            texts[-1] += "[" * part.ndim
            arrays.append(part)
            texts.append("]" * part.ndim)
    fh.write(texts[0])
    x = np.empty(min(_BLOCK, sum(a.size for a in arrays)))
    kind = np.empty(x.size, np.intp)
    pos, runs = 0, []
    for a, after in zip(arrays, texts[1:]):
        # the count of numbers in a list at each depth inside the array
        flat, inner, lo = a.ravel(), [math.prod(a.shape[j:]) for j in range(1, a.ndim)], 0
        while lo < flat.size:
            n = min(flat.size - lo, x.size - pos)
            x[pos:pos + n] = flat[lo:lo + n]
            # a number's separator closes and opens each inner list it starts
            at = np.arange(lo, lo + n)
            kind[pos:pos + n] = sum(at % size == 0 for size in inner)
            if lo == 0:
                kind[pos] = -1  # the array's first number: none
            lo, pos = lo + n, pos + n
            runs.append((pos, after if lo == flat.size else ""))
            if pos == x.size:
                _write_numbers(fh, x, kind, runs)
                pos, runs = 0, []
    if runs:
        _write_numbers(fh, x[:pos], kind[:pos], runs)


def save_parameters(obj, path):
    if isinstance(obj, tuple):
        payload = {"left": obj[0]._json_fields(), "right": obj[1]._json_fields()}
    else:
        payload = obj._json_fields()
    with open(path, "w") as fh:
        write_json(payload, fh)

"""Transfer-matrix propagation, gauge conversion, and parameter recovery.

The evolution is ``dM/dmu = M G`` with a generator that is constant on each
coefficient interval and trace free, so the interval propagator has the exact
closed form

    exp(G d) = cosh(x) I + d * sinhc(x) G,    x^2 = -det(G) d^2,

where ``sinhc(x) = sinh(x)/x``.  This is both faster than generic stepping
and exactly determinant preserving (det exp = cosh^2 - sinh^2 = 1), which is
why no ODE integrator appears anywhere in the propagation path.  For the
disk-gauge generator ``G = (i z A - B) j`` the square of the growth rate is
``-det G = |a|^2 - z^2 (1 - |a|^2)``.

Entries grow like exp(Re(x)); for large |z| or long systems the propagators
are accumulated in scaled form ``exp(c) M`` with a real log-scale ``c`` and a
max-entry-normalized ``M``, so nothing overflows before 10^308 even at
y * sigma of several thousand.

``_expm`` is the one closed form, evaluated entrywise over arrays;
``_propagators`` applies it to (spectral point, piece) arrays of either
gauge's generator table.  ``scaled_products`` is the one propagation kernel:
the ordered products of a piece stream through given piece counts.  It works
in blocks of a fixed ``_BLOCK`` pieces, carried across blocks by a running
product; within a block it builds levels of pairwise products down to at
most ``_TOP`` nodes, scans those, and descends from the scan to each
requested count through one node per level, so a block costs about one
product per piece instead of a full prefix scan's log2(_BLOCK).  It knows no
tails.  ``transfer_grid`` feeds it the folded stream of ``piece_arrays``
from any start length l_from and closes constant and periodic tails in O(1)
and O(log) products, the period powered on the binary digits of the count.
The kernel's working set is set by one chunk of _CELLS (z, piece) cells:
its propagator stack (64 bytes a cell, 256 kB) and, while the stack is
built and scanned, a few more arrays of a number a cell.  ``_expm`` and
``_mul`` write into buffers they already hold and drop each intermediate
after its last use, and ``_scan`` drops each step's products once they are
copied in, with the same ufuncs on the same operands in the same order:
the bits are those of a new array per intermediate, and a chunk peaks at
about 0.83 MB (numpy 2.4; 2 points of a full block, 0.78 MB for 4 points of
1024 pieces).
``transfer_to_end`` is the kernel's suffix mode: T(z; l -> L) for every l
of the head from one call over the reversed stream.  Every transfer
function here is a thin wrapper around these: ``transfer_between`` is
``transfer_grid`` from l_from, and ``transfer`` refuses to overflow
silently.  Both refuse a spectral point so large that the closed form's
squares of generator entries could overflow, and ``transfer_grid``
refuses a span too long for its spectral point, whose exponent rho d or
log-scale overflows, instead of returning NaN or warning: only a kernel
call whose exponents could overflow, by a bound from ``generator_bound``,
runs with numpy's overflow warnings off.  The Riccati escape search
takes the table of its bisection's trial propagators within one piece from
``_propagators``, the one name here that other modules use.
"""

import contextlib
from dataclasses import dataclass

import numpy as np

from . import coefficients as coeff
from .errors import (DomainError, GaugeError, InconsistencyError, InputError,
                     _raise_first)
from .mat2 import (CLASS_TOL, DET_TOL, JKind, adjugate, det2, j_defect, mul2,
                   norm2, su11_normalizer)

GAUGE_AROV = "arov"
GAUGE_PDB = "pdb"
GAUGE_RAW = "raw"

#: pieces per block of the ordered product: a constant, never a function of
#: the number of spectral points (see ``scaled_products``).  Each block pays
#: a fixed numpy cost per level and scan step, so a one-point call over a
#: long head gains from wide blocks; at 4096 pieces its peak (1.09 MB) would
#: pass 1 MiB.
_BLOCK = 2048

#: most nodes of a block that are prefix-scanned: larger blocks are first
#: reduced by levels of pairwise products.
_TOP = 128

#: a family's spectral point within Z_TOL of z is the point z
Z_TOL = 1e-12

#: recovery's slack on the z = i column's triangular shape, relative to
#: max(1, |T|), and on |a| <= 1, round-off within it projected back
LOWER_TOL, RECOVERY_TOL = 1e-12, 1e-8

#: (z, piece) cells per block and chunk: spectral points are taken in chunks
#: of _CELLS // _BLOCK or more, so the working set is bounded for any grid.
_CELLS = 4096

_LN2 = float(np.log(2.0))

#: bound on the generator entries of a kernel call (``generator_bound`` at
#: |z|): past it the closed form's squares of them could overflow
_G_MAX = 0.25 * np.sqrt(np.finfo(float).max)

#: bound on the exponents and log-scales of a kernel call: past it -2 rho d
#: in ``_expm``, or a sum of log-scales, could overflow
_EXPONENT_MAX = 0.25 * np.finfo(float).max

#: the identity as a (4, 1, 1) entry stack
_EYE = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)[:, None, None]


def _mul(x, y):
    """Entrywise product of 2x2 stacks stored as (4, ...) = (11, 12, 21, 22),
    into a new stack of y's shape (x may broadcast against y)."""
    x11, x12, x21, x22 = x
    y11, y12, y21, y22 = y
    out = np.empty(y.shape, dtype=complex)
    o11, o12, o21, o22 = out
    np.multiply(x11, y11, o11)
    o11 += x12 * y21
    np.multiply(x11, y12, o12)
    o12 += x12 * y22
    np.multiply(x21, y11, o21)
    o21 += x22 * y21
    np.multiply(x21, y12, o22)
    o22 += x22 * y22
    return out


def _renorm(x, c):
    """Scale every matrix of a new stack by a power of two (exactly, in
    place) so its largest entry lies in [0.5, 1); the log-scale absorbs the
    factor."""
    _, e = np.frexp(np.abs(x).max(axis=0))
    x *= np.ldexp(1.0, -e)
    return x, c + _LN2 * e


def _expm(g11, g12, g21, d):
    """exp(G d) = exp(c) E for trace-free G = [[g11, g12], [g21, -g11]],
    entrywise over broadcast arrays: E as a (4, ...) stack, c real.  Each
    intermediate goes into a buffer already held where one is free and is
    dropped after its last use (arguments that only the call holds too).  No
    complex product is written over one of its own operands: on a stack of
    one element numpy rounds such a product otherwise than out of place."""
    g1221 = g12 * g21
    # cosh and sinh(x)/rho are even in rho, so the principal root serves: its
    # real part is never negative (nor -0)
    rho = g11 * g11
    rho += g1221
    np.sqrt(rho, rho)
    x = rho * d
    zero = x == 0.0
    # with Re x >= 0 and ph = exp(i Im x): s = sinh(x) e^-Re(x) / rho, from
    # expm1(-2x) so it is exact for small x, and the diagonal entries are
    # (cosh(x) +- g11 sinh(x) / rho) e^-Re(x) = ph e^-2x + s (rho +- g11)
    ph = 1j * x.imag
    np.exp(ph, ph)
    # (rho + g11)(rho - g11) = g12 g21: the larger factor is formed directly,
    # the other by division, so neither cancels (a sum rho - g11 rounding to
    # 0 would leave the decaying entry 0 once e^-2x is below round-off)
    flip = (rho * np.conj(g11)).real < 0.0  # |rho + g11| < |rho - g11|
    big = np.where(flip, rho - g11, rho + g11)
    del g11
    # big = 0 only where rho = g11 = 0, and there g12 g21 = 0 already
    small = np.divide(g1221, big, g1221, where=big != 0.0)
    s = -2.0 * x
    np.expm1(s, s)
    s = -0.5 * ph * s
    np.divide(s, rho, s, where=~zero)
    np.copyto(s, d, where=zero)
    del rho
    e = np.empty((4,) + s.shape, dtype=complex)
    np.multiply(s, g12, e[1])
    np.multiply(s, g21, e[2])
    del g12, g21
    decay = np.multiply(np.exp(-2.0 * x.real), np.conj(ph, ph), ph)  # ph e^-2x
    np.multiply(s, np.where(flip, small, big), e[0])
    np.add(decay, e[0], e[0])
    np.multiply(s, np.where(flip, big, small), e[3])
    np.add(decay, e[3], e[3])
    del s, decay, small, big  # before the renormalisation's temporaries
    return _renorm(e, x.real)


def _propagators(zs, gen, k, d):
    """Scaled propagators of pieces (k, d) at every z: (4, nz, n), (nz, n)."""
    p, alpha, r, gamma = (g[k] for g in gen)
    z = zs[:, None]
    return _expm(-1j * (z * p - r), -1j * z * np.conj(alpha) - np.conj(gamma),
                 1j * z * alpha - gamma, d)


def _scan(x, c):
    """Inclusive ordered prefix products along the last axis, in place."""
    step = 1
    while step < x.shape[-1]:
        # the step's products are dropped once copied in, before the next
        # step's are formed
        x[..., step:], c[..., step:] = _renorm(_mul(x[..., :-step], x[..., step:]),
                                             c[..., :-step] + c[..., step:])
        step *= 2
    return x, c


def _prefixes(x, c, cuts):
    """Ordered products of the first cuts[j] matrices of the scaled stack
    (x (4, nz, w), c (nz, w)), for ascending cuts in [1, w]: (4, nz, ncuts),
    (nz, ncuts).  Levels of pairwise products (w/2 + w/4 + ... of them) are
    built until at most _TOP nodes remain, and those are scanned.  Each cut
    then starts from the scan through its high bits and descends, all cuts
    at once, through the node of each level below whose bit it has set (the
    identity where it has not).  Only the nodes some cut needs outlive their
    level.  A stack of at most _TOP matrices is just scanned."""
    nodes, level = [], 0
    while x.shape[-1] > _TOP:
        bits = cuts >> level
        on = bits % 2 == 1
        at = np.where(on, bits - 1, 0)
        node, nc = x[..., at], c[..., at]
        node[..., ~on], nc[..., ~on] = _EYE, 0.0
        nodes.append((node, nc))
        h = x.shape[-1] // 2 * 2
        x, c = _renorm(_mul(x[..., 0:h:2], x[..., 1:h:2]), c[..., 0:h:2] + c[..., 1:h:2])
        level += 1
    x, c = _scan(x, c)
    high = cuts >> level
    y, yc = x[..., high - 1], c[..., high - 1]
    if nodes:
        y[..., high == 0], yc[..., high == 0] = _EYE, 0.0
    for node, nc in reversed(nodes):
        y, yc = _renorm(_mul(y, node), yc + nc)
    return y, yc


def scaled_products(zs, gen, k, d, ends):
    """The propagation kernel: ordered products of the pieces (k, d) of a
    generator table at every z, through the first ends[j] pieces (ascending;
    0 gives the identity): entry stack X (4, nz, ne) and log-scales c
    (nz, ne), the product being exp(c) X with X of order one.

    The pieces are taken in blocks of _BLOCK, and the spectral points of a
    block in chunks of about _CELLS // _BLOCK, so no stack of more than about
    _CELLS (z, piece) cells is ever formed.  Within a block, ``_prefixes``
    reads the products through the requested ends (and the block's total)
    off levels of pairwise products and a scan of their top: about one
    product per piece, where a full prefix scan takes log2(_BLOCK).  The
    first block's products are the results themselves; each later block's
    are multiplied by the running product of the blocks before it, which
    then takes in the block's total.  The block width is a constant: were it
    to follow nz, the association order, and so the last bits of every
    product, would change with the number of spectral points, and a point
    would not get the same value alone as in a grid."""
    zs = np.asarray(zs, dtype=complex).ravel()
    ends = np.asarray(ends, dtype=np.intp)
    nz, n = zs.size, int(ends[-1]) if ends.size else 0
    x, xc = np.empty((4, nz, ends.size), dtype=complex), np.empty((nz, ends.size))
    zero = ends == 0
    x[:, :, zero], xc[:, zero] = _EYE, 0.0
    # the running product through the blocks so far
    run, rc = np.empty((4, nz, 1), dtype=complex), np.empty((nz, 1))
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        sel = slice(*np.searchsorted(ends, (lo, hi), side="right"))
        cuts = ends[sel] - lo
        out = cuts.size
        if hi < n:  # the block's total, carried into the next block
            cuts = np.append(cuts, hi - lo)
        step = max(1, _CELLS // (hi - lo))
        for z in (slice(i, i + step) for i in range(0, nz, step)):
            y, c = _prefixes(*_propagators(zs[z], gen, k[lo:hi], d[lo:hi]), cuts)
            if lo:
                x[:, z, sel] = _mul(run[:, z], y[..., :out])
                xc[z, sel] = rc[z] + c[:, :out]
                y, c = _renorm(_mul(run[:, z], y[..., -1:]), rc[z] + c[:, -1:])
            else:
                x[:, z, sel], xc[z, sel] = y[..., :out], c[:, :out]
            run[:, z], rc[z] = y[..., -1:], c[:, -1:]
    return x, xc


def _spectral_points(system, zs):
    """The spectral points of a kernel call as a flat array, refused where
    the closed form could overflow: while the system's ``generator_bound``
    at |z| stays below _G_MAX, g11^2 + g12 g21 (and the Schur quadratics
    built on the same entries) stay finite."""
    if not isinstance(system, (coeff.ArovParameters, coeff.GeneralCoefficients)):
        raise InputError(f"unsupported coefficient object {type(system).__name__}")
    zs = np.asarray(zs, dtype=complex).ravel()
    scale, shift = system.generator_bound
    size = np.abs(zs)
    if not float(size.max(initial=0.0)) * scale + shift <= _G_MAX:
        z = zs[np.argmax(~(size * scale + shift <= _G_MAX))]
        raise DomainError(f"spectral point z = {z} is too large: the generator's "
                          "square overflows")
    return zs


def _kernel_errstate(system, zs, d):
    """The floating-point context of a kernel call over the pieces d at the
    spectral points zs.  |rho| <= sqrt(2) (|z| scale + shift) bounds every
    exponent rho d and, times the stream's mass, every log-scale, so only a
    call that could overflow runs with the warnings off (its caller refuses
    the overflow); any other runs as it is."""
    scale, shift = system.generator_bound
    reach = (float(np.abs(zs).max(initial=0.0)) * scale + shift) * float(d.max(initial=0.0))
    if np.sqrt(2.0) * reach * d.size > _EXPONENT_MAX:
        return np.errstate(over="ignore", invalid="ignore")
    return contextlib.nullcontext()


def transfer_grid(system, zs, ls, l_from=0.0):
    """Scaled transfer matrices (M[nz, nl, 2, 2], logc[nz, nl]) of a disk- or
    general-gauge system over a spectral grid and lengths in any order, each
    the product over [l_from, l]: one kernel call over the folded piece
    stream, then the tails."""
    zs = _spectral_points(system, zs)
    k, d, ends, at, q, t = system.piece_arrays(ls, l_from)
    gen = system.generator_table
    with _kernel_errstate(system, zs, d):  # an overflow is refused below
        x, xc = scaled_products(zs, gen, k, d, ends)
    # one copy into the output layout; m is its (4, nz, nl) entry view
    out, c = np.take(x.transpose(1, 2, 0), at, axis=1), xc[:, at]
    m = out.transpose(2, 0, 1)
    if q is not None:  # periodic tail: P^q @ H, by the powers P^(2^j) of q's set bits
        sq, sc = x[:, :, -1:], xc[:, -1:]
        with np.errstate(over="ignore"):  # an overflow is refused below
            for bit in range(int(q.max()).bit_length()):
                if bit:
                    sq, sc = _renorm(_mul(sq, sq), 2.0 * sc)
                on = (q >> bit) % 2 == 1
                m[:, :, on], c[:, on] = _renorm(_mul(sq, m[:, :, on]), sc + c[:, on])
    if t is not None and (tail := t > 0.0).any():
        # constant tail: one more piece, with the last interval's generator,
        # for the lengths past L
        last = np.full(int(tail.sum()), gen[0].size - 1)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            e, ec = _propagators(zs, gen, last, t[tail])
            m[:, :, tail], c[:, tail] = _mul(m[:, :, tail], e), c[:, tail] + ec
    # entries are of order one, so their sum is finite unless one is not:
    # an exponent or log-scale that overflowed leaves NaN or inf
    if not (np.isfinite(out.sum()) and c.max(initial=0.0) < np.inf):
        raise DomainError("an exponent or log-scale overflows: the span is too long at this z")
    return out.reshape(zs.size, -1, 2, 2), c


def transfer_to_end(system, zs, ls):
    """The suffix mode: scaled T(z; l -> L), L the stored grid's end, over a
    spectral grid and lengths in [0, L] in any order, as (M[nz, nl, 2, 2],
    logc[nz, nl]).  T(l -> L)^T is the ordered product of the transposed
    propagators of the span's pieces taken last to first, and transposing
    exp(G d) swaps g12 and g21, which the table (p, -conj alpha, r,
    conj gamma) does exactly in either gauge.  So one kernel call over the
    reversed stream of [min l, L], through n - e pieces for a head e pieces
    in, gives every suffix; this is the only code that reverses a stream."""
    zs = _spectral_points(system, zs)
    ls, L = np.asarray(ls, dtype=float).ravel(), system.length
    if not np.all((ls >= 0.0) & (ls <= L)):
        raise DomainError(f"suffix lengths must lie in [0, {L}], got {ls}")
    k, d, ends, at, _, _ = system.piece_arrays(np.append(ls, L), ls.min(initial=L))
    p, alpha, r, gamma = system.generator_table
    with _kernel_errstate(system, zs, d):  # an overflow is refused by the caller
        x, xc = scaled_products(zs, (p, -np.conj(alpha), r, np.conj(gamma)), k[::-1], d[::-1],
                                ends[-1] - ends[::-1])
    at = ends.size - 1 - at[:-1]  # head j is column ends.size - 1 - j of the reversed call
    out = np.take(x.transpose(1, 2, 0), at, axis=1).reshape(zs.size, -1, 2, 2)
    return out.swapaxes(-1, -2), xc[:, at]


def materialize(m, c, what):
    """exp(c) * M for a scaled pair or stack, formed in place in M; refuses
    to overflow."""
    worst = float(np.max(c, initial=-np.inf))
    if worst > 700.0:
        raise InputError(f"{what}: entries reach exp({worst:.1f}); use the scaled interface")
    m *= np.exp(c)[..., None, None]
    return m


def transfer_scaled(z, p, l):
    """Scaled transfer matrix (M, c) of a coefficient system, true value
    exp(c) * M; constant and periodic tails are closed in O(1) and O(log)
    products past the stored grid."""
    m, c = transfer_grid(p, [z], [l])
    return m[0, 0], float(c[0, 0])


def transfer(z, p, l):
    """Transfer matrix at spectral point z and length l.

    Ordered product of closed-form interval propagators; exact for the stored
    piecewise-constant coefficients, including a partial last interval.
    """
    m, c = transfer_scaled(z, p, l)
    return materialize(m, c, "transfer")


def transfer_between(z, p, l_from, l_to):
    """Stripped segment 𝒜(z, l_from)^(-1) 𝒜(z, l_to), computed directly as
    the product over [l_from, l_to] (better conditioned than inverting):
    ``transfer_grid`` from l_from, so a periodic span costs one kernel call
    over the rotated period and O(log) products for any number of periods."""
    m, c = transfer_grid(p, [z], [l_to], l_from)
    return materialize(m[0, 0], c[0, 0], "transfer_between")


# ---------------------------------------------------------------------------
# Families over (z, l) grids


@dataclass
class TransferFamily:
    """Sampled transfer matrices over a spectral grid and a length grid.

    values[i, k] is the matrix at (zs[i], ls[k]); gauge is one of
    "arov", "pdb", "raw".
    """

    zs: np.ndarray
    ls: np.ndarray
    values: np.ndarray
    gauge: str = GAUGE_RAW

    def __post_init__(self):
        self.zs = np.asarray(self.zs, dtype=complex).ravel()
        self.ls = np.asarray(self.ls, dtype=float).ravel()
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.zs.size, self.ls.size, 2, 2):
            raise InputError(
                f"family values shaped {self.values.shape}, expected "
                f"({self.zs.size}, {self.ls.size}, 2, 2)"
            )
        if np.any(np.diff(self.ls) < 0):
            raise InputError("family length grid must be nondecreasing")

    def z_index(self, z):
        hits = np.nonzero(np.abs(self.zs - complex(z)) <= Z_TOL)[0]
        if hits.size == 0:
            raise InputError(f"family has no spectral point z = {z}")
        return int(hits[0])

    def det_errors(self):
        """|det - 1| per value over max(1, largest |entry|)^2, the scale of
        the round-off in a determinant formed from the entries."""
        d = np.abs(det2(self.values) - 1.0)
        # the largest of the four, by entry (a reduction over the 2x2 axes
        # is nearly twenty times slower)
        a = np.abs(self.values).reshape(self.values.shape[:-2] + (4,))
        largest = np.maximum(np.maximum(a[..., 0], a[..., 1]), np.maximum(a[..., 2], a[..., 3]))
        return d / np.maximum(1.0, largest) ** 2

    def validate(self):
        """Check the structural invariants; raises on the first violation.

        Identity at l = 0 (when present), unit determinants, j-contractive
        stripped segments for Im z > 0 (j-unitary on the real axis), and the
        triangular z = i structure when tagged "arov".
        """
        zs, ls, values = self.zs, self.ls, self.values
        if ls.size and ls[0] == 0.0:
            _raise_first(GaugeError, (
                norm2(values[:, 0] - np.eye(2)) > DET_TOL,
                lambda i: f"family value at (z={zs[i]}, l=0) is not the identity"))
        worst_det = float(np.max(self.det_errors())) if values.size else 0.0
        if worst_det > DET_TOL:
            raise InconsistencyError(f"max |det - 1| = {worst_det} exceeds {DET_TOL}")
        up = zs.imag >= 0
        a, b = values[up, :-1], values[up, 1:]
        seg = mul2(adjugate(a), b)
        # seg carries round-off of about eps |a| |b|, and j - seg j seg* that
        # times |seg|: the band is CLASS_TOL |seg|^2, widened to
        # 64 eps |a| |b| |seg| where that round-off is larger
        round_off = 64.0 * np.finfo(float).eps * norm2(a) * norm2(b) / norm2(seg)
        _, cls = j_defect(seg, np.maximum(CLASS_TOL, round_off))
        real = (zs[up].imag == 0)[:, None]
        _raise_first(InconsistencyError, (
            ~np.where(real, cls.kind == JKind.UNITARY, cls.is_contractive),
            lambda i, k: f"stripped segment at (z={zs[up][i]}, l={ls[k]}->{ls[k + 1]}) "
                         f"is {cls.kind[i, k].value}, family is not j-monotonic"))
        if self.gauge == GAUGE_AROV:
            t = values[self.z_index(1j)]
            scale = np.maximum(1.0, norm2(t))
            _raise_first(GaugeError, (
                (np.abs(t[:, 0, 1]) > DET_TOL * scale) | (t[:, 0, 0].real <= 0)
                | (t[:, 1, 1].real <= 0),
                lambda k: f"value at (z=i, l={ls[k]}) violates the claimed triangular "
                          "structure"))
        return self


def transfer_family(system, zs, ls):
    """Build a TransferFamily from disk-gauge or general-gauge coefficients."""
    zs = np.asarray(zs, dtype=complex).ravel()
    ls = np.sort(np.asarray(ls, dtype=float).ravel())
    values = materialize(*transfer_grid(system, zs, ls), "transfer_family")
    if isinstance(system, coeff.ArovParameters):
        tag = GAUGE_AROV
    else:
        tag = GAUGE_PDB if np.all(np.abs(system.Q) == 0.0) else GAUGE_RAW
    return TransferFamily(zs, ls, values, tag)


def to_arov_gauge(f, out=None):
    """Gauge the family so its z = i column is lower triangular with positive
    diagonal.  Returns the regauged family and the SU(1,1) factors U(l_k).
    Weyl disks are unaffected.  The values T(z, l) U(l) go into ``out``
    (new when None; f.values regauges in place, and f then holds them)."""
    us = su11_normalizer(f.values[f.z_index(1j)])
    return TransferFamily(f.zs, f.ls, mul2(f.values, us, out), GAUGE_AROV), us


def to_pdb_gauge(f, out=None):
    """Gauge the family so its z = 0 column is the identity; ``out`` as in
    ``to_arov_gauge``."""
    t0 = f.values[f.z_index(0j)]
    d = det2(t0)
    if np.any(d == 0):
        raise InputError("singular z = 0 value; family is corrupt")
    return TransferFamily(f.zs, f.ls, mul2(f.values, adjugate(t0) / d[:, None, None], out),
                          GAUGE_PDB)


@dataclass
class RecoveryResult:
    """Parameters recovered from an Arov-gauge family, with the distribution
    function and disk-center samples that produced them."""

    params: coeff.ArovParameters
    mu: np.ndarray
    kappa: np.ndarray
    zero_mass: np.ndarray  # interval indices that carried no measure


def recover_parameters(f):
    """Read (m_k, a_k) back off an Arov-gauge family.

    mu(l_k) = log A11(i, l_k) and kappa(l_k) = -A21/A11; the per-interval
    coefficient is the interval-integrated quotient
    a_k = (kappa_{k+1} - kappa_k) / (exp(-2 mu_k) - exp(-2 mu_{k+1})),
    which is exact for piecewise-constant coefficients and robust to grid
    nonuniformity.  Intervals with zero measure get a = 0 and are flagged.
    """
    if f.gauge != GAUGE_AROV:
        raise GaugeError(f"recovery needs an Arov-tagged family, got {f.gauge!r}")
    if f.ls.size == 0 or f.ls[0] != 0.0:
        raise InputError("recovery needs the family to start at l = 0")
    col = f.values[f.z_index(1j)]
    scale = np.maximum(1.0, norm2(col))
    a11 = col[:, 0, 0]
    _raise_first(
        GaugeError,
        (np.abs(col[:, 0, 1]) > LOWER_TOL * scale,
         lambda k: f"value at z=i, l={f.ls[k]} is not lower triangular "
                   f"(|A12| = {abs(col[k, 0, 1])})"),
        ((a11.real <= 0.0) | (np.abs(a11.imag) > LOWER_TOL * scale),
         lambda k: f"value at z=i, l={f.ls[k]} has nonpositive A11 = {a11[k]}"))
    mu = np.log(a11.real)
    kappa = -col[:, 1, 0] / a11
    dmu = np.diff(mu)
    dl = np.diff(f.ls)
    if np.any(dl <= 0.0):
        raise InputError("recovery needs strictly increasing lengths")
    weights = np.exp(-2.0 * mu[:-1]) - np.exp(-2.0 * mu[1:])
    dk = np.diff(kappa)
    a = np.zeros(f.ls.size - 1, dtype=complex)
    zero = weights <= 0.0
    live = ~zero
    a[live] = dk[live] / weights[live]
    bad = np.nonzero(np.abs(a) > 1.0 + RECOVERY_TOL)[0]
    if bad.size:
        raise InconsistencyError(
            f"recovered |a[{bad[0]}]| = {abs(a[bad[0]])} > 1: "
            "input family was not j-monotonic"
        )
    over = np.abs(a) > 1.0  # round-off past the circle, within RECOVERY_TOL: project back
    if over.any():
        a[over] /= np.abs(a[over])
    params = coeff.ArovParameters(
        grid=f.ls[1:].copy(), m=dmu / dl, a=a, tail=coeff.TAIL_FINITE
    )
    return RecoveryResult(params, mu, kappa, np.nonzero(zero)[0])


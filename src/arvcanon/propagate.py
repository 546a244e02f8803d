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
the ordered products of a piece stream through given piece counts, in blocks
of ``_BLOCK`` pieces (a prefix scan per block, carried across blocks); it
knows no tails.  ``transfer_grid`` feeds it the folded stream of
``piece_arrays`` and closes constant and periodic tails in O(1) and O(log)
products.  Every transfer function here is a thin wrapper around the two;
``transfer`` refuses to overflow silently.  The Riccati escape search is the
one other caller of ``_propagators``.
"""

from dataclasses import dataclass

import numpy as np

from . import coefficients as coeff
from .errors import GaugeError, InconsistencyError, InputError, _raise_first
from .mat2 import JKind, adjugate, det2, j_defect, norm2, su11_normalizer

GAUGE_AROV = "arov"
GAUGE_PDB = "pdb"
GAUGE_RAW = "raw"

#: pieces per block of the ordered product.
_BLOCK = 512

#: (z, piece) cells per scan: spectral points are taken in chunks of
#: _CELLS // _BLOCK or more, so the working set is bounded for any grid.
_CELLS = 4096

_LN2 = float(np.log(2.0))

#: the identity as a (4, 1, 1) entry stack
_EYE = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)[:, None, None]


def _mul(x, y):
    """Entrywise product of 2x2 stacks stored as (4, ...) = (11, 12, 21, 22)."""
    x11, x12, x21, x22 = x
    y11, y12, y21, y22 = y
    return np.array((x11 * y11 + x12 * y21, x11 * y12 + x12 * y22,
                     x21 * y11 + x22 * y21, x21 * y12 + x22 * y22))


def _renorm(x, c):
    """Scale every matrix of a new stack by a power of two (exactly, in
    place) so its largest entry lies in [0.5, 1); the log-scale absorbs the
    factor."""
    _, e = np.frexp(np.abs(x).max(axis=0))
    x *= np.ldexp(1.0, -e)
    return x, c + _LN2 * e


def _expm(g11, g12, g21, d):
    """exp(G d) = exp(c) E for trace-free G = [[g11, g12], [g21, -g11]],
    entrywise over broadcast arrays: E as a (4, ...) stack, c real."""
    g1221 = g12 * g21
    rho = np.sqrt(g11 * g11 + g1221)
    rho = np.where(rho.real < 0.0, -rho, rho)  # cosh and sinh(x)/rho are even
    x = rho * d
    # with Re x >= 0 and ph = exp(i Im x): s = sinh(x) e^-Re(x) / rho, from
    # expm1(-2x) so it is exact for small x, and the diagonal entries are
    # (cosh(x) +- g11 sinh(x) / rho) e^-Re(x) = ph e^-2x + s (rho +- g11)
    ph = np.exp(1j * x.imag)
    nonzero = x != 0.0
    s = np.where(nonzero, -0.5 * ph * np.expm1(-2.0 * x) / np.where(nonzero, rho, 1.0), d)
    e = np.empty((4,) + s.shape, dtype=complex)
    np.multiply(s, g12, out=e[1])
    np.multiply(s, g21, out=e[2])
    # (rho + g11)(rho - g11) = g12 g21: the larger factor is formed directly,
    # the other by division, so neither cancels (a sum rho - g11 rounding to
    # 0 would leave the decaying entry 0 once e^-2x is below round-off)
    flip = (rho * np.conj(g11)).real < 0.0  # |rho + g11| < |rho - g11|
    big = np.where(flip, rho - g11, rho + g11)
    small = np.divide(g1221, big, out=np.zeros_like(big), where=big != 0.0)
    decay = np.exp(-2.0 * x.real) * np.conj(ph)
    np.add(decay, s * np.where(flip, small, big), out=e[0])
    np.add(decay, s * np.where(flip, big, small), out=e[3])
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
        y, cy = _renorm(_mul(x[..., :-step], x[..., step:]),
                        c[..., :-step] + c[..., step:])
        x[..., step:] = y
        c[..., step:] = cy
        step *= 2
    return x, c


def scaled_products(zs, gen, k, d, ends):
    """The propagation kernel: ordered products of the pieces (k, d) of a
    generator table at every z, through the first ends[j] pieces (ascending;
    0 gives the identity): entry stack X (4, nz, ne) and log-scales c
    (nz, ne), the product being exp(c) X with X of order one.  Blocks of
    _BLOCK pieces are scanned for chunks of spectral points and carried into
    running products, so no stack of more than about _CELLS (z, piece) cells
    is ever formed."""
    zs = np.asarray(zs, dtype=complex).ravel()
    ends = np.asarray(ends, dtype=np.intp)
    nz, n = zs.size, int(ends[-1]) if ends.size else 0
    x, xc = np.tile(_EYE, (1, nz, ends.size)), np.zeros((nz, ends.size))
    run, rc = np.tile(_EYE, (1, nz, 1)), np.zeros((nz, 1))
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        sel = slice(*np.searchsorted(ends, (lo, hi), side="right"))
        cuts = ends[sel] - lo
        step = max(1, _CELLS // (hi - lo))
        for z in (slice(i, i + step) for i in range(0, nz, step)):
            y, c = _scan(*_propagators(zs[z], gen, k[lo:hi], d[lo:hi]))
            x[:, z, sel] = _mul(run[:, z], y[:, :, cuts - 1])
            xc[z, sel] = rc[z] + c[:, cuts - 1]
            run[:, z], rc[z] = _renorm(_mul(run[:, z], y[:, :, -1:]), rc[z] + c[:, -1:])
    return x, xc


def transfer_grid(system, zs, ls):
    """Scaled transfer matrices (M[nz, nl, 2, 2], logc[nz, nl]) of a disk- or
    general-gauge system over a spectral grid and lengths in any order: one
    kernel call over the folded piece stream, then the tails."""
    if not isinstance(system, (coeff.ArovParameters, coeff.GeneralCoefficients)):
        raise InputError(f"unsupported coefficient object {type(system).__name__}")
    zs = np.asarray(zs, dtype=complex).ravel()
    k, d, ends, at, q, t = system.piece_arrays(ls)
    gen = system.generator_table
    x, xc = scaled_products(zs, gen, k, d, ends)
    # one copy into the output layout; m is its (4, nz, nl) entry view
    out, c = np.take(x.transpose(1, 2, 0), at, axis=1), xc[:, at]
    m = out.transpose(2, 0, 1)
    if q is not None:
        # periodic tail: Pat^q @ H(r), the commuting powers Pat^(2^j) of the
        # set bits of q applied from the left
        sq, sc = x[:, :, -1:], xc[:, -1:]
        for bit in range(int(q.max()).bit_length()):
            on = (q >> bit) % 2 == 1
            m[:, :, on], c[:, on] = _renorm(_mul(sq, m[:, :, on]), sc + c[:, on])
            sq, sc = _renorm(_mul(sq, sq), 2.0 * sc)
    if t is not None:
        # constant tail: one more piece, with the last interval's generator
        tail = t > 0.0
        last = np.full(int(tail.sum()), gen[0].size - 1)
        e, ec = _propagators(zs, gen, last, t[tail])
        m[:, :, tail], c[:, tail] = _mul(m[:, :, tail], e), c[:, tail] + ec
    return out.reshape(zs.size, -1, 2, 2), c


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
    the product over [l_from, l_to] (better conditioned than inverting)."""
    k, d = p.span_arrays(l_to, l_from)
    x, c = scaled_products([z], p.generator_table, k, d, [k.size])
    return materialize(x[:, 0, 0].reshape(2, 2), c[0, 0], "transfer_between")


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

    def z_index(self, z, tol=1e-12):
        hits = np.nonzero(np.abs(self.zs - complex(z)) <= tol)[0]
        if hits.size == 0:
            raise InputError(f"family has no spectral point z = {z}")
        return int(hits[0])

    def det_errors(self):
        """|det - 1| per value over max(1, largest |entry|)^2, the scale of
        the round-off in a determinant formed from the entries."""
        d = np.abs(det2(self.values) - 1.0)
        return d / np.maximum(1.0, np.abs(self.values).max(axis=(-2, -1))) ** 2

    def validate(self, det_tol=1e-10, class_tol=1e-10):
        """Check the structural invariants; raises on the first violation.

        Identity at l = 0 (when present), unit determinants, j-contractive
        stripped segments for Im z > 0 (j-unitary on the real axis), and the
        triangular z = i structure when tagged "arov".
        """
        zs, ls, values = self.zs, self.ls, self.values
        if ls.size and ls[0] == 0.0:
            _raise_first(GaugeError, (
                norm2(values[:, 0] - np.eye(2)) > det_tol,
                lambda i: f"family value at (z={zs[i]}, l=0) is not the identity"))
        worst_det = float(np.max(self.det_errors())) if values.size else 0.0
        if worst_det > det_tol:
            raise InconsistencyError(f"max |det - 1| = {worst_det} exceeds {det_tol}")
        up = zs.imag >= 0
        _, cls = j_defect(adjugate(values[up, :-1]) @ values[up, 1:], class_tol)
        real = (zs[up].imag == 0)[:, None]
        _raise_first(InconsistencyError, (
            ~np.where(real, cls.kind == JKind.UNITARY, cls.is_contractive),
            lambda i, k: f"stripped segment at (z={zs[up][i]}, l={ls[k]}->{ls[k + 1]}) "
                         f"is {cls.kind[i, k].value}, family is not j-monotonic"))
        if self.gauge == GAUGE_AROV:
            t = values[self.z_index(1j)]
            scale = np.maximum(1.0, norm2(t))
            _raise_first(GaugeError, (
                (np.abs(t[:, 0, 1]) > det_tol * scale) | (t[:, 0, 0].real <= 0)
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


def to_arov_gauge(f, det_tol=1e-10, class_tol=1e-10):
    """Gauge the family so its z = i column is lower triangular with positive
    diagonal.  Returns the regauged family and the SU(1,1) factors U(l_k).
    Weyl disks are unaffected."""
    us = su11_normalizer(f.values[f.z_index(1j)], det_tol=det_tol, class_tol=class_tol)
    return TransferFamily(f.zs, f.ls, f.values @ us, GAUGE_AROV), us


def to_pdb_gauge(f):
    """Gauge the family so its z = 0 column is the identity."""
    t0 = f.values[f.z_index(0j)]
    d = det2(t0)
    if np.any(d == 0):
        raise InputError("singular z = 0 value; family is corrupt")
    return TransferFamily(f.zs, f.ls, f.values @ (adjugate(t0) / d[:, None, None]),
                          GAUGE_PDB)


@dataclass
class RecoveryResult:
    """Parameters recovered from an Arov-gauge family, with the distribution
    function and disk-center samples that produced them."""

    params: coeff.ArovParameters
    mu: np.ndarray
    kappa: np.ndarray
    zero_mass: np.ndarray  # interval indices that carried no measure


def recover_parameters(f, tol=1e-8, lower_tol=1e-12):
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
        (np.abs(col[:, 0, 1]) > lower_tol * scale,
         lambda k: f"value at z=i, l={f.ls[k]} is not lower triangular "
                   f"(|A12| = {abs(col[k, 0, 1])})"),
        ((a11.real <= 0.0) | (np.abs(a11.imag) > lower_tol * scale),
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
    bad = np.nonzero(np.abs(a) > 1.0 + tol)[0]
    if bad.size:
        raise InconsistencyError(
            f"recovered |a[{bad[0]}]| = {abs(a[bad[0]])} > 1: "
            "input family was not j-monotonic"
        )
    over = np.abs(a) > 1.0  # round-off past the circle, within tol: project back
    if over.any():
        a[over] /= np.abs(a[over])
    params = coeff.ArovParameters(
        grid=f.ls[1:].copy(), m=dmu / dl, a=a, tail=coeff.TAIL_FINITE
    )
    return RecoveryResult(params, mu, kappa, np.nonzero(zero)[0])


def family_csv_rows(f):
    """CSV rows (z_re, z_im, l, a11_re, a11_im, ..., a22_im, det_err), each
    a list of floats made as it is read."""
    nz, nl = f.zs.size, f.ls.size
    entries = np.ascontiguousarray(f.values).reshape(nz * nl, 4).view(float)
    table = np.column_stack((np.repeat(f.zs.real, nl), np.repeat(f.zs.imag, nl),
                             np.tile(f.ls, nz), entries, f.det_errors().ravel()))
    return map(np.ndarray.tolist, table)


FAMILY_CSV_COLUMNS = (
    "z_re", "z_im", "l",
    "a11_re", "a11_im", "a12_re", "a12_im",
    "a21_re", "a21_im", "a22_re", "a22_im",
    "det_err",
)

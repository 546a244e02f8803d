"""Independent computations the benchmark checks the program's outputs
against.

Nothing here imports the package.  Interval pieces are cut from the fixture
arrays by ``segments``; generators are assembled from the (A, B, j) form
``(i z A - B) j`` with A = [[1, -conj a], [-a, 1]], B = [[0, conj a], [-a, 0]],
and interval propagators come from ``scipy.linalg.expm`` (with the largest
real eigenvalue shifted out, so long pieces do not overflow).  Schur values
come from closed forms: the stationarity root (``numpy.roots``) for constant
tails, the in-disk fixed point of the monodromy for periodic ones.

The checks that compare outputs with these live in ``workloads.py``.
"""

import json

import numpy as np
import scipy.integrate
import scipy.linalg

JSIG = np.diag([-1.0, 1.0]).astype(complex)


# ---------------------------------------------------------------------------
# propagation from the fixture arrays


def segments(p, l_to, l_from=0.0):
    """(a, d_mu) pieces of a disk-gauge system over [l_from, l_to]."""
    L = p.length
    if p.tail == "periodic":
        out, k = [], int(l_from // L)
        while k * L < l_to:
            out.extend(_head_segments(p, max(l_from - k * L, 0.0), min(l_to - k * L, L)))
            k += 1
        return out
    out = _head_segments(p, l_from, min(l_to, L))
    if l_to > L:
        if p.tail != "constant":
            raise ValueError("span beyond a finite tail")
        out.append((complex(p.a[-1]), float(p.m[-1] * (l_to - max(l_from, L)))))
    return out


def _head_segments(p, lo, hi):
    knots = np.concatenate(([0.0], p.grid))
    out = []
    k = int(np.searchsorted(knots, lo, side="right")) - 1
    while lo < hi and k < p.grid.size:
        right = min(knots[k + 1], hi)
        if right > lo and p.m[k] > 0:
            out.append((complex(p.a[k]), float(p.m[k] * (right - lo))))
        lo, k = right, k + 1
    return out


def disk_generator(z, a):
    A = np.array([[1.0, -np.conj(a)], [-a, 1.0]], dtype=complex)
    B = np.array([[0.0, np.conj(a)], [-a, 0.0]], dtype=complex)
    return (1j * z * A - B) @ JSIG


def general_pieces(c, t):
    """(generator-times-width matrices) of a general-gauge system on [0, t]."""
    knots = np.concatenate(([0.0], c.grid))
    out = []
    for k in range(c.grid.size):
        if knots[k] >= t:
            break
        w = min(knots[k + 1], t) - knots[k]
        out.append((k, w * c.n[k]))
    if t > c.length:
        out.append((c.grid.size - 1, (t - c.length) * c.n[-1]))
    return out


def _expm_scaled(mats):
    """(stack of M, stack of c) with expm(mats[k]) = exp(c[k]) M[k]."""
    mats = np.asarray(mats, dtype=complex).reshape(-1, 2, 2)
    if mats.shape[0] == 0:
        return mats, np.zeros(0)
    c = np.max(np.linalg.eigvals(mats).real, axis=1).clip(min=0.0)
    shifted = mats - c[:, None, None] * np.eye(2)
    return scipy.linalg.expm(shifted), c


def product_scaled(mats, marks=None):
    """Ordered product of expm(mats[k]) in scaled form (M, c).  With marks
    (ascending piece counts), returns the list of partial products after
    each mark instead."""
    ms, cs = _expm_scaled(mats)
    m, c = np.eye(2, dtype=complex), 0.0
    out = []
    marks = list(marks) if marks is not None else None
    k = 0
    for i in range(ms.shape[0] + 1):
        while marks is not None and k < len(marks) and marks[k] == i:
            out.append((m.copy(), c))
            k += 1
        if i == ms.shape[0]:
            break
        m = m @ ms[i]
        s = float(np.max(np.abs(m)))
        m /= s
        c += cs[i] + np.log(s)
    return out if marks is not None else (m, c)


def scaled_product(z, pieces):
    return product_scaled([disk_generator(z, a) * d for a, d in pieces])


def disk_prefix(z, p, ls):
    """Scaled transfer matrices of a disk-gauge system at ascending ls."""
    mats, marks, prev = [], [], 0.0
    for l in ls:
        mats.extend(disk_generator(z, a) * d for a, d in segments(p, l, prev))
        marks.append(len(mats))
        prev = l
    return product_scaled(mats, marks)


def general_prefix(z, c, ts):
    """Scaled transfer matrices of a general-gauge system at ascending ts,
    each a product from 0 over (i z P - Q) j times the interval's n-mass."""
    return [product_scaled([(1j * z * c.P[k] - c.Q[k]) @ JSIG * d
                            for k, d in general_pieces(c, t)]) for t in ts]


# ---------------------------------------------------------------------------
# closed forms


def mobius(w, t):
    """Right action (w, 1) T, as the ratio of the image row's entries."""
    return (w * t[0, 0] + t[1, 0]) / (w * t[0, 1] + t[1, 1])


def adjugate(t):
    return np.array([[t[1, 1], -t[0, 1]], [-t[1, 0], t[0, 0]]])


def disk_of(m, c):
    """Centres and log radii of {s : |mobius(s, T)| <= 1} for stacks of
    T = exp(c) m with det T = 1, from the quadratic form
    |s T11 + T21|^2 <= |s T12 + T22|^2: radius = |det T| / (|T11|^2 - |T12|^2)."""
    m11, m12, m21, m22 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    lam2 = np.abs(m11) ** 2 - np.abs(m12) ** 2
    centre = -(np.conj(m11) * m21 - np.conj(m12) * m22) / lam2
    return centre, -np.log(lam2) - 2.0 * c


def stationarity_root(z, a):
    """Schur value of the constant system a: the root in the unit disk of
    conj(a)(iz+1) s^2 - 2iz s + a(iz-1)."""
    iz = 1j * z
    roots = np.roots([np.conj(a) * (iz + 1.0), -2.0 * iz, a * (iz - 1.0)])
    return complex(min(roots, key=abs))


def fixed_point(t):
    """Fixed point of w -> mobius(w, T) inside the unit disk."""
    roots = np.roots([t[0, 1], t[1, 1] - t[0, 0], -t[1, 0]])
    return complex(min(roots, key=abs))


def schur_value(z, p):
    """s_+(z) of a half-line system with a constant or periodic tail."""
    if p.tail == "periodic":
        m, _ = disk_prefix(z, p, [p.length])[0]
        return fixed_point(m)
    m, _ = disk_prefix(z, p, [p.length])[0]
    return mobius(stationarity_root(z, complex(p.a[-1])), adjugate(m))


def reflect_conj(p):
    """Right-half system of a mirrored left half (coefficients conjugated)."""
    return type(p)(p.grid, p.m, np.conj(p.a), p.tail)


def kappa_mu(p, ls):
    """kappa(l) = sum a_k (e^{-2 mu_lo} - e^{-2 mu_hi}) and mu(l)."""
    out, kappa, mu, prev = [], 0j, 0.0, 0.0
    for l in ls:
        for a, d in segments(p, l, prev):
            kappa += a * (np.exp(-2.0 * mu) - np.exp(-2.0 * (mu + d)))
            mu += d
        out.append((kappa, mu))
        prev = l
    return out


def type_integral(p, l):
    return float(sum(np.sqrt(max(1.0 - abs(a) ** 2, 0.0)) * d for a, d in segments(p, l)))


def general_type_integral(c, l):
    return float(sum(np.sqrt(max(np.linalg.det(c.P[k]).real, 0.0)) * d
                     for k, d in general_pieces(c, l)))


def harmonic_measure(w, t1, t2):
    """Measure of the arc [t1, t2] seen from w: the Poisson kernel
    integrated by adaptive quadrature."""
    r2 = abs(w) ** 2
    kernel = lambda t: (1.0 - r2) / abs(np.exp(1j * t) - w) ** 2  # noqa: E731
    return scipy.integrate.quad(kernel, t1, t2, limit=200, epsabs=1e-12)[0] / (2 * np.pi)


def bp_defects(pair, lo, hi, x_step, arc, ladder, eps):
    """Harmonic-measure defect of a two-sided system per probe length, with
    the number of band samples excluded because a stripped value left the
    disk: the integral over x in [lo, hi] of the measure of the conjugate arc
    seen from the stripped left value minus the arc seen from the stripped
    right value, by the trapezoid rule on the band samples."""
    t1, t2 = arc
    xs = np.linspace(lo, hi, max(int(np.ceil((hi - lo) / x_step)) + 1, 2))
    zs = xs + 1j * eps
    sp0 = [schur_value(z, pair.right) for z in zs]
    sm0 = [(z - 1j) / (z + 1j) * schur_value(z, reflect_conj(pair.left)) for z in zs]
    out = []
    for l in ladder:
        vals = np.full(xs.size, np.nan)
        for i, z in enumerate(zs):
            m, _ = disk_prefix(z, pair.right, [l])[0]
            sp = mobius(sp0[i], m)
            sm = mobius(sm0[i], m[::-1, ::-1])
            if abs(sp) < 1.0 and abs(sm) < 1.0:
                vals[i] = harmonic_measure(sm, -t2, -t1) - harmonic_measure(sp, t1, t2)
        keep = ~np.isnan(vals)
        total = np.trapezoid(vals[keep], xs[keep]) if keep.sum() >= 2 else 0.0
        out.append((float(total), int(xs.size - keep.sum())))
    return out


# ---------------------------------------------------------------------------
# output parsing


def read_csv(path):
    """Header and rows of a program CSV; '#' comment lines are skipped."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def table(path):
    """CSV as a dict of columns; numeric where every entry parses."""
    header, rows = read_csv(path)
    cols = {}
    for j, name in enumerate(header):
        vals = [r[j] for r in rows]
        try:
            cols[name] = np.array([float(v) for v in vals])
        except ValueError:
            cols[name] = np.array(vals)
    return cols


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def family_matrices(cols):
    z = cols["z_re"] + 1j * cols["z_im"]
    t = np.empty((z.size, 2, 2), dtype=complex)
    t[:, 0, 0] = cols["a11_re"] + 1j * cols["a11_im"]
    t[:, 0, 1] = cols["a12_re"] + 1j * cols["a12_im"]
    t[:, 1, 0] = cols["a21_re"] + 1j * cols["a21_im"]
    t[:, 1, 1] = cols["a22_re"] + 1j * cols["a22_im"]
    return z, cols["l"], t

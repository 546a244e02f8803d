"""The two workloads: fixed lists of CLI invocations, each with the check
of its output and the count of work units it delivers.

An operation is one ``arvcanon.cli.main(argv)`` call.  Its check runs after
the call, outside the timed region, and compares the files the call wrote
against ``oracle`` computations or required properties; it returns None, or
a one-line reason the output is wrong.  References that depend only on the
inputs are computed once per run, on first use.
"""

import os
from dataclasses import dataclass, field

import numpy as np

import oracle as orc
from fixtures import xrange_spec

#: circle arc of every bp operation
BP_ARC = (0.4, 2.0)
ARC = f"{BP_ARC[0]}:{BP_ARC[1]}"

SUBCOMMANDS = ("transfer", "disks", "gauge", "type", "schur",
               "reflectionless", "bp", "riccati")

#: end-to-end metric name and work unit of each subcommand
RATE_METRICS = {
    "transfer": ("transfer_cells_per_s", "cells/s"),
    "disks": ("disks_cells_per_s", "cells/s"),
    "gauge": ("gauge_cells_per_s", "cells/s"),
    "type": ("type_evals_per_s", "evals/s"),
    "schur": ("schur_points_per_s", "points/s"),
    "reflectionless": ("reflectionless_points_per_s", "points/s"),
    "bp": ("bp_points_per_s", "points/s"),
    "riccati": ("riccati_samples_per_s", "samples/s"),
}


@dataclass
class Op:
    """One CLI invocation with its check and its work count."""

    name: str
    subcommand: str
    argv: list
    output: str
    check: object
    work: object
    extra_outputs: list = field(default_factory=list)

    def rows(self):
        """Data rows written: CSV rows, or 1 for a JSON report."""
        if self.output.endswith(".json"):
            return 1.0
        return float(len(orc.read_csv(self.output)[1]))


def rows(op):
    return op.rows()


def one(op):
    return 1.0


def bp_points(op):
    cols = orc.table(op.output)
    return float(np.sum(cols["n_points"]))


def expected_zgrid(spec):
    """Spectral grid of a spec, computed here (linear and single tokens)."""
    parts = spec.split(":")
    if len(parts) == 1:
        return np.array([1j if spec == "i" else complex(*map(float, spec.split(",")))])
    z1, z2 = (complex(*map(float, p.split(","))) for p in parts[:2])
    return np.linspace(z1, z2, int(parts[2]))


def expected_lgrid(spec):
    start, stop, step = map(float, spec.split(":"))
    n = int(np.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(n)


def grid_shape_problem(z, l, zs, ls):
    if z.size != zs.size * ls.size:
        return f"{z.size} cells written, expected {zs.size * ls.size}"
    zz = np.repeat(zs, ls.size)
    ll = np.tile(ls, zs.size)
    if np.max(np.abs(z - zz)) > 1e-12 or np.max(np.abs(l - ll)) > 1e-12:
        return "cells are not the requested (z, l) grid in row order"
    return None


def cells_off(t, ref, zs, ls, tol, what):
    """None when every cell is within tol of ref, relative to max(1, |ref|)."""
    err = np.max(np.abs(t - ref), axis=(1, 2)) / np.maximum(1.0, np.max(np.abs(ref), axis=(1, 2)))
    k = int(np.argmax(err))
    if err[k] > tol:
        return (f"cell (z={zs[k // ls.size]}, l={ls[k % ls.size]}) is {err[k]:.2e} "
                f"off {what}")
    return None


# ---------------------------------------------------------------------------
# checks


class Checks:
    """Check factories bound to one run's fixtures."""

    def __init__(self, fx):
        self.fx = fx
        self.memo = {}

    def once(self, key, compute):
        """References depend on the inputs only: compute each once per run."""
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def family(self, name, zs, ls):
        """Reference scaled transfer matrices over the (z, l) grid, stacked:
        (M[nz, nl, 2, 2], c[nz, nl]) with T = exp(c) M."""
        def compute():
            s = self.fx.systems[name]
            prefix = orc.disk_prefix if hasattr(s, "a") else orc.general_prefix
            cells = [prefix(complex(z), s, tuple(ls)) for z in zs]
            return (np.array([[m for m, _ in row] for row in cells]),
                    np.array([[c for _, c in row] for row in cells]))
        return self.once(("family", name, tuple(zs), tuple(ls)), compute)

    def schur_ref(self, name, z):
        return self.once(("schur", name, z),
                         lambda: orc.schur_value(z, self.fx.systems[name]))

    def schur_pair(self, name, z, side):
        pair = self.fx.systems[name]
        p = pair.right if side == "right" else orc.reflect_conj(pair.left)
        return self.once(("pair", name, z, side), lambda: orc.schur_value(z, p))

    def transfer(self, name, zspec, lspec):
        zs, ls = expected_zgrid(zspec), expected_lgrid(lspec)

        def check(op):
            z, l, t = orc.family_matrices(orc.table(op.output))
            bad = grid_shape_problem(z, l, zs, ls)
            if bad:
                return bad
            det = t[:, 0, 0] * t[:, 1, 1] - t[:, 0, 1] * t[:, 1, 0]
            scale = np.maximum(1.0, np.sum(np.abs(t) ** 2, axis=(1, 2)))
            worst = float(np.max(np.abs(det - 1.0) / scale))
            if worst > 1e-12:
                return f"|det - 1| / |M|^2 reaches {worst:.2e}"
            m, c = self.family(name, zs, ls)
            ref = (np.exp(c)[..., None, None] * m).reshape(-1, 2, 2)
            return cells_off(t, ref, zs, ls, 1e-9, "the expm product")
        return check

    def disks(self, name, zspec, lspec):
        zs, ls = expected_zgrid(zspec), expected_lgrid(lspec)
        p = self.fx.systems[name]

        def check(op):
            cols = orc.table(op.output)
            z = cols["z_re"] + 1j * cols["z_im"]
            bad = grid_shape_problem(z, cols["l"], zs, ls)
            if bad:
                return bad
            cen = (cols["center_re"] + 1j * cols["center_im"]).reshape(zs.size, ls.size)
            rad = cols["radius"].reshape(zs.size, ls.size)
            nest = np.abs(np.diff(cen, axis=1)) - (rad[:, :-1] - rad[:, 1:])
            if np.max(nest, initial=0.0) > 1e-10:
                return f"disks fail to nest along l by {float(np.max(nest)):.2e}"
            for i in np.nonzero(np.abs(zs - 1j) < 1e-15)[0]:
                for k, (kap, mu) in enumerate(orc.kappa_mu(p, ls)):
                    if abs(cen[i, k] - kap) > 1e-10 or \
                            abs(rad[i, k] - np.exp(-2 * mu)) > 1e-10 * np.exp(-2 * mu):
                        return f"disk at (z=i, l={ls[k]}) is not (kappa, e^-2mu)"
            m, c = self.family(name, zs, ls)
            centre, log_r = orc.disk_of(m, c)
            off = np.abs(cen - centre)
            with np.errstate(divide="ignore"):
                r_off = np.where(rad > 0, np.abs(np.log(rad) - log_r),
                                 np.where(log_r < -700, 0.0, np.inf))
            if np.max(off) > 1e-8 or np.max(r_off) > 1e-8:
                i, k = np.unravel_index(np.argmax(off + r_off), off.shape)
                return (f"disk at (z={zs[i]}, l={ls[k]}) off the expm product by "
                        f"{off[i, k]:.2e}, log radius by {r_off[i, k]:.2e}")
            return None
        return check

    def gauge_arov(self, name, zspec, lspec, params_out):
        zs = np.concatenate(([1j], expected_zgrid(zspec)))
        ls = expected_lgrid(lspec)
        p = self.fx.systems[name]

        def check(op):
            z, l, t = orc.family_matrices(orc.table(op.output))
            bad = grid_shape_problem(z, l, zs, ls)
            if bad:
                return bad
            col = t[: ls.size]
            if np.max(np.abs(col[:, 0, 1])) > 1e-10 or np.min(col[:, 0, 0].real) <= 0:
                return "z = i column is not lower triangular with positive diagonal"
            rec = orc.read_json(params_out)
            m_err = np.max(np.abs(np.array(rec["m"]) - p.m) / np.maximum(1.0, p.m))
            a_rec = np.array([complex(*v) for v in rec["a"]])
            a_err = np.max(np.abs(a_rec - p.a))
            if np.max(np.abs(np.array(rec["grid"]) - p.grid)) > 1e-12 or \
                    m_err > 1e-7 or a_err > 1e-7:
                return f"recovered (m, a) off the file by {m_err:.2e}, {a_err:.2e}"
            m, c = self.family(name, zs, ls)
            raw = np.exp(c)[..., None, None] * m
            # the SU(1,1) factor making T(i, l) lower triangular with
            # positive diagonal, from its first row (a, b)
            a_, b_ = raw[0, :, 0, 0], raw[0, :, 0, 1]
            u = np.empty((ls.size, 2, 2), dtype=complex)
            u[:, 0, 0], u[:, 0, 1] = np.conj(a_), -b_
            u[:, 1, 0], u[:, 1, 1] = -np.conj(b_), a_
            u /= np.sqrt(np.abs(a_) ** 2 - np.abs(b_) ** 2)[:, None, None]
            ref = (raw @ u[None]).reshape(-1, 2, 2)
            return cells_off(t, ref, zs, ls, 1e-9, "the Arov-gauged expm product")
        return check

    def gauge_pdb(self, name, zspec, lspec):
        zs = np.concatenate(([0j], expected_zgrid(zspec)))
        ls = expected_lgrid(lspec)

        def check(op):
            z, l, t = orc.family_matrices(orc.table(op.output))
            bad = grid_shape_problem(z, l, zs, ls)
            if bad:
                return bad
            if np.max(np.abs(t[: ls.size] - np.eye(2))) > 1e-9:
                return "z = 0 column is not the identity"
            m, c = self.family(name, zs, ls)
            raw = np.exp(c)[..., None, None] * m
            ref = (raw @ np.linalg.inv(raw[0])[None]).reshape(-1, 2, 2)
            return cells_off(t, ref, zs, ls, 1e-8, "the pdb-gauged expm product")
        return check

    def type_(self, name, l):
        s = self.fx.systems[name]
        if hasattr(s, "a"):
            want = orc.type_integral(s, l)
        else:
            want = orc.general_type_integral(s, l)

        def check(op):
            rep = orc.read_json(op.output)
            si, sn = rep["sigma_integral"], rep["sigma_numeric"]
            if abs(si - want) > 1e-9 * max(1.0, want):
                return f"sigma_integral {si} differs from the sum {want}"
            if abs(sn - si) > 1e-2 * max(1.0, si):
                return f"faces differ: numeric {sn} vs integral {si}"
            return None
        return check

    def schur(self, name, zspec, tol=1e-7):
        zs = expected_zgrid(zspec)

        def check(op):
            cols = orc.table(op.output)
            z = cols["z_re"] + 1j * cols["z_im"]
            if z.size != zs.size or np.max(np.abs(z - zs)) > 1e-12:
                return "rows are not the requested z grid"
            s = cols["s_re"] + 1j * cols["s_im"]
            for zi, si in zip(zs, s):
                want = self.schur_ref(name, complex(zi))
                if abs(si - want) > tol:
                    return f"s+({zi}) off the closed form by {abs(si - want):.2e}"
            return None
        return check

    def riccati(self, name, z, s0, lspec, expect_escape):
        ls = expected_lgrid(lspec)
        p = self.fx.systems[name]

        def check(op):
            cols = orc.table(op.output)
            n = cols["l"].size
            status = list(cols["status"])
            s = cols["s_re"] + 1j * cols["s_im"]
            if np.max(np.abs(cols["l"] - ls[:n])) > 1e-12:
                return "rows are not the requested length grid"
            start = s[0]
            if s0 == "auto":
                want = self.schur_ref(name, z)
                if abs(start - want) > 1e-7:
                    return f"auto s0 off the closed form by {abs(start - want):.2e}"
            elif abs(start - s0) > 1e-15:
                return "first row is not s0"
            m, _ = self.family(name, [z], ls)
            for k in range(n):
                ref = orc.mobius(start, m[0, k])
                if status[k] == "ok":
                    if abs(s[k] - ref) > 1e-7:
                        return (f"row l={ls[k]} off the Moebius image by "
                                f"{abs(s[k] - ref):.2e}")
                elif status[k] != "escaped" or k != n - 1 or abs(ref) <= 1.0:
                    return (f"row l={ls[k]} has status {status[k]} "
                            f"(image |s| = {abs(ref):.6f})")
            escaped = status[-1] == "escaped"
            if escaped != expect_escape:
                return f"trajectory escaped = {escaped}, expected {expect_escape}"
            if not escaped and n != ls.size:
                return "trajectory stopped early"
            return None
        return check

    def reflectionless(self, name, xspec, eps, matched, last_max=None, first_min=None):
        xs = expected_lgrid(xspec)

        def check(op):
            cols = orc.table(op.output)
            if cols["x"].size != xs.size * len(eps) or \
                    np.max(np.abs(cols["x"] - np.tile(xs, len(eps)))) > 1e-12 or \
                    np.any(cols["eps"] != np.repeat(eps, xs.size)):
                return "rows are not the requested (eps, x) grid"
            ok = cols["ok"] > 0
            band = ok & (cols["ac"] > 0)
            for x, e, sp, sm, good in zip(cols["x"], cols["eps"],
                                          cols["sp_re"] + 1j * cols["sp_im"],
                                          cols["sm_re"] + 1j * cols["sm_im"], ok):
                if not good:
                    continue
                z = complex(x, e)
                want_p = self.schur_pair(name, z, "right")
                want_m = (z - 1j) / (z + 1j) * self.schur_pair(name, z, "left")
                if abs(sp - want_p) > 1e-6 or abs(sm - want_m) > 1e-6:
                    return f"boundary values at x={x}, eps={e} off the closed form"
            worst = []
            for e in eps:
                sel = band & (cols["eps"] == e)
                if not sel.any():
                    return f"no a.c. band point at eps={e}"
                worst.append((float(np.max(cols["defect"][sel])),
                              float(np.min(cols["defect"][sel]))))
            if matched:
                falls = all(b[0] <= a[0] for a, b in zip(worst, worst[1:]))
                if not falls or worst[-1][0] > last_max:
                    return (f"matched defect does not fall to {last_max}: "
                            f"{[w[0] for w in worst]}")
            elif worst[-1][1] < first_min:
                return f"control defect reaches {worst[-1][1]:.2e} < {first_min}"
            return None
        return check

    def bp(self, name, band, x_step, ladder, eps, matched):
        def check(op):
            cols = orc.table(op.output)
            if cols["l"].size != len(ladder) or np.any(cols["l"] != ladder):
                return "rows are not the requested length ladder"
            ref = self.once(("bp", name, band, x_step, ladder, eps), lambda: orc.bp_defects(
                self.fx.systems[name], *band, x_step, BP_ARC, ladder, eps))
            for l, d, n_ex, (want, want_ex) in zip(ladder, cols["defect"],
                                                   cols["n_excluded"], ref):
                if n_ex != want_ex or abs(d - want) > 1e-7:
                    return (f"defect at l={l} is {d} ({n_ex} excluded), the quadrature "
                            f"gives {want} ({want_ex} excluded)")
            d = np.abs(cols["defect"])
            if matched:
                if np.any(cols["n_excluded"] > 0) or np.max(d) > eps:
                    return f"matched defects {d.tolist()} not O(eps) or points excluded"
            elif np.max(d) < 50 * eps:
                # the mismatched defect oscillates along the ladder; its
                # largest value stays far from the matched O(eps) level
                return f"mismatched defects {d.tolist()} stay near 0"
            return None
        return check


# ---------------------------------------------------------------------------
# operation lists


def _op(ops, workdir, name, argv, check, work, ext="csv", extra=()):
    out = os.path.join(workdir, f"out_{name.replace('/', '_')}.{ext}")
    ops.append(Op(name, argv[0], argv + ["--output", out], out, check, work,
                  list(extra)))


def long_systems(fx):
    ck = Checks(fx)
    P, W = fx.paths, fx.workdir
    ops = []
    z, l = "0.5,0.3", "0:12.5:0.625"
    _op(ops, W, "transfer/long_const",
        ["transfer", "--input", P["long_const"], f"--zgrid={z}", f"--lgrid={l}",
         "--threads", "1"], ck.transfer("long_const", z, l), rows)
    z, l = "-1,0.05:1,0.6:4", "0:20:1"
    _op(ops, W, "transfer/long_periodic",
        ["transfer", "--input", P["long_periodic"], f"--zgrid={z}", f"--lgrid={l}",
         "--threads", "1"], ck.transfer("long_periodic", z, l), rows)
    z, l = "-1,0.05:1,1.0:4", "0:3:0.3"
    _op(ops, W, "disks/long_periodic",
        ["disks", "--input", P["long_periodic"], f"--zgrid={z}", f"--lgrid={l}",
         "--threads", "2"], ck.disks("long_periodic", z, l), rows)
    z, l = "i", "0:20:2"
    _op(ops, W, "disks/long_periodic_i",
        ["disks", "--input", P["long_periodic"], f"--zgrid={z}", f"--lgrid={l}",
         "--threads", "2"], ck.disks("long_periodic", z, l), rows)
    z, l = "0.5,0.3:1.5,1.0:2", "0:10:0.01"
    rec = os.path.join(W, "recovered_long_gauge.json")
    _op(ops, W, "gauge/long_gauge",
        ["gauge", "--input", P["long_gauge"], "--to", "arov", f"--zgrid={z}",
         f"--lgrid={l}", "--params-out", rec],
        ck.gauge_arov("long_gauge", z, l, rec), rows, extra=[rec])
    z, l = "-1,0.1:1,1.0:2", "0:6:0.3"
    _op(ops, W, "gauge/schroedinger",
        ["gauge", "--input", P["schroedinger"], "--to", "pdb", f"--zgrid={z}",
         f"--lgrid={l}"], ck.gauge_pdb("schroedinger", z, l), rows)
    for name, lval in (("long_const", 1.0), ("long_periodic", 8.0),
                       ("long_general", 6.0)):
        _op(ops, W, f"type/{name}",
            ["type", "--input", P[name], "--l", str(lval)],
            ck.type_(name, lval), one, ext="json")
    z = "-1,0.05:1,0.5:2"
    _op(ops, W, "schur/long_head",
        ["schur", "--input", P["long_head"], f"--zgrid={z}"],
        ck.schur("long_head", z), rows)
    l = "0:10:2"
    for tag, z in (("a", 0.5 + 0.7j), ("b", -0.4 + 0.6j)):
        _op(ops, W, f"riccati/long_head_{tag}",
            ["riccati", "--input", P["long_head"], f"--z={z.real},{z.imag}",
             "--s0", "auto", f"--lgrid={l}"],
            ck.riccati("long_head", z, "auto", l, False), rows)
    lo, hi = fx.grids["long_refl_band"]
    xs, x0, dx = xrange_spec(lo, hi, 2)
    _op(ops, W, "reflectionless/long_refl",
        ["reflectionless", "--input", P["long_refl"], f"--xgrid={xs}",
         "--eps", "1e-1,1e-2"],
        ck.reflectionless("long_refl", xs, (1e-1, 1e-2), True, last_max=1e-1), rows)
    for eps, ladder in ((1e-2, (1, 2)), (1e-1, (1, 2, 4))):
        _op(ops, W, f"bp/long_refl_{eps:g}",
            ["bp", "--input", P["long_refl"], "--e", f"{x0},{x0 + dx}",
             "--arc", ARC, "--lladder", ",".join(map(str, ladder)),
             "--xstep", str(dx), "--eps", str(eps)],
            ck.bp("long_refl", (x0, x0 + dx), dx, ladder, eps, True), bp_points)
    return ops


def near_axis(fx):
    ck = Checks(fx)
    P, W = fx.paths, fx.workdir
    ops = []
    for name in ("short_const", "short_periodic"):
        for im in ("1e-4", "1e-2"):
            z = f"0.2,{im}:2.0,{im}:5"
            _op(ops, W, f"schur/{name}_{im}",
                ["schur", "--input", P[name], f"--zgrid={z}"], ck.schur(name, z), rows)
    lo, hi = fx.grids["refl_band"]
    xs, _, _ = xrange_spec(lo, hi, 3)
    ladder = (1e-2, 1e-3, 1e-4)
    eps = "1e-2,1e-3,1e-4"
    _op(ops, W, "reflectionless/refl_periodic",
        ["reflectionless", "--input", P["refl_periodic"], f"--xgrid={xs}", "--eps", eps],
        ck.reflectionless("refl_periodic", xs, ladder, True, last_max=1e-3), rows)
    _op(ops, W, "reflectionless/refl_periodic_conj",
        ["reflectionless", "--input", P["refl_periodic_conj"], f"--xgrid={xs}",
         "--eps", eps],
        ck.reflectionless("refl_periodic_conj", xs, ladder, False, first_min=1e-2), rows)
    _op(ops, W, "reflectionless/const_matched",
        ["reflectionless", "--input", P["const_matched"], "--xgrid=0.8:1.6:0.1",
         "--eps", eps],
        ck.reflectionless("const_matched", "0.8:1.6:0.1", ladder, True, last_max=1e-3),
        rows)
    _op(ops, W, "reflectionless/const_mismatched",
        ["reflectionless", "--input", P["const_mismatched"], "--xgrid=1.5:2.0:0.1",
         "--eps", eps],
        ck.reflectionless("const_mismatched", "1.5:2.0:0.1", ladder, False,
                          first_min=1e-1), rows)
    # negative a.c. band of the matched constant pair; x ranges are parsed as
    # length grids today, which refuse negative values (exit 2)
    _op(ops, W, "reflectionless/const_matched_negative",
        ["reflectionless", "--input", P["const_matched"], "--xgrid=-1.5:-0.9:0.1",
         "--eps", eps],
        ck.reflectionless("const_matched", "-1.5:-0.9:0.1", ladder, True, last_max=1e-3),
        rows)
    bp = ["--arc", ARC, "--lladder", "1,2,4,8,16", "--xstep", "0.02",
          "--eps", "1e-3"]
    ladder = (1, 2, 4, 8, 16)
    _, x0, dx = xrange_spec(lo, hi, 3)
    for name, band, matched in (("const_matched", (0.8, 1.6), True),
                                ("const_mismatched", (1.5, 2.0), False),
                                ("refl_periodic", (x0, x0 + 2 * dx), True)):
        _op(ops, W, f"bp/{name}",
            ["bp", "--input", P[name], "--e", f"{band[0]},{band[1]}"] + bp,
            ck.bp(name, band, 0.02, ladder, 1e-3, matched), bp_points)
    l = "0:5:0.5"
    _op(ops, W, "riccati/short_const_auto",
        ["riccati", "--input", P["short_const"], "--z", "1.0,0.001", "--s0", "auto",
         f"--lgrid={l}"], ck.riccati("short_const", 1.0 + 0.001j, "auto", l, False), rows)
    l = "0:10:0.25"
    for tag, s0 in (("a", 0.5 + 0.2j), ("b", -0.6 + 0.1j)):
        _op(ops, W, f"riccati/const_half_escape_{tag}",
            ["riccati", "--input", P["const_half"], "--z", "0.3,0.5",
             f"--s0={s0.real},{s0.imag}", f"--lgrid={l}"],
            ck.riccati("const_half", 0.3 + 0.5j, s0, l, True), rows)
    z, l = "-2,0.1:2,2:100", "0:12:0.6"
    _op(ops, W, "transfer/small_const",
        ["transfer", "--input", P["small_const"], f"--zgrid={z}", f"--lgrid={l}"],
        ck.transfer("small_const", z, l), rows)
    z, l = "-1,1:1,1:11", "0:20:1"
    _op(ops, W, "disks/small_periodic",
        ["disks", "--input", P["small_periodic"], f"--zgrid={z}", f"--lgrid={l}"],
        ck.disks("small_periodic", z, l), rows)
    z, l = "0.5,0.3:1.5,1.0:100", "0:2:0.05"
    rec = os.path.join(W, "recovered_small_gauge.json")
    _op(ops, W, "gauge/small_gauge",
        ["gauge", "--input", P["small_gauge"], "--to", "arov", f"--zgrid={z}",
         f"--lgrid={l}", "--params-out", rec],
        ck.gauge_arov("small_gauge", z, l, rec), rows, extra=[rec])
    z, l = "-1,0.1:1,1.0:20", "0:2:0.1"
    _op(ops, W, "gauge/small_schroedinger",
        ["gauge", "--input", P["small_schroedinger"], "--to", "pdb", f"--zgrid={z}",
         f"--lgrid={l}"], ck.gauge_pdb("small_schroedinger", z, l), rows)
    for name, lval in (("small_general", 2.0), ("small_const", 2.5), ("small_const", 10.0),
                       ("small_const", 40.0), ("small_periodic", 5.0),
                       ("small_periodic", 25.0), ("small_periodic", 100.0),
                       ("short_const", 5.0), ("short_const", 20.0),
                       ("short_periodic", 2.0), ("short_periodic", 20.0)):
        _op(ops, W, f"type/{name}_l{lval:g}",
            ["type", "--input", P[name], "--l", str(lval)],
            ck.type_(name, lval), one, ext="json")
    return ops


WORKLOADS = {"long_systems": long_systems, "near_axis": near_axis}

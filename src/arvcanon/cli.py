"""Command-line driver.

Subcommands: transfer, disks, schur, riccati, type, reflectionless, bp,
gauge.  Coefficient files are the JSON schemas documented in
``coefficients``; outputs are CSV tables (17 significant digits, stable row
order, a header comment carrying the config hash) or JSON reports.  Exit
codes: 0 ok, 1 any other library error or a standard output closed by its
reader (silently), 2 parse, 3 validation.  Grids are
computed by the vectorised propagation kernel in one thread, ``riccati``
solves the stripping flow exactly and ``schur`` closes every value with the
tail; ``--threads`` is accepted but changes nothing.
"""

import argparse
import contextlib
import hashlib
import json
import os
import sys

import numpy as np

from . import coefficients as coeff
from . import propagate as prop
from . import riccati as ric
from . import spectral as spec
from . import weyl
from .errors import (ArvcanonError, CoefficientError, DomainError, GaugeError,
                     InconsistencyError, InputError, ParseError,
                     PreconditionError)

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3

_VALIDATION_ERRORS = (InputError, CoefficientError, PreconditionError,
                      DomainError, GaugeError, InconsistencyError)

UNITS = "z:spectral(dimensionless) l:system-length"


def _fmt(x):
    return format(float(x), ".17g")


def _parse_z(tok):
    tok = tok.strip()
    if tok in ("i", "1i", "j"):
        return 1j
    try:
        re_s, im_s = tok.split(",") if "," in tok else (tok, 0.0)
        z = complex(float(re_s), float(im_s))
    except ValueError:
        raise ParseError(f"cannot parse spectral point {tok!r}")
    if not np.isfinite(z):
        raise ParseError(f"spectral point {tok!r} is not finite")
    return z


def parse_zgrid(specstr):
    """Grid specs: single token; linear 're1,im1:re2,im2:n'; imaginary-axis
    log grid 'iy:y1:y2:n:log'."""
    parts = specstr.split(":")
    if parts[0] == "iy":
        try:
            y1, y2, n = float(parts[1]), float(parts[2]), int(parts[3])
            if len(parts) == 5 and parts[4] == "log" and 0 < y1 < y2 < np.inf and n >= 2:
                return 1j * np.geomspace(y1, y2, n)
        except (ValueError, IndexError):
            pass
        raise ParseError(f"bad imaginary-axis grid spec {specstr!r}")
    if len(parts) == 1:
        return np.array([_parse_z(parts[0])])
    if len(parts) == 3:
        z1, z2 = _parse_z(parts[0]), _parse_z(parts[1])
        try:
            n = int(parts[2])
        except ValueError:
            raise ParseError(f"bad grid count in {specstr!r}")
        if n < 1:
            raise ParseError("grid must be nonempty")
        return np.linspace(z1, z2, n)
    raise ParseError(f"bad spectral grid spec {specstr!r}")


def parse_lgrid(specstr, signed=False):
    """Length grids: single value or 'start:stop:step' (step > 0,
    stop >= start), nonnegative unless signed."""
    try:
        vals = [float(v) for v in specstr.split(":")]
    except ValueError:
        raise ParseError(f"bad grid spec {specstr!r}")
    if len(vals) in (1, 3) and all(np.isfinite(vals)) and (signed or min(vals) >= 0):
        if len(vals) == 1:
            return np.array(vals)
        start, stop, step = vals
        if step > 0 and stop >= start:
            return start + step * np.arange(int(np.floor((stop - start) / step + 1e-9)) + 1)
    raise ParseError(f"bad grid spec {specstr!r}")


def parse_xgrid(specstr):
    """Real-axis grids: parse_lgrid with signed values (write
    ``--xgrid=-1.5:-0.9:0.1`` so the leading '-' is not read as an option)."""
    return parse_lgrid(specstr, signed=True)


_HASH_EXCLUDED = ("func", "output", "summary", "params_out", "threads")


def _config_hash(ns):
    """Hash of the semantic configuration: identical computations get the
    same hash regardless of output destination or parallelism degree."""
    payload = {k: repr(v) for k, v in sorted(vars(ns).items())
               if k not in _HASH_EXCLUDED}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]


def _open_output(path):
    """The output file, or stdout for no path or '-'."""
    return contextlib.nullcontext(sys.stdout) if path in (None, "-") else open(path, "w")


def _write_table(path, columns, rows, cfg):
    """Write the CSV line by line, so no copy of the whole text is held."""
    lines = (",".join(_fmt(v) if not isinstance(v, str) else v for v in row) + "\n"
             for row in rows)
    with _open_output(path) as fh:
        fh.write(f"# arvcanon config={cfg} units={UNITS}\n" + ",".join(columns) + "\n")
        fh.writelines(lines)


def _write_json(path, payload):
    with _open_output(path) as fh:
        fh.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _load_single(ns):
    loaded = coeff.load_parameters(ns.input)
    if isinstance(loaded, tuple):
        raise InputError(f"{ns.input} is a full-line file; this command needs one half-line system")
    return loaded


def _load_fullline(ns):
    loaded = coeff.load_parameters(ns.input)
    if not isinstance(loaded, tuple):
        raise InputError(f"{ns.input} must be a full-line file with 'left' and 'right' halves")
    if not all(isinstance(half, coeff.ArovParameters) for half in loaded):
        raise InputError("full-line commands need disk-gauge halves")
    return loaded


# ---------------------------------------------------------------------------
# subcommands


def _cmd_transfer(ns):
    system = _load_single(ns)
    zs = parse_zgrid(ns.zgrid)
    ls = parse_lgrid(ns.lgrid)
    values = prop.materialize(*prop.transfer_grid(system, zs, ls), "transfer")
    fam = prop.TransferFamily(zs, ls, values, prop.GAUGE_RAW)
    _write_table(ns.output, prop.FAMILY_CSV_COLUMNS, prop.family_csv_rows(fam),
                 _config_hash(ns))
    return EXIT_OK


def _cmd_disks(ns):
    system = _load_single(ns)
    zs = parse_zgrid(ns.zgrid)
    ls = parse_lgrid(ns.lgrid)
    centers, radii = weyl.disks_grid(system, zs, ls)
    rows = ((z.real, z.imag, l, centers[i, k].real, centers[i, k].imag, radii[i, k])
            for i, z in enumerate(zs) for k, l in enumerate(ls))
    _write_table(ns.output,
                 ("z_re", "z_im", "l", "center_re", "center_im", "radius"),
                 rows, _config_hash(ns))
    return EXIT_OK


def _cmd_schur(ns):
    loaded = coeff.load_parameters(ns.input)
    zs = parse_zgrid(ns.zgrid)
    p_left, p_right = loaded if isinstance(loaded, tuple) else (loaded, loaded)
    if ns.side == "minus":
        s, radius, l_stop = weyl.schur_minus_grid(zs, p_left, ns.tol)
    else:
        s, radius, l_stop = weyl.schur_grid(zs, p_right, ns.tol)
    _write_table(ns.output,
                 ("z_re", "z_im", "s_re", "s_im", "residual_radius", "l_stop"),
                 zip(zs.real, zs.imag, s.real, s.imag, radius, l_stop), _config_hash(ns))
    return EXIT_OK


def _cmd_riccati(ns):
    system = _load_single(ns)
    z = _parse_z(ns.z)
    ls = parse_lgrid(ns.lgrid)
    s0 = weyl.schur_plus(z, system, tol=ns.tol).value if ns.s0 == "auto" else _parse_z(ns.s0)
    # an escaped last row keeps its requested l and holds the escape point
    rows = ((z.real, z.imag, l, state.s.real, state.s.imag, state.status)
            for l, state in zip(ls, ric.riccati_trajectory(z, s0, system, ls)))
    _write_table(ns.output,
                 ("z_re", "z_im", "l", "s_re", "s_im", "status"),
                 rows, _config_hash(ns))
    return EXIT_OK


def _cmd_type(ns):
    system = _load_single(ns)
    report = spec.type_report(system, ns.l)
    if ns.format == "csv":
        _write_table(ns.output,
                     ("l", "sigma_integral", "sigma_numeric", "rel_gap"),
                     [(ns.l, report.sigma_integral, report.sigma_numeric,
                       report.rel_gap)],
                     _config_hash(ns))
    else:
        _write_json(ns.output, {
            "l": ns.l,
            "sigma_integral": report.sigma_integral,
            "sigma_numeric": report.sigma_numeric,
            "rel_gap": report.rel_gap,
            "y_samples": list(report.ys),
            "config": _config_hash(ns),
        })
    return EXIT_OK


def _cmd_reflectionless(ns):
    p_left, p_right = _load_fullline(ns)
    xs = parse_xgrid(ns.xgrid)
    try:
        ladder = tuple(float(e) for e in ns.eps.split(","))
    except ValueError:
        raise ParseError(f"bad eps ladder {ns.eps!r}")
    reports = spec.reflectionless_ladder(p_left, p_right, xs, ladder,
                                         delta=ns.delta, tol=ns.tol)
    rows = ((x, rep.eps, rep.s_plus[i].real, rep.s_plus[i].imag,
             rep.s_minus[i].real, rep.s_minus[i].imag,
             rep.defect[i], float(rep.ac[i]), float(rep.ok[i]))
            for rep in reports for i, x in enumerate(rep.xs))
    _write_table(ns.output,
                 ("x", "eps", "sp_re", "sp_im", "sm_re", "sm_im",
                  "defect", "ac", "ok"),
                 rows, _config_hash(ns))
    if ns.summary:
        max_def = []
        for rep in reports:
            max_def.append(float(np.max(rep.defect[rep.ac])) if rep.ac.any() else None)
        trend = all(
            a is not None and b is not None and b <= a
            for a, b in zip(max_def, max_def[1:])
        )
        _write_json(ns.summary, {
            "eps_ladder": list(ladder),
            "max_defect_on_ac_band": max_def,
            "defect_decreasing": trend,
            "config": _config_hash(ns),
        })
    return EXIT_OK


def _cmd_bp(ns):
    p_left, p_right = _load_fullline(ns)
    try:
        intervals = [
            tuple(float(v) for v in piece.split(","))
            for piece in ns.e.split(";")
        ]
        t1, t2 = (float(v) for v in ns.arc.split(":"))
        l_values = tuple(float(v) for v in ns.lladder.split(","))
    except ValueError:
        raise ParseError("bad --e / --arc / --lladder spec")
    if any(len(iv) != 2 for iv in intervals):
        raise ParseError("band intervals must be 'lo,hi' pairs")
    report = spec.bp_defect(p_left, p_right, intervals, (t1, t2), l_values,
                            ns.xstep, ns.eps, tol=ns.tol)
    rows = [
        (l, report.defects[j], float(report.n_points), float(report.n_excluded[j]))
        for j, l in enumerate(report.l_values)
    ]
    _write_table(ns.output, ("l", "defect", "n_points", "n_excluded"),
                 rows, _config_hash(ns))
    return EXIT_OK


def _cmd_gauge(ns):
    system = _load_single(ns)
    zs = parse_zgrid(ns.zgrid)
    ls = parse_lgrid(ns.lgrid)
    if ns.params_out:
        if ns.to != "arov":
            raise InputError("--params-out needs --to arov")
        if not np.any(ls == 0.0):
            raise InputError("--params-out needs the length grid to start at 0")
    anchor = 1j if ns.to == "arov" else 0j
    if not np.any(np.abs(zs - anchor) <= 1e-12):
        zs = np.concatenate(([anchor], zs))
    fam = prop.transfer_family(system, zs, ls)
    if ns.to == "arov":
        out, _ = prop.to_arov_gauge(fam)
    else:
        out = prop.to_pdb_gauge(fam)
    _write_table(ns.output, prop.FAMILY_CSV_COLUMNS, prop.family_csv_rows(out),
                 _config_hash(ns))
    if ns.params_out:
        rec = prop.recover_parameters(out)
        payload = rec.params.to_dict()
        payload["kappa"] = [[k.real, k.imag] for k in rec.kappa]
        payload["mu"] = rec.mu.tolist()
        payload["config"] = _config_hash(ns)
        _write_json(ns.params_out, payload)
    return EXIT_OK


_ZGRID_HELP = ("point 're,im' or 'i', line 're1,im1:re2,im2:n' or 'iy:y1:y2:n:log'; "
               "write --zgrid=-2,0.5:2,0.5:3 for a leading '-'")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="arvcanon",
        description="Canonical systems in Arov gauge: propagation, Weyl disks, "
                    "Schur functions, Riccati flow, exponential type, "
                    "reflectionless diagnostics.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--input", required=True, help="coefficient JSON file")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; the computation is "
                            "vectorised and single-threaded")
        p.add_argument("--tol", type=float, default=weyl.SCHUR_TOL,
                       help="disk-shrinkage tolerance for Schur evaluation")
        return p

    for name, func, what in (("transfer", _cmd_transfer, "transfer matrices"),
                             ("disks", _cmd_disks, "Weyl disks")):
        p = command(name, func, f"{what} over a (z, l) grid")
        p.add_argument("--zgrid", required=True, help=_ZGRID_HELP)
        p.add_argument("--lgrid", required=True)

    p = command("schur", _cmd_schur, "half-line Schur function on a z grid")
    p.add_argument("--zgrid", required=True, help=_ZGRID_HELP)
    p.add_argument("--side", choices=("plus", "minus"), default="plus")

    p = command("riccati", _cmd_riccati, "stripping-flow trajectory")
    p.add_argument("--z", required=True,
                   help="spectral point 're,im' or 'i'; write --z=-0.4,0.6 for a leading '-'")
    p.add_argument("--s0", default="auto", help="'auto' or a complex token re,im")
    p.add_argument("--lgrid", required=True)

    p = command("type", _cmd_type, "exponential type, both faces")
    p.add_argument("--l", type=float, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = command("reflectionless", _cmd_reflectionless,
                "boundary-value defect on an eps ladder")
    p.add_argument("--xgrid", required=True)
    p.add_argument("--eps", default="1e-2,1e-3,1e-4", help="comma-separated ladder")
    p.add_argument("--delta", type=float, default=spec.AC_DELTA)
    p.add_argument("--summary", default=None, help="JSON trend summary path")

    p = command("bp", _cmd_bp, "harmonic-measure defect on a length ladder")
    p.add_argument("--e", required=True, help="band intervals 'lo,hi[;lo,hi...]'")
    p.add_argument("--arc", required=True, help="circle arc 't1:t2'")
    p.add_argument("--lladder", default="1,2,4,8")
    p.add_argument("--xstep", type=float, default=0.05)
    p.add_argument("--eps", type=float, default=1e-3)

    p = command("gauge", _cmd_gauge, "regauge a sampled family")
    p.add_argument("--to", choices=("arov", "pdb"), required=True)
    p.add_argument("--zgrid", required=True, help=_ZGRID_HELP)
    p.add_argument("--lgrid", required=True)
    p.add_argument("--params-out", default=None,
                   help="with --to arov: write recovered parameters JSON here")

    return ap


def run(ns):
    """Execute a parsed configuration; returns the exit status."""
    try:
        return ns.func(ns)
    except ParseError as exc:
        _emit_error(exc)
        return EXIT_PARSE
    except _VALIDATION_ERRORS as exc:
        _emit_error(exc)
        return EXIT_VALIDATION
    except ArvcanonError as exc:
        _emit_error(exc)
        return EXIT_COMPUTE
    except BrokenPipeError:
        # the reader closed stdout: the final flush goes to devnull, silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_COMPUTE


def _emit_error(exc):
    detail = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(json.dumps(detail) + "\n")


def main(argv=None):
    ns = build_parser().parse_args(argv)
    return run(ns)


if __name__ == "__main__":
    sys.exit(main())

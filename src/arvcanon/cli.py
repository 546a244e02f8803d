"""Command-line driver.

Subcommands: transfer, disks, schur, riccati, type, reflectionless, bp,
gauge.  Coefficient files are the JSON schemas documented in
``coefficients``; outputs are JSON reports or CSV tables (17 significant
digits, stable row order, a header comment carrying the config hash) whose
layout is decided here alone: the (z, l) grid tables (transfer, disks,
gauge) hand their z_re, z_im and l columns over as ``GridColumn``s,
distinct values and a row index.  A table is written in blocks of rows, the
bytes of format(x, ".17g") per number: one with a text column or fewer than
a few hundred numbers by one % operation a block, any other through
``decimals``' numpy converter, with each leading grid column's distinct
values converted once and gathered into every row.  The argument parser is
built on the first ``main`` call and reused by every later one in the
process (not at import).  Exit codes: 0 ok, 1 any other library error, an
output that cannot be opened, or a standard output closed by its reader
(silently), 2 parse, 3 validation.  Grids are computed by the vectorised
propagation kernel in one thread, ``schur`` certifies every value at
round-off (a disk below ``weyl.SCHUR_TOL``, or closed by the tail), and
``riccati`` either pulls the tail's value back to every row (``--s0 auto``:
the stripped Schur values, which never escape) or solves the stripping flow
exactly from an explicit s0.  No subcommand takes a tolerance; ``transfer``
and ``disks`` accept ``--threads``, which changes nothing and stays out of
the config hash.
"""
import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import os
import sys
from typing import NamedTuple

import numpy as np

from . import coefficients as coeff
from . import propagate as prop
from . import riccati as ric
from . import spectral as spec
from . import weyl
from .decimals import _BLOCK, _number_words
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
        except (IndexError, OverflowError, ValueError):
            pass
        raise ParseError(f"bad imaginary-axis grid spec {specstr!r}")
    if len(parts) == 1:
        return np.array([_parse_z(parts[0])])
    if len(parts) == 3:
        z1, z2 = _parse_z(parts[0]), _parse_z(parts[1])
        try:
            n = int(parts[2])
            if n >= 1:
                return np.linspace(z1, z2, n)
        except (OverflowError, ValueError):  # not an integer, or too large to index
            pass
        raise ParseError(f"bad grid count in {specstr!r}: not from 1 to what numpy can index")
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
            try:
                return start + step * np.arange(int(np.floor((stop - start) / step + 1e-9)) + 1)
            except (OverflowError, ValueError):
                raise ParseError(f"grid {specstr!r} is too large to index")
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


#: CSV rows formatted by one % operation
_ROWS = 512
#: all-numeric tables of at least this many numbers are converted in numpy
#: (below it the conversion's fixed cost per block outweighs what it saves)
_ARRAY_MIN = 360


class GridColumn(NamedTuple):
    """A table column given as its distinct values and, per row, the index
    of its value: the column is values[index].  The CSV writer converts
    each distinct value once instead of once a row."""

    values: np.ndarray
    index: np.ndarray


def grid_columns(zs, ls):
    """The (z_re, z_im, l) columns of a (z, l) grid, one row per (z, l) in C
    order, as GridColumns over the two axes."""
    nz, nl = zs.size, ls.size
    at_z = np.repeat(np.arange(nz), nl)
    return (GridColumn(zs.real, at_z), GridColumn(zs.imag, at_z),
            GridColumn(ls, np.tile(np.arange(nl), nz)))


def family_csv_columns(f):
    """The CSV columns (z_re, z_im, l, a11_re, a11_im, ..., a22_im, det_err),
    one row per (z, l) in C order: the grid's GridColumns, then views of the
    family's values and the determinant errors."""
    nz, nl = f.zs.size, f.ls.size
    entries = np.ascontiguousarray(f.values).reshape(nz * nl, 4).view(float)
    return (*grid_columns(f.zs, f.ls), *entries.T, f.det_errors().ravel())


FAMILY_CSV_COLUMNS = (
    "z_re", "z_im", "l",
    "a11_re", "a11_im", "a12_re", "a12_im",
    "a21_re", "a21_im", "a22_re", "a22_im",
    "det_err",
)


def _rows(column, lo, hi):
    """Rows lo to hi of a column: an array or a ``GridColumn``."""
    if isinstance(column, GridColumn):
        return column.values[column.index[lo:hi]]
    return column[lo:hi]


def _write_table(path, header, columns, cfg):
    """Write the CSV of equal-length columns, one per header name: arrays
    or ``GridColumn``s (distinct values and a row index); numbers as the
    bytes of format(x, ".17g"), strings as they are.  The text is written
    in blocks of rows and never held whole: an all-numeric table of
    _ARRAY_MIN numbers or more by ``_write_gathered``, converted in numpy
    about _BLOCK numbers a call, any other _ROWS rows at a time by one %
    operation, a row template times the block length filled from a (rows,
    columns) table of the block."""
    grid = [isinstance(c, GridColumn) for c in columns]
    columns = [c if g else np.asarray(c) for c, g in zip(columns, grid)]
    text = [not g and c.dtype.kind in "OSU" for c, g in zip(columns, grid)]
    n, k = len(columns[0].index if grid[0] else columns[0]), len(columns)
    head = f"# arvcanon config={cfg} units={UNITS}\n" + ",".join(header)
    with _open_output(path) as fh:
        if any(text) or n * k < _ARRAY_MIN:
            row = ",".join("%s" if t else "%.17g" for t in text) + "\n"
            fh.write(head + "\n")
            for lo in range(0, n, _ROWS):
                block = np.empty((min(_ROWS, n - lo), k), dtype=object if any(text) else float)
                for j, c in enumerate(columns):
                    block[:, j] = _rows(c, lo, lo + _ROWS)
                fh.write(row * len(block) % tuple(block.ravel().tolist()))
            return
        # every row of the numpy conversion starts with its line break
        fh.write(head)
        # the leading GridColumns (a (z, l) grid), all but the last column
        # at most, are gathered if their distinct values fit half a block
        lead = (grid[:-1] + [False]).index(False)
        if sum(c.values.size for c in columns[:lead]) > _BLOCK // 2:
            lead = 0
        _write_gathered(fh, n, columns[:lead], columns[lead:])
        fh.write("\n")


def _write_gathered(fh, n, grid, columns):
    """Write the n rows of a table, each led by its line break: ``columns``
    (arrays or GridColumns) converted a block at a time, one call a block,
    and the GridColumns ``grid`` gathered from the words of their distinct
    values, which the first block's call converts in extra rows it gives
    up (so it is no larger than the others).  No grid: _BLOCK // k rows."""
    g, ke = len(grid), len(columns)
    sizes = [c.values.size for c in grid]
    # a block holds a word array for every column, so it converts fewer
    # numbers than one with no grid: counting a grid word as half a number
    # keeps the writer's peak memory that of a table without one
    rows, lo = max(1, 2 * _BLOCK // (2 * ke + g)), 0
    extra = -(-sum(sizes) // ke)
    m = min(n, max(1, rows - extra))
    x = np.zeros((max(min(rows, n), m + extra), ke))
    if grid:
        np.concatenate([c.values for c in grid], out=x[m:m + extra].ravel()[:sum(sizes)])
    # the numbers that start a row: with a grid, the first grid column's
    # distinct values, and none after the first block
    starts = slice(0, 0 if grid else None, ke)
    first = slice(m * ke, m * ke + sizes[0]) if grid else starts
    while lo < n:
        for j, c in enumerate(columns):
            x[:m, j] = _rows(c, lo, lo + m)
        if lo:
            words = _number_words(x[:m], starts, g)
        else:
            words = _number_words(x[:m + extra], first, g)
            flat = words[m:, g:].reshape(-1, 4)[:sum(sizes)].view("V32")[:, 0]
            known = [flat[end - size:end] for size, end in zip(sizes, itertools.accumulate(sizes))]
        cells = words.view("V32")[..., 0]  # a number's four words as one 32-byte item
        for j, (c, w) in enumerate(zip(grid, known)):
            cells[:m, j] = w[c.index[lo:lo + m]]
        text = words[:m].view(np.uint8)
        fh.write(str(text[text != 0], "ascii"))
        del words, cells, text  # before the next block is converted
        lo += m
        m = min(rows, n - lo)


def _write_json(path, payload):
    with _open_output(path) as fh:
        coeff.write_json(payload, fh)


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
    _write_table(ns.output, FAMILY_CSV_COLUMNS, family_csv_columns(fam),
                 _config_hash(ns))
    return EXIT_OK


def _cmd_disks(ns):
    system = _load_single(ns)
    zs = parse_zgrid(ns.zgrid)
    ls = parse_lgrid(ns.lgrid)
    centers, radii = weyl.disks_grid(system, zs, ls)
    _write_table(ns.output,
                 ("z_re", "z_im", "l", "center_re", "center_im", "radius"),
                 (*grid_columns(zs, ls), centers.real.ravel(), centers.imag.ravel(),
                  radii.ravel()), _config_hash(ns))
    return EXIT_OK


def _cmd_schur(ns):
    loaded = coeff.load_parameters(ns.input)
    zs = parse_zgrid(ns.zgrid)
    p_left, p_right = loaded if isinstance(loaded, tuple) else (loaded, loaded)
    if ns.side == "minus":
        s, radius, l_stop = weyl.schur_minus_grid(zs, p_left)
    else:
        s, radius, l_stop = weyl.schur_grid(zs, p_right)
    _write_table(ns.output,
                 ("z_re", "z_im", "s_re", "s_im", "residual_radius", "l_stop"),
                 (zs.real, zs.imag, s.real, s.imag, radius, l_stop), _config_hash(ns))
    return EXIT_OK


def _cmd_riccati(ns):
    system = _load_single(ns)
    z = _parse_z(ns.z)
    ls = parse_lgrid(ns.lgrid)
    if ns.s0 == "auto":  # the stripped Schur values, pulled back: they never escape
        s = weyl.stripped_grid([z], system, ls)[0]
        status = np.full(s.size, ric.STATUS_OK)
    else:
        states = ric.riccati_trajectory(z, _parse_z(ns.s0), system, ls)
        s = np.array([state.s for state in states], dtype=complex)
        status = np.array([state.status for state in states], dtype=str)
    # an escaped last row keeps its requested l and holds the escape point
    _write_table(ns.output,
                 ("z_re", "z_im", "l", "s_re", "s_im", "status"),
                 (np.full(s.size, z.real), np.full(s.size, z.imag), ls[:s.size],
                  s.real, s.imag, status), _config_hash(ns))
    return EXIT_OK


def _cmd_type(ns):
    system = _load_single(ns)
    report = spec.type_report(system, ns.l)
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
    reports = spec.reflectionless_ladder(p_left, p_right, xs, ladder)
    columns = zip(*((rep.xs, np.full(rep.xs.size, rep.eps), rep.s_plus.real, rep.s_plus.imag,
                     rep.s_minus.real, rep.s_minus.imag, rep.defect, rep.ac, rep.ok)
                    for rep in reports))
    _write_table(ns.output,
                 ("x", "eps", "sp_re", "sp_im", "sm_re", "sm_im",
                  "defect", "ac", "ok"),
                 [np.concatenate(column) for column in columns], _config_hash(ns))
    if ns.summary:
        max_def = [float(np.max(rep.defect[rep.ac])) if rep.ac.any() else None
                   for rep in reports]
        trend = all(a is not None and b is not None and b <= a
                    for a, b in zip(max_def, max_def[1:]))
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
        intervals = [tuple(float(v) for v in piece.split(",")) for piece in ns.e.split(";")]
        t1, t2 = (float(v) for v in ns.arc.split(":"))
        l_values = tuple(float(v) for v in ns.lladder.split(","))
    except ValueError:
        raise ParseError("bad --e / --arc / --lladder spec")
    if any(len(iv) != 2 for iv in intervals):
        raise ParseError("band intervals must be 'lo,hi' pairs")
    report = spec.bp_defect(p_left, p_right, intervals, (t1, t2), l_values,
                            ns.xstep, ns.eps)
    _write_table(ns.output, ("l", "defect", "n_points", "n_excluded"),
                 (report.l_values, report.defects,
                  np.full(len(report.l_values), report.n_points), report.n_excluded),
                 _config_hash(ns))
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
    if not np.any(np.abs(zs - anchor) <= prop.Z_TOL):
        zs = np.concatenate(([anchor], zs))
    fam = prop.transfer_family(system, zs, ls)  # regauged in place
    if ns.to == "arov":
        out, _ = prop.to_arov_gauge(fam, fam.values)
    else:
        out = prop.to_pdb_gauge(fam, fam.values)
    _write_table(ns.output, FAMILY_CSV_COLUMNS, family_csv_columns(out),
                 _config_hash(ns))
    if ns.params_out:
        rec = prop.recover_parameters(out)
        _write_json(ns.params_out, {**rec.params._json_fields(), "kappa": coeff._pairs(rec.kappa),
                                    "mu": rec.mu, "config": _config_hash(ns)})
    return EXIT_OK


_ZGRID_HELP = ("point 're,im' or 'i', line 're1,im1:re2,im2:n' or 'iy:y1:y2:n:log'; "
               "write --zgrid=-2,0.5:2,0.5:3 for a leading '-'")


@functools.cache
def build_parser():
    """The command-line parser, built once per process on first use: building
    it costs about thirty times what parsing a command line does."""
    ap = argparse.ArgumentParser(
        prog="arvcanon",
        description="Canonical systems in Arov gauge: propagation, Weyl disks, "
                    "Schur functions, Riccati flow, exponential type, "
                    "reflectionless diagnostics.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        """A subcommand, with the --input and --output every one takes."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--input", required=True, help="coefficient JSON file")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        return p

    for name, func, what in (("transfer", _cmd_transfer, "transfer matrices"),
                             ("disks", _cmd_disks, "Weyl disks")):
        p = command(name, func, f"{what} over a (z, l) grid")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; the computation is "
                            "vectorised and single-threaded")
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

    p = command("reflectionless", _cmd_reflectionless,
                "boundary-value defect on an eps ladder")
    p.add_argument("--xgrid", required=True)
    p.add_argument("--eps", default="1e-2,1e-3,1e-4", help="comma-separated ladder")
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
    except OSError as exc:  # an output that cannot be opened or written
        _emit_error(exc)
        return EXIT_COMPUTE


def _emit_error(exc):
    detail = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(json.dumps(detail) + "\n")


def main(argv=None):
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

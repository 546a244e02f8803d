"""Command-line driver.

Subcommands: transfer, disks, schur, riccati, type, reflectionless, bp,
gauge.  Coefficient files are the JSON schemas documented in
``coefficients``; outputs are JSON reports or CSV tables (17 significant
digits, stable row order, a header comment carrying the config hash) whose
layout is decided here alone: the (z, l) grid tables (transfer, disks,
gauge) hand their z_re, z_im and l columns over as ``GridColumn``s,
distinct values and a row index.  A table is written in blocks of rows, the
bytes of format(x, ".17g") per number: one with a text column or fewer
than a few hundred numbers by one % operation a block, any other by one
numpy conversion path, about 4,096 numbers a call, with each leading grid
column's distinct values converted once and gathered into every row.  A
call costs about 0.1 ms whatever its size, and its working set (about
550 kB for a 12-column table) stays below the propagation kernel's for one
chunk of (z, piece) cells, so the writer does not set a command's peak
memory.  The argument parser is built on the first ``main`` call and reused
by every later one in the process (not at import).  Exit codes: 0 ok, 1 any
other library error, an output that cannot be opened, or a standard output
closed by its reader (silently), 2 parse, 3 validation.  Grids are computed
by the vectorised propagation kernel in one thread, ``schur`` certifies
every value at round-off (a disk below ``weyl.SCHUR_TOL``, or closed by the
tail), and ``riccati`` either pulls the tail's value back to every row
(``--s0 auto``: the stripped Schur values, which never escape) or solves
the stripping flow exactly from an explicit s0.  No subcommand takes a
tolerance; ``transfer`` and ``disks`` accept ``--threads``, which changes
nothing and stays out of the config hash.
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
#: numbers per block of the numpy conversion: a call costs about 0.1 ms
#: whatever its size, and a block's working set (about 550 kB in a 12-column
#: grid table) stays below that of one chunk of the propagation kernel
_BLOCK = 4096


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


#: decimal exponents the conversion tables cover: those of normal doubles,
#: [-308, 308], and a step past either end
_X_MIN, _X_MAX = -310, 310
#: Dekker's splitter for doubles, 2^27 + 1
_SPLIT = 134217729.0
_U8, _U16, _U32, _U56 = np.uint64(8), np.uint32(16), np.uint64(32), np.uint64(56)
#: the rows of ``significant`` for the four digit groups and the last digit
_GROUP_ROWS = 10000 * np.arange(5)[:, None]


def _decimal_layout(X):
    """Where %.17g puts the text of a number of decimal exponent X:
    (class, prefix, dot, forced).  The class is X + 4 for the positional
    forms (-4 <= X < 17) and 21 for scientific notation; the prefix is the
    '0.' and zeros before the digits of |x| < 1; dot is the count of digits
    before the dot, which is written when a nonzero digit follows it (99,
    never, for |x| < 1, whose dot is in the prefix); forced is the count of
    integer digits, which stay even when they are zeros."""
    if not -4 <= X < 17:
        return 21, "", 1, 0
    if X < 0:
        return X + 4, "0." + "0" * (-X - 1), 99, 0
    return X + 4, "", X + 1, X + 1


def _le_words(strings):
    """Each string's bytes, zero-padded to 8, as little-endian words."""
    return np.frombuffer(b"".join(s.encode().ljust(8, b"\0") for s in strings), "<u8")


@functools.cache
def _decimal_tables():
    """The tables of ``_number_words``, built once from Python integers on
    first use.

    - ``hi``, ``lo``, ``exp2`` at X: 10^(16 - X) = (hi + lo) 2^exp2 to
      2^-116 of itself, hi in [1, 2]; ``hi_head`` and ``hi_tail`` are hi's
      Dekker halves.
    - ``digits[g]``: the four characters of the group g < 10^4, read as
      a little-endian 32-bit word;
      ``significant[10^4 j + g]``: how many digits of a number run through
      the last nonzero one of g as its group j, 0 for g = 0 (j = 4 is the
      last digit, 0 to 9).
    - ``masks[w, class * 17 + s - 1]``: for a number of s significant
      digits, the words (keep, shift, point) of word w of its 24-byte digit
      field, which is (d & keep) | ((d moved one byte on) & shift) | point
      for the digits d: the digits before the dot stay, the dot is
      written, the digits after it move one byte on, and the trailing
      zeros that are not integer digits are dropped.  A fourth, zero word
      makes each row 32 bytes, which numpy's take copies fastest.
    - per X: ``layout`` (class * 17 - 1), ``prefix`` (the row of ``lead``
      less 2 for a line break and 1 for a sign; ``lead`` holds the
      separator, sign and '0.' prefix right-aligned in a word) and
      ``suffix`` (the exponent, right-aligned in a word).
    """
    xs = range(_X_MIN, _X_MAX + 1)
    pow10 = np.empty((5, len(xs)))
    for j, X in enumerate(xs):  # w = 10^(16 - X) 2^(116 - e) rounded, in [2^116, 2^117]
        k = 16 - X
        v = 10 ** abs(k)
        if k >= 0:
            e = v.bit_length() - 1
            w = v << 116 - e if e <= 116 else (v >> e - 117) + 1 >> 1
        else:
            e = -v.bit_length()
            w = ((1 << 117 - e) // v + 1) >> 1
        hi = float(w)  # int to float is correctly rounded
        hh = hi * _SPLIT - (hi * _SPLIT - hi)
        pow10[:, j] = hi, float(w - int(hi)), hh, hi - hh, e
    pow10[:4] *= 2.0 ** -116
    # "00" to "99" as little-endian halfwords, and the groups 100 a + b
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), "<u2").astype(np.uint32)
    group = np.arange(10000, dtype=np.int16)
    # the digits of a group through its last nonzero one: 4 less its trailing zeros
    through = 4 - sum((group % 10 ** j == 0).view(np.int8) for j in (1, 2, 3, 4))
    significant = np.empty(40010, np.int8)
    np.multiply(np.arange(0, 16, 4, dtype=np.int8)[:, None] + through, through > 0,
                out=significant[:40000].reshape(4, -1))
    significant[40000:] = [0] + [17] * 9
    # (class, s, byte) of the digit field: the layout's dot and forced digits
    dot, forced = np.array([_decimal_layout(cls - 4 if cls < 21 else 99)[2:]
                            for cls in range(22)]).T[:, :, None, None]
    s, i = np.arange(1, 18)[:, None], np.arange(24)
    has_dot = s > dot
    shown = i < np.maximum(s, forced) + has_dot
    masks = np.stack((shown & (~has_dot | (i < dot)), shown & has_dot & (i > dot),
                      has_dot & (i == dot), np.zeros_like(shown))).astype(np.uint8)
    masks *= np.array([0xFF, 0xFF, ord("."), 0], np.uint8)[:, None, None, None]
    layouts = [_decimal_layout(X) for X in xs]
    prefixes = [_decimal_layout(X)[1] for X in range(-4, 1)]
    return {
        "hi": pow10[0], "lo": pow10[1], "hi_head": pow10[2], "hi_tail": pow10[3],
        "exp2": pow10[4].astype(np.int32),
        "digits": (pairs[:, None] | pairs << _U16).ravel(),
        "significant": significant,  # group j's digits follow 4j others
        # (word, class * 17 + s - 1, (keep, shift, point, 0))
        "masks": np.ascontiguousarray(masks.reshape(4, 22 * 17, 3, 8).transpose(2, 1, 0, 3))
                   .view("<u8")[..., 0],
        # indices as intp, which numpy's indexing would otherwise convert to
        "layout": np.array([cls * 17 - 1 for cls, _, _, _ in layouts], np.intp),
        "prefix": np.array([4 * min(cls, 4) for cls, _, _, _ in layouts], np.intp),
        "lead": _le_words([(sep + sign + p).rjust(8, "\0") for p in prefixes
                           for sep in ",\n" for sign in ("", "-")]),
        "suffix": _le_words(["" if cls < 21 else f"e{X:+03d}".rjust(8, "\0")
                             for X, (cls, _, _, _) in zip(xs, layouts)]),
    }


def _scaled(t, m, ex, xi):
    """|x| 10^(16 - X) for |x| = m 2^ex, X = xi + _X_MIN: (floor, fraction).

    m 10^(16 - X) = m (hi + lo) 2^e is formed error-free in m hi = p + err
    (Dekker's product: numpy has no fused multiply-add) plus m lo, so it
    is off by about 2^-105 of itself, below 2^-47 of the last digit."""
    hi_head, hi_tail = t["hi_head"][xi], t["hi_tail"][xi]
    p = t["hi"][xi]
    p *= m
    mh = m * _SPLIT
    ml = mh - m
    mh -= ml
    np.subtract(m, mh, out=ml)
    err = mh * hi_head
    err -= p
    mh *= hi_tail
    err += mh
    hi_head *= ml
    err += hi_head
    hi_tail *= ml
    err += hi_tail
    np.multiply(m, t["lo"][xi], out=ml)
    err += ml
    e = ex + t["exp2"][xi]
    np.ldexp(p, e, out=p)  # an integer: 10^16 > 2^53
    np.ldexp(err, e, out=err)
    floor = np.floor(err)
    err -= floor
    n = p.astype(np.int64)
    n += floor.astype(np.int64)
    return n, err


def _outside(n):
    """Whether each n lies outside [10^16, 10^17)."""
    return (n - 10 ** 16).view(np.uint64) >= 9 * 10 ** 16


def _significands(t, x):
    """(N, xi, slow) for the numbers x: N = round(|x| 10^(16 - X)) in
    [10^16, 10^17) for X = xi + _X_MIN = floor(log10 |x|), X the exponent
    of the rounded value, and slow the numbers N does not serve: zero,
    subnormals, inf, nan and values within 2^-30 of a rounding tie.  Zero
    gets the N and X of 1."""
    a = np.abs(x)
    special = ~((a >= 2.2250738585072014e-308) & (a <= 1.7976931348623157e308))
    a[special] = 1.0
    m, ex = np.frexp(a)
    xi = np.floor(np.log10(a, out=a), out=a).astype(np.intp)
    del a
    xi -= _X_MIN
    N, frac = _scaled(t, m, ex, xi)
    # log10 can be an ulp off next to a power of ten: retry a decade over
    retry = np.flatnonzero(_outside(N))
    if retry.size:
        xi[retry] += np.where(N[retry] < 10 ** 16, -1, 1)
        N[retry], frac[retry] = _scaled(t, m[retry], ex[retry], xi[retry])
        special[retry[_outside(N[retry])]] = True
    N += frac > 0.5
    frac -= 0.5
    slow = np.abs(frac, out=frac) < 2.0 ** -30
    slow |= special
    top = np.flatnonzero(N == 10 ** 17)  # 10^16 a decade up
    N[top] = 10 ** 16
    xi[top] += 1
    return N, xi, slow


def _digit_words(t, N):
    """The 17 digits of each N as little-endian words (digits 0-7, 8-15,
    16), from four-digit groups, and the count of digits through the last
    nonzero one.  N is consumed."""
    groups = np.empty((5, N.size), np.intp)  # four groups of four, the last digit
    q = N // 10
    np.multiply(q, 10, out=groups[4])
    np.subtract(N, groups[4], out=groups[4])
    np.floor_divide(q, 10 ** 8, out=N)
    q -= N * 10 ** 8
    for j, part in ((0, N), (2, q)):
        np.floor_divide(part, 10 ** 4, out=groups[j])
        np.multiply(groups[j], 10 ** 4, out=groups[j + 1])
        np.subtract(part, groups[j + 1], out=groups[j + 1])
    digits = t["digits"][groups[:4]]
    words = []
    for j in (0, 2):
        word = digits[j + 1].astype(np.uint64)
        word <<= _U32
        word |= digits[j]
        words.append(word)
    last = groups[4] + ord("0")
    groups += _GROUP_ROWS
    return (*words, last.view(np.uint64)), t["significant"][groups].max(axis=0)


def _number_words(block, first, skip=0):
    """The four words of every number of a contiguous (rows, columns) float
    block, in columns skip onwards of a new (rows, skip + columns, 4) array,
    allocated once the digits are found; the first skip columns are left to
    the caller.  ``first`` indexes the flattened block's numbers that start
    a row, whose separator is the line break.

    A number is four little-endian words: the separator, sign and '0.'
    prefix right-aligned in the first (``lead``); the digit field in the
    next three, where per (class, significant digits) masks keep the
    digits before the dot, write the dot, move the rest one byte on and
    drop the trailing zeros; the exponent right-aligned in the last.  Zero
    bytes fill the rest, for the caller to compact.  Each word is finished
    in a flat temporary and copied into place once.  Zero is 1 with its
    digit rewritten; the other numbers ``_significands`` does not serve are
    written by format() one at a time."""
    t = _decimal_tables()
    shape = block.shape
    x = block.ravel()
    N, xi, slow = _significands(t, x)
    digits, s = _digit_words(t, N)
    del N  # consumed
    layout = t["layout"][xi] + s
    out = np.empty((shape[0], skip + shape[1], 4), "<u8")
    words = out[:, skip:]
    # the last word first: a word is rewritten once the next has read its top byte
    for j in (3, 2, 1):
        word = digits[j - 1]
        keep, shift, point, _ = np.take(t["masks"][j - 1], layout, axis=0).T
        moved = word << _U8
        if j > 1:
            moved |= digits[j - 2] >> _U56
        moved &= shift
        moved |= point
        if j == 3:
            moved |= t["suffix"][xi]
        word &= keep
        word |= moved
        words[..., j] = word.reshape(shape)
        del keep, shift, point, moved  # before the next word's are made
    lead = t["prefix"][xi] + np.signbit(x)
    lead[first] += 2
    words[..., 0] = t["lead"][lead].reshape(shape)
    slow = np.flatnonzero(slow)
    if slow.size:
        zero = x[slow] == 0.0
        r, c = np.divmod(slow[zero], shape[1])
        words[r, c, 1] -= np.uint64(1)  # the digit '1' of 1 becomes '0'
        slow = slow[~zero]
    if slow.size:
        starts = np.zeros(x.size, bool)
        starts[first] = True
        r, c = np.divmod(slow, shape[1])
        words[r, c] = np.frombuffer(b"".join(
            (("\n" if f else ",") + format(v, ".17g")).encode().ljust(32, b"\0")
            for f, v in zip(starts[slow].tolist(), x[slow].tolist())), "<u8").reshape(-1, 4)
    return out


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
    if ns.format == "csv":
        _write_table(ns.output,
                     ("l", "sigma_integral", "sigma_numeric", "rel_gap"),
                     ([ns.l], [report.sigma_integral], [report.sigma_numeric],
                      [report.rel_gap]),
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
        payload = rec.params.to_dict()
        payload["kappa"] = coeff._pairs(rec.kappa)
        payload["mu"] = rec.mu.tolist()
        payload["config"] = _config_hash(ns)
        _write_json(ns.params_out, payload)
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
    p.add_argument("--format", choices=("json", "csv"), default="json")

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

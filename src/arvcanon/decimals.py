"""Decimal text of float arrays, converted in numpy a block at a time: the
bytes of format(x, ".17g") for every number, with no Python float made but
for the few numbers format() writes.

``_number_words`` writes a contiguous (rows, columns) block as four
little-endian words a number: its separator (a comma, or a line break
before the numbers that start a row), sign and '0.' prefix, then its
digit field and exponent, zero bytes filling the rest for the caller to
compact.  The 17 digits come from scaling each number by a power of ten
held as a double-double, the leading product formed error-free; zero is
1 with its digit rewritten, and subnormals, inf, nan and values within
2^-30 of a rounding tie are written by format() one at a time.  Callers
take at most _BLOCK numbers a call: ``cli`` for its CSV tables and
``coefficients.write_json`` for the float arrays of the JSON it writes.
"""
import functools

import numpy as np

#: numbers per block of the numpy conversion: a call costs about 0.1 ms
#: whatever its size, and a block's working set (about 550 kB in a 12-column
#: grid table) stays below that of one chunk of the propagation kernel
_BLOCK = 4096

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

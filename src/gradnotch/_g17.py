"""CSV text of float64 blocks, every value byte for byte as '%.17g' % x.

CPython's '%.17g' takes the big-number path of its dtoa for 17 digits,
which costs about half a microsecond per value; a field grid prints
twenty of them per row. `csv_blocks` formats a whole block of rows with a
few dozen numpy passes instead:

1. Digits. With E = floor(log10|x|), the 17 significant digits are the
   integer D = round(|x| * 10**(16 - E)). The product is taken as an
   error-free double-double: Dekker's split and two-product (Dekker 1971,
   Numer. Math. 18:224) of |x| with the head of 10**(16 - E), plus |x|
   times its tail. The pairs (head, tail) are made from Python ints. Its
   error is below 1e-12 of a unit in D's last place, so D is exact unless
   the product lies within _TIE_MARGIN of a rounding tie. E comes from
   log10, which can be off by one next to a power of ten; D outside
   [1e16, 1e17) corrects it.
2. Text. A table of every 4-digit group turns D into ASCII. Each value
   gets a layout (sign, fixed or exponent form, exponent width, number of
   significant digits once trailing zeros go); one gather through the
   layout's template lays out its bytes in a fixed-width slot, and
   deleting the padding bytes joins the slots into the text.
3. Zeros and -0 have layouts of their own.
4. Fallback. A value whose rounding is too close to a tie to decide (an
   exact tie must go to even), a value with |x| outside [1e-280, 1e280]
   (where a split or a scaled power of ten could overflow or underflow),
   and a non-finite value are formatted by '%.17g' itself, and their text
   is copied into their slot. Their digits are computed from 1.0, so no
   step overflows.

The tables are built on first use and are read-only. Each call of
`csv_blocks` allocates its work arrays once, for one block, and reuses
them for every block: its memory is bounded by the block, not by the
grid (about 400 bytes per value of a block, half of it the gather
index).
"""

from __future__ import annotations

import functools

import numpy as np

# Dekker's splitter, 2**27 + 1: a double times it splits into two halves
# of 26 bits, whose products are exact
_SPLIT = 134217729.0
# |x| outside this range goes to '%.17g': the split of |x| or of a power
# of ten up to 1e300 stays below the largest double, and no partial
# product underflows
_RANGE = (1e-280, 1e280)
# powers 10**k held as (head, tail) pairs, for the k = 16 - E that the
# range above can ask for, with one to spare on either side
_K_MIN, _K_MAX = -270, 300
# a rounding this close to a tie goes to '%.17g'; D's computed fraction
# is off by less than 1e-12
_TIE_MARGIN = 1e-6

# the source bytes of one value's slot, by column: constants, then the
# digits of D (column 7 the leading one, 8..23 four 4-digit groups), then
# the four digits of |E| (24..27); a fallback's text overwrites 7..30
_WIDTH = 32
_PAD, _MINUS, _DOT, _ZERO, _E, _PLUS, _SEP = range(7)
_DIGITS, _EXP_DIGITS, _RAW = 7, 24, 7
# the longest text, '-2.2250738585072014e-308', and its separator
_SLOT = 25
# layouts: 17 digit counts of each of 25 forms (fixed with E in -4..16,
# then exponent form with E >= 17, E <= -5, E >= 100, E <= -100) for
# each sign; then 0 and -0; then the fallback texts by length
_FORMS = 25
_ZEROS = 2 * _FORMS * 17
_FALLBACK = _ZEROS + 2
# decimal exponents of the form table, -400..399, past those of doubles
_E_MIN = -400


@functools.cache
def _powers() -> np.ndarray:
    """Rows head, tail, and the head's two Dekker halves of 10**k, for
    k = _K_MIN.._K_MAX (column k - _K_MIN); head + tail is 10**k to
    about 106 bits."""
    table = np.empty((4, _K_MAX - _K_MIN + 1))
    for col, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        head = num / den
        h_num, h_den = head.as_integer_ratio()
        tail = (num * h_den - h_num * den) / (den * h_den)
        c = _SPLIT * head
        head_h = c - (c - head)
        table[:, col] = head, tail, head_h, head - head_h
    table.flags.writeable = False
    return table


@functools.cache
def _groups() -> np.ndarray:
    """The ASCII of 0000..9999, one uint32 per group, in memory order."""
    text = "".join("%04d" % g for g in range(10000)).encode("ascii")
    return np.frombuffer(text, dtype=np.uint32)


def _form(e: int) -> int:
    """The form of exponent e: fixed for e in -4..16, else exponent form
    by sign and width."""
    if -4 <= e <= 16:
        return e + 4
    return (21 if e > 0 else 22) + 2 * (abs(e) >= 100)


@functools.cache
def _form_layouts() -> np.ndarray:
    """The layout of the positive value with exponent e and 0 significant
    digits, at e - _E_MIN, for every exponent a double can have."""
    table = np.array([_form(e) * 17 - 1 for e in range(_E_MIN, -_E_MIN)])
    table.flags.writeable = False
    return table


def _template(neg: bool, form: int, nsig: int) -> list:
    """The source columns of one numeric layout's text."""
    cols = [_MINUS] if neg else []
    digits = list(range(_DIGITS, _DIGITS + 17))
    if form >= 21:
        width = 2 if form < 23 else 3
        return (cols + digits[:1] + [_DOT] * (nsig > 1) + digits[1:nsig]
                + [_E, _MINUS if form in (22, 24) else _PLUS]
                + list(range(_EXP_DIGITS + 4 - width, _EXP_DIGITS + 4)))
    e = form - 4
    if e < 0:
        return cols + [_ZERO, _DOT] + [_ZERO] * (-e - 1) + digits[:nsig]
    return (cols + digits[:e + 1]
            + [_DOT] * (nsig > e + 1) + digits[e + 1:nsig])


@functools.cache
def _templates() -> np.ndarray:
    """Every layout's source columns, followed by the separator and
    padded with _PAD to _SLOT entries."""
    rows = [_template(neg, form, nsig) for neg in (False, True)
            for form in range(_FORMS) for nsig in range(1, 18)]
    rows += [[_ZERO], [_MINUS, _ZERO]]
    rows += [list(range(_RAW, _RAW + n)) for n in range(1, _SLOT)]
    table = np.full((len(rows), _SLOT), _PAD, dtype=np.uint8)
    for i, cols in enumerate(rows):
        table[i, :len(cols) + 1] = cols + [_SEP]
    table.flags.writeable = False
    return table


def _digits(a: np.ndarray, e: np.ndarray) -> tuple:
    """D = round(a * 10**(16 - e)) as int64, and the signed distance of
    the product from D (in [-0.5, 0.5])."""
    head, tail, head_h, head_l = np.take(_powers(), 16 - e - _K_MIN, axis=1)
    c = _SPLIT * a
    a_h = c - (c - a)
    a_l = a - a_h
    p = a * head
    err = ((a_h * head_h - p) + a_h * head_l + a_l * head_h) + a_l * head_l
    q = np.rint(p)
    frac = (p - q) + (err + a * tail)
    n = np.rint(frac)
    frac -= n
    return q.astype(np.int64) + n.astype(np.int64), frac


def _decimal(a: np.ndarray) -> tuple:
    """(D, E, undecided) of the positive values a: a rounds to
    D * 10**(E - 16) with 1e16 <= D < 1e17, unless undecided."""
    e = np.floor(np.log10(a)).astype(np.int64)
    d, frac = _digits(a, e)
    edge = np.flatnonzero((d <= 10 ** 16) | (d >= 10 ** 17))
    if edge.size:
        d_edge, frac_edge, e_edge = d[edge], frac[edge], e[edge]
        # a below 10**e, or at or above 10**(e + 1): log10 was off by one
        shift = (d_edge > 10 ** 17).astype(np.int64)
        shift -= (d_edge < 10 ** 16) | (d_edge == 10 ** 16) & (frac_edge < 0)
        e_edge += shift
        redo = np.flatnonzero(shift)
        d_edge[redo], frac_edge[redo] = _digits(a[edge[redo]], e_edge[redo])
        # a rounded up to the next power of ten
        carry = d_edge == 10 ** 17
        d_edge[carry] = 10 ** 16
        e_edge += carry
        d[edge], frac[edge], e[edge] = d_edge, frac_edge, e_edge
    return d, e, np.abs(frac) > 0.5 - _TIE_MARGIN


def csv_blocks(values: np.ndarray, block_rows: int):
    """The CSV text of the float64 rows of `values`, as one string per
    block of at most `block_rows` rows: each value as '%.17g' % x, the
    values of a row joined by ',' and each row closed by a newline."""
    rows, cols = values.shape
    block_rows = max(1, min(block_rows, rows))
    # work arrays of one block, reused by every block
    src = np.zeros((block_rows, cols, _WIDTH), dtype=np.uint8)
    for col, char in enumerate("\0-.0e+"):
        src[:, :, col] = ord(char)
    src[:, :, _SEP] = ord(",")
    src[:, -1, _SEP] = ord("\n")
    index = np.empty((block_rows * cols, _SLOT), dtype=np.intp)
    base = np.arange(0, block_rows * cols * _WIDTH, _WIDTH)[:, None]
    slots = np.empty((block_rows * cols, _SLOT), dtype=np.uint8)
    for start in range(0, rows, block_rows):
        block = values[start:start + block_rows]
        n = block.size
        yield _block_text(block.reshape(n), src[:len(block)].reshape(n, -1),
                          index[:n], base[:n], slots[:n])


def _block_text(x, src, index, base, slots) -> str:
    """The text of the values x, through the work arrays of their block:
    src (a slot's source bytes per value), index and slots (a slot's
    gather index and bytes per value) and base (each value's offset into
    src)."""
    a = np.abs(x)
    lo, hi = _RANGE
    slow = ~((a >= lo) & (a <= hi))
    a[slow] = 1.0
    d, e, undecided = _decimal(a)

    # D's leading digit, then its four 4-digit groups (words 2..5 of a
    # slot's source); |E|'s four digits (word 6)
    groups, src_words = _groups(), src.view(np.uint32)
    head, rest = np.divmod(d, 10 ** 16)
    src[:, _DIGITS] = head + ord("0")
    for word, part in enumerate(np.divmod(rest, 10 ** 8)):
        top, bottom = np.divmod(part, 10 ** 4)
        np.take(groups, top, out=src_words[:, 2 + 2 * word])
        np.take(groups, bottom, out=src_words[:, 3 + 2 * word])
    np.take(groups, np.abs(e), out=src_words[:, _EXP_DIGITS // 4])

    # significant digits: up to the last digit of D that is not '0'
    nsig = np.full(len(x), 17)
    short = np.flatnonzero(src[:, _DIGITS + 16] == ord("0"))
    if short.size:
        nsig[short] -= np.argmax(
            src[short, _DIGITS + 16:_DIGITS - 1:-1] != ord("0"), axis=1)
    layout = _form_layouts()[e - _E_MIN] + nsig
    layout += np.signbit(x) * (_FORMS * 17)
    zeros = np.flatnonzero(x == 0.0)
    if zeros.size:
        layout[zeros] = _ZEROS + np.signbit(x[zeros])
        slow[zeros] = False

    for i in np.flatnonzero(slow | undecided).tolist():
        text = ("%.17g" % x[i]).encode("ascii")
        src[i, _RAW:_RAW + len(text)] = np.frombuffer(text, dtype=np.uint8)
        layout[i] = _FALLBACK + len(text) - 1

    np.add(np.take(_templates(), layout, axis=0), base, out=index)
    np.take(src.reshape(-1), index, out=slots)
    return slots.tobytes().translate(None, b"\0").decode("ascii")

"""Deterministic CSV assembly shared by the result emitters, and the JSON input type rule.

Layout: '# key=value' metadata lines (a value holding a line break is a
ValueError), a '# digest=sha256:...' line over the data section, one
'# generated=...' timestamp line (the only non-reproducible byte in the
file), then the column header and rows.  UTF-8, LF newlines.

A table is any 2-D numeric table (an array or rows of numbers), read once as
float64; each cell is Python's '%.17g' text of its value, which for an int
below 2^53 is its str.  The numpy kernel below writes every cell: the table
goes to it in passes of whole rows, about ``_ARRAY_BLOCK`` cells each, and
each pass formats all its cells at once, row-major, each followed by its
separator (',' or, at a row's end, a line feed).  A pass costs about 0.15 ms
however short; 8,192 cells a pass rendered 'amplitude' curves of 7,000-28,000
rows 5% faster than 4,096 did, and 16,384 slower (one BLAS thread, 2-vCPU Xeon).

The kernel scales each |x| to P = |x| 10^(16-X) as a double-double:
the exact (Dekker) product of |x| with the hi part of a power-of-ten table,
plus |x| lo, where hi and lo are rounded from Python integers and hi + lo is
10^(16-X) to a relative 1.4 u^2 (u = 2^-53).  X starts from floor(log10 |x|)
and moves by one when the unrounded P lies outside [1e16, 1e17), so
``np.log10`` only seeds it.  P is then within 4e-15 of the exact product
(at most 1.8e-15 measured), and every digit comes from exactly rounded IEEE
operations and integer arithmetic, with no dependence on numpy's SIMD
dispatch.  The 17 digits are P rounded half-even, laid out as '%g' lays
them out: fixed notation for -4 <= X < 17, trailing zeros stripped, a two-
or three-digit exponent.  They are dtoa's unless P lies within ``_MARGIN``
of a half-integer or of 1e16, or rounds onto 1e17 (a carry into X + 1), so
those values take the scalar '%.17g', as do zeros, non-finite values,
subnormals and values outside the table (|x| < 1e-290 or >= 2^1023).
"""

from __future__ import annotations

import datetime
import functools
import hashlib
import io
import sys

import numpy as np

from .chain_core import two_product

# The line boundaries of str.splitlines: a header value holding any of them would split its line.
LINE_BREAKS = frozenset("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")

# Cells formatted per pass: the kernel's temporaries take about 300 B a cell.
_ARRAY_BLOCK = 8192
# The kernel's range: 1e-290 <= |x| < 2^1023 has -290 <= X <= 307, so 10^(16-X) needs
# -292 <= k <= 307 when log10's first guess is one off.  (Dekker's split of a larger
# value overflows.)
_KERNEL_MIN, _KERNEL_MAX = 1e-290, 2.0**1023
_POWER_MIN, _POWER_MAX = -292, 307
# P is within 4e-15 of the exact product, so a P this close to a half-integer might round
# either way, and one this close to 1e16 might take either X: its value goes to the
# scalar '%.17g'.
_MARGIN = 2.0**-20
# A cell is four little-endian 64-bit words, 32 bytes: its text (at most 24 bytes,
# '-1.2345678901234567e-308'), its separator and NUL padding.  The text up to its exponent
# fits the first three words, where bytes move and are masked as integers, so most
# numpy passes of the layout run on 3 words per value, not on 24 bytes.
_CELL_WORDS, _TEXT_WORDS = 4, 3


def format_value(v) -> str:
    return format(v, ".17g") if isinstance(v, float) else str(v)


def render_csv(columns, table, metadata=None) -> str:
    """The CSV text of ``table``, a 2-D numeric table of ``len(columns)`` columns."""
    header_lines = [f"# {key}={format_value(value)}" for key, value in (metadata or {}).items()]
    for line in header_lines:
        if not LINE_BREAKS.isdisjoint(line):  # it would forge header or data lines
            raise ValueError(f"a CSV header value cannot hold a line break: {line[2:]!r}")
    table = np.asarray(table, float).reshape(-1, len(columns))
    rows = max(1, _ARRAY_BLOCK // len(columns))
    lines = [",".join(columns) + "\n"]
    lines += (_format_block(table[start:start + rows]) for start in range(0, len(table), rows))
    data_section = "".join(lines)
    digest = hashlib.sha256(data_section.encode("utf-8")).hexdigest()
    now = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    header_lines += [f"# digest=sha256:{digest}", f"# generated={now}"]
    return "\n".join(header_lines) + "\n" + data_section


def _format_block(block: np.ndarray) -> str:
    """The CSV rows of a (rows x columns) float64 block, written by the kernel in one pass."""
    separators = np.full(block.shape, ord(","), np.uint8)
    separators[:, -1] = ord("\n")
    cells = np.zeros((block.size, _CELL_WORDS), "<u8")
    _format_cells(block.ravel(), cells, separators.ravel())
    strings = cells.view(f"S{8 * _CELL_WORDS}").ravel()
    return b"".join(strings.tolist()).decode("ascii")  # tolist drops the NUL padding


def _format_cells(x: np.ndarray, out: np.ndarray, separators: np.ndarray) -> None:
    """Write the '%.17g' text of each value of ``x``, then its separator, into its cell of ``out``."""
    tables = _tables()
    a = np.abs(x)
    kernel = (a >= _KERNEL_MIN) & (a < _KERNEL_MAX)  # False for NaN
    a[~kernel] = 1.0  # laid out below, then overwritten
    exponent = np.floor(np.log10(a)).astype(np.int64)
    p, p_lo = _scaled(a, exponent, tables)
    # log10 may round across a power of ten: X moves by one when the unrounded P = p + p_lo
    # lies outside [1e16, 1e17), compared part by part since fl(p + p_lo) may round onto 1e16
    shift = (((p > 1e17) | (p == 1e17) & (p_lo >= 0)).astype(np.int64)
             - ((p < 1e16) | (p == 1e16) & (p_lo < 0)))
    moved = np.flatnonzero(shift)
    if moved.size:
        exponent[moved] += shift[moved]
        p[moved], p_lo[moved] = _scaled(a[moved], exponent[moved], tables)
    digits = p.astype(np.int64) + np.rint(p_lo).astype(np.int64)  # P rounded half-even
    kernel &= ((np.abs(p_lo - np.floor(p_lo) - 0.5) > _MARGIN)
               & ((p != 1e16) | (np.abs(p_lo) > _MARGIN))
               & (digits < 10**17))  # a P that rounds onto 1e17 carries into X + 1
    length = _lay_out(out, digits, exponent, x < 0, tables)
    text = out.view(np.uint8)
    for i in np.flatnonzero(~kernel):
        scalar = ("%.17g" % x[i]).encode("ascii")
        text[i] = 0
        text[i, :len(scalar)] = np.frombuffer(scalar, np.uint8)
        length[i] = len(scalar)
    text[np.arange(len(x)), length] = separators


def _scaled(a: np.ndarray, exponent: np.ndarray, tables: dict):
    """(p, p_lo): a * 10^(16 - exponent) as the unevaluated double-double sum p + p_lo."""
    k = 16 - exponent - _POWER_MIN
    p, err = two_product(a, tables["hi"][k])
    return p, err + a * tables["lo"][k]


def _lay_out(out: np.ndarray, digits: np.ndarray, exponent: np.ndarray, negative: np.ndarray,
             tables: dict) -> np.ndarray:
    """Write each 17-digit integer of ``digits`` times 10^(exponent - 16), signed, as '%g'
    writes it into its row of cell words ``out``; return the text lengths."""
    n = len(digits)
    lead, rest = np.divmod(digits, 10**16)
    quads, trailing_zeros = tables["quads"], tables["trailing_zeros"]
    tail = np.zeros((_TEXT_WORDS, n), np.uint64)  # the 16 digits after the lead one
    trailing = 0
    for word, half in enumerate(np.divmod(rest, 10**8)):
        high, low = np.divmod(half, 10**4)
        tail[word] = quads[high] | quads[low] << np.uint64(32)
        trailing = (trailing_zeros[low]
                    + (low == 0) * (trailing_zeros[high] + (high == 0) * trailing))
    kept = 17 - trailing  # significant digits; the lead one is not 0
    fixed = (exponent >= -4) & (exponent < 17)
    below_one = fixed & (exponent < 0)
    # digits before the point: d.ddde+XX, ddd.ddd for a fixed X >= 0, none for 0.000ddd
    point = np.where(below_one, 17, np.where(fixed, exponent + 1, 1))
    before = np.take(tables["masks"], point - 1, axis=1)  # the tail's digits before it
    tail = (tail & before) | _up(tail & ~before, 1)  # a gap for the point
    # a sign, then '0.' and -X - 1 zeros for a fixed X < 0, then the lead digit and the tail
    zeros = np.where(below_one, -exponent, 0)
    start = negative + np.where(below_one, zeros + 1, 0)
    words = _up(tail, start + 1)
    words[0] |= (tables["prefixes"][negative.astype(np.int64), zeros]
                 | (ord("0") + lead).astype(np.uint64) << (8 * start).astype(np.uint64))
    length = start + np.where(below_one, kept, np.where(kept > point, kept + 1, point))
    out[:, :_TEXT_WORDS] = (words & np.take(tables["masks"], length, axis=1)).T
    text = out.view(np.uint8)
    dotted = np.flatnonzero(~below_one & (kept > point))
    text[dotted, start[dotted] + point[dotted]] = ord(".")
    sci = np.flatnonzero(~fixed)  # the exponent: e, its sign and two or three digits
    e, end = exponent[sci], length[sci]
    hundreds, tens, units = (ord("0") + np.abs(e) // 10**i % 10 for i in (2, 1, 0))
    wide = hundreds > ord("0")
    text[sci, end] = ord("e")
    text[sci, end + 1] = np.where(e < 0, ord("-"), ord("+"))
    text[sci, end + 2] = np.where(wide, hundreds, tens)
    text[sci, end + 3] = np.where(wide, tens, units)
    text[sci[wide], end[wide] + 4] = units[wide]
    length[sci] += 4 + wide
    return length


def _up(words: np.ndarray, count) -> np.ndarray:
    """The byte strings of ``words`` (words x n, little-endian) moved up by ``count`` < 8 bytes."""
    bits = (8 * np.asarray(count)).astype(np.uint64)
    moved = words << bits
    moved[1:] |= words[:-1] >> np.uint64(1) >> (np.uint64(63) - bits)  # no shift by 64
    return moved


@functools.lru_cache(maxsize=None)
def _tables() -> dict:
    """The power-of-ten table, hi[i] + lo[i] = 10^(i + _POWER_MIN) with each part rounded
    from Python integers, and the digit tables of the layout."""
    hi, lo = [], []
    for k in range(_POWER_MIN, _POWER_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den  # an int / int quotient is correctly rounded
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    # built in 32- and 8-bit words, which keeps the heap peak of a process's first table near 0.3 MB
    number = np.arange(10**4, dtype=np.uint32)
    quads, zeros = np.zeros(10**4, np.uint32), np.zeros(10**4, np.uint8)
    for i in range(4):
        quads |= (ord("0") + number // 10**(3 - i) % 10) << 8 * i
        zeros += number % 10**(i + 1) == 0
    prefixes = [[int.from_bytes(sign + (b"0." + b"0" * (z - 1) if z else b""), "little")
                 for z in range(5)] for sign in (b"", b"-")]
    return {
        "hi": np.array(hi), "lo": np.array(lo),
        # the four ASCII digits of each integer below 10^4, little-endian in a word
        "quads": quads.astype(np.uint64),
        "trailing_zeros": zeros.astype(np.int64),  # of each integer below 10^4 written with four digits
        # masks[:, c]: the text words of a string's first c bytes
        "masks": np.array([[2**(8 * min(max(c - 8 * k, 0), 8)) - 1
                            for c in range(8 * _TEXT_WORDS + 1)] for k in range(_TEXT_WORDS)],
                          np.uint64),
        "prefixes": np.array(prefixes, np.uint64),
    }


def write_text(path, text: str) -> None:
    with io.open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def typed(value, kind: type, name: str):
    """``value`` if its JSON type is ``kind``; a JSON integer also passes as a float.

    The one type rule of every JSON input: config keys and schedule intervals.
    """
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if type(value) is not kind:  # rejects a bool where an int is expected
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value

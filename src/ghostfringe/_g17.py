"""The `%.17g` kernel: CSV bytes of a float block, each cell as format(v, ".17g").

A finite double v with 1e-6 <= |v| < 1e17 has a decimal exponent E in
_E_MIN.._E_MAX, and format(v, ".17g") writes the 17 digits of
D = round-half-even(|v| * 10**(16 - E)) less their trailing zeros: in fixed
notation from E = -4 up, as d.ddde-05 or d.ddde-06 below. Each cell's layout
(point, length, shift mask) is a table row picked by E and its count of
significant digits. Every other cell (0, nan, inf, subnormals, |v| < 1e-6 or
>= 1e17) is formatted on its own with `%.17g`. write_table writes a whole
table in blocks; the CLI imports this module for the first table with enough
cells to use it.
"""

from __future__ import annotations

import math

import numpy as np

_E_MIN, _E_MAX = -6, 16
_DECADES = np.arange(_E_MIN, _E_MAX + 1)
# 10**(16 - E), exact doubles up to 10**22, and their halves split at 27 bits.
_POW = np.array([float(10**k) for k in range(16 - _E_MIN, 15 - _E_MAX, -1)])
_SPLIT = 2.0**27 + 1.0
_POW_HI = _POW * _SPLIT
_POW_HI -= _POW_HI - _POW
_POW_LO = _POW - _POW_HI
# Fixed notation below 1 needs -E leading zeros ("0." and -E - 1 zeros).
_ZEROS = np.where((_DECADES < 0) & (_DECADES >= -4), -_DECADES, 0)
# D * 10**(7 - zeros) written as 24 digits has those leading zeros.
_ZERO_SHIFT = 10 ** (7 - _ZEROS).astype(np.int64)

# Decade index of the least value of each binade, by biased binary exponent,
# and the double nearest the power of ten that ends each decade: a binade
# spans less than a decade, so a cell's decade is its binade's or the next.
_BINADE_DECADE = np.clip(np.searchsorted(
    [float(f"1e{e}") for e in _DECADES], np.ldexp(1.0, np.arange(2047) - 1023), side="right") - 1,
    0, len(_DECADES) - 1)
_DECADE_END = np.array([float(f"1e{e + 1}") for e in _DECADES])
# The bits of |v| less those of 1e-6 fall below _SPAN inside 1e-6 <= |v| < 1e17.
_LEAST = np.float64(1e-6).view(np.uint64)
_SPAN = np.float64(1e17).view(np.uint64) - _LEAST

# The four digits of every 4-digit group, and as ASCII in one uint32;
# _DASHES indexes "----".
_DASHES = 10000
_DIGITS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, _DASHES)
_QUAD_CHARS = np.full((_DASHES + 1, 4), ord("-"), dtype=np.uint8)
_QUAD_CHARS[:_DASHES] = _DIGITS.T + ord("0")
_QUAD_CHARS = _QUAD_CHARS.view(np.uint32).ravel()

# Each cell fills a 32-byte slot: its sign in byte 0, its body from byte 1,
# its separator right after the body. _NOWHERE is a body index no cell keeps.
_SLOT = 32
_NOWHERE = _SLOT - 2


def _layouts():
    """Body length, point index and shift mask per layout code (E - _E_MIN) * 18 + digits.

    A body is the 24 digits of D * 10**s, each moved one byte right from the
    point on: the mask is 255 on the slot bytes before the point.
    """
    e = _DECADES[:, None]
    n = np.arange(18)[None, :]
    fixed, small = e >= 0, (e < 0) & (e >= -4)
    length = np.where(fixed, np.maximum(n, e + 1) + (n > e + 1),
                      np.where(small, 1 - e + n, n + (n > 1) + 4))
    point = np.where(fixed, np.where(n > e + 1, e + 1, _NOWHERE),
                     np.where(small | (n > 1), 1, _NOWHERE))
    unmoved = (np.arange(_SLOT) < 1 + point[:, :, None]) * np.uint8(255)
    return (length.ravel().astype(np.intp), point.ravel().astype(np.intp),
            unmoved.reshape(-1, _SLOT))


_BODY_LENGTH, _POINT, _UNMOVED = _layouts()
# The slot bytes a cell keeps, by 2 * body length + sign: its body and
# separator from byte 1, and byte 0 when it holds the sign.
_KEEP = ((np.arange(_SLOT) <= np.arange(1, _SLOT + 1)[:, None, None])
         & ((np.arange(_SLOT) > 0) | (np.arange(2) > 0)[:, None])).reshape(-1, _SLOT)
# Layout code 18 * i + n of a cell of decade index i and n significant digits:
# _CODE_BASE[i] plus the most that row c of _GROUP_DIGITS gives for group c
# of the 24 digits of D * 10**s, its digits up to the last nonzero one.
_CODE_BASE = (18 * np.arange(len(_DECADES)) - _ZEROS).astype(np.intp)
_LAST_DIGIT = ((_DIGITS > 0) * np.arange(1, 5, dtype=np.uint8)[:, None]).max(axis=0)
_GROUP_DIGITS = ((np.arange(0, 24, 4, dtype=np.uint8)[:, None] + _LAST_DIGIT)
                 * (_LAST_DIGIT > 0)).ravel()
_GROUP_ROWS = (_DASHES * np.arange(6))[:, None]


class Cells:
    """Scratch arrays for format_block on row blocks of up to `rows` rows of table.

    Each distinct column of table is formatted once per block and its slots
    are copied to every position that repeats it (x_T on a diagonal scan).
    Columns repeat when their float64 bits are equal, not when they compare
    `==`: -0.0 and 0.0 compare equal but print as `-0` and `0`.
    """

    def __init__(self, rows: int, table: np.ndarray):
        bits = table.view(np.uint64)
        first = [next((i for i in range(j) if np.array_equal(bits[:, i], bits[:, j])), j)
                 for j in range(table.shape[1])]
        self.unique = sorted(set(first))
        self.positions = [self.unique.index(j) for j in first]
        k, cells = rows * len(self.unique), rows * len(first)
        parts = {
            "values": ((k,), np.float64), "floats": ((5, k), np.float64),
            "bits": ((2, k), np.uint64), "ints": ((6, k), np.int64), "flags": ((2, k), bool),
            "index": ((4, k), np.intp), "quads": ((6, k), np.intp),
            "quad_chars": ((8, k + 1), np.uint32),
            "chars": ((k + 1, 8), np.uint32), "row_digits": ((6, k), np.uint8),
            "mask": ((k, _SLOT), np.uint8), "slots": ((k, _SLOT), np.uint8),
            "keep": ((cells, _SLOT), bool), "all_slots": ((cells, _SLOT), np.uint8),
            "lengths": ((cells,), np.intp), "signs": ((cells,), bool),
        }
        # One allocation carved into every scratch array: freed whole after
        # its table, it stays in the heap for the next table instead of going
        # back to the OS, so writing it again does not fault its pages in anew.
        # Its free also raises glibc's mmap threshold past the closed forms'
        # arrays: kept alive instead, it left 906 page faults per op of the
        # benchmark's closed-form scan, against 1.
        sizes = [-(-math.prod(shape) * np.dtype(dtype).itemsize // 64) * 64
                 for shape, dtype in parts.values()]
        memory = np.empty(sum(sizes), dtype=np.uint8)
        for (name, (shape, dtype)), end, size in zip(parts.items(), np.cumsum(sizes), sizes):
            setattr(self, name, memory[end - size:end].view(dtype)[:math.prod(shape)].reshape(shape))
        self.quad_chars[...] = _QUAD_CHARS[_DASHES]
        self.separators = np.tile(np.frombuffer(b"," * (len(first) - 1) + b"\n", np.uint8), rows)
        self.starts = np.arange(1, cells * _SLOT, _SLOT)


def format_block(block: np.ndarray, w: Cells) -> np.ndarray:
    """The CSV bytes of the rows of block, each cell as format(v, ".17g"), as uint8."""
    n = len(block)
    k, cells = n * len(w.unique), n * len(w.positions)
    v = w.values[:k]
    for at, j in enumerate(w.unique):
        v.reshape(n, -1)[:, at] = block[:, j]
    bits, rel = w.bits[:, :k]
    a = bits.view(np.float64)
    np.bitwise_and(v.view(np.uint64), np.uint64(2**63 - 1), out=bits)
    np.subtract(bits, _LEAST, out=rel)
    outside, ok = w.flags[:, :k]
    np.greater_equal(rel, _SPAN, out=outside)
    raw = np.flatnonzero(outside)
    a[raw] = 1.0
    np.right_shift(bits, 52, out=rel)
    i = _BINADE_DECADE.take(rel.view(np.intp), out=w.index[0, :k], mode="clip")
    ints, (p, hi, a_hi, a_lo, err) = w.ints[:, :k], w.floats[:, :k]
    _DECADE_END.take(i, out=p)
    np.greater_equal(a, p, out=ok)
    i += ok

    # D = round-half-even(a * 10**(16 - E)). a * 10**(16 - E) is the double hi
    # plus its rounding error err, exactly: Dekker's two-product (Dekker 1971).
    # hi >= 2**53 is an even integer, so D is hi + rint(err), ties included.
    _POW.take(i, out=p)
    np.multiply(a, p, out=hi)
    np.multiply(a, _SPLIT, out=a_hi)
    np.subtract(a_hi, a, out=a_lo)
    a_hi -= a_lo
    np.subtract(a, a_hi, out=a_lo)
    _POW_HI.take(i, out=p)
    np.multiply(a_hi, p, out=err)
    err -= hi
    p *= a_lo
    err += p
    _POW_LO.take(i, out=p)
    a_hi *= p
    err += a_hi
    p *= a_lo
    err += p
    d, rounded = ints[:2]
    d[...] = hi
    np.rint(err, out=p)
    rounded[...] = p
    d += rounded
    # D has 17 digits when 10**16 < D < 10**17, or D = 10**16 from hi + err >= 10**16.
    np.subtract(d, 10**16 + 1, out=rounded)
    np.less(rounded.view(np.uint64), 9 * 10**16 - 1, out=ok)
    ok |= (d == 10**16) & (err >= 0)
    if not ok.all():
        # D rounded up to 10**17, or |v| is the double nearest a power of ten
        # yet below it: `%` writes these few cells too.
        outside |= ~ok
        raw = np.flatnonzero(outside)
        d[raw] = 10**16

    # The 24 digits of D * 10**s: three 8-digit parts, then six 4-digit groups
    # in quads, and their chars between rows of dashes.
    top, high, low, shift = ints[2:]
    np.floor_divide(d, 10**8, out=high)
    np.multiply(high, 10**8, out=low)
    np.subtract(d, low, out=low)
    _ZERO_SHIFT.take(i, out=shift)
    low *= shift
    high *= shift
    np.floor_divide(low, 10**8, out=top)
    high += top
    top *= 10**8
    low -= top
    np.floor_divide(high, 10**8, out=top)
    np.multiply(top, 10**8, out=shift)
    high -= shift
    quads = w.quads[:, :k]
    np.floor_divide(ints[2:5], 10**4, out=quads[0::2])
    np.multiply(quads[0::2], 10**4, out=quads[1::2])
    np.subtract(ints[2:5], quads[1::2], out=quads[1::2])
    _QUAD_CHARS.take(quads, out=w.quad_chars[1:7, :k])
    chars = w.chars[:k + 1]
    np.copyto(chars, w.quad_chars[:, :k + 1].T)

    # The layout code: the significant digits, the most that a group's row of
    # _GROUP_DIGITS holds, plus the decade's base.
    np.add(quads, _GROUP_ROWS, out=ints)
    _GROUP_DIGITS.take(ints, out=w.row_digits[:, :k])
    code = np.maximum.reduce(w.row_digits[:, :k], axis=0, out=w.index[1, :k])
    code += _CODE_BASE.take(i, out=w.index[2, :k])

    # Slot byte x takes chars byte x + 3 before the point and x + 2 from it
    # on: byte 3 is a dash, the sign, and the digits start at byte 4.
    chars = chars.view(np.uint8).reshape(-1)
    slots = w.slots[:k].reshape(-1)
    unmoved, moved, text = chars[3:3 + slots.size], chars[2:2 + slots.size], slots
    np.bitwise_xor(unmoved, moved, out=text)
    mask = w.mask[:k]
    np.take(_UNMOVED.view(np.uint64), code, axis=0, out=mask.view(np.uint64), mode="clip")
    text &= mask.reshape(-1)
    text ^= moved
    starts, at = w.starts[:k], w.index[2, :k]
    _POINT.take(code, out=at, mode="clip")
    at += starts
    slots[at] = ord(".")
    length = _BODY_LENGTH.take(code, out=w.index[3, :k], mode="clip")
    exponent = np.flatnonzero(i < -4 - _E_MIN)
    if exponent.size:
        at = starts[exponent] + length[exponent] - 4
        for shift, char in enumerate(b"e-0"):
            slots[at + shift] = char
        slots[at + 3] = ord("0") - _E_MIN - i[exponent]
    sign = np.signbit(v, out=w.flags[1, :k])
    if raw.size:
        # A raw cell's text fills its slot from byte 0, sign included.
        chars = np.frombuffer(("%.17g\n" * raw.size % tuple(v[raw].tolist())).encode(), np.uint8)
        cut = np.flatnonzero(chars == ord("\n"))
        raw_length = np.diff(cut, prepend=-1) - 1
        before = cut - raw_length - np.arange(raw.size)  # text bytes of earlier raw cells
        slots[np.repeat(raw * _SLOT - before, raw_length) + np.arange(len(chars) - raw.size)] = \
            chars[chars != ord("\n")]
        sign[raw] = True
        length[raw] = raw_length - 1

    shape = (n, -1, _SLOT // 8)
    np.take(w.slots[:k].view(np.uint64).reshape(shape), w.positions, axis=1,
            out=w.all_slots[:cells].view(np.uint64).reshape(shape), mode="clip")
    length = np.take(length.reshape(n, -1), w.positions, axis=1,
                     out=w.lengths[:cells].reshape(n, -1)).reshape(-1)
    sign = np.take(sign.reshape(n, -1), w.positions, axis=1,
                   out=w.signs[:cells].reshape(n, -1)).reshape(-1)
    slots = w.all_slots[:cells].reshape(-1)
    slots[w.starts[:cells] + length] = w.separators[:cells]
    length *= 2
    length += sign
    keep = w.keep[:cells]
    np.take(_KEEP.view(np.uint64), length, axis=0, out=keep.view(np.uint64), mode="clip")
    return slots[keep.reshape(-1)]


# Most rows per block, in blocks of equal size: enough that the per-call costs
# of `%` and numpy vanish, few enough that a block's scratch arrays (about
# 1 kB a row for an x, x, value scan) stay small however long the table. An
# 8001-row scan wrote fastest in three blocks, not four of 2001 or two of 4001.
_ROWS_PER_BLOCK = 3000


def write_table(fh, table: np.ndarray) -> None:
    """Write the rows of the 2-D float64 table to the binary file fh as CSV, every cell `%.17g`."""
    blocks = -(-len(table) // _ROWS_PER_BLOCK)
    rows = -(-len(table) // blocks)
    cells = Cells(rows, table)
    for start in range(0, len(table), rows):
        fh.write(format_block(table[start:start + rows], cells))

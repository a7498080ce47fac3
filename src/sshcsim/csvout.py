"""The one CSV writer behind every table sshcsim emits.

Every float is written at 12 significant digits (``%.12g``), so identical
configs give byte-identical files. A table is written as blocks of rows that
share a row template: one entry per field, naming how a varying field is
formatted or holding a constant field's text, so a constant, wherever it
stands in the row, is formatted once per block. A block carries its varying
fields as columns. Blocks are written as they come, a bounded number of rows
at a time, so a long waveform is never held in memory as text.

A block of fewer than _KERNEL_VALUES values (rows times varying fields), or
one with an integer or text column or a column that is not a float64 array,
repeats its row template over its values with ``%``, _ROWS rows per write:
the flip rows and one-row runs of waveform.csv, flip_events.csv and every
analyze, sweep and compare table. A kernel call costs about what ``%``
spends on 384-448 floats, so below _KERNEL_VALUES ``%`` is no slower.

A longer block whose varying fields are float64 arrays is formatted by a
numpy kernel, _format, _CHUNK floats per call, with the bytes of ``%.12g``
and no Python string per value. For |x| with a decimal exponent e in
[-4, 11], where ``%g`` prints fixed-point, y = |x|*10**(11 - e) is one
rounding of an exact product, as 10**(11 - e) is an exact float, and
y < 2**40, so it is within 2**-14 of that product. Where y >= 1e11,
rint(y) < 1e12 and |y - rint(y)| < 0.4996, rint(y) is therefore the
correctly rounded 12-digit mantissa at exponent e. Its digits come from a
table of the 10**4 four-digit groups, with trailing zeros as NUL, and go
into a 24-byte slot per value: sign, the ``0.000`` prefix or the integer
digits, the point where a digit follows it, then the digits past the
point. Every other value is written into its slot by ``%``: 0, -0.0, nan,
+-inf, |x| < 1e-4, |x| >= 1e12, near-ties (the exact ties at e = 11 too),
a log10 off by one next to a power of ten, and a mantissa that rounds up
to 10**12: about 0.1% of a default waveform's t and vpt. Rows are laid out
as slots and 8-byte words of constant text, NUL where nothing is written,
and dropping the NUL bytes of a chunk gives its text.
"""

from __future__ import annotations

import functools
from typing import IO, Iterable, Sequence, Tuple, Union

import numpy as np

_FIELDS = {"g": "%.12g", "d": "%d", "s": "%s"}
_ROWS = 1024  # rows formatted per % write: bounds the text held at once
# The fewest floats (rows * columns) of a block that _format writes: each
# call costs about as much as % on 384-448 floats.
_KERNEL_VALUES = 512
_CHUNK = 4096  # floats per _format call: bounds the bytes held at once
_SLOT = 3  # 8-byte words per float: the longest %.12g, "-1.23456789012e-308", is 19 bytes


def fmt(x: float) -> str:
    """A float as every CSV writes it: 12 significant digits."""
    return _FIELDS["g"] % x


def write_csv(
    out: Union[str, IO[str]],
    header: Sequence[str],
    blocks: Iterable[Tuple[Sequence[str], Sequence[Sequence]]],
) -> None:
    """Write `header`, then every block, to a path or an open text stream.

    A block is ``(fields, columns)``. `fields` names each field of its rows in
    order: ``g`` a float at 12 significant digits, ``d`` an integer and ``s``
    text, each taken from `columns`; any other string is a constant, formatted
    already and free of ``%`` and NUL, that every row of the block writes as
    is.
    `columns` holds one column per varying field, in field order, each with
    one value per row.
    """
    if isinstance(out, str):
        with open(out, "w", newline="", encoding="utf-8") as fh:
            write_csv(fh, header, blocks)
        return
    out.write(",".join(header) + "\n")
    for fields, columns in blocks:
        rows = len(columns[0]) if len(columns) else 0
        if rows * len(columns) >= _KERNEL_VALUES and _floats(fields, columns):
            _write_floats(out, fields, columns, rows)
        elif rows:
            _write_template(out, fields, columns, rows)


def _floats(fields: Sequence[str], columns: Sequence) -> bool:
    """Whether every varying field is a float held in a float64 array."""
    return all(f == "g" for f in fields if f in _FIELDS) and all(
        isinstance(c, np.ndarray) and c.dtype == np.float64 for c in columns
    )


def _write_template(out: IO[str], fields: Sequence[str], columns: Sequence, rows: int) -> None:
    row = ",".join(_FIELDS.get(f, f) for f in fields) + "\n"
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    for a in range(0, rows, _ROWS):
        part = [c[a : a + _ROWS] for c in columns]
        out.write(row * len(part[0]) % tuple(x for values in zip(*part) for x in values))


def _write_floats(out: IO[str], fields: Sequence[str], columns: Sequence, rows: int) -> None:
    """The rows of a block whose varying fields are float64 columns, through
    _format: each float a word-aligned slot of _SLOT words, each run of
    constant text padded with NUL to whole words."""
    line, slots = bytearray(), []
    for k, f in enumerate(fields):
        line += b"," if k else b""
        if f in _FIELDS:
            line += bytes(-len(line) % 8)
            slots.append(len(line) // 8)
            line += bytes(8 * _SLOT)
        else:
            line += f.encode()
    line += b"\n"
    template = np.frombuffer(bytes(line + bytes(-len(line) % 8)), "<u8")
    step = max(1, _CHUNK // len(columns))
    for a in range(0, rows, step):
        # Each step frees the buffer before it: the words, their bytes, then
        # those bytes without NUL.
        out.write(_rows(template, slots, [c[a : a + step] for c in columns]).tobytes()
                  .translate(None, b"\0").decode())


def _rows(template: np.ndarray, slots: Sequence[int], columns: Sequence[np.ndarray]) -> np.ndarray:
    """The words of the rows of columns: the template's, each column's
    floats in its slot."""
    floats = _format(np.stack(columns, axis=1))
    words = np.empty((len(floats), len(template)), "<u8")
    words[:] = template
    for k, at in enumerate(slots):
        words[:, at : at + _SLOT] = floats[:, k]
    return words


@functools.lru_cache(maxsize=None)
def _tables():
    """The kernel's tables, made at first use.

    groups: the four ASCII digits of k < 10**4 as a little-endian word, at k,
    and with its trailing zeros as NUL, at 10**4 + k. By decimal exponent e
    in [-4, 11], at e + 4, over 16 digit places, "0000" and the 12-digit
    mantissa, as two words: zeros holds '0' at each place that must show a
    zero the groups do not give (the ``0.000`` prefix, or an integer digit
    that a stripped group dropped), and below is 0xFF at the places before
    the point, which goes before place e + 5. dot, at e + 4, holds the point
    and the sign in a slot's words: a '-' adds 16 to the index, and no digit
    past the point adds 32 and drops the point.

    The digits are looked up, not divided out: an integer division or a
    uint8 add is a numpy loop that the rest of a run never calls, and
    calling it maps code pages that raise the process's peak RSS."""
    digit = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T  # of k, by place
    nonzero = np.frombuffer(bytes([0] + [1] * 9), np.bool_).take(digit)
    kept = np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1]  # to the last nonzero
    digit = np.frombuffer(b"0123456789", np.uint8).take(digit)
    groups = np.concatenate([digit, np.where(kept, digit, np.uint8(0))])
    groups = np.concatenate([groups, np.zeros_like(groups)], axis=1).view("<u8").ravel()
    e, place = np.arange(-4, 12)[:, None], np.arange(16)
    point = e + 5

    def words(mask, byte):  # (16, 16) bool by exponent and place -> (2, 16) words
        return np.where(mask, byte, 0).astype(np.uint8).view("<u8").T.copy()

    zeros = words((place >= 4 + np.minimum(e, 0)) & (place < np.maximum(point, 4)), ord("0"))
    below = words(place < point, 0xFF)
    slot = np.zeros((4, 16, 8 * _SLOT), np.uint8)  # by sign + 2 * (no point), exponent
    slot[1::2, :, 0] = ord("-")
    slot[:2, place, place + 2] = ord(".")  # past the sign and the places before it
    dot = slot.reshape(64, 8 * _SLOT).view("<u8").T.copy()
    pow10 = np.array([float(10**k) for k in range(16)])
    tables = groups, zeros, below, dot, pow10
    for table in tables:  # shared by every call
        table.setflags(write=False)
    return tables


def _format(x: np.ndarray) -> np.ndarray:
    """``%.12g`` of each float64 in x, NUL-padded to _SLOT little-endian
    words, shape x.shape + (_SLOT,): the kernel where its mantissa is exact,
    else _fallback."""
    e, mantissa, exact = _mantissa(x)
    b0, b1, f0, f1 = _places(e, mantissa)
    e += 4
    np.clip(e, 0, 15, out=e)
    e += 16 * np.signbit(x)  # no flag on a nan, which _fallback writes anyway
    e += 32 * ((f0 | f1) == 0)
    dot = _tables()[3]
    s8, s16, s48, s56 = (np.uint64(s) for s in (8, 16, 48, 56))
    words = np.empty(x.shape + (_SLOT,), "<u8")
    words[..., 0] = (b0 << s8) | (f0 << s16) | dot[0].take(e)
    words[..., 1] = (b1 << s8) | (b0 >> s56) | (f1 << s16) | (f0 >> s48) | dot[1].take(e)
    words[..., 2] = (b1 >> s56) | (f1 >> s48) | dot[2].take(e)
    missed = np.flatnonzero(~exact)
    if len(missed):
        flat = words.reshape(-1, _SLOT)
        flat[missed] = _fallback(x.ravel()[missed])
    return words


def _mantissa(x: np.ndarray):
    """Each |x|'s decimal exponent e, the 12-digit mantissa rint(y) at e, as
    an integral float, and whether that mantissa is exact. Values outside
    [1e-4, 1e12), nan included, are clipped into [1e-5, 1e13] first, where
    no step raises a warning and none is exact."""
    pow10 = _tables()[4]
    a = np.abs(x)
    np.fmax(a, 1e-5, out=a)
    np.fmin(a, 1e13, out=a)
    e = np.log10(a)
    e = np.floor(e, out=e).astype(np.intp)  # -5..13; the tables clip it
    y = pow10.take(11 - e, mode="clip")
    y *= a
    r = np.rint(y)
    off = np.subtract(y, r, out=a)
    exact = np.abs(off, out=off) < 0.4996
    exact &= y >= 1e11
    exact &= r < 1e12
    return e, r, exact


def _places(e: np.ndarray, r: np.ndarray):
    """The 16 digit places "0000" + the mantissa r at exponent e, as two
    words each: (b0, b1) the places before the point and (f0, f1) those past
    it, trailing zeros dropped. r is overwritten."""
    groups, zeros, below = _tables()[:3]
    # The mantissa's four-digit groups, in floats: r is an integer below
    # 2**53 and a quotient by 1e8 or 1e4 rounds to no integer it does not
    # reach, so each step is exact.
    high = np.floor(r / 1e8)
    r -= high * 1e8
    mid = np.floor(r / 1e4)
    r -= mid * 1e4
    high, mid, low = (g.astype(np.intp) for g in (high, mid, r))
    # Trailing zeros drop: low is stripped always, mid where low is 0, high
    # where both are. high leads with a nonzero digit.
    last = low == 0
    low += 10_000
    mid += 10_000 * last
    last &= mid == 10_000
    high += 10_000 * last
    e = e + 4
    f0 = groups.take(high, mode="clip")
    f0 <<= np.uint64(32)
    f0 |= zeros[0].take(e, mode="clip")
    f1 = groups.take(low, mode="clip")
    f1 <<= np.uint64(32)
    f1 |= groups.take(mid, mode="clip")
    f1 |= zeros[1].take(e, mode="clip")
    b0 = below[0].take(e, mode="clip")
    b0 &= f0
    b1 = below[1].take(e, mode="clip")
    b1 &= f1
    f0 ^= b0
    f1 ^= b1
    return b0, b1, f0, f1


def _fallback(x: np.ndarray) -> np.ndarray:
    """``%.12g`` of each float in x, NUL-padded to _SLOT words."""
    text = np.array([_FIELDS["g"] % v for v in x.tolist()], dtype=f"S{8 * _SLOT}")
    return text.view("<u8").reshape(len(x), _SLOT)

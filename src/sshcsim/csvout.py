"""The one CSV writer behind every table sshcsim emits.

Every float is written at 12 significant digits (``%.12g``), so identical
configs give byte-identical files. A table is written as blocks of rows that
share a row template: one entry per field, naming how a varying field is
formatted or holding a constant field's text. Repeating the template over a
block's values leaves the conversions of the varying fields as the only
per-row cost, so a constant, wherever it stands in the row, is formatted once
per block. Blocks are written as they come, at most _ROWS rows at a time, so a
long waveform is never held in memory as text.
"""

from __future__ import annotations

from typing import IO, Iterable, Sequence, Tuple, Union

_FIELDS = {"g": "%.12g", "d": "%d", "s": "%s"}
_ROWS = 1024  # rows formatted per write: bounds the text held at once


def fmt(x: float) -> str:
    """A float as every CSV writes it: 12 significant digits."""
    return _FIELDS["g"] % x


def write_csv(
    out: Union[str, IO[str]],
    header: Sequence[str],
    blocks: Iterable[Tuple[Sequence[str], Sequence]],
) -> None:
    """Write `header`, then every block, to a path or an open text stream.

    A block is ``(fields, values)``. `fields` names each field of its rows in
    order: ``g`` a float at 12 significant digits, ``d`` an integer and ``s``
    text, each taken from `values`; any other string is a constant, formatted
    already and free of ``%``, that every row of the block writes as is.
    `values` holds the varying fields of the block's rows in row order.
    """
    if isinstance(out, str):
        with open(out, "w", newline="", encoding="utf-8") as fh:
            write_csv(fh, header, blocks)
        return
    out.write(",".join(header) + "\n")
    for fields, values in blocks:
        row = ",".join(_FIELDS.get(f, f) for f in fields) + "\n"
        width = sum(f in _FIELDS for f in fields)
        step = _ROWS * width
        for a in range(0, len(values), step):
            part = tuple(values[a : a + step])
            out.write((row * (len(part) // width)) % part)

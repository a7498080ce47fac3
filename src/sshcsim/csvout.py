"""The one CSV writer behind every table sshcsim emits.

Every float is written at 12 significant digits (``%.12g``), so identical
configs give byte-identical files. Rows are produced by repeating a printf
row template over a block of values, which leaves the number conversions as
the only per-row cost, and blocks are written as they come, at most _ROWS
rows at a time, so a long waveform is never held in memory as text. Each
block names its own leading fields, so a run of rows whose later fields are
all constant formats those constants once, in its tail, and converts only
the fields that change.
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
    blocks: Iterable[Tuple[str, str, Sequence]],
) -> None:
    """Write `header`, then every block, to a path or an open text stream.

    A block is ``(kinds, tail, values)``. `kinds` has one letter per leading
    field of its rows: ``g`` a float at 12 significant digits, ``d`` an
    integer, ``s`` text. `values` holds those leading fields in row order, and
    every row of the block ends with the constant `tail`, a comma-separated
    run of fields formatted already (``""`` for none).
    """
    if isinstance(out, str):
        with open(out, "w", newline="", encoding="utf-8") as fh:
            write_csv(fh, header, blocks)
        return
    out.write(",".join(header) + "\n")
    for kinds, tail, values in blocks:
        # A tail holds formatted numbers and phase tokens, never a '%'.
        row = ",".join([_FIELDS[k] for k in kinds] + ([tail] if tail else [])) + "\n"
        step = _ROWS * len(kinds)
        for a in range(0, len(values), step):
            part = tuple(values[a : a + step])
            out.write((row * (len(part) // len(kinds))) % part)

"""The one CSV writer behind every table sshcsim emits.

Every float is written at 12 significant digits (``%.12g``), so identical
configs give byte-identical files. Rows are produced by repeating a printf
row template over a block of values, which leaves the number conversions as
the only per-row cost, and blocks are written as they come, so a long
waveform is never held in memory as text.
"""

from __future__ import annotations

from typing import IO, Iterable, Sequence, Tuple, Union

_FIELDS = {"g": "%.12g", "d": "%d", "s": "%s"}


def fmt(x: float) -> str:
    """A float as every CSV writes it: 12 significant digits."""
    return _FIELDS["g"] % x


def write_csv(
    out: Union[str, IO[str]],
    header: Sequence[str],
    kinds: str,
    blocks: Iterable[Tuple[str, Sequence]],
) -> None:
    """Write `header`, then every block, to a path or an open text stream.

    `kinds` has one letter per leading field of a row: ``g`` a float at 12
    significant digits, ``d`` an integer, ``s`` text. A block is
    ``(tail, values)``: `values` holds the leading fields of its rows in row
    order, and every row of the block ends with the constant `tail`, a
    comma-separated run of fields formatted already (``""`` for none).
    """
    if isinstance(out, str):
        with open(out, "w", newline="", encoding="utf-8") as fh:
            write_csv(fh, header, kinds, blocks)
        return
    head = ",".join(_FIELDS[k] for k in kinds)
    width = len(kinds)
    out.write(",".join(header) + "\n")
    for tail, values in blocks:
        # A tail holds formatted numbers and phase tokens, never a '%'.
        row = head + ("," + tail if tail else "") + "\n"
        out.write((row * (len(values) // width)) % tuple(values))

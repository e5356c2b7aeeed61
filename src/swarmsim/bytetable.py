"""CSV bodies spelled as fixed-width byte columns.

The oracle's tables run to tens of thousands of rows, so their text is
built a column at a time rather than a field at a time.  Each column is a
numpy ``S`` array whose fields are padded with NUL bytes to the width of
the widest; a table is its columns copied side by side into one
rows x width ``uint8`` block (:func:`block`), and the file body is that
block with the NUL bytes dropped (:func:`text`).  Only ``oracle`` loads
this module, and each function imports numpy itself, so importing the
CLI, which every command and every cold start does, stays as cheap as
it was.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def decimals(n: int) -> np.ndarray:
    """The decimal texts of ``0 .. n-1`` as one NUL-padded ``S`` array,
    built one digit count at a time: a number's text is the text of its
    tenth followed by its last digit."""
    import numpy as np
    width = len(str(n - 1))
    table = np.zeros((n, width), dtype=np.uint8)
    low = 0
    for digits in range(1, width + 1):
        values = np.arange(low, min(10**digits, n))
        table[low : low + len(values), : digits - 1] = table[values // 10, : digits - 1]
        table[low : low + len(values), digits - 1] = values % 10 + ord("0")
        low += len(values)
    return table.view(f"S{width}").ravel()


def floats(values: np.ndarray) -> np.ndarray:
    """The ``repr`` of each float64 as one NUL-padded ``S`` array, with one
    ``repr`` per distinct bit pattern.  Keyed on the bits, not the value,
    so that ``-0.0`` and ``0.0`` keep their own texts."""
    import numpy as np
    if values.dtype != np.float64:
        raise TypeError(f"expected a float64 array, got {values.dtype}")
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype="S")
    return texts[inverse]


def block(*columns: np.ndarray | bytes) -> np.ndarray:
    """Columns side by side in one rows x width ``uint8`` block.  A column
    is an ``S`` array, an earlier block, or a ``bytes`` literal that every
    row repeats; at least one is an array, and the arrays are as long."""
    import numpy as np
    rows = len(next(c for c in columns if not isinstance(c, bytes)))
    parts = []
    for c in columns:
        if isinstance(c, bytes):
            c = np.broadcast_to(np.frombuffer(c, dtype=np.uint8), (rows, len(c)))
        elif c.ndim == 1:
            c = c[:, None].view(np.uint8)
        parts.append(c)
    return np.concatenate(parts, axis=1)


def text(rows: np.ndarray) -> bytes:
    """The bytes of a :func:`block`, row after row, its NUL padding dropped."""
    return rows[rows != 0].tobytes()

"""The row-at-a-time CSV writer, kept as the oracle for `cli._write_csv`.

One `_fmt` call per cell: 15 significant digits for floats with -0.0 folded
into 0, plain integers for ints and bools, strings unchanged.
"""

import numpy as np


def fmt(x) -> str:
    """One CSV cell, as the writer formatted it before it went column-wise."""
    if type(x) is float:
        return format(x + 0.0, ".15g")  # folds -0.0 into 0
    if type(x) is int:
        return str(x)
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x) + 0.0, ".15g")
    return str(x)


def csv_text(header, rows) -> str:
    """The whole file: the header line, then one joined line per row."""
    return (",".join(header) + "\n"
            + "".join(",".join(map(fmt, row)) + "\n" for row in rows))

"""CSV/JSON table emission with exact-rational and float formatting rules.

Rationals travel as "p/q" strings (plain integers when the denominator is 1),
floats with 17 significant digits so round-tripping is lossless.  A JSON int
past the interpreter's int-to-str limit is written as an integral Fraction is.
"""

import csv
import json
from dataclasses import dataclass, field
from fractions import Fraction
import io
from pathlib import Path

import numpy as np

from .rational import format_rational


@dataclass
class Table:
    columns: list
    rows: list = field(default_factory=list)

    def add(self, *row):
        if len(row) != len(self.columns):
            raise ValueError(f"row width {len(row)} != {len(self.columns)} columns")
        self.rows.append(tuple(row))


def format_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer, Fraction)):
        return format_rational(v)
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def json_cell(v):
    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        try:
            str(v)      # json writes an int with str, which has a digit limit
        except ValueError:
            return format_rational(int(v))   # as an integral Fraction is written
        return int(v)
    if isinstance(v, float):
        return v
    return str(v)


def write(table: Table, fh, fmt: str = "csv") -> None:
    """Write the table to the open text file fh: CSV rows end in "\r\n", as
    the csv module writes them; JSON is one indented object."""
    if fmt == "csv":
        w = csv.writer(fh)
        w.writerow(table.columns)
        for row in table.rows:
            w.writerow([format_cell(v) for v in row])
    elif fmt == "json":
        payload = {"columns": table.columns,
                   "rows": [[json_cell(v) for v in row] for row in table.rows]}
        json.dump(payload, fh, indent=1)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def emit(table: Table, path, fmt: str = "csv") -> str:
    """Write the table to the file at path (untouched on a bad format); returns the path."""
    text = io.StringIO()
    write(table, text, fmt)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text.getvalue(), newline="")
    return str(path)

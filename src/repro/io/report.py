"""Plain-text and CSV tabulation for benches and the CLI.

Every experiment in :mod:`benchmarks` prints its rows through
:func:`format_table` so the output matches the paper's tables/figures
structure: one row per sweep point, named columns, fixed-width
alignment readable in a terminal log.
"""

from __future__ import annotations

import io
import csv
from typing import Any, List, Mapping, Optional, Sequence


def format_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Optional[Sequence[str]] = None,
    title: str = "",
    float_format: str = "%.2f",
) -> str:
    """Render dict-rows as an aligned fixed-width text table.

    ``columns`` fixes the column order (default: keys of the first row
    in insertion order).  Floats go through ``float_format``; other
    values through ``str``.
    """
    if not rows:
        return (title + "\n" if title else "") + "(no rows)\n"
    cols = list(columns) if columns else list(rows[0].keys())

    def fmt(v: Any) -> str:
        if isinstance(v, bool):
            return "yes" if v else "no"
        if isinstance(v, float):
            return float_format % v
        return str(v)

    cells = [[fmt(r.get(c, "")) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)]
    out: List[str] = []
    if title:
        out.append(title)
    header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(cols))
    out.append(header)
    out.append("  ".join("-" * w for w in widths))
    for row in cells:
        out.append("  ".join(row[i].ljust(widths[i]) for i in range(len(cols))))
    return "\n".join(out) + "\n"


def rows_to_csv(
    rows: Sequence[Mapping[str, Any]],
    columns: Optional[Sequence[str]] = None,
) -> str:
    """Render dict-rows as CSV text."""
    if not rows:
        return ""
    cols = list(columns) if columns else list(rows[0].keys())
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=cols, extrasaction="ignore", lineterminator="\n"
    )
    writer.writeheader()
    for r in rows:
        writer.writerow({c: r.get(c, "") for c in cols})
    return buf.getvalue()


def save_csv(
    rows: Sequence[Mapping[str, Any]],
    path: str,
    columns: Optional[Sequence[str]] = None,
) -> None:
    """Write dict-rows to a CSV file."""
    with open(path, "w", newline="") as f:
        f.write(rows_to_csv(rows, columns))


def percent(x: float) -> str:
    """Format a fraction as a percentage string.

    >>> percent(0.0312)
    '3.1%'
    """
    return "%.1f%%" % (100.0 * x)

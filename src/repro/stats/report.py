"""Plain-text table rendering for sweep results and benchmarks."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_table(
    rows: Sequence[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render rows of dictionaries as an aligned ASCII table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    cells: List[List[str]] = [[str(c) for c in columns]]
    for row in rows:
        cells.append([_fmt(row.get(c, "")) for c in columns])
    widths = [
        max(len(line[i]) for line in cells) for i in range(len(columns))
    ]
    out_lines = []
    if title:
        out_lines.append(title)
    header = "  ".join(c.ljust(w) for c, w in zip(cells[0], widths))
    out_lines.append(header)
    out_lines.append("-" * len(header))
    for line in cells[1:]:
        out_lines.append(
            "  ".join(c.rjust(w) for c, w in zip(line, widths))
        )
    return "\n".join(out_lines)


def format_series(
    rows: Sequence[Dict[str, object]],
    x: str,
    y: str,
    title: Optional[str] = None,
) -> str:
    """Pivot sweep rows into one column per ``config`` label.

    The shape of a paper figure: x-axis values down the side, one column
    per curve.
    """
    labels: List[str] = []
    xs: List[object] = []
    table: Dict[object, Dict[str, object]] = {}
    for row in rows:
        label = str(row.get("config", y))
        if label not in labels:
            labels.append(label)
        xv = row[x]
        if xv not in table:
            table[xv] = {}
            xs.append(xv)
        table[xv][label] = row.get(y, "")
    pivot_rows = []
    for xv in xs:
        line: Dict[str, object] = {x: xv}
        for label in labels:
            line[label] = table[xv].get(label, "")
        pivot_rows.append(line)
    return format_table(pivot_rows, [x] + labels, title=title)

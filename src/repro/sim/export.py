"""Result export: sweep rows to CSV for external plotting."""

from __future__ import annotations

import csv
import os
from typing import Dict, Sequence


def rows_to_csv(rows: Sequence[Dict[str, object]], path: str) -> int:
    """Write sweep rows to ``path``; returns the number of data rows.

    Parent directories are created as needed, so sweeps can target
    fresh result trees (``results/<campaign>/rows.csv``) directly.
    The columns are the union of keys across rows, in first-seen
    order, so heterogeneous sweeps stay loadable.
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    columns: Dict[str, None] = {}
    for row in rows:
        for key in row:
            columns.setdefault(key)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(columns),
                                restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return len(rows)

"""Fixed-width table rendering for benchmark output.

Every bench prints its table through these helpers, so the harness output
reads like the paper's tables: a title line, a header row, aligned cells.
The formatter itself lives in the leaf module :mod:`repro.tables`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.tables import format_table

__all__ = ["format_table", "print_table"]


def print_table(headers: Sequence[str], rows: Iterable[Sequence], *, title: str = "") -> None:
    """Print an aligned text table (with a leading blank line)."""
    print()
    print(format_table(headers, rows, title=title))

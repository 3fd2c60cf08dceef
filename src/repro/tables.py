"""Fixed-width text tables.

A leaf module (standard library only), so the metrics, observability and
CLI layers can render tables without importing the experiment harness
(:mod:`repro.experiments`, which pulls in every baseline protocol and
``networkx``).  :mod:`repro.experiments.report` re-exports
:func:`format_table` for the benches.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def _render_cell(value) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == float("inf"):
            return "inf"
        return f"{value:.3f}" if abs(value) < 1000 else f"{value:.1f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence], *, title: str = "") -> str:
    """Render an aligned text table."""
    rendered: List[List[str]] = [[_render_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError(f"row has {len(row)} cells, header has {len(headers)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)

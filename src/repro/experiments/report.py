"""Plain-text table/series rendering shared by the benchmark harnesses.

Benchmarks print the same rows/series the paper reports; these helpers
keep that output aligned and diff-friendly (``bench_figures.txt`` records it).
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["format_table", "format_series", "format_seconds"]


def format_seconds(value: float) -> str:
    if value < 1e-3:
        return f"{value * 1e6:.0f}µs"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """A fixed-width table with right-aligned numeric columns."""
    rendered = [[_cell(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered)) if rendered else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    name: str, points: Mapping[object, float], unit: str = ""
) -> str:
    """One named series as ``name: x=value`` pairs (a figure's line)."""
    parts = [f"{x}={_cell(y)}{unit}" for x, y in points.items()]
    return f"{name}: " + "  ".join(parts)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return str(value)

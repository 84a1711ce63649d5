"""ASCII rendering of benchmark tables and series.

The benchmark scripts print the same rows/series the experiment index in
docs/THEORY.md describes; this module keeps the formatting in one place so the
output of every bench looks alike (and EXPERIMENTS.md can quote it
verbatim).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

__all__ = ["render_table", "render_series", "render_kv"]


def _stringify(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned, pipe-separated table."""
    materialised = [[_stringify(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))

    def format_row(cells: Sequence[str]) -> str:
        padded = [
            cell.ljust(widths[index]) if index == 0 else cell.rjust(widths[index])
            for index, cell in enumerate(cells)
        ]
        return " | ".join(padded)

    lines = []
    if title:
        lines.append(title)
    lines.append(format_row(list(headers)))
    lines.append("-+-".join("-" * width for width in widths))
    for row in materialised:
        lines.append(format_row(row))
    return "\n".join(lines)


def render_series(
    title: str,
    x_label: str,
    series: Mapping[str, Sequence[tuple[object, object]]],
) -> str:
    """Render several (x, y) series as one table with x as the first column.

    Missing points render as ``-``.  This is the textual stand-in for the
    paper-style scaling figures.
    """
    xs: list[object] = []
    for points in series.values():
        for x, _ in points:
            if x not in xs:
                xs.append(x)
    headers = [x_label] + list(series)
    lookup = {
        name: {x: y for x, y in points} for name, points in series.items()
    }
    rows = []
    for x in xs:
        row: list[object] = [x]
        for name in series:
            row.append(lookup[name].get(x, "-"))
        rows.append(row)
    return render_table(headers, rows, title=title)


def render_kv(title: str, pairs: Mapping[str, object]) -> str:
    """Render a key/value block."""
    width = max((len(key) for key in pairs), default=0)
    lines = [title]
    for key, value in pairs.items():
        lines.append(f"  {key.ljust(width)} : {_stringify(value)}")
    return "\n".join(lines)

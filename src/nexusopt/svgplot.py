"""Pure-text SVG line charts for metrics CSV files.

Diagnostic plots only: one polyline per (file, field) pair over the shared
step column, fixed palette, text legend. No plotting dependency, no external
renderer; errors are raised before any file is written.
"""

from __future__ import annotations

import csv
import html
import os

from .errors import ConfigError, NexusError

WIDTH, HEIGHT = 800, 500
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 30, 30, 50
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f"]


def _read_series(path: str, fields: list) -> dict:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for f in ["step", *fields]:
            if f not in header:
                raise NexusError(f"field {f!r} missing from {path}")
        rows = list(reader)
    if not rows:
        raise NexusError(f"{path} contains no data rows")
    series = {}
    for f in fields:
        points = []
        for row in rows:
            if row[f] != "" and row[f] is not None:
                points.append((float(row["step"]), float(row[f])))
        series[f] = points
    return series


def plot(metrics_csv_paths, fields, out_svg: str) -> str:
    """Render the requested fields of one or more runs into a single SVG."""
    if isinstance(metrics_csv_paths, str):
        metrics_csv_paths = [metrics_csv_paths]
    fields = list(fields)
    if not fields:
        raise ConfigError("no fields requested")
    all_series = []  # (label, points)
    for path in metrics_csv_paths:
        run_name = os.path.basename(os.path.dirname(os.path.abspath(path))) or os.path.basename(path)
        data = _read_series(path, fields)
        for f in fields:
            all_series.append((f"{run_name}:{f}", data[f]))
    points_flat = [p for _, pts in all_series for p in pts]
    if not points_flat:
        raise NexusError("no plottable values in the requested fields")

    xs = [p[0] for p in points_flat]
    ys = [p[1] for p in points_flat]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def sy(y):
        return HEIGHT - MARGIN_B - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - MARGIN_T - MARGIN_B)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" x2="{WIDTH - MARGIN_R}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
    ]
    for i in range(5):
        xv = x_lo + i * (x_hi - x_lo) / 4
        yv = y_lo + i * (y_hi - y_lo) / 4
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{HEIGHT - MARGIN_B + 18}" font-size="11" '
            f'text-anchor="middle">{xv:g}</text>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 6}" y="{sy(yv):.1f}" font-size="11" text-anchor="end">{yv:.4g}</text>'
        )
    for idx, (label, pts) in enumerate(all_series):
        color = PALETTE[idx % len(PALETTE)]
        if pts:
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>')
        ly = MARGIN_T + 16 * (idx + 1)
        parts.append(f'<rect x="{WIDTH - 230}" y="{ly - 9}" width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{WIDTH - 214}" y="{ly}" font-size="12">{html.escape(label)}</text>')
    parts.append("</svg>")
    with open(out_svg, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return out_svg

"""Dependency-free SVG line charts for prediction-vs-actual slices."""

from __future__ import annotations

from html import escape

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def line_chart(series, x_labels=None, title="", y_label="", width=960, height=320) -> str:
    """Render named series as one SVG document.

    ``series`` is a list of (label, values) pairs drawn over a shared index
    axis; ``x_labels``, when given, holds one label per point.  Output is
    deterministic for identical inputs.
    """
    if not series:
        raise ValueError("line_chart needs at least one series")
    left, right, top, bottom = 70, 24, 40, 48
    plot_w = width - left - right
    plot_h = height - top - bottom
    lengths = {len(v) for _, v in series}
    count = max(lengths)
    values = np.concatenate([np.asarray(v, dtype=np.float64) for _, v in series])
    lo, hi = float(values.min()), float(values.max())
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def x_at(i, n):
        if n <= 1:
            return left + plot_w / 2.0
        return left + plot_w * i / (n - 1)

    def y_at(v):
        return top + plot_h * (1.0 - (v - lo) / (hi - lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.0f}" y="22" text-anchor="middle" font-size="14" '
            f'fill="#333">{escape(title)}</text>'
        )

    ticks = np.linspace(lo, hi, 5)
    for tick in ticks:
        y = y_at(tick)
        parts.append(
            f'<line x1="{left}" y1="{_fmt(y)}" x2="{left + plot_w}" y2="{_fmt(y)}" '
            f'stroke="#ddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{_fmt(y + 4)}" text-anchor="end" font-size="11" '
            f'fill="#555">{tick:.4g}</text>'
        )
    if y_label:
        cy = top + plot_h / 2.0
        parts.append(
            f'<text x="16" y="{_fmt(cy)}" font-size="11" fill="#555" '
            f'transform="rotate(-90 16 {_fmt(cy)})" text-anchor="middle">'
            f'{escape(y_label)}</text>'
        )

    if x_labels:
        step = max(1, (count - 1) // 6) if count > 1 else 1
        for i in range(0, count, step):
            x = x_at(i, count)
            parts.append(
                f'<text x="{_fmt(x)}" y="{height - 16}" text-anchor="middle" '
                f'font-size="10" fill="#555">{escape(str(x_labels[i]))}</text>'
            )

    parts.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#999" stroke-width="1"/>'
    )

    for k, (label, vals) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        vals = np.asarray(vals, dtype=np.float64)
        points = " ".join(
            f"{_fmt(x_at(i, len(vals)))},{_fmt(y_at(v))}" for i, v in enumerate(vals)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        lx = left + 12 + 150 * k
        parts.append(
            f'<line x1="{lx}" y1="{top - 8}" x2="{lx + 24}" y2="{top - 8}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 30}" y="{top - 4}" font-size="11" fill="#333">'
            f'{escape(label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"

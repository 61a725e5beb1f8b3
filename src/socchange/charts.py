"""Minimal deterministic SVG line charts for CLI convenience output."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import writing

_COLORS = ("#1b6ca8", "#c0392b", "#1e8449", "#8e44ad", "#b7950b", "#34495e")

_WIDTH = 760
_HEIGHT = 440
_MARGIN = 54


def _scale(values, lo, hi, out_lo, out_hi):
    """Map [lo, hi] onto [out_lo, out_hi]; lo < hi, as the chart widens a
    flat y range and every x is a time axis of two or more samples."""
    return out_lo + (np.asarray(values) - lo) * (out_hi - out_lo) / (hi - lo)


def write_line_chart(path, series, title: str, x_label: str, y_label: str) -> None:
    """Write one SVG with a polyline per (label, x, y) triple; DataError if
    the file cannot be written."""
    path = Path(path)
    xs = np.concatenate([np.asarray(x, dtype=float) for _, x, _ in series])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, _, y in series])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if y_lo == y_hi:
        y_lo -= 1.0
        y_hi += 1.0
    left, right = _MARGIN, _WIDTH - _MARGIN
    top, bottom = _MARGIN, _HEIGHT - _MARGIN
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" '
        f'stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" '
        f'stroke="black"/>',
    ]
    if y_lo < 0 < y_hi:
        zero_y = float(_scale([0.0], y_lo, y_hi, bottom, top)[0])
        parts.append(f'<line x1="{left}" y1="{zero_y:.2f}" x2="{right}" '
                     f'y2="{zero_y:.2f}" stroke="#bbbbbb" stroke-dasharray="4 4"/>')
    for idx, (label, x, y) in enumerate(series):
        px = _scale(x, x_lo, x_hi, left, right)
        py = _scale(y, y_lo, y_hi, bottom, top)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        color = _COLORS[idx % len(_COLORS)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{right - 6}" y="{top + 16 * (idx + 1)}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="12" fill="{color}">{label}</text>')
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        xp = left + frac * (right - left)
        yp = bottom - frac * (bottom - top)
        parts.append(f'<text x="{xp:.1f}" y="{bottom + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{xv:.4g}</text>')
        parts.append(f'<text x="{left - 8}" y="{yp + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{yv:.4g}</text>')
    parts.append(f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 8}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">{x_label}</text>')
    parts.append(f'<text x="16" y="{_HEIGHT // 2}" font-family="sans-serif" '
                 f'font-size="12" transform="rotate(-90 16 {_HEIGHT // 2})" '
                 f'text-anchor="middle">{y_label}</text>')
    parts.append("</svg>")
    with writing(path):
        path.write_text("\n".join(parts) + "\n")

"""Minimal SVG line plots for per-sigma metric series.

Deliberately spartan: axes, a log-scaled x (noise level), and one polyline
per series. Output is plain well-formed XML with no external references.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ValueRangeError
from .metrics import MetricSeries

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 640, 400
_MARGIN = 56


def _escape(text: str) -> str:
    """``xml.sax.saxutils.escape``, ``&`` first, without its module's HTTP and TLS imports."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _x_map(sigmas: np.ndarray, lo: float, hi: float) -> np.ndarray:
    span = np.log10(hi) - np.log10(lo)
    if span == 0:
        return np.full_like(sigmas, _WIDTH / 2)
    frac = (np.log10(sigmas) - np.log10(lo)) / span
    return _MARGIN + frac * (_WIDTH - 2 * _MARGIN)


def plot_series(series: list[MetricSeries], path: str | Path, title: str = "") -> None:
    """Write one polyline per series against a log-sigma axis."""
    if not series:
        raise ValueRangeError("nothing to plot")
    all_sigmas = np.concatenate([np.asarray(s.sigmas) for s in series])
    all_values = np.concatenate([np.asarray(s.values) for s in series])
    if np.any(all_sigmas <= 0):
        raise ValueRangeError("sigma values must be positive for the log axis")
    s_lo, s_hi = float(all_sigmas.min()), float(all_sigmas.max())
    v_lo, v_hi = float(all_values.min()), float(all_values.max())
    if v_hi == v_lo:
        v_hi = v_lo + 1.0

    def y_map(values: np.ndarray) -> np.ndarray:
        frac = (values - v_lo) / (v_hi - v_lo)
        return _HEIGHT - _MARGIN - frac * (_HEIGHT - 2 * _MARGIN)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
    ]
    if title:
        lines.append(
            f'<text x="{_WIDTH / 2}" y="24" text-anchor="middle" '
            f'font-size="14">{_escape(title)}</text>')
    # decade ticks on the sigma axis
    for exp in range(int(np.floor(np.log10(s_lo))), int(np.ceil(np.log10(s_hi))) + 1):
        tick = 10.0**exp
        if not s_lo <= tick <= s_hi:
            continue
        x = float(_x_map(np.array([tick]), s_lo, s_hi)[0])
        lines.append(
            f'<line x1="{x:.2f}" y1="{_HEIGHT - _MARGIN}" x2="{x:.2f}" '
            f'y2="{_HEIGHT - _MARGIN + 5}" stroke="black"/>')
        lines.append(
            f'<text x="{x:.2f}" y="{_HEIGHT - _MARGIN + 20}" text-anchor="middle" '
            f'font-size="11">1e{exp}</text>')
    for frac, value in ((0.0, v_lo), (0.5, (v_lo + v_hi) / 2), (1.0, v_hi)):
        y = _HEIGHT - _MARGIN - frac * (_HEIGHT - 2 * _MARGIN)
        lines.append(
            f'<text x="{_MARGIN - 6}" y="{y:.2f}" text-anchor="end" '
            f'font-size="11">{value:.4g}</text>')
    for i, s in enumerate(series):
        xs = _x_map(np.asarray(s.sigmas), s_lo, s_hi)
        ys = y_map(np.asarray(s.values))
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        color = _COLORS[i % len(_COLORS)]
        lines.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        lines.append(
            f'<text x="{_WIDTH - _MARGIN + 4}" y="{_MARGIN + 14 * i + 10}" '
            f'font-size="11" fill="{color}">{_escape(s.name)}</text>')
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n")

"""Minimal SVG charts for `clothdet eval --plot` and `clothdet strategies --plot`.

Each chart is a fixed 640x420 canvas with a framed plot area, tick labels
and a title, written as plain SVG text with no dependency beyond the stdlib.
"""

from __future__ import annotations

_CHART_W, _CHART_H, _MARGIN = 640, 420, 56


def _chart_frame(title: str, x_label: str, y_label: str, x_ticks, y_ticks, to_px) -> list[str]:
    parts = [
        f'<rect x="0" y="0" width="{_CHART_W}" height="{_CHART_H}" fill="white"/>',
        f'<text x="{_CHART_W / 2}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<text x="{_CHART_W / 2}" y="{_CHART_H - 12}" text-anchor="middle" font-size="12">{x_label}</text>',
        f'<text x="16" y="{_CHART_H / 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {_CHART_H / 2})">{y_label}</text>',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_CHART_W - 2 * _MARGIN}" '
        f'height="{_CHART_H - 2 * _MARGIN}" fill="none" stroke="#333"/>',
    ]
    for tx in x_ticks:
        px, _ = to_px(tx, y_ticks[0])
        parts.append(f'<line x1="{px:.1f}" y1="{_CHART_H - _MARGIN}" x2="{px:.1f}" y2="{_CHART_H - _MARGIN + 5}" stroke="#333"/>')
        parts.append(f'<text x="{px:.1f}" y="{_CHART_H - _MARGIN + 18}" text-anchor="middle" font-size="10">{tx:g}</text>')
    for ty in y_ticks:
        _, py = to_px(x_ticks[0], ty)
        parts.append(f'<line x1="{_MARGIN - 5}" y1="{py:.1f}" x2="{_MARGIN}" y2="{py:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{_MARGIN - 8}" y="{py + 3:.1f}" text-anchor="end" font-size="10">{ty:g}</text>')
    return parts


def _axis_mapper(x_lo, x_hi, y_lo, y_hi):
    span_x = (x_hi - x_lo) or 1.0
    span_y = (y_hi - y_lo) or 1.0

    def to_px(x, y):
        px = _MARGIN + (x - x_lo) / span_x * (_CHART_W - 2 * _MARGIN)
        py = _CHART_H - _MARGIN - (y - y_lo) / span_y * (_CHART_H - 2 * _MARGIN)
        return px, py

    return to_px


def _svg(parts: list[str]) -> str:
    body = "\n".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CHART_W}" height="{_CHART_H}" '
        f'viewBox="0 0 {_CHART_W} {_CHART_H}">\n{body}\n</svg>\n'
    )


def line_chart(series: list[tuple[list[tuple[float, float]], str]], x_label: str, y_label: str, title: str) -> str:
    ticks = [0.0, 0.25, 0.5, 0.75, 1.0]
    to_px = _axis_mapper(0.0, 1.0, 0.0, 1.0)
    parts = _chart_frame(title, x_label, y_label, ticks, ticks, to_px)
    for points, color in series:
        if not points:
            continue
        path = " ".join(f"{to_px(x, y)[0]:.1f},{to_px(x, y)[1]:.1f}" for x, y in points)
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1" opacity="0.6"/>')
    return _svg(parts)


def scatter_chart(points: list[tuple[float, float, str]], x_label: str, y_label: str, title: str) -> str:
    xs = [p[0] for p in points]
    x_hi = max(xs) * 1.15 or 1.0
    ticks_x = [round(x_hi * f, 2) for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
    ticks_y = [0.0, 0.25, 0.5, 0.75, 1.0]
    to_px = _axis_mapper(0.0, x_hi, 0.0, 1.0)
    parts = _chart_frame(title, x_label, y_label, ticks_x, ticks_y, to_px)
    for x, y, name in points:
        px, py = to_px(x, y)
        parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="4" fill="#1f77b4"/>')
        parts.append(f'<text x="{px + 6:.1f}" y="{py - 6:.1f}" font-size="10">{name}</text>')
    return _svg(parts)

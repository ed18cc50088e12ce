"""Minimal deterministic SVG line charts (no plotting dependency).

Output is plain SVG 1.1 text with LF newlines; identical inputs give
byte-identical output. Meant for the CLI's eigenfunction error plots, not
as a general charting tool.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["svg_line_chart"]

_WIDTH = 720
_HEIGHT = 480
_MARGIN_L = 64
_MARGIN_R = 16
_MARGIN_T = 36
_MARGIN_B = 44
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})  # for every label


def _ticks(lo: float, hi: float):
    # about 5 ticks, on steps of 1, 2, 2.5 or 5 times a power of ten
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 5
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    first = np.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else float(v))
        v += step
    return ticks


def svg_line_chart(series, title: str, xlabel: str, ylabel: str) -> str:
    """Render series [(label, xs, ys, color), ...] as one SVG document."""
    if not series:
        raise DomainError("need at least one series")
    pw = _WIDTH - _MARGIN_L - _MARGIN_R
    ph = _HEIGHT - _MARGIN_T - _MARGIN_B
    xs_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    if xs_all.size == 0:
        raise DomainError("series have no points")
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    if x1 <= x0:
        x1 = x0 + 1.0
    if y1 <= y0:
        y0, y1 = y0 - 0.5, y0 + 0.5
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(x):
        return _MARGIN_L + (x - x0) / (x1 - x0) * pw

    def py(y):
        return _MARGIN_T + (y1 - y) / (y1 - y0) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}"'
        f' height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{pw}" height="{ph}"'
        ' fill="none" stroke="#888" stroke-width="1"/>',
        f'<text x="{_WIDTH // 2}" y="20" text-anchor="middle"'
        f' font-family="sans-serif" font-size="14">{title.translate(_XML_TEXT)}</text>',
    ]
    for tx in _ticks(x0, x1):
        xp = px(tx)
        out.append(
            f'<line x1="{xp:.6g}" y1="{_MARGIN_T + ph}" x2="{xp:.6g}"'
            f' y2="{_MARGIN_T + ph + 4}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{xp:.6g}" y="{_MARGIN_T + ph + 18}" text-anchor="middle"'
            f' font-family="sans-serif" font-size="11">{tx:.3g}</text>'
        )
    for ty in _ticks(y0, y1):
        yp = py(ty)
        out.append(
            f'<line x1="{_MARGIN_L - 4}" y1="{yp:.6g}" x2="{_MARGIN_L}"'
            f' y2="{yp:.6g}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 8}" y="{yp + 4:.6g}" text-anchor="end"'
            f' font-family="sans-serif" font-size="11">{ty:.3g}</text>'
        )
    yc = _MARGIN_T + ph // 2
    out += [
        f'<text x="{_MARGIN_L + pw // 2}" y="{_HEIGHT - 8}"'
        ' text-anchor="middle" font-family="sans-serif" font-size="12">'
        f"{xlabel.translate(_XML_TEXT)}</text>",
        f'<text x="14" y="{yc}" text-anchor="middle"'
        f' font-family="sans-serif" font-size="12"'
        f' transform="rotate(-90 14 {yc})">{ylabel.translate(_XML_TEXT)}</text>',
    ]
    for label, xs, ys, color in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        pts = " ".join(f"{px(x):.6g},{py(y):.6g}" for x, y in zip(xs, ys))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}"'
            ' stroke-width="1.5"/>'
        )
    ly = _MARGIN_T + 14
    for label, _, _, color in series:
        out.append(
            f'<line x1="{_MARGIN_L + 10}" y1="{ly - 4}" x2="{_MARGIN_L + 34}"'
            f' y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L + 40}" y="{ly}" font-family="sans-serif"'
            f' font-size="11">{str(label).translate(_XML_TEXT)}</text>'
        )
        ly += 16
    out.append("</svg>")
    return "\n".join(out) + "\n"

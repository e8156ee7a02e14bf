"""Minimal self-contained SVG line/scatter emission (no plotting deps)."""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

W, H = 720, 480
MARGIN = 60
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1
    step = (hi - lo) / 5
    return [lo + i * step for i in range(6)]


class _Frame:
    def __init__(self, x_lo, x_hi, y_lo, y_hi, log_y=False):
        self.x_lo, self.x_hi = x_lo, x_hi
        self.log_y = log_y
        if log_y:
            y_lo, y_hi = math.log10(max(y_lo, 1e-12)), math.log10(y_hi)
        self.y_lo, self.y_hi = y_lo, y_hi

    def px(self, x):
        f = (x - self.x_lo) / (self.x_hi - self.x_lo or 1)
        return MARGIN + f * (W - 2 * MARGIN)

    def py(self, y):
        if self.log_y:
            y = math.log10(max(y, 1e-12))
        f = (y - self.y_lo) / (self.y_hi - self.y_lo or 1)
        return H - MARGIN - f * (H - 2 * MARGIN)


def _axes(fr: _Frame, title: str, x_label: str, y_label: str) -> list[str]:
    parts = [
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{W - 2 * MARGIN}" '
        f'height="{H - 2 * MARGIN}" fill="none" stroke="#333"/>',
        f'<text x="{W / 2:.0f}" y="24" text-anchor="middle" '
        f'font-size="15">{title}</text>',
        f'<text x="{W / 2:.0f}" y="{H - 12}" text-anchor="middle" '
        f'font-size="12">{x_label}</text>',
        f'<text x="16" y="{H / 2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {H / 2:.0f})">{y_label}</text>',
    ]
    for tx in _ticks(fr.x_lo, fr.x_hi):
        parts.append(
            f'<text x="{fr.px(tx):.1f}" y="{H - MARGIN + 16}" '
            f'text-anchor="middle" font-size="10">{tx:.4g}</text>')
    for ty in _ticks(fr.y_lo, fr.y_hi):
        label = 10**ty if fr.log_y else ty
        ypix = H - MARGIN - ((ty - fr.y_lo) / (fr.y_hi - fr.y_lo or 1)
                             ) * (H - 2 * MARGIN)
        parts.append(
            f'<text x="{MARGIN - 6}" y="{ypix:.1f}" text-anchor="end" '
            f'font-size="10">{label:.4g}</text>')
    return parts


_HEAD = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
         f'viewBox="0 0 {W} {H}">\n<rect width="100%" height="100%" '
         f'fill="white"/>\n')
_TAIL = "\n</svg>\n"


def _document(body: list[str]) -> str:
    return _HEAD + "\n".join(body) + _TAIL


def line_plot(series: list[tuple[str, list[tuple[float, float]]]],
              title: str = "", x_label: str = "", y_label: str = "") -> str:
    """Polyline chart on a log y axis; series is a list of
    (label, [(x, y), ...])."""
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    fr = _Frame(min(xs), max(xs), min(ys), max(ys), log_y=True)
    body = _axes(fr, title, x_label, y_label)
    for i, (label, pts) in enumerate(series):
        color = COLORS[i % len(COLORS)]
        path = " ".join(f"{fr.px(x):.2f},{fr.py(y):.2f}" for x, y in pts)
        body.append(f'<polyline points="{path}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>')
        body.append(f'<text x="{W - MARGIN + 4}" y="{MARGIN + 14 * i + 10}" '
                    f'font-size="11" fill="{color}">{label}</text>')
    return _document(body)


def scatter(slices: Iterable[tuple[float, list[float]]], title: str = "",
            x_label: str = "", y_label: str = "") -> Iterator[str]:
    """Dot cloud (bifurcation-style) of the points (x, y), y in ys, of each
    (x, ys) in slices, yielded as the head and then one chunk of circles
    per slice.  slices is walked twice, for the bounds and for the dots, so
    no list of points is made."""
    spans = [(x, min(ys), max(ys)) for x, ys in slices if ys]
    xs, lows, highs = zip(*spans) if spans else ((0, 1), (0,), (1,))
    fr = _Frame(min(xs), max(xs), min(lows), max(highs))
    yield (_HEAD + "\n".join(_axes(fr, title, x_label, y_label))
           + '\n<g fill="#1f77b4" fill-opacity="0.5">')
    for x, ys in slices:
        cx = f"{fr.px(x):.2f}"
        yield "".join(f'<circle cx="{cx}" cy="{fr.py(y):.2f}" r="0.7"/>'
                      for y in ys)
    yield "</g>" + _TAIL

"""Self-contained SVG reliability diagrams.

No external assets, no scripts: a band ribbon, the isotonic fit, the
diagonal with excluded regions flagged in red, axes, and a legend. Step
curves are sampled at piece midpoints, which sidesteps any left/right
continuity fuss at the knots; vertical jumps fall out of consecutive
horizontal runs sharing an x coordinate.
"""

from html import escape

import numpy as np

from .bands import evaluate_band

__all__ = ["render_band_svg"]

_W, _H = 800, 600
_ML, _MR, _MT, _MB = 70, 20, 50, 60
_PW = _W - _ML - _MR
_PH = _H - _MT - _MB

_BAND_FILL = "#9ecae1"
_BAND_EDGE = "#3182bd"
_FIT_COLOR = "#08519c"
_BAD_COLOR = "#d62728"


def _fmt(v):
    return f"{v:.2f}"


def _step_runs(band, fit_levels, a, b):
    """Sample band and fit on the pieces that partition [a, b].

    Returns (bounds, lower, upper, fit) where bounds has one more entry
    than the level arrays and level j applies on [bounds[j], bounds[j+1]].
    """
    knots = band.knots
    inner = knots[(knots > a) & (knots < b)]
    bounds = np.concatenate(([a], inner, [b]))
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    lo, up = evaluate_band(band, mids, extrapolate=True)
    idx = np.clip(np.searchsorted(knots, mids, side="right") - 1, 0, knots.shape[0] - 1)
    return bounds, lo, up, np.asarray(fit_levels, dtype=np.float64)[idx]


def render_band_svg(band, fit_levels, regions=(), zoom=(0.0, 1.0), title=""):
    """Render a band, its isotonic fit and excluded regions to SVG text.

    fit_levels holds the fitted value at each knot; zoom = (a, b) restricts
    both axes to [a, b]; regions are x-intervals to overpaint in red on the
    diagonal; title is plain text, escaped here.
    """
    a, b = float(zoom[0]), float(zoom[1])
    if not a < b:
        raise ValueError(f"zoom window ({a}, {b}) is empty")
    span = b - a

    def px(x):
        return _ML + (x - a) / span * _PW

    def py(y):
        return _MT + (b - y) / span * _PH

    bounds, lo, up, fit = _step_runs(band, fit_levels, a, b)

    def run_points(levels):
        pts = []
        for j, lev in enumerate(levels):
            pts.append((px(bounds[j]), py(lev)))
            pts.append((px(bounds[j + 1]), py(lev)))
        return pts

    up_pts = run_points(up)
    lo_pts = run_points(lo)
    ribbon = up_pts + lo_pts[::-1]

    def pts_attr(pts):
        return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}" '
        f'width="{_W}" height="{_H}" font-family="sans-serif">'
    )
    out.append(f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>')
    out.append(
        f'<clipPath id="plot"><rect x="{_ML}" y="{_MT}" width="{_PW}" height="{_PH}"/></clipPath>'
    )

    ticks = [a + span * i / 5.0 for i in range(6)]
    for t in ticks:
        x = px(t)
        y = py(t)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{_MT}" x2="{_fmt(x)}" y2="{_MT + _PH}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<line x1="{_ML}" y1="{_fmt(y)}" x2="{_ML + _PW}" y2="{_fmt(y)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )

    out.append('<g clip-path="url(#plot)">')
    out.append(
        f'<polygon points="{pts_attr(ribbon)}" fill="{_BAND_FILL}" '
        f'fill-opacity="0.5" stroke="none"/>'
    )
    out.append(
        f'<polyline points="{pts_attr(up_pts)}" fill="none" '
        f'stroke="{_BAND_EDGE}" stroke-width="1.5"/>'
    )
    out.append(
        f'<polyline points="{pts_attr(lo_pts)}" fill="none" '
        f'stroke="{_BAND_EDGE}" stroke-width="1.5"/>'
    )
    out.append(
        f'<polyline points="{pts_attr(run_points(fit))}" fill="none" '
        f'stroke="{_FIT_COLOR}" stroke-width="2"/>'
    )
    out.append(
        f'<line x1="{_fmt(px(a))}" y1="{_fmt(py(a))}" x2="{_fmt(px(b))}" '
        f'y2="{_fmt(py(b))}" stroke="black" stroke-width="1.5"/>'
    )
    for lo_r, hi_r in regions:
        lo_c, hi_c = max(lo_r, a), min(hi_r, b)
        if lo_c > hi_c:
            continue
        if lo_c == hi_c:
            out.append(
                f'<circle cx="{_fmt(px(lo_c))}" cy="{_fmt(py(lo_c))}" r="4" '
                f'fill="{_BAD_COLOR}"/>'
            )
        else:
            out.append(
                f'<line x1="{_fmt(px(lo_c))}" y1="{_fmt(py(lo_c))}" '
                f'x2="{_fmt(px(hi_c))}" y2="{_fmt(py(hi_c))}" '
                f'stroke="{_BAD_COLOR}" stroke-width="3.5"/>'
            )
    out.append("</g>")

    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_PW}" height="{_PH}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    for t in ticks:
        x = px(t)
        y = py(t)
        label = f"{t:g}"
        out.append(
            f'<line x1="{_fmt(x)}" y1="{_MT + _PH}" x2="{_fmt(x)}" '
            f'y2="{_MT + _PH + 5}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{_MT + _PH + 20}" font-size="12" '
            f'text-anchor="middle">{label}</text>'
        )
        out.append(
            f'<line x1="{_ML - 5}" y1="{_fmt(y)}" x2="{_ML}" y2="{_fmt(y)}" '
            f'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_ML - 8}" y="{_fmt(y + 4)}" font-size="12" '
            f'text-anchor="end">{label}</text>'
        )
    out.append(
        f'<text x="{_ML + _PW / 2:.2f}" y="{_MT + _PH + 42}" font-size="14" '
        f'text-anchor="middle">prediction</text>'
    )
    out.append(
        f'<text x="18" y="{_MT + _PH / 2:.2f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MT + _PH / 2:.2f})">event probability</text>'
    )
    if title:
        out.append(
            f'<text x="{_W / 2:.2f}" y="28" font-size="16" '
            f'text-anchor="middle">{escape(title, quote=False)}</text>'
        )

    lx, ly = _ML + 12, _MT + 12
    entries = [("band", _BAND_EDGE), ("isotonic fit", _FIT_COLOR), ("diagonal", "black")]
    if regions:
        entries.append(("diagonal excluded", _BAD_COLOR))
    out.append(
        f'<rect x="{lx - 6}" y="{ly - 6}" width="150" height="{len(entries) * 18 + 8}" '
        f'fill="white" fill-opacity="0.85" stroke="#999999" stroke-width="0.5"/>'
    )
    for i, (name, color) in enumerate(entries):
        yy = ly + 6 + 18 * i
        out.append(
            f'<line x1="{lx}" y1="{yy}" x2="{lx + 22}" y2="{yy}" '
            f'stroke="{color}" stroke-width="3"/>'
        )
        out.append(
            f'<text x="{lx + 28}" y="{yy + 4}" font-size="12">{name}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"

"""Dependency-free SVG scatter plots of the 2-D perspective space.

Output is built from simple shapes with fixed-precision coordinates, so
identical inputs produce identical bytes. The viewport is 800x600 and
the data extent (all points, target included) gets 5% padding per side.
"""

from __future__ import annotations

from dataclasses import dataclass
import html
import math

from .errors import InputValidationError, require_text, require_texts
from .pca import PerspectivePoint, require_point

VIEW_W = 800.0
VIEW_H = 600.0
PAD_FRACTION = 0.05

# tab10-style palette, cycled over groups
PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)


@dataclass(frozen=True)
class PointGroup:
    label: str
    points: tuple[PerspectivePoint, ...]

    def __post_init__(self) -> None:
        require_text(self.label, InputValidationError, "label")
        require_texts(self.points, InputValidationError, "points", require_point)
        object.__setattr__(self, "points", tuple(self.points))


def _extent(points: list[PerspectivePoint]) -> tuple[float, float, float, float]:
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_pad = (x_max - x_min) * PAD_FRACTION or 1.0
    y_pad = (y_max - y_min) * PAD_FRACTION or 1.0
    return x_min - x_pad, x_max + x_pad, y_min - y_pad, y_max + y_pad


def _star_points(cx: float, cy: float, outer: float = 10.0, inner: float = 4.0) -> str:
    # 5-pointed star, tip up; vertex positions precomputed to avoid trig
    # at render time (cos/sin of 36-degree steps).
    unit = [
        (0.0, -1.0),
        (0.58779, -0.80902),
        (0.95106, -0.30902),
        (0.95106, 0.30902),
        (0.58779, 0.80902),
        (0.0, 1.0),
        (-0.58779, 0.80902),
        (-0.95106, 0.30902),
        (-0.95106, -0.30902),
        (-0.58779, -0.80902),
    ]
    coords = []
    for i, (ux, uy) in enumerate(unit):
        r = outer if i % 2 == 0 else inner
        coords.append(f"{cx + r * ux:.2f},{cy + r * uy:.2f}")
    return " ".join(coords)


def render_scatter_svg(
    groups: list[PointGroup],
    target: PerspectivePoint | None = None,
    path_points: list[PerspectivePoint] | None = None,
) -> str:
    """Render point groups (one color each), an optional target star, and
    an optional polyline (the best-so-far path of a search trace)."""
    all_points = [p for g in groups for p in g.points]
    if target is not None:
        all_points.append(target)
    if path_points:
        all_points.extend(path_points)
    if not all_points:
        raise InputValidationError("nothing to plot: no points given")

    x_lo, x_hi, y_lo, y_hi = _extent(all_points)
    # A span beyond the float range would draw at NaN, and one that
    # rounds to zero (a 1.0 pad lost on a huge coordinate) divides by it.
    for axis, lo, hi in (("x", x_lo, x_hi), ("y", y_lo, y_hi)):
        if not 0.0 < hi - lo < math.inf:
            raise InputValidationError(
                f"cannot draw the points: their padded {axis} extent "
                f"[{lo}, {hi}] has no finite, non-zero span"
            )

    def px(p: PerspectivePoint) -> tuple[float, float]:
        sx = (p.x - x_lo) / (x_hi - x_lo) * VIEW_W
        sy = VIEW_H - (p.y - y_lo) / (y_hi - y_lo) * VIEW_H
        return sx, sy

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {VIEW_W:.0f} '
        f'{VIEW_H:.0f}">',
        f'<rect x="0" y="0" width="{VIEW_W:.0f}" height="{VIEW_H:.0f}" '
        'fill="white" stroke="#cccccc"/>',
        f'<text x="{VIEW_W / 2:.0f}" y="{VIEW_H - 6:.0f}" font-size="14" '
        'text-anchor="middle" fill="#333333">PC1</text>',
        f'<text x="14" y="{VIEW_H / 2:.0f}" font-size="14" '
        f'text-anchor="middle" fill="#333333" '
        f'transform="rotate(-90 14 {VIEW_H / 2:.0f})">PC2</text>',
    ]

    for gi, group in enumerate(groups):
        color = PALETTE[gi % len(PALETTE)]
        for p in group.points:
            sx, sy = px(p)
            parts.append(
                f'<circle cx="{sx:.2f}" cy="{sy:.2f}" r="4" fill="{color}" '
                f'fill-opacity="0.8"/>'
            )

    if path_points:
        pts = " ".join("{:.2f},{:.2f}".format(*px(p)) for p in path_points)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#555555" '
            'stroke-width="1.5" stroke-dasharray="4 3"/>'
        )

    if target is not None:
        sx, sy = px(target)
        parts.append(
            f'<polygon points="{_star_points(sx, sy)}" fill="#ffd700" '
            'stroke="#333333" stroke-width="1"/>'
        )

    legend_y = 22.0
    for gi, group in enumerate(groups):
        color = PALETTE[gi % len(PALETTE)]
        parts.append(
            f'<rect x="20" y="{legend_y - 10:.0f}" width="12" height="12" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="38" y="{legend_y:.0f}" font-size="13" '
            f'fill="#333333">{html.escape(group.label, quote=False)}</text>'
        )
        legend_y += 18.0
    if target is not None:
        parts.append(
            f'<text x="38" y="{legend_y:.0f}" font-size="13" '
            'fill="#333333">&#9733; target</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"

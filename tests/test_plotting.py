import re

import pytest

from pdial.errors import InputValidationError
from pdial.pca import PerspectivePoint
from pdial.plotting import PALETTE, PointGroup, render_scatter_svg


def _circles(svg: str) -> list[tuple[float, float, str]]:
    pattern = r'<circle cx="([-0-9.]+)" cy="([-0-9.]+)" r="4" fill="(#\w+)"'
    return [
        (float(m.group(1)), float(m.group(2)), m.group(3))
        for m in re.finditer(pattern, svg)
    ]


class TestRenderScatterSvg:
    GROUPS = [
        PointGroup("alpha", (PerspectivePoint(0.0, 0.0), PerspectivePoint(1.0, 1.0))),
        PointGroup("beta", (PerspectivePoint(-1.0, 0.5),)),
        PointGroup("gamma", (PerspectivePoint(2.0, -1.5),)),
    ]

    def test_one_color_per_group_and_legend(self):
        svg = render_scatter_svg(self.GROUPS)
        colors = {c for _, _, c in _circles(svg)}
        assert colors == set(PALETTE[:3])
        for group in self.GROUPS:
            assert f">{group.label}</text>" in svg

    def test_deterministic_bytes(self):
        a = render_scatter_svg(self.GROUPS, target=PerspectivePoint(0.5, 0.5))
        b = render_scatter_svg(self.GROUPS, target=PerspectivePoint(0.5, 0.5))
        assert a.encode() == b.encode()

    def test_marker_coordinates_match_independent_affine_mapping(self):
        svg = render_scatter_svg(self.GROUPS)
        # oracle: recompute the affine map from scratch
        pts = [p for g in self.GROUPS for p in g.points]
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        x_pad = (max(xs) - min(xs)) * 0.05
        y_pad = (max(ys) - min(ys)) * 0.05
        x_lo, x_hi = min(xs) - x_pad, max(xs) + x_pad
        y_lo, y_hi = min(ys) - y_pad, max(ys) + y_pad
        expected = [
            (
                float(f"{(p.x - x_lo) / (x_hi - x_lo) * 800.0:.2f}"),
                float(f"{600.0 - (p.y - y_lo) / (y_hi - y_lo) * 600.0:.2f}"),
            )
            for p in pts
        ]
        got = [(cx, cy) for cx, cy, _ in _circles(svg)]
        assert got == expected

    def test_viewbox_and_axis_labels(self):
        svg = render_scatter_svg(self.GROUPS)
        assert 'viewBox="0 0 800 600"' in svg
        assert ">PC1</text>" in svg
        assert ">PC2</text>" in svg

    def test_target_star_present(self):
        svg = render_scatter_svg(self.GROUPS, target=PerspectivePoint(0.0, 0.0))
        assert "<polygon" in svg
        assert "target" in svg

    def test_path_polyline(self):
        path = [PerspectivePoint(0.0, 0.0), PerspectivePoint(1.0, 1.0)]
        svg = render_scatter_svg(self.GROUPS, path_points=path)
        assert "<polyline" in svg

    def test_degenerate_extent_padded(self):
        groups = [PointGroup("solo", (PerspectivePoint(3.0, 3.0),))]
        svg = render_scatter_svg(groups)
        (cx, cy, _), = _circles(svg)
        assert (cx, cy) == (400.0, 300.0)  # centered in the viewport

    @pytest.mark.parametrize("points,target", [
        ([(1e308, 0.0), (-1e308, 0.0)], None),
        ([(0.0, 0.0)], (1.75e308, 0.0)),
        ([(0.0, 0.85e308), (0.0, -0.85e308)], None),
        ([(1e20, 0.0)], None),
    ], ids=["span-overflows", "pad-overflows", "padded-span-overflows", "pad-lost"])
    def test_extent_without_finite_nonzero_span_rejected(self, points, target):
        """Each case would draw at NaN or divide by zero: the padded extent
        or its span leaves the float range, or a span rounds to zero."""
        groups = [PointGroup("far", tuple(PerspectivePoint(*p) for p in points))]
        with pytest.raises(InputValidationError, match="no finite, non-zero span"):
            render_scatter_svg(
                groups, target=None if target is None else PerspectivePoint(*target)
            )

    def test_empty_input_rejected(self):
        with pytest.raises(InputValidationError):
            render_scatter_svg([])

    def test_label_escaping(self):
        groups = [PointGroup("a<b & c>", (PerspectivePoint(0.0, 0.0),))]
        svg = render_scatter_svg(groups)
        assert "a&lt;b &amp; c&gt;" in svg


class TestPointGroup:
    @pytest.mark.parametrize("points, message", [
        (((0.0, 0.0),), "points[0] must be a PerspectivePoint, got tuple"),
        ((PerspectivePoint(0.0, 0.0), None),
         "points[1] must be a PerspectivePoint, got NoneType"),
        (PerspectivePoint(0.0, 0.0), "points must be a list, got PerspectivePoint"),
    ], ids=["tuple-point", "null-point", "bare-point"])
    def test_points_must_be_perspective_points(self, points, message):
        with pytest.raises(InputValidationError) as err:
            PointGroup("a", points)
        assert str(err.value) == message

    def test_points_are_kept_as_a_tuple(self):
        point = PerspectivePoint(0.0, 1.0)
        assert PointGroup("a", [point]).points == (point,)

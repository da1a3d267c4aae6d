import math

import numpy as np
import pytest

from betweenu import (
    ExpectedUtility,
    IterationLimit,
    collinearity_residual,
    context_for,
    degenerate,
    chord_point,
    embed_coords,
    lottery,
    quadratic_oracle,
    render_svg,
    trace_level_curves,
)

LEVELS = (0.2, 0.4, 0.6, 0.8)


def fitted_direction(points) -> np.ndarray:
    """Unit direction of the least-squares line through embedded points."""
    coords = embed_coords(points)
    centered = coords - coords.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    d = vt[0]
    return d if d[0] >= 0 else -d


def cross2(a, b) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


class TestEmbedding:
    def test_vertices_map_to_triangle_corners(self):
        coords = embed_coords([degenerate(i, 3) for i in range(3)])
        assert np.allclose(coords[0], (0.0, 0.0), atol=0)
        assert np.allclose(coords[1], (1.0, 0.0), atol=0)
        assert np.allclose(coords[2], (0.5, math.sqrt(3) / 2), atol=1e-15)

    def test_needs_three_outcomes(self):
        with pytest.raises(ValueError):
            embed_coords([lottery((0.5, 0.5))])


class TestCollinearity:
    def test_exact_line_has_tiny_residual(self):
        points = [lottery((0.5 - s, 2 * s, 0.5 - s)) for s in (0.0, 0.1, 0.2, 0.25)]
        assert collinearity_residual(points) <= 1e-15

    def test_bent_points_have_large_residual(self):
        points = [degenerate(i, 3) for i in range(3)]
        assert collinearity_residual(points) > 0.1

    def test_fewer_than_three_points_trivially_flat(self):
        assert collinearity_residual([degenerate(0, 3)]) == 0.0


class TestTraceLevelCurves:
    def test_straight_for_betweenness_families(self, family_model):
        ctx = context_for(family_model)
        for curve in trace_level_curves(ctx, LEVELS):
            assert len(curve.points) >= 5
            assert collinearity_residual(curve.points) <= 1e-6

    def test_levels_hit_their_chord_value(self, wu_model):
        ctx = context_for(wu_model)
        from betweenu import solve_utility

        for curve in trace_level_curves(ctx, LEVELS):
            for point in curve.points:
                assert solve_utility(ctx, point) == pytest.approx(curve.level, abs=1e-8)

    def test_expected_utility_curves_are_parallel(self, eu_model):
        ctx = context_for(eu_model)
        curves = trace_level_curves(ctx, LEVELS)
        directions = [fitted_direction(c.points) for c in curves]
        for d in directions[1:]:
            assert abs(cross2(directions[0], d)) <= 1e-6

    def test_weighted_utility_curves_fan_out(self, wu_model):
        ctx = context_for(wu_model)
        curves = trace_level_curves(ctx, LEVELS)
        d_low = fitted_direction(curves[0].points)
        d_high = fitted_direction(curves[-1].points)
        assert abs(cross2(d_low, d_high)) > 1e-3

    def test_quadratic_oracle_curves_bend(self):
        ctx = context_for(quadratic_oracle())
        curves = trace_level_curves(ctx, (0.4,))
        assert collinearity_residual(curves[0].points) > 1e-3

    def test_points_ordered_along_embedding(self, da_model):
        ctx = context_for(da_model)
        for curve in trace_level_curves(ctx, LEVELS):
            coords = embed_coords(curve.points)
            keys = [tuple(c) for c in coords]
            assert keys == sorted(keys)

    def test_point_found_by_both_families_listed_once(self, eu_model):
        # Both scanline families meet this curve at the lattice point
        # (16/23, 4/23, 3/23), each a bisection error away from it.
        ctx = context_for(eu_model)
        (curve,) = trace_level_curves(ctx, (0.2,))
        lattice = np.array([16.0, 4.0, 3.0]) / 23.0
        near = [p for p in curve.points if np.abs(p.as_array() - lattice).max() <= 1e-9]
        assert len(near) == 1

    def test_level_on_a_scanline_lists_its_chord_point_once(self, eu_model):
        # The scanline from this chord point ties the level at its end, so
        # the chord point is found twice: as itself and as that end.
        ctx = context_for(eu_model)
        level = float(np.linspace(0, 1, 24)[5])
        (curve,) = trace_level_curves(ctx, (level,))
        assert curve.points.count(chord_point(ctx, level)) == 1

    def test_validates_inputs(self, eu_model):
        ctx = context_for(eu_model)
        with pytest.raises(ValueError):
            trace_level_curves(ctx, (0.0,))
        two = context_for(ExpectedUtility((0.0, 1.0)))
        with pytest.raises(ValueError):
            trace_level_curves(two, (0.5,))

    def test_iteration_limit_names_the_level(self, eu_model):
        # A scanline's crossing is no single lottery, so only the level is named.
        ctx = context_for(eu_model, max_iter=5)
        with pytest.raises(IterationLimit) as info:
            trace_level_curves(ctx, (0.2, 0.6))
        assert str(info.value) == "scanline bisection missed tol 1e-12 within 5 iterations"
        assert (info.value.what, info.value.iterations) == ("scanline", 5)
        assert (info.value.level, info.value.row) == (0.2, None)


class TestRenderSvg:
    def test_structure_and_determinism(self, da_model):
        ctx = context_for(da_model)
        curves = trace_level_curves(ctx, LEVELS)
        svg = render_svg(curves, best=ctx.best, worst=ctx.worst)
        assert svg.count("<polyline") == len(curves)
        assert "(best)" in svg and "(worst)" in svg
        assert svg == render_svg(curves, best=ctx.best, worst=ctx.worst)
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

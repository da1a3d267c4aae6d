"""Indifference-curve tracing on the three-outcome simplex.

Betweenness forces straight-line indifference sets, which is easiest to
see (and test) on three outcomes: the simplex is a triangle and each
utility level is a line segment.  This module traces those segments by
scanline bisection, measures how straight they came out, and renders a
flat SVG of the result.

Embedding convention: outcome 0 sits at the origin, outcome 1 at (1, 0),
outcome 2 at (1/2, sqrt(3)/2); a lottery maps to the matching convex
combination of the corners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import RepresentationContext, _bisect, _chord_keys, _interior_levels, chord_point
from .simplex import Lottery, degenerate, mix, mix_rows

_SCAN_TOL = 1e-12
_SCANLINES = 24
#: Points whose probabilities all lie this close are one point: both
#: scanline families meet a curve at the same lattice point, a bisection
#: error apart.
_MERGE_TOL = 1e-8


@dataclass(frozen=True)
class LevelCurve:
    """Traced points of one indifference curve, ordered along the scan."""

    level: float
    points: tuple[Lottery, ...]


def trace_level_curves(ctx: RepresentationContext, levels) -> list[LevelCurve]:
    """Trace the indifference curves of the given utility levels.

    Two families of 24 scanlines sweep the triangle: lines of constant
    best-outcome mass (from the best-worst chord to the best-third edge)
    and lines of constant worst-outcome mass (from the chord to the
    worst-third edge).  Betweenness guarantees each scanline meets a
    level curve at most once; the chord point of the level is always
    included, and the two families keep the point count healthy whether
    the curve hugs the best corner or the worst one.  Points are ordered
    by their plane embedding, which is monotone along a straight curve,
    and a point within ``_MERGE_TOL`` of the last kept one in every
    probability is dropped: where the two families cross on the curve,
    both find the point.
    Requires a three-outcome context whose extremes are simplex vertices.
    """
    model = ctx.model
    if model.n_outcomes != 3:
        raise ValueError(f"triangle tracing needs 3 outcomes, got {model.n_outcomes}")
    vertices = [degenerate(i, 3) for i in range(3)]
    if ctx.best not in vertices or ctx.worst not in vertices:
        raise ValueError("triangle tracing expects vertex extremes")
    third = next(v for v in vertices if v != ctx.best and v != ctx.worst)
    segments = []
    for s in np.linspace(0.0, 1.0, _SCANLINES):
        s = float(s)
        for a, b in (
            (chord_point(ctx, s), mix(s, ctx.best, third)),
            (chord_point(ctx, 1.0 - s), mix(1.0 - s, third, ctx.worst)),
        ):
            if a.probs != b.probs:
                segments.append((a, b))
    a_rows, b_rows = (np.asarray([seg[i].probs for seg in segments]) for i in (0, 1))
    ka, kb = model.keys(a_rows), model.keys(b_rows)
    curves = []
    for level in _interior_levels(levels).tolist():
        kt = _chord_keys(ctx, [level])
        ga, gb = model.gaps(ka, kt), model.gaps(kb, kt)
        # A segment whose ends sit strictly on one side misses the contour;
        # the others are bisected together, each gap steered by its sign at a.
        # The ends' tests are exact, not banded: the scanlines steer on raw
        # gap signs, as every bisection does, and a banded end would move
        # the traced points.
        inner = np.flatnonzero((ga != 0.0) & (gb != 0.0) & ((ga > 0.0) != (gb > 0.0)))

        def gap_at(lam, a, b, steer):
            return steer * model.gaps(model.keys(mix_rows(lam, b, a)), kt)

        per_row = (a_rows[inner], b_rows[inner], np.where(ga[inner] > 0.0, 1.0, -1.0))
        lo, hi = _bisect(
            gap_at, per_row, 0.0, 1.0, _SCAN_TOL, ctx.max_iter, "scanline",
            where=lambda _j: {"level": level},
        )
        at = dict(zip(inner.tolist(), (0.5 * (lo + hi)).tolist()))
        found = [chord_point(ctx, level)]
        for i, (a, b) in enumerate(segments):
            if ga[i] == 0.0:
                found.append(a)
            elif gb[i] == 0.0:
                found.append(b)
            elif i in at:
                found.append(mix(at[i], b, a))
        kept: list[Lottery] = []
        for i in np.lexsort(embed_coords(found).T[::-1]):
            x = found[int(i)]
            if not kept or np.abs(np.subtract(x.probs, kept[-1].probs)).max() > _MERGE_TOL:
                kept.append(x)
        curves.append(LevelCurve(level=level, points=tuple(kept)))
    return curves


def embed_coords(points) -> np.ndarray:
    """Map lotteries on 3 outcomes to plane coordinates (see module note)."""
    rows = np.asarray([p.probs for p in points], dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError("embedding is defined for lotteries on exactly 3 outcomes")
    x = rows[:, 1] + 0.5 * rows[:, 2]
    y = (math.sqrt(3.0) / 2.0) * rows[:, 2]
    return np.column_stack([x, y])


def collinearity_residual(points) -> float:
    """Largest distance from the points to their best-fit line.

    Zero (up to rounding) exactly when the points are collinear; under
    two points the fit is trivially exact.
    """
    points = list(points)
    if len(points) < 3:
        return 0.0
    coords = embed_coords(points)
    centered = coords - coords.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return float(np.abs(centered @ vt[-1]).max())


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def render_svg(curves, best: Lottery, worst: Lottery) -> str:
    """A flat static rendering of the traced curves inside the triangle,
    with the corners of the ``best`` and ``worst`` extremes labelled.

    Pure string assembly with fixed formatting, so identical inputs give
    identical bytes.
    """
    width, height, margin = 640.0, 600.0, 60.0
    span = math.sqrt(3.0) / 2.0
    scale = min(width - 2.0 * margin, (height - 2.0 * margin) / span)

    def pixel(xy) -> tuple[float, float]:
        return (
            margin + scale * float(xy[0]),
            height - margin - scale * float(xy[1]),
        )

    def fmt(v: float) -> str:
        return f"{v:.2f}"

    corners = embed_coords([degenerate(i, 3) for i in range(3)])
    corner_px = [pixel(c) for c in corners]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(width)}" '
        f'height="{int(height)}" viewBox="0 0 {int(width)} {int(height)}">',
        f'<rect width="{int(width)}" height="{int(height)}" fill="white"/>',
        '<polygon points="'
        + " ".join(f"{fmt(px)},{fmt(py)}" for px, py in corner_px)
        + '" fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    offsets = ((-12.0, 16.0), (6.0, 16.0), (0.0, -10.0))
    for i, ((px, py), (dx, dy)) in enumerate(zip(corner_px, offsets)):
        tag = ""
        if degenerate(i, 3).probs == best.probs:
            tag = " (best)"
        elif degenerate(i, 3).probs == worst.probs:
            tag = " (worst)"
        parts.append(
            f'<text x="{fmt(px + dx)}" y="{fmt(py + dy)}" font-family="sans-serif" '
            f'font-size="13" fill="#222222">outcome {i}{tag}</text>'
        )
    for idx, curve in enumerate(curves):
        color = _PALETTE[idx % len(_PALETTE)]
        if len(curve.points) >= 2:
            pts = " ".join(
                f"{fmt(px)},{fmt(py)}" for px, py in (pixel(c) for c in embed_coords(curve.points))
            )
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        lx, ly = pixel(embed_coords(curve.points[-1:])[0]) if curve.points else (margin, margin)
        parts.append(
            f'<text x="{fmt(lx + 6.0)}" y="{fmt(ly - 4.0)}" font-family="sans-serif" '
            f'font-size="12" fill="{color}">U={curve.level:.3g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

"""Hand-emitted SVG charts; no plotting library, fully deterministic.

The same inputs always produce byte-identical files: coordinates are
formatted to fixed precision, the viewport is fixed at 640x400, and colors
and layout are constants.  The emitted markup is intentionally minimal --
one polyline per series, a light grid frame, min/max axis labels and an
optional vertical marker line (used to flag the optimal hiring age).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ValidationError
from .numerics import AgeProfile
from .results import SimulationResult

WIDTH, HEIGHT = 640, 400
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 64, 18, 34, 42
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
_COLORS = ("#1f6fb4", "#d0452c", "#35823b", "#8450a8")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _scale(values: np.ndarray, lo: float, hi: float, out0: float, out1: float) -> np.ndarray:
    span = hi - lo
    if span == 0:  # constant data: park it mid-axis
        return np.full_like(values, (out0 + out1) / 2.0, dtype=float)
    return out0 + (np.asarray(values, float) - lo) * (out1 - out0) / span


def x_to_px(x: float, x_lo: float, x_hi: float) -> float:
    """Data-x to pixel-x; exposed so tests can check marker placement."""
    return float(_scale(np.array([x]), x_lo, x_hi, MARGIN_LEFT, MARGIN_LEFT + PLOT_W)[0])


def render_line_chart(
    path: str | Path,
    title: str,
    series: list[tuple[str, np.ndarray, np.ndarray]],
    x_label: str = "",
    y_label: str = "",
    marker_x: float | None = None,
) -> Path:
    """Write one chart with any number of (label, xs, ys) series."""
    return _render(path, title, _layout(series), x_label, y_label, marker_x)


def _render(path, title: str, layout, x_label: str, y_label: str, marker_x) -> Path:
    """Write one chart from its :func:`_layout`."""
    (x_lo, x_hi, y_lo, y_hi), pixels = layout
    parts: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{MARGIN_LEFT}" y="20" font-family="sans-serif" font-size="14" '
        f'fill="#222222">{_escape(title)}</text>',
        # frame
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{PLOT_W}" height="{PLOT_H}" '
        f'fill="none" stroke="#999999" stroke-width="1"/>',
    ]

    # axis extremes
    labels = [
        (MARGIN_LEFT, HEIGHT - 14, _axis_num(x_lo), "start"),
        (MARGIN_LEFT + PLOT_W, HEIGHT - 14, _axis_num(x_hi), "end"),
        (MARGIN_LEFT - 6, MARGIN_TOP + PLOT_H, _axis_num(y_lo), "end"),
        (MARGIN_LEFT - 6, MARGIN_TOP + 10, _axis_num(y_hi), "end"),
    ]
    for x, y, text, anchor in labels:
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" font-size="11" '
            f'fill="#444444" text-anchor="{anchor}">{text}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{MARGIN_LEFT + PLOT_W / 2:.2f}" y="{HEIGHT - 14}" font-family="sans-serif" '
            f'font-size="12" fill="#444444" text-anchor="middle">{_escape(x_label)}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="16" y="{MARGIN_TOP - 10}" font-family="sans-serif" font-size="12" '
            f'fill="#444444">{_escape(y_label)}</text>'
        )

    if marker_x is not None:
        px = x_to_px(float(marker_x), x_lo, x_hi)
        parts.append(
            f'<line class="marker" x1="{_fmt(px)}" y1="{MARGIN_TOP}" x2="{_fmt(px)}" '
            f'y2="{MARGIN_TOP + PLOT_H}" stroke="#555555" stroke-width="1" '
            f'stroke-dasharray="5,4"/>'
        )

    for i, (label, px, py) in enumerate(pixels):
        color = _COLORS[i % len(_COLORS)]
        points = " ".join(map("{:.2f},{:.2f}".format, px.tolist(), py.tolist()))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT + PLOT_W - 8}" y="{MARGIN_TOP + 16 + 15 * i}" '
            f'font-family="sans-serif" font-size="11" fill="{color}" '
            f'text-anchor="end">{_escape(label)}</text>'
        )

    parts.append("</svg>")
    path = Path(path)
    path.write_text("\n".join(parts) + "\n")
    return path


def _layout(series: list[tuple[str, np.ndarray, np.ndarray]]):
    """Data bounds and (label, pixel xs, pixel ys) per series; raises if the chart cannot be drawn."""
    if not series:
        raise ValidationError("nothing to plot: no series given")
    for label, xs, ys in series:
        if len(xs) == 0 or len(xs) != len(ys):
            raise ValidationError(f"series {label!r} is empty or ragged")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValidationError(f"series {label!r} contains non-finite values")

    x_lo = min(float(np.min(xs)) for _, xs, _ in series)
    x_hi = max(float(np.max(xs)) for _, xs, _ in series)
    y_lo = min(float(np.min(ys)) for _, _, ys in series)
    y_hi = max(float(np.max(ys)) for _, _, ys in series)
    pixels = []
    for label, xs, ys in series:
        with np.errstate(over="ignore", invalid="ignore"):
            px = _scale(np.asarray(xs, float), x_lo, x_hi, MARGIN_LEFT, MARGIN_LEFT + PLOT_W)
            py = _scale(np.asarray(ys, float), y_lo, y_hi, MARGIN_TOP + PLOT_H, MARGIN_TOP)
        if not (np.isfinite(px).all() and np.isfinite(py).all()):
            raise ValidationError(
                f"series {label!r} cannot be plotted: its scaled coordinates overflow"
            )
        pixels.append((label, px, py))
    return (x_lo, x_hi, y_lo, y_hi), pixels


def _axis_num(v: float) -> str:
    return f"{v:.6g}"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _simulation_series(result: SimulationResult) -> tuple[list, list]:
    """Series of the headcount chart and of the age-structure chart."""
    z = result.grid.nodes
    return ([("P(t)", np.asarray(result.times), np.asarray(result.series["headcount"]))],
            [("initial", z, result.initial.values), ("final", z, result.final.values)])


def _check_charts(result: SimulationResult) -> tuple:
    """Layouts of the headcount and the age-structure chart of a run, writing nothing.

    Raises what drawing either chart would, so a caller can fail before it
    writes any file, then draw each chart from its layout with
    :func:`headcount_plot` and :func:`age_structure_plot`.
    """
    return tuple(_layout(series) for series in _simulation_series(result))


def age_structure_plot(layout, path: str | Path) -> Path:
    """Initial vs final density over age, from the second layout of :func:`_check_charts`."""
    return _render(path, "Age structure", layout, "age (years)", "density", None)


def headcount_plot(layout, path: str | Path) -> Path:
    """Headcount over time, from the first layout of :func:`_check_charts`."""
    return _render(path, "Headcount", layout, "time (years)", "employees", None)


def cost_curve_layout(grid_nodes: np.ndarray, d: np.ndarray):
    """Layout of the cost-of-knowledge chart, writing nothing; raises if it cannot be drawn."""
    return _layout([("d(z)", np.asarray(grid_nodes), np.asarray(d))])


def cost_curve_plot(layout, z0: float, path: str | Path) -> Path:
    """Marginal cost of knowledge with the optimal age marked, from :func:`cost_curve_layout`."""
    return _render(
        path, "Cost of knowledge", layout, "hiring age (years)", "cost per knowledge-year", z0
    )


def profile_layout(profile: AgeProfile, title: str):
    """Layout of a one-profile chart, writing nothing; its one series is labelled ``title``."""
    return _layout([(title, profile.grid.nodes, profile.values)])


def profile_plot(layout, path: str | Path, y_label: str = "") -> Path:
    """One profile over age from its :func:`profile_layout`, titled with the series label."""
    (title, _, _), = layout[1]
    return _render(path, title, layout, "age (years)", y_label, None)

"""SVG chart emission: geometry, determinism, well-formedness."""

import re
from xml.dom import minidom

import numpy as np
import pytest

from swp import ValidationError, build_grid, constant_profile
from swp.plots import (
    HEIGHT,
    MARGIN_LEFT,
    MARGIN_TOP,
    PLOT_H,
    PLOT_W,
    WIDTH,
    _fmt,
    _scale,
    cost_curve_layout,
    cost_curve_plot,
    profile_layout,
    profile_plot,
    render_line_chart,
    x_to_px,
)


def polyline_points(svg_text):
    """All polylines as lists of (x, y) floats."""
    out = []
    for m in re.finditer(r'<polyline [^>]*points="([^"]+)"', svg_text):
        pts = [tuple(map(float, p.split(","))) for p in m.group(1).split()]
        out.append(pts)
    return out


def test_constant_series_is_horizontal_midline(tmp_path):
    xs = np.linspace(0.0, 10.0, 21)
    ys = np.full(21, 7.25)
    p = render_line_chart(tmp_path / "c.svg", "flat", [("s", xs, ys)])
    (pts,) = polyline_points(p.read_text())
    y_mid = MARGIN_TOP + PLOT_H / 2.0
    assert all(y == pytest.approx(y_mid, abs=0.01) for _, y in pts)
    assert pts[0][0] == pytest.approx(MARGIN_LEFT, abs=0.01)
    assert pts[-1][0] == pytest.approx(MARGIN_LEFT + PLOT_W, abs=0.01)


def test_decaying_series_has_increasing_pixel_y(tmp_path):
    xs = np.linspace(0.0, 50.0, 40)
    ys = 100.0 * np.exp(-0.1 * xs)
    p = render_line_chart(tmp_path / "d.svg", "decay", [("s", xs, ys)])
    (pts,) = polyline_points(p.read_text())
    py = np.array([y for _, y in pts])
    assert np.all(np.diff(py) > 0)  # svg y grows downward
    assert py[0] == pytest.approx(MARGIN_TOP, abs=0.01)
    assert py[-1] == pytest.approx(MARGIN_TOP + PLOT_H, abs=0.01)


def test_marker_lands_at_scaled_age(tmp_path):
    g = build_grid(20.0, 70.0, 0.5)
    d = 500.0 + (g.nodes - 53.5) ** 2
    p = cost_curve_plot(cost_curve_layout(g.nodes, d), 53.5, tmp_path / "m.svg")
    text = p.read_text()
    m = re.search(r'<line class="marker" x1="([0-9.]+)"', text)
    assert m is not None
    expected = x_to_px(53.5, 20.0, 70.0)
    assert float(m.group(1)) == pytest.approx(expected, abs=0.005)


def test_polyline_points_match_per_point_fmt(tmp_path):
    rng = np.random.default_rng(5)
    xs = np.sort(rng.uniform(-3.0, 40.0, 257))
    series = [("a", xs, rng.standard_normal(257) * 1e3), ("b", xs[:9], np.arange(9.0) / 8)]
    p = render_line_chart(tmp_path / "p.svg", "t", series)
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo = min(float(ys.min()) for _, _, ys in series)
    y_hi = max(float(ys.max()) for _, _, ys in series)
    found = re.findall(r'<polyline [^>]*points="([^"]+)"', p.read_text())
    assert len(found) == len(series)
    for text, (_, sx, sy) in zip(found, series):
        px = _scale(sx, x_lo, x_hi, MARGIN_LEFT, MARGIN_LEFT + PLOT_W)
        py = _scale(sy, y_lo, y_hi, MARGIN_TOP + PLOT_H, MARGIN_TOP)
        assert text == " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(px, py))


def test_svg_is_well_formed_with_fixed_viewport(tmp_path):
    g = build_grid(20.0, 70.0, 1.0)
    layout = profile_layout(constant_profile(g, 3.0), "T <sub> & more")
    p = profile_plot(layout, tmp_path / "w.svg", "y")
    doc = minidom.parseString(p.read_text())
    svg = doc.documentElement
    assert svg.tagName == "svg"
    assert svg.getAttribute("viewBox") == f"0 0 {WIDTH} {HEIGHT}"
    assert (WIDTH, HEIGHT) == (640, 400)


def test_same_inputs_give_identical_bytes(tmp_path):
    xs = np.linspace(0.0, 1.0, 11)
    ys = np.sin(xs)
    a = render_line_chart(tmp_path / "a.svg", "t", [("s", xs, ys)], marker_x=0.5)
    b = render_line_chart(tmp_path / "b.svg", "t", [("s", xs, ys)], marker_x=0.5)
    assert a.read_bytes() == b.read_bytes()


def test_empty_series_rejected(tmp_path):
    with pytest.raises(ValidationError):
        render_line_chart(tmp_path / "e.svg", "t", [])
    with pytest.raises(ValidationError):
        render_line_chart(tmp_path / "e.svg", "t", [("s", np.array([]), np.array([]))])


def test_non_finite_values_rejected(tmp_path):
    xs = np.array([0.0, 1.0])
    ys = np.array([1.0, np.nan])
    with pytest.raises(ValidationError):
        render_line_chart(tmp_path / "n.svg", "t", [("s", xs, ys)])


def test_simulate_lays_out_each_chart_once(tmp_path, monkeypatch, scenarios_dir):
    from swp import plots
    from swp.cli import main

    calls = []
    layout = plots._layout

    def counting(series):
        calls.append([label for label, _, _ in series])
        return layout(series)

    monkeypatch.setattr(plots, "_layout", counting)
    argv = ["simulate", "--scenario", str(scenarios_dir / "bu-a-saturating.json"),
            "--out", str(tmp_path), "--quiet"]
    assert main(argv) == 0
    assert calls == [["P(t)"], ["initial", "final"]]


@pytest.mark.parametrize("command, name, labels", [
    ("optimize", "bu-2-optimize", [["d(z)"], ["Cost per employee"], ["Optimal age structure"]]),
    ("equilibrium", "bu-a-saturating", [["Equilibrium age structure"]]),
])
def test_optimize_and_equilibrium_lay_out_each_chart_once(
    tmp_path, monkeypatch, scenarios_dir, command, name, labels
):
    from swp import plots
    from swp.cli import main

    calls = []
    layout = plots._layout

    def counting(series):
        calls.append([label for label, _, _ in series])
        return layout(series)

    monkeypatch.setattr(plots, "_layout", counting)
    argv = [command, "--scenario", str(scenarios_dir / f"{name}.json"),
            "--out", str(tmp_path), "--quiet"]
    assert main(argv) == 0
    assert calls == labels


def test_profile_and_cost_charts_from_layouts_match_render_line_chart(tmp_path):
    g = build_grid(20.0, 70.0, 0.5)
    d = 500.0 + (g.nodes - 53.5) ** 2
    wage = constant_profile(g, 3.0).with_values(1.0 + g.nodes)
    pairs = [
        (cost_curve_plot(cost_curve_layout(g.nodes, d), 53.5, tmp_path / "d.svg"),
         render_line_chart(tmp_path / "d0.svg", "Cost of knowledge", [("d(z)", g.nodes, d)],
                           x_label="hiring age (years)", y_label="cost per knowledge-year",
                           marker_x=53.5)),
        (profile_plot(profile_layout(wage, "Wage"), tmp_path / "w.svg", "currency/year"),
         render_line_chart(tmp_path / "w0.svg", "Wage", [("Wage", g.nodes, wage.values)],
                           x_label="age (years)", y_label="currency/year")),
    ]
    for got, want in pairs:
        assert got.read_bytes() == want.read_bytes()


def test_charts_from_checked_layouts_match_render_line_chart(tmp_path, scenarios_dir):
    from swp import load_scenario, simulate_budget
    from swp.plots import _check_charts, _simulation_series, age_structure_plot, headcount_plot

    sc = load_scenario(scenarios_dir / "bu-a-budget.json")
    result = simulate_budget(sc.budget_params(), sc.rho0, t_end=20.0)
    head, ages = _check_charts(result)
    head_series, age_series = _simulation_series(result)
    pairs = [
        (headcount_plot(head, tmp_path / "h.svg"),
         render_line_chart(tmp_path / "h0.svg", "Headcount", head_series,
                           x_label="time (years)", y_label="employees")),
        (age_structure_plot(ages, tmp_path / "a.svg"),
         render_line_chart(tmp_path / "a0.svg", "Age structure", age_series,
                           x_label="age (years)", y_label="density")),
    ]
    for got, want in pairs:
        assert got.read_bytes() == want.read_bytes()

"""CSV writers/readers: exact round trips and layout guarantees."""

from pathlib import Path

import numpy as np
import pytest

import swp
from swp import (
    ValidationError,
    build_grid,
    constant_profile,
    read_columns,
    read_timeseries,
    write_columns,
    write_profile,
    write_timeseries,
)


def reference_csv(names, columns):
    """The byte format by definition: ``repr(float(cell))`` for every cell."""
    rows = [",".join(names)]
    rows.extend(
        ",".join(repr(float(col[i])) for col in columns) for i in range(len(columns[0]) if columns else 0)
    )
    return "\n".join(rows) + "\n"


class TestColumns:
    def test_bytes_match_per_cell_repr(self, tmp_path):
        names = ["edge", "int", "f32"]
        columns = [
            np.array([-0.0, 5e-324, 1e308, np.nan, -np.inf, 0.1 + 0.2]),
            np.array([0, -3, 7, 2**53 + 1, 10**15, 1], dtype=np.int64),
            np.array([0.1, -2.5, 1e-30, 3.4e38, 0.0, 1 / 3], dtype=np.float32),
        ]
        columns = [np.tile(col, 100) for col in columns]  # rows span several write blocks
        p = write_columns(tmp_path / "edge.csv", names, columns)
        assert p.read_text() == reference_csv(names, columns)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(40) * 1e6
        b = np.exp(rng.standard_normal(40) * 20)
        p = write_columns(tmp_path / "cols.csv", ["a", "b"], [a, b])
        back = read_columns(p)
        assert list(back) == ["a", "b"]
        np.testing.assert_array_equal(back["a"], a)
        np.testing.assert_array_equal(back["b"], b)

    def test_empty_columns_write_header_only(self, tmp_path):
        p = write_columns(tmp_path / "empty.csv", ["t", "x"], [np.array([]), np.array([])])
        assert p.read_text() == "t,x\n"
        back = read_columns(p)
        assert back["t"].size == 0

    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_columns(tmp_path / "x.csv", ["a", "b"], [np.zeros(3), np.zeros(4)])

    def test_name_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_columns(tmp_path / "x.csv", ["a"], [np.zeros(3), np.zeros(3)])

    def test_ragged_row_rejected_on_read(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(ValidationError):
            read_columns(p)

    def test_profile_layout(self, tmp_path):
        g = build_grid(20.0, 25.0, 1.0)
        p = write_profile(tmp_path / "prof.csv", constant_profile(g, 1.5), value_name="rho")
        lines = p.read_text().splitlines()
        assert lines[0] == "z,rho"
        assert lines[1] == "20.0,1.5"
        assert len(lines) == g.n + 2


@pytest.fixture(scope="module")
def budget_run():
    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    sc = swp.load_scenario(scenarios / "bu-a-budget.json")
    return swp.simulate_budget(
        sc.budget_params(),
        sc.rho0,
        dt=sc.dt,
        t_end=5.0,
        snapshot_every=2.0,
    )


class TestTimeseries:
    def test_bytes_match_per_cell_repr(self, scenarios_dir, tmp_path):
        sc = swp.load_scenario(scenarios_dir / "bu-a-budget.json")
        r = swp.simulate_budget(
            sc.budget_params(), sc.rho0, dt=sc.dt, t_end=sc.t_end, snapshot_every=sc.snapshot_every
        )
        t, s = r.times, r.series
        expected = {
            "headcount.csv": (["t", "headcount"], [t, s["headcount"]]),
            "hiring.csv": (
                ["t", "hiring", "attrition_term", "retirement_term", "aging_term"],
                [t, s["hiring"], s["attrition"], s["retirement"], s["aging"]],
            ),
            "budget.csv": (["t", "budget"], [t, s["budget"]]),
            "entropy.csv": (["t", "entropy"], [t, s["entropy"]]),
        }
        for snap_t, snap in zip(r.snapshot_times, r.snapshots):
            expected[f"profile_t{snap_t:g}.csv"] = (["z", "rho"], [snap.grid.nodes, snap.values])
        files = write_timeseries(r, tmp_path)
        assert [f.name for f in files] == list(expected)
        for f in files:
            assert f.read_text() == reference_csv(*expected[f.name]), f.name

    def test_file_set_for_budget_model(self, budget_run, tmp_path):
        files = write_timeseries(budget_run, tmp_path)
        names = {f.name for f in files}
        assert {"headcount.csv", "hiring.csv", "budget.csv", "entropy.csv"} <= names
        assert "profile_t0.csv" in names

    def test_budget_column_is_constant(self, budget_run, tmp_path):
        write_timeseries(budget_run, tmp_path)
        budget = read_columns(tmp_path / "budget.csv")["budget"]
        np.testing.assert_allclose(budget, budget[0], rtol=1e-12)

    def test_hiring_decomposition_columns(self, budget_run, tmp_path):
        write_timeseries(budget_run, tmp_path)
        cols = read_columns(tmp_path / "hiring.csv")
        assert list(cols) == ["t", "hiring", "attrition_term", "retirement_term", "aging_term"]
        total = cols["attrition_term"] + cols["retirement_term"] + cols["aging_term"]
        np.testing.assert_allclose(total, cols["hiring"], rtol=1e-12, atol=1e-12)

    def test_read_timeseries_round_trip(self, budget_run, tmp_path):
        write_timeseries(budget_run, tmp_path)
        found = read_timeseries(tmp_path)
        np.testing.assert_array_equal(found["headcount.csv"]["t"], np.asarray(budget_run.times))
        np.testing.assert_array_equal(
            found["headcount.csv"]["headcount"], budget_run.series["headcount"]
        )
        first = budget_run.snapshots[0]
        np.testing.assert_array_equal(found["profile_t0.csv"]["rho"], first.values)

    def test_saturating_run_skips_budget_files(self, scenarios_dir, tmp_path):
        sc = swp.load_scenario(scenarios_dir / "bu-a-saturating.json")
        result = swp.simulate_saturating(sc.saturating_params(), sc.rho0, dt=1.0, t_end=3.0)
        files = write_timeseries(result, tmp_path)
        names = {f.name for f in files}
        assert "budget.csv" not in names
        assert "entropy.csv" not in names
        cols = read_columns(tmp_path / "hiring.csv")
        assert list(cols) == ["t", "hiring"]


class TestSnapshotNames:
    @staticmethod
    def _result(times):
        g = build_grid(20.0, 25.0, 1.0)
        snaps = tuple(constant_profile(g, 1.0 + i) for i in range(len(times)))
        times = np.asarray(times, dtype=float)
        return swp.SimulationResult(
            model="saturating",
            grid=g,
            times=times,
            series={"headcount": np.array([swp.integrate(s) for s in snaps]),
                    "hiring": np.zeros(len(times))},
            snapshot_times=times,
            snapshots=snaps,
        )

    def test_close_and_large_times_get_their_own_files(self, tmp_path):
        result = self._result([0.0, 123456.0, 123456.5, 1234567.0, 0.15000000000000002])
        files = write_timeseries(result, tmp_path)
        names = [f.name for f in files if f.name.startswith("profile_t")]
        assert names == [
            "profile_t0.csv",
            "profile_t123456.csv",
            "profile_t123456.5.csv",
            "profile_t1234567.csv",
            "profile_t0.15.csv",
        ]
        found = read_timeseries(tmp_path)
        for name, snap in zip(names, result.snapshots):
            np.testing.assert_array_equal(found[name]["rho"], snap.values)

    def test_names_that_still_collide_are_rejected(self, tmp_path):
        result = self._result([0.0, 1.0, 1.0 + 2**-52])
        with pytest.raises(ValidationError, match="profile_t1.csv"):
            write_timeseries(result, tmp_path / "out")
        assert not (tmp_path / "out").exists()

"""The README and the schema doc against the code: examples run, tables match."""

import fnmatch
import json
import re
from pathlib import Path

import numpy as np
import pytest

from swp import scenario_from_dict
from swp.cli import main
from swp.results import snapshot_mask

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
SCHEMA_DOC = REPO / "docs" / "scenario-schema.md"

# the subcommands that write CSV files, per model
CSV_COMMANDS = {"saturating": ("equilibrium", "simulate"), "budget": ("simulate",),
                "optimize": ("optimize",)}


def fenced_blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, flags=re.S | re.M)


def output_table() -> dict[str, set[str]]:
    """File pattern -> the CSV headers the schema doc's output table allows."""
    section = SCHEMA_DOC.read_text().split("## Output files", 1)[1]
    table = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[0].endswith(".csv`"):
            continue
        pattern = re.sub(r"<[^>]*>", "*", cells[0].strip("`"))
        spans = re.findall(r"`([^`]*)`", cells[1])
        # a second code span lists the columns some runs add
        table[pattern] = {spans[0], ",".join(spans)}
    return table


@pytest.fixture(scope="module")
def written_headers(tmp_path_factory) -> dict[str, set[str]]:
    """CSV file name -> the header rows the CLI writes under it, over the bundled scenarios."""
    headers: dict[str, set[str]] = {}
    for path in sorted(SCENARIOS.glob("*.json")):
        model = json.loads(path.read_text())["model"]
        for command in CSV_COMMANDS[model]:
            out = tmp_path_factory.mktemp(f"{path.stem}-{command}")
            assert main([command, "--scenario", str(path), "--out", str(out), "--quiet"]) == 0
            for csv in out.glob("*.csv"):
                header = csv.read_text().split("\n", 1)[0]
                headers.setdefault(csv.name, set()).add(header)
    return headers


def test_readme_library_example_runs(monkeypatch):
    (block,) = fenced_blocks((REPO / "README.md").read_text(), "python")
    monkeypatch.chdir(REPO)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["z0"] == 44.5  # the value the example's comment states


def test_readme_optimize_example_matches_cli(capsys, tmp_path):
    (block,) = [b for b in fenced_blocks((REPO / "README.md").read_text(), "text")
                if b.startswith("z0 = ")]
    scenario = SCENARIOS / "bu-3-optimize.json"
    assert main(["optimize", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith(block)


def test_schema_doc_example_loads():
    example = json.loads(fenced_blocks(SCHEMA_DOC.read_text(), "json")[0])
    assert example == json.loads((SCENARIOS / "bu-a-budget.json").read_text())
    scenario = scenario_from_dict(example)
    assert (scenario.name, scenario.model, scenario.dt) == ("bu-a-budget", "budget", 0.5)


def test_output_table_columns_match_written_headers(written_headers):
    table = output_table()
    assert "headcount.csv" in table and "profile_t*.csv" in table
    for pattern, documented in table.items():
        written = set().union(
            *(h for name, h in written_headers.items() if fnmatch.fnmatch(name, pattern))
        )
        assert written == documented, pattern
    for name in written_headers:
        assert any(fnmatch.fnmatch(name, p) for p in table), f"{name} is not in the doc's table"


def test_snapshot_default_matches_snapshot_mask():
    text = " ".join(SCHEMA_DOC.read_text().split())
    assert "`snapshot_every` — profile snapshot spacing in years (default: every step is kept" in text
    assert "The initial and final profiles are always kept." in text
    assert snapshot_mask(7, 0.5, None).all()
    keep = snapshot_mask(7, 0.5, 3.0)  # stride 6: steps 0 and 6, plus the final step
    assert np.flatnonzero(keep).tolist() == [0, 6, 7]

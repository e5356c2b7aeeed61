"""The experiment scenarios in examples/ and the README's sweep commands
over them."""

import json
import shlex
from pathlib import Path

import pytest

from swarmsim.cli import load_scenario_file, main

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.json"))
SWEEPS = [
    shlex.split(line)[1:]
    for line in (ROOT / "README.md").read_text().splitlines()
    if line.startswith("swarmsim sweep --config examples/")
]


def test_every_example_has_a_sweep_command():
    assert [p.name for p in EXAMPLES] == ["one-club.json", "sojourn.json", "stability.json"]
    named = {Path(argv[argv.index("--config") + 1]).name for argv in SWEEPS}
    assert named == {p.name for p in EXAMPLES}


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_loads(path):
    load_scenario_file(path)


@pytest.mark.parametrize("argv", SWEEPS, ids=lambda a: f"{Path(a[2]).stem}-{a[4]}")
def test_readme_sweep_runs(tmp_path, argv):
    # The README's command on a copy of its scenario whose horizon is cut
    # to 2 time units.
    argv = list(argv)
    config = argv.index("--config") + 1
    doc = json.loads((ROOT / argv[config]).read_text())
    doc["horizon"] = 2.0
    argv[config] = str(tmp_path / "scenario.json")
    Path(argv[config]).write_text(json.dumps(doc))
    argv[argv.index("--out") + 1] = str(tmp_path / "out")
    assert main(argv + ["--quiet"]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    values = argv[argv.index("--values") + 1].split(",")
    assert len(rows) == 1 + len(values) * doc["replications"]

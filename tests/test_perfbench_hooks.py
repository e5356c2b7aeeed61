"""perfbench's per-layer hooks still fit the package.

``perfbench/layers.py`` wraps package functions and class attributes by
name and reads attributes of what they return.  A renamed function or a
changed result type breaks ``perfbench/run.py --trace 1``; these run one
small traced call of each subcommand to catch that in about a second.
"""

import csv
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from swarmsim import cli, engine
from swarmsim.oracle import TruncationSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ there
    return importlib.import_module("layers")


def _traced(layers, argv):
    instruments = layers.Instruments(full=True)
    with instruments:
        wrapped = list(instruments._saved)
        code = cli.main(argv)
    assert code == 0
    assert wrapped
    for owner, attr, original in wrapped:
        assert vars(owner)[attr] is original, attr
    return instruments


def _check_csv_counters(counters, out, n_files):
    written = sorted(out.glob("*.csv"))
    assert len(written) == n_files
    assert counters.calls["cli.write_csv"] == n_files
    assert counters.values["cli.write_csv.bytes"] == sum(p.stat().st_size for p in written)


def test_full_instruments_count_an_oracle_run_and_restore(tmp_path, layers):
    argv = ["oracle", "--m", "2", "--cap", "3", "--lambda", "1", "--out", str(tmp_path), "--quiet"]
    instruments = _traced(layers, argv)
    counters = instruments.counters
    assert counters.values["oracle.states"] == TruncationSpec(2, 3).state_count()
    assert counters.values["oracle.nnz"] > 0
    for stage in ("enumerate", "build", "closed_classes", "solve", "drift", "lemmas"):
        assert counters.calls[f"oracle.{stage}"] == 1, stage
    with (tmp_path / "drift.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    exceptional = sum(1 for r in rows if r["boundary"] == "false" and float(r["QV"]) > -0.5)
    assert counters.values["oracle.exceptional"] == exceptional
    _check_csv_counters(counters, tmp_path, 3)
    layers.round_metrics(instruments.take())


SCENARIO = {
    "m": 3,
    "lambda": 1.0,
    "policy": {"kind": "mode-suppression"},
    "initial": {"kind": "empty", "n": 4},
    "horizon": 2.0,
    "rng_seed": 7,
    "warmup_departures": 0,
}


@pytest.mark.parametrize(
    "argv,n_files",
    [(["simulate"], 4), (["sweep", "--param", "T", "--values", "1"], 1)],
    ids=["simulate", "sweep"],
)
def test_full_instruments_count_a_simulation_run(tmp_path, layers, argv, n_files):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(SCENARIO))
    out = tmp_path / "out"
    instruments = _traced(layers, argv + ["--config", str(config), "--out", str(out), "--quiet"])
    counters = instruments.counters
    assert counters.values["engine.events"] > 0
    _check_csv_counters(counters, out, n_files)
    layers.round_metrics(instruments.take())


def _simulate_traced(tmp_path, layers, scenario):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(config), "--out", str(out), "--quiet"]
    counters = _traced(layers, argv).counters
    events = counters.values["engine.events"]
    contacts = events - counters.calls["model.add_empty_peer"]
    useful = counters.calls["model.apply_transfer"] + counters.calls["model.apply_departure"]
    return counters, events, contacts, useful


def test_traced_sweep_counts_the_events_of_its_workers(tmp_path, layers, monkeypatch):
    # Two values are two jobs, run in two worker processes.  The model
    # wrappers do not see the work done there, but the tap reads the
    # returned traces, so engine.events still counts every event.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    traces = []

    def recorded(jobs):
        out = engine.run_replications(jobs)
        traces.extend(out)
        return out

    monkeypatch.setattr(cli, "run_replications", recorded)
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(dict(SCENARIO, horizon=10.0)))
    argv = ["sweep", "--param", "T", "--values", "1,2", "--config", str(config),
            "--out", str(tmp_path / "out"), "--quiet"]
    counters = _traced(layers, argv).counters
    assert len(traces) == 2
    assert counters.values["engine.events"] == sum(t.events for t in traces) > 0


def test_mode_suppression_refreshes_per_departure_only(tmp_path, layers):
    # The aggregates are updated in O(1) after a transfer; only a
    # departure (and the snapshot's construction, once per replication)
    # recomputes them.  The wrappers count calls in this process only, so
    # the run is one replication, which runs here, not in a worker.
    reps = 1
    scenario = dict(SCENARIO, horizon=40.0, replications=reps)
    counters, _, contacts, useful = _simulate_traced(tmp_path, layers, scenario)
    refreshes = counters.calls["model.refresh"]
    assert refreshes <= counters.calls["model.apply_departure"] + reps
    assert contacts > 2 * refreshes and useful > refreshes


# The seeded run below, skipped same-profile contacts included (they are
# redrawn, so the skip changed it from 503); a gate that drew would change it.
ONE_CLUB_EVENTS = 614


def test_offer_gate_skips_rarest_first_on_one_club(tmp_path, layers):
    # From a one-club start nearly every contact offers nothing needed, so
    # the selector runs only on the contacts that transfer.
    scenario = {
        "m": 5,
        "lambda": 1.0,
        "policy": {"kind": "rarest-first"},
        "initial": {"kind": "one-club", "n": 100},
        "horizon": 5.0,
        "rng_seed": 3,
        "warmup_departures": 0,
    }
    counters, events, contacts, useful = _simulate_traced(tmp_path, layers, scenario)
    assert events == ONE_CLUB_EVENTS
    selected = counters.calls["policies.select.rarest-first"]
    assert selected == useful
    assert 10 * selected < contacts


def test_traced_selectors_count_their_calls_and_draws(tmp_path, layers):
    # The selectors look up choose_chunk, and the engine make_selector, by
    # name at call time; a selector that bound either before the wrappers
    # were installed would read zero here.
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(dict(SCENARIO, horizon=10.0)))
    out = tmp_path / "out"
    argv = ["sweep", "--param", "policy.kind", "--values", "distributed-ms",
            "--config", str(config), "--out", str(out), "--quiet"]
    metrics = layers.round_metrics(_traced(layers, argv).take())
    assert metrics["policies.select.distributed-ms.calls"] > 0
    assert metrics["model.choose_chunk.calls"] > 0
    assert metrics["model.choose_chunk.calls"] <= metrics["policies.select.distributed-ms.calls"]


def test_import_leaves_multiprocessing_unloaded():
    # Workers are started only by a call with several replications, so
    # importing the CLI (perfbench's setup_s) pays nothing for them.
    code = "import sys, swarmsim.cli; print('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"

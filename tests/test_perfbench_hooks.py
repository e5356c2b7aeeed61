"""perfbench's per-layer hooks still fit the package.

``perfbench/layers.py`` wraps package functions and class attributes by
name and reads attributes of what they return.  A renamed function or a
changed result type breaks ``perfbench/run.py --trace 1``; this runs one
small traced oracle call to catch that in about a second.
"""

import importlib
import sys
from pathlib import Path

from swarmsim import cli
from swarmsim.oracle import TruncationSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_full_instruments_count_an_oracle_run_and_restore(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ there
    layers = importlib.import_module("layers")
    instruments = layers.Instruments(full=True)
    argv = ["oracle", "--m", "2", "--cap", "3", "--lambda", "1", "--out", str(tmp_path), "--quiet"]
    with instruments:
        wrapped = list(instruments._saved)
        code = cli.main(argv)
    assert code == 0
    counters = instruments.counters
    assert counters.values["oracle.states"] == TruncationSpec(2, 3).state_count()
    assert counters.values["oracle.nnz"] > 0
    for stage in ("enumerate", "build", "closed_classes", "solve", "drift", "lemmas"):
        assert counters.calls[f"oracle.{stage}"] == 1, stage
    assert wrapped
    for owner, attr, original in wrapped:
        assert vars(owner)[attr] is original, attr
    layers.round_metrics(instruments.take())

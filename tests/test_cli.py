import argparse
import csv
import hashlib
import inspect
import io
import json
import math
import multiprocessing
import os
import random
import signal
import stat
import time
import tracemalloc
import warnings
from dataclasses import MISSING, fields, replace
from itertools import accumulate

import hypothesis.strategies as st
import numpy as np
import pytest
from conftest import TimeLimitExceeded, run_fresh
from hypothesis import HealthCheck, example, given, settings

from swarmsim import bytetable, cli
from swarmsim.cli import (
    ConfigError,
    cmd_oracle,
    cmd_simulate,
    cmd_sweep,
    load_scenario_file,
    main,
    parse_scenario_dict,
)
from swarmsim.engine import (
    EventTrace,
    InitialCondition,
    Scenario,
    Simulation,
    TerminationReason,
    derive_seed,
    run_replications,
)
from swarmsim.model import ModelParams
from swarmsim.oracle import (
    LyapunovParams,
    TruncationSpec,
    build_generator_ms,
    drift_report,
    state_name,
    stationary_distribution,
    verify_lemmas,
)
from swarmsim.policies import PolicyConfig, PolicyKind
from oracle_reference import as_scipy, plant_asymmetric_rate

BASE_CONFIG = {
    "m": 3,
    "lambda": 1.0,
    "mu": 1.0,
    "u": 1.0,
    "policy": {"kind": "mode-suppression", "T": 1},
    "initial": {"kind": "empty", "n": 5},
    "horizon": 20.0,
    "rng_seed": 99,
    "warmup_departures": 0,
    "sample_interval": 1.0,
    "replications": 2,
}


def edited(doc, overrides):
    """A copy of ``doc`` with each dotted key of ``overrides`` set to its
    value, or left out where the value is None."""
    doc = json.loads(json.dumps(doc))
    for path, value in overrides.items():
        parts = path.split(".")
        node = doc
        for part in parts[:-1]:
            node = node[part]
        if value is None:
            node.pop(parts[-1], None)
        else:
            node[parts[-1]] = value
    return doc


def write_config(tmp_path, overrides=None, **top):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(edited({**BASE_CONFIG, **top}, overrides or {})))
    return cfg


# Each optional scenario key but replications: the part of the Scenario
# that holds its field (None for the Scenario itself) and the field.
OPTIONAL_KEYS = {
    "mu": ("params", "peer_contact_rate"),
    "u": ("params", "seed_contact_rate"),
    "policy.T": ("policy", "threshold"),
    "policy.alpha": ("policy", "alpha"),
    "policy.sample_peers": ("policy", "sample_peers"),
    "policy.cc_variant": ("policy", "cc_variant"),
    "max_population": (None, "max_population"),
    "warmup_departures": (None, "warmup_departures"),
    "sample_interval": (None, "sample_interval"),
}

# One value the dataclasses reject for each key they check (alpha only
# under ewma-ms).
INVALID_VALUES = {
    "m": {"m": 1},
    "lambda": {"lambda": 0.0},
    "mu": {"mu": -1.0},
    "u": {"u": 0.0},
    "policy.kind": {"policy.kind": "fastest-first"},
    "policy.T": {"policy.T": 0},
    "policy.alpha": {"policy.kind": "ewma-ms", "policy.alpha": 0.0},
    "policy.sample_peers": {"policy.sample_peers": 2},
    "policy.cc_variant": {"policy.cc_variant": "sink"},
    "initial.kind": {"initial.kind": "full"},
    "initial.n": {"initial.n": -1},
    "horizon": {"horizon": 0.0},
    "max_population": {"max_population": 5},
    "rng_seed": {"rng_seed": -1},
    "warmup_departures": {"warmup_departures": -1},
    "sample_interval": {"sample_interval": 0.0},
    "replications": {"replications": 0},
}


class TestParsing:
    def test_round_trip(self):
        # Every key lands in its field: BASE_CONFIG with its defaults, then
        # with every optional key set to something else.
        expected = Scenario(
            params=ModelParams(m=3, arrival_rate=1.0, peer_contact_rate=1.0, seed_contact_rate=1.0),
            policy=PolicyConfig(PolicyKind.MODE_SUPPRESSION, 1, 0.1, 1, "downloader"),
            initial=InitialCondition("empty", 5),
            horizon=20.0,
            rng_seed=99,
            max_population=None,
            warmup_departures=0,
            sample_interval=1.0,
        )
        assert parse_scenario_dict(json.loads(json.dumps(BASE_CONFIG))) == (expected, 2)
        doc = {
            **BASE_CONFIG,
            "mu": 0.5,
            "u": 2.0,
            "policy": {
                "kind": "ewma-ms", "T": 4, "alpha": 0.25, "sample_peers": 3,
                "cc_variant": "source",
            },
            "initial": {"kind": "one-club", "n": 7},
            "max_population": 40,
            "warmup_departures": 3,
            "sample_interval": 0.5,
            "replications": 4,
        }
        full = replace(
            expected,
            params=ModelParams(3, 1.0, 0.5, 2.0),
            policy=PolicyConfig(PolicyKind.EWMA_MS, 4, 0.25, 3, "source"),
            initial=InitialCondition("one-club", 7),
            max_population=40,
            warmup_departures=3,
            sample_interval=0.5,
        )
        assert parse_scenario_dict(doc) == (full, 4)
        # Each optional key left out takes its dataclass's own default.
        for key, (part, field) in OPTIONAL_KEYS.items():
            owner = getattr(full, part) if part else full
            default = {f.name: f.default for f in fields(owner)}[field]
            assert default is not MISSING, key
            left_out = replace(owner, **{field: default})
            if part:
                left_out = replace(full, **{part: left_out})
            assert parse_scenario_dict(edited(doc, {key: None})) == (left_out, 4), key
        assert parse_scenario_dict(edited(doc, {"replications": None})) == (full, 1)

    @pytest.mark.parametrize("key", list(INVALID_VALUES))
    def test_invalid_value_names_its_key(self, key):
        # The error path of a value the dataclasses reject lists that key
        # among the '/'-separated keys it names.
        with pytest.raises(ConfigError) as caught:
            parse_scenario_dict(edited(BASE_CONFIG, INVALID_VALUES[key]))
        assert key in caught.value.path.split("/"), caught.value.path

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="horizonn"):
            parse_scenario_dict({**BASE_CONFIG, "horizonn": 1.0})

    def test_unknown_policy_key(self):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["policy"]["tt"] = 2
        with pytest.raises(ConfigError, match="policy.tt"):
            parse_scenario_dict(doc)

    def test_negative_lambda_names_field(self):
        with pytest.raises(ConfigError, match="lambda"):
            parse_scenario_dict({**BASE_CONFIG, "lambda": -1.0})

    def test_missing_required_key(self):
        doc = json.loads(json.dumps(BASE_CONFIG))
        del doc["rng_seed"]
        with pytest.raises(ConfigError, match="rng_seed"):
            parse_scenario_dict(doc)

    @pytest.mark.parametrize(
        "key",
        ["m", "lambda", "policy", "policy.kind", "initial", "initial.kind", "initial.n",
         "horizon", "rng_seed"],
    )
    def test_missing_key_is_its_own_path(self, key):
        with pytest.raises(ConfigError, match="missing required key") as caught:
            parse_scenario_dict(edited(BASE_CONFIG, {key: None}))
        assert caught.value.path == key

    def test_bad_policy_kind_lists_choices(self):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["policy"]["kind"] = "fastest-first"
        with pytest.raises(ConfigError, match="policy.kind"):
            parse_scenario_dict(doc)

    def test_type_errors_rejected(self):
        with pytest.raises(ConfigError, match="horizon"):
            parse_scenario_dict({**BASE_CONFIG, "horizon": "long"})

    @pytest.mark.parametrize(
        "key, value, expected",
        [("m", "3", "int"), ("lambda", "1", "float"), ("policy", [], "dict"),
         ("policy.kind", 1, "str"), ("policy.T", 1.5, "int"), ("initial.n", "5", "int"),
         ("horizon", "long", "float"), ("rng_seed", True, "int"), ("replications", 2.0, "int")],
    )
    def test_wrong_type_is_its_own_path(self, key, value, expected):
        with pytest.raises(ConfigError, match=f"expected {expected}$") as caught:
            parse_scenario_dict(edited(BASE_CONFIG, {key: value}))
        assert caught.value.path == key

    def test_file_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scenario_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_scenario_file(bad)

    def test_int_for_float_key_is_the_float(self, tmp_path):
        # A JSON int for a float key is read as that float, so the run
        # writes the bytes of the same document with floats.
        as_ints = parse_scenario_dict({**BASE_CONFIG, "lambda": 2, "horizon": 50})
        as_floats = parse_scenario_dict({**BASE_CONFIG, "lambda": 2.0, "horizon": 50.0})
        assert as_ints == as_floats
        scenario = as_ints[0]
        assert type(scenario.params.arrival_rate) is float and type(scenario.horizon) is float
        outputs = []
        for name, (lam, horizon) in {"ints": (2, 50), "floats": (2.0, 50.0)}.items():
            (tmp_path / name).mkdir()
            cfg = write_config(tmp_path / name, {"lambda": lam, "horizon": horizon})
            assert f'"lambda": {lam}, ' in cfg.read_text()
            assert cmd_simulate(str(cfg), str(tmp_path / name / "out"), quiet=True) == 0
            outputs.append({p.name: p.read_bytes() for p in (tmp_path / name / "out").iterdir()})
        assert outputs[0] == outputs[1] and len(outputs[0]) == 4

    def test_top_level_array_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps([BASE_CONFIG]))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "config error: (file): top level must be a JSON object\n"
        assert not list(tmp_path.rglob("*.csv"))

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "utf16.json"
        cfg.write_bytes(b"\xff\xfe" + json.dumps(BASE_CONFIG).encode("utf-16-le"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))


class TestNonFiniteInputs:
    # A NaN rate or horizon would stall the event loop, so the engine
    # entry points are replaced by a failing stub: an unchecked value
    # fails fast instead of hanging.
    @pytest.fixture(autouse=True)
    def no_engine(self, monkeypatch):
        def ran(*args, **kwargs):
            raise AssertionError("a non-finite scenario reached the engine")

        monkeypatch.setattr(cli, "run", ran)
        monkeypatch.setattr(cli, "run_replications", ran)

    @pytest.mark.parametrize("key", ["lambda", "mu", "u", "horizon", "sample_interval"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_scenario_rejected(self, key, value):
        with pytest.raises(ConfigError, match="finite"):
            parse_scenario_dict({**BASE_CONFIG, key: value})

    def test_simulate_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, **{"lambda": math.nan})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert not list(tmp_path.rglob("*.csv"))

    def test_sweep_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        argv = ["sweep", "--config", str(cfg), "--param", "lambda", "--values", "nan"]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert not list(tmp_path.rglob("*.csv"))

    def test_overflowing_event_rate_exit_2(self, tmp_path):
        # Each rate is finite, but mu times the population overflows: every
        # holding time would be 0.0 and the clock would never advance.
        with pytest.raises(ConfigError, match="finite"):
            parse_scenario_dict({**BASE_CONFIG, "mu": 1e308})
        cfg = write_config(tmp_path, mu=1e308)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        argv = ["sweep", "--config", str(cfg), "--param", "lambda", "--values", "1"]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize(
        "option", [["--lambda", "nan"], ["--epsilon", "nan"], ["--m-const", "nan"],
                   ["--lambda", "1e308"]],
        ids=["lambda", "epsilon", "m-const", "c2-overflow"],
    )
    def test_oracle_exit_2(self, tmp_path, option):
        argv = ["oracle", "--m", "2", "--cap", "3", "--lambda", "1", *option]
        assert main(argv + ["--out", str(tmp_path), "--quiet"]) == 2
        assert not list(tmp_path.rglob("*.csv"))

    def test_oracle_far_apart_rates_exit_0(self, tmp_path):
        # The exact masses reach 1e-31; a sparse LU solve put round-off of
        # about 1e-18 on them, made 40 of them negative and exited 4.
        argv = ["oracle", "--m", "2", "--cap", "20", "--lambda", "100", "--mu", "1",
                "--u", "1", "--T", "2", "--out", str(tmp_path), "--quiet"]
        assert main(argv) == 0
        with open(tmp_path / "stationary.csv", newline="") as f:
            masses = [float(row["probability"]) for row in csv.DictReader(f)]
        live = [x for x in masses if x != 0.0]
        assert min(masses) == 0.0 and 0 < min(live) < 1e-30

    @pytest.mark.parametrize(
        "rates", [["--mu", "1.7e308", "--u", "1e308"], ["--mu", "1e308"]],
        ids=["nan-solve", "infinite-drift"],
    )
    def test_oracle_overflow_exit_4(self, tmp_path, capsys, rates):
        argv = ["oracle", "--m", "2", "--cap", "3", "--lambda", "1", *rates]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--out", str(tmp_path), "--quiet"]) == 4
        assert not caught, [str(w.message) for w in caught]
        assert "internal error:" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize(
    "command, target, fault, line",
    [
        ("simulate", "run_replications", KeyError(5), "internal error: KeyError: 5"),
        ("sweep", "run_replications", KeyError(5), "internal error: KeyError: 5"),
        ("oracle", "build_generator_ms", AssertionError(), "internal error: AssertionError"),
    ],
)
def test_planted_fault_exit_4(tmp_path, monkeypatch, capsys, command, target, fault, line):
    # A fault no check anticipates, here planted in the engine or the
    # oracle, exits 4 with one stderr line (naming the exception type, then
    # its message if it has one) and leaves no CSV.
    def fail(*args, **kwargs):
        raise fault

    monkeypatch.setattr(cli, target, fail)
    cfg = write_config(tmp_path)
    argv = {
        "simulate": ["simulate", "--config", str(cfg)],
        "sweep": ["sweep", "--config", str(cfg), "--param", "lambda", "--values", "1,2"],
        "oracle": ["oracle", "--m", "2", "--cap", "3", "--lambda", "1"],
    }[command]
    assert main(argv + ["--out", str(tmp_path / "out"), "--quiet"]) == 4
    assert capsys.readouterr().err.splitlines() == [line]
    assert not list(tmp_path.rglob("*.csv"))


# BASE_CONFIG's commands and the seed of their second job: simulate's
# replication 1, and sweep's replication 1 of its first value.
WORKER_CASES = {
    "simulate": (["simulate"], derive_seed(BASE_CONFIG["rng_seed"], 1)),
    "sweep": (["sweep", "--param", "lambda", "--values", "1,2"],
              derive_seed(BASE_CONFIG["rng_seed"], 0, 1)),
}


def _two_workers(monkeypatch):
    # Two CPUs to run on whatever this machine has, so that jobs leave this process.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _plant_in_second_job(monkeypatch, seed, fault):
    """Call ``fault()`` where the job seeded ``seed`` starts, and assert
    that it runs in a worker."""
    start = random.Random(seed).getstate()
    parent = os.getpid()
    advance = Simulation._advance

    def planted(self, *args):
        if self.rng.getstate() == start:
            assert os.getpid() != parent, "the job ran in the parent"
            fault()
        return advance(self, *args)

    monkeypatch.setattr(Simulation, "_advance", planted)


def _run_worker_case(tmp_path, command):
    argv, _ = WORKER_CASES[command]
    cfg = write_config(tmp_path)
    return main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])


def _raise_key_error():
    raise KeyError(5)


@pytest.mark.parametrize(
    "fault, line",
    [(_raise_key_error, "internal error: KeyError: 5"),
     (lambda: os._exit(1), "internal error: RuntimeError: a worker died running replication job 1")],
    ids=["raises", "dies"],
)
@pytest.mark.parametrize("command", list(WORKER_CASES))
def test_fault_in_a_worker_exit_4(tmp_path, monkeypatch, capsys, command, fault, line):
    # A fault raised in a worker, or a worker that dies, exits 4 like a
    # fault in this process: one stderr line, no CSV, and no worker left.
    _two_workers(monkeypatch)
    _plant_in_second_job(monkeypatch, WORKER_CASES[command][1], fault)
    assert _run_worker_case(tmp_path, command) == 4
    assert capsys.readouterr().err.splitlines() == [line]
    assert not list(tmp_path.rglob("*.csv"))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("command", list(WORKER_CASES))
def test_hung_worker_is_killed_on_interrupt(tmp_path, monkeypatch, command):
    # An exception that reaches the waiting parent, here the alarm's, is
    # not turned into an exit code: it propagates, and the workers die first.
    _two_workers(monkeypatch)
    _plant_in_second_job(monkeypatch, WORKER_CASES[command][1], lambda: time.sleep(60))
    # The alarm repeats, so a parent that waited on its workers would fail here, not hang.
    signal.setitimer(signal.ITIMER_REAL, 2, 5)
    try:
        with pytest.raises(TimeLimitExceeded):
            _run_worker_case(tmp_path, command)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    assert multiprocessing.active_children() == []
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("command", list(WORKER_CASES))
def test_csvs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, command):
    # One worker (the jobs run in this process) and two write the same bytes.
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    argv, _ = WORKER_CASES[command]
    cfg = write_config(tmp_path)
    written = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        out = tmp_path / f"cpus{len(cpus)}"
        assert main(argv + ["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(forks) == 2 * (len(cpus) - 1)
    assert written[0] == written[1]


@pytest.mark.parametrize(
    "key",
    ["m", "initial.n", "rng_seed", "max_population", "warmup_departures", "replications",
     "policy.T", "policy.sample_peers"],
)
@pytest.mark.parametrize("value", [-1, 0, 1, 2])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_small_integers_keep_exit_contract(tmp_path, key, value, command):
    # Every integer key at the edge of its range either runs or is a
    # config error that writes nothing; none reaches a traceback.
    cfg = write_config(tmp_path, {key: value}, horizon=2.0)
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out), "--quiet"]
    if command == "sweep":
        argv += ["--param", "lambda", "--values", "1"]
    code = main(argv)
    assert code in (0, 2)
    if code == 2:
        assert not list(tmp_path.rglob("*.csv"))


class TestSimulate:
    def test_writes_all_csvs(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert cmd_simulate(str(cfg), str(out)) == 0
        for name in ("population.csv", "frequencies.csv", "departures.csv", "summary.csv"):
            assert (out / name).exists(), name
        header = (out / "frequencies.csv").read_text().splitlines()[0]
        assert header == "time,replication,pi_1,pi_2,pi_3"
        pop_lines = (out / "population.csv").read_text().splitlines()
        assert pop_lines[0] == "time,replication,population"
        assert len(pop_lines) == 1 + 2 * 21  # 2 replications, t = 0..20
        assert len((out / "summary.csv").read_text().splitlines()) == 3

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"lambda": -1.0})
        assert cmd_simulate(str(cfg), str(tmp_path / "out")) == 2
        assert "lambda" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cmd_simulate(str(cfg), str(out1), quiet=True) == 0
        assert cmd_simulate(str(cfg), str(out2), quiet=True) == 0
        for name in ("population.csv", "frequencies.csv", "departures.csv", "summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_io_failure_exit_3(self, tmp_path):
        cfg = write_config(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert cmd_simulate(str(cfg), str(blocker / "out")) == 3

    def test_failed_write_leaves_no_partial_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        (out / "summary.csv").mkdir(parents=True)
        (out / "population.csv").write_text("from an earlier run\n")
        assert cmd_simulate(str(cfg), str(out), quiet=True) == 3
        assert "i/o error" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["population.csv", "summary.csv"]
        assert (out / "population.csv").read_text() == "from an earlier run\n"

    def test_fault_while_a_body_streams_exit_4(self, tmp_path, monkeypatch, capsys):
        # The bodies are spelled as write_csvs writes them.  A frequency
        # row that its replication's row table lacks, met after the first
        # chunks of frequencies.csv are written, exits 4 with one stderr
        # line and leaves --out as it was: no new CSV, no staging directory.
        cfg = write_config(tmp_path, {"sample_interval": 0.01})  # 2,001 samples each
        out = tmp_path / "out"
        out.mkdir()
        (out / "population.csv").write_text("from an earlier run\n")
        traces, written, write_csv = [], [], cli.write_csv

        def recorded(jobs):
            traces.extend(run_replications(jobs))
            return traces

        def planted(path, header, body):
            written.append(path.name)
            if path.name == "frequencies.csv":
                traces[-1].frequencies[-1] = (-1.0,)
            write_csv(path, header, body)

        monkeypatch.setattr(cli, "run_replications", recorded)
        monkeypatch.setattr(cli, "write_csv", planted)
        assert cmd_simulate(str(cfg), str(out), quiet=True) == 4
        assert capsys.readouterr().err.splitlines() == ["internal error: KeyError: (-1.0,)"]
        assert written == ["population.csv", "frequencies.csv"]
        assert os.listdir(out) == ["population.csv"]
        assert (out / "population.csv").read_text() == "from an earlier run\n"

    def test_replications_override(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert cmd_simulate(str(cfg), str(out), replications=1, quiet=True) == 0
        assert len((out / "summary.csv").read_text().splitlines()) == 2


class TestSweep:
    def test_empty_values_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cmd_sweep(str(cfg), "T", [], str(tmp_path / "out")) == 2

    def test_unknown_parameter_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cmd_sweep(str(cfg), "alpha", ["1"], str(tmp_path / "out")) == 2

    def test_rows_per_value_and_replication(self, tmp_path, capsys):
        # Without --quiet, one line per row is printed, in row order.
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert cmd_sweep(str(cfg), "T", ["1", "2"], str(out)) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("parameter,value,replication")
        assert len(lines) == 1 + 2 * 2  # 2 values x 2 replications
        rows = [line.split(",")[:3] for line in lines[1:]]
        assert rows == [["T", "1", "0"], ["T", "1", "1"], ["T", "2", "0"], ["T", "2", "1"]]
        assert capsys.readouterr().out.splitlines() == [
            f"T={value} replication {rep}: done" for _, value, rep in rows
        ]

    def test_policy_kind_sweep(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = cmd_sweep(
            str(cfg), "policy.kind", ["random", "distributed-ms"], str(out),
            replications=1, quiet=True,
        )
        assert code == 0
        body = (out / "sweep.csv").read_text()
        assert "random" in body and "distributed-ms" in body

    def test_failed_write_leaves_no_partial_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        (out / "sweep.csv").mkdir(parents=True)
        (out / "summary.csv").write_text("from an earlier run\n")
        assert cmd_sweep(str(cfg), "T", ["1"], str(out), replications=1, quiet=True) == 3
        assert "i/o error" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["summary.csv", "sweep.csv"]
        assert (out / "summary.csv").read_text() == "from an earlier run\n"
        assert not list((out / "sweep.csv").iterdir())
        assert not list(tmp_path.rglob(".staging-*")) and not list(tmp_path.rglob("*.tmp"))

    def test_raw_value_with_newline_is_one_field(self, tmp_path):
        # float() accepts "1\n", and the value column keeps the raw text.
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert cmd_sweep(str(cfg), "lambda", ["1\n"], str(out), replications=1, quiet=True) == 0
        with (out / "sweep.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2 and rows[1][:2] == ["lambda", "1\n"]

    def test_raw_values_with_carriage_return_read_back(self, tmp_path):
        # float() strips "\r" too: the field holding it must be quoted.
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(cfg), "--param", "lambda", "--values", "2\r,3"]
        assert main(argv + ["--out", str(out), "--replications", "1", "--quiet"]) == 0
        with (out / "sweep.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [11, 11, 11]
        assert [row[1] for row in rows[1:]] == ["2\r", "3"]

    def test_m_sweep_table_skeleton(self, tmp_path):
        cfg = write_config(tmp_path, horizon=10.0)
        out = tmp_path / "out"
        assert cmd_sweep(str(cfg), "m", ["5", "10"], str(out), replications=1,
                         quiet=True) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3


class TestOracleCmd:
    def test_outputs(self, tmp_path, capsys):
        out = tmp_path / "oracle"
        code = cmd_oracle(
            m=2, cap=6, arrival_rate=1.0, peer_contact_rate=1.0,
            seed_contact_rate=1.0, threshold=1, out_dir=str(out),
        )
        assert code == 0
        for name in ("generator-audit.csv", "stationary.csv", "drift.csv"):
            assert (out / name).exists(), name
        drift = (out / "drift.csv").read_text().splitlines()
        assert drift[0] == "state_id,population,V,QV,boundary,region"
        assert "np." not in (out / "drift.csv").read_text()
        assert "lemma checks passed" in capsys.readouterr().out

    def test_state_column_is_one_field(self, tmp_path):
        # The state tuple holds commas, so it is quoted: a CSV reader sees
        # exactly four fields on every row, the lemma line included.
        out = tmp_path / "oracle"
        assert cmd_oracle(3, 3, 1.0, 1.0, 1.0, 1, str(out), quiet=True) == 0
        for name in ("stationary.csv", "generator-audit.csv"):
            with (out / name).open(newline="") as fh:
                rows = list(csv.reader(fh))
            assert {len(row) for row in rows} == {4}, name
            assert rows[1][1] == "(0, 0, 0, 0, 0, 0, 0)"
        last = (out / "generator-audit.csv").read_text().splitlines()[-1]
        assert last == "lemma-checks,,,pass"

    def test_cap_zero_single_state(self, tmp_path):
        out = tmp_path / "oracle"
        assert cmd_oracle(2, 0, 1.0, 1.0, 1.0, 1, str(out), quiet=True) == 0
        stationary = (out / "stationary.csv").read_text().splitlines()
        assert len(stationary) == 2
        assert stationary[1].endswith(",1.0")
        # No transition at all, yet QV is a float like every other drift.
        drift = (out / "drift.csv").read_text().splitlines()
        assert drift[1:] == ["0,0,20.0,0.0,true,uniform"]

    def test_failed_lemma_checks_exit_0_and_end_the_audit(self, tmp_path, monkeypatch, capsys):
        def two_violations(gen):
            report = verify_lemmas(gen)
            report.record("rate-bounds", "planted one")
            report.record("exit-rate", "planted two")
            return report

        monkeypatch.setattr(cli, "verify_lemmas", two_violations)
        out = tmp_path / "oracle"
        assert cmd_oracle(2, 4, 1.0, 1.0, 1.0, 1, str(out)) == 0
        assert "lemma checks FAILED" in capsys.readouterr().out
        audit = (out / "generator-audit.csv").read_text()
        assert audit.endswith("\nlemma-checks,,,2 violations\n")

    def test_unsupported_m_exit_2(self, tmp_path):
        assert cmd_oracle(4, 3, 1.0, 1.0, 1.0, 1, str(tmp_path)) == 2

    def test_round_off_on_transient_state(self, tmp_path):
        # m=3, cap 8, lambda 2 once left a -2e-15 round-off value on a
        # transient state, which failed the stationary solve.
        out = tmp_path / "oracle"
        assert cmd_oracle(3, 8, 2.0, 1.0, 1.0, 1, str(out), quiet=True) == 0
        lines = (out / "stationary.csv").read_text().splitlines()[1:]
        probs = [float(line.rsplit(",", 1)[1]) for line in lines]
        assert min(probs) >= 0.0
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_internal_error_exit_4_no_output(self, tmp_path, monkeypatch, capsys):
        def fail(gen):
            raise RuntimeError("stationary residual 1.000e-03 exceeds 1e-10")

        monkeypatch.setattr(cli, "stationary_distribution", fail)
        out = tmp_path / "oracle"
        assert cmd_oracle(2, 4, 1.0, 1.0, 1.0, 1, str(out), quiet=True) == 4
        assert capsys.readouterr().err.splitlines() == [
            "internal error: RuntimeError: stationary residual 1.000e-03 exceeds 1e-10"
        ]
        assert not list(tmp_path.rglob("*.csv"))

    def test_asymmetric_rate_exit_4_no_output(self, tmp_path, monkeypatch, capsys):
        # A rate that breaks the chunk symmetry on a state of mass about
        # 1e-34 fails the lumpability check, though the residual is tiny.
        build = cli.build_generator_ms
        monkeypatch.setattr(
            cli, "build_generator_ms", lambda *args: plant_asymmetric_rate(build(*args))[0]
        )
        out = tmp_path / "oracle"
        assert cmd_oracle(2, 50, 0.5, 1.0, 1.0, 1, str(out), quiet=True) == 4
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(
            "internal error: RuntimeError: chain is not lumpable under chunk relabelling at ("
        )
        assert not list(tmp_path.rglob("*.csv"))

    def test_failed_write_leaves_no_partial_output(self, tmp_path):
        out = tmp_path / "oracle"
        (out / "stationary.csv").mkdir(parents=True)
        code = main(["oracle", "--m", "2", "--cap", "3", "--lambda", "1",
                     "--out", str(out), "--quiet"])
        assert code == 3
        assert [p.name for p in out.iterdir()] == ["stationary.csv"]


# SHA-256 of the oracle's three CSVs.  (m, cap, lambda, mu, U, T).  The
# generator-audit.csv and drift.csv digests were recorded from the builder
# that walked every state in Python.  The stationary.csv digests were
# re-recorded when the solve moved onto the orbits of the closed class
# under chunk relabelling (at most 7e-15 relative), and again when the
# sparse LU solve gave way to GTH elimination by population level: that
# moved most nonzero probabilities by round-off, at most 3.3e-15
# relative, the zero pattern unchanged.
ORACLE_CSV_DIGESTS = [
    (
        (2, 50, 0.5, 1.0, 1.0, 1),
        {
            "generator-audit.csv": (
                "45d683c6459ccdfd40939474e6d8c4e0a130955f969d929f6f9d9701bbf80479"
            ),
            "stationary.csv": (
                "ea2b7d88a080b7eb1002d778fe894db4a5cb6ffc46140d5d628675e54a5619f8"
            ),
            "drift.csv": (
                "139847b94d09eeaf400f134f24fa66dbee898011eb7bdcb2b8cf8411d5c957ff"
            ),
        },
    ),
    (
        (3, 8, 1.0, 1.0, 1.0, 1),
        {
            "generator-audit.csv": (
                "2d5f816bda65e187a7dfeb873c1aa67f94987e870c92b6c3a557f8345a2046a7"
            ),
            "stationary.csv": (
                "9a4a794e7ffa12d0543075efa2d8e6c649b70979f3ecfa84a15e55c3991b10e0"
            ),
            "drift.csv": (
                "cb1f6fccb0413c52bddea745b966af80c5ffe172bfe2f29ac367fb751df33fbc"
            ),
        },
    ),
    (
        (3, 5, 1.0, 0.7, 1.3, 2),
        {
            "generator-audit.csv": (
                "420cdcf05ab19a470d1d4568f1b3764c63958193bbef3d840c9b928018c6a170"
            ),
            "stationary.csv": (
                "0dfa8212e2ac9a296683d58ed48cc3070ccc5911ce93ebbe29da1a31d3f7e0e0"
            ),
            "drift.csv": (
                "38351fa06f67b203bd4fc5deefb8ace78f6aac58783f6a9d2831dc22c077fd16"
            ),
        },
    ),
]


@pytest.mark.parametrize(
    "config,digests",
    ORACLE_CSV_DIGESTS,
    ids=[f"m{c[0]}-cap{c[1]}-T{c[5]}" for c, _ in ORACLE_CSV_DIGESTS],
)
def test_oracle_csv_digests(tmp_path, config, digests):
    m, cap, lam, mu, u, threshold = config
    assert cmd_oracle(m, cap, lam, mu, u, threshold, str(tmp_path), quiet=True) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def _csv_writer_text(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize(
    "config",
    [
        (2, 0, 1.0, 1.0, 1.0, 1),
        (2, 4, 1.0, 1.0, 1.0, 1),
        (3, 5, 1.0, 0.7, 1.3, 2),
        (2, 12, 1.0, 1.0, 1.0, 1),
    ],
    ids=["m2-cap0", "m2-cap4-T1", "m3-cap5-T2", "m2-cap12-T1"],
)
def test_oracle_csvs_match_csv_writer(tmp_path, config):
    # The oracle spells whole columns at once, NUL-padded to a fixed width;
    # csv.writer over one Python object per field (ints, state tuples,
    # floats, true/false, region tags) must write the same bytes.  At cap
    # 12 (455 states) ids cross 10 and 100 and counts take one or two
    # digits, so one column holds fields of several widths.
    m, cap, lam, mu, u, threshold = config
    assert cmd_oracle(m, cap, lam, mu, u, threshold, str(tmp_path), quiet=True) == 0
    params = ModelParams(m=m, arrival_rate=lam, peer_contact_rate=mu, seed_contact_rate=u)
    gen = build_generator_ms(TruncationSpec(m=m, cap=cap), params, threshold)
    lp = LyapunovParams.compliant(params, threshold, m_const=max(2.0 * cap, 1.0), epsilon=0.5)
    report = verify_lemmas(gen)
    states = [
        [i, state_name(row), pop]
        for i, (row, pop) in enumerate(zip(gen.counts.tolist(), gen.populations.tolist()))
    ]
    residuals = np.asarray(as_scipy(gen.matrix).sum(axis=1)).ravel().tolist()
    verdict = "pass" if report.ok else f"{report.total_violations()} violations"
    expected = {
        "generator-audit.csv": [
            ["state_id", "state", "population", "row_sum_residual"],
            *(state + [float(r)] for state, r in zip(states, residuals)),
            ["lemma-checks", "", "", verdict],
        ],
        "stationary.csv": [
            ["state_id", "state", "population", "probability"],
            *(state + [float(x)] for state, x in zip(states, stationary_distribution(gen))),
        ],
        "drift.csv": [
            ["state_id", "population", "V", "QV", "boundary", "region"],
            *(
                [row.index, row.population, float(row.value), float(row.drift),
                 "true" if row.boundary else "false", row.region]
                for row in drift_report(gen, lp)
            ),
        ],
    }
    for name, rows in expected.items():
        assert (tmp_path / name).read_bytes().decode() == _csv_writer_text(rows), name


SIMULATE_CSV_DIGESTS = [
    (
        # A one-club rarest-first run sampled every 0.05: 801 samples of
        # 227 distinct states, 571 of them the state of the sample before.
        "oneclub-rarest",
        {
            "policy.kind": "rarest-first",
            "initial.kind": "one-club",
            "initial.n": 10,
            "m": 5,
            "horizon": 40.0,
            "rng_seed": 13,
            "sample_interval": 0.05,
            "replications": 1,
        },
        {
            "population.csv": "4c3ed848c1a1531b3e397feb6d0bf8cc52ac11f23cbb83d723a57786d503aa27",
            "frequencies.csv": "498b2ee6eb720194eb8685bd5bcb2890a8bb27f5f836af982a6869caccbe7538",
            "departures.csv": "b098e722b97c1772e97f752107bee91a6d585739a9090b74c277ba781489c6b8",
            "summary.csv": "44ea2047c6c78180d8cbda8bebf69e07ec47860d4352d419e8455041785ed059",
        },
    ),
    (
        # BASE_CONFIG: two replications from an empty start, whose traces
        # share rows such as the all-zero one.
        "empty-2reps",
        {},
        {
            "population.csv": "14ca1030f4d23d3af07968c315c509e0435df89f64291a197d9c01ac7449b77e",
            "frequencies.csv": "e1fc6dd19137d757edecaf8f42f702e11d0c383527de0d3648db6b6053881c46",
            "departures.csv": "f09ed69bc36ef34e0e39eef490784ab1e45a10488d7260469ef730a0161d8d15",
            "summary.csv": "fd656b4137651a9b6d1c72086c0546f0999bc9475e89a3fbb181cfcee06ece38",
        },
    ),
]


@pytest.mark.parametrize(
    "overrides,digests",
    [c[1:] for c in SIMULATE_CSV_DIGESTS],
    ids=[c[0] for c in SIMULATE_CSV_DIGESTS],
)
def test_simulate_csv_digests(tmp_path, overrides, digests):
    cfg = write_config(tmp_path, overrides)
    assert cmd_simulate(str(cfg), str(tmp_path / "out"), quiet=True) == 0
    for name, digest in digests.items():
        data = (tmp_path / "out" / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


CAP, HORIZON = TerminationReason.POPULATION_CAP_HIT, TerminationReason.HORIZON_REACHED


@pytest.mark.parametrize(
    "overrides,terminations,chunks",
    [
        # Three replications at m=2: the first two stop at max_population,
        # after 29 and 25 samples, and the last, the longest, runs to the
        # horizon (81 samples).
        ({"m": 2, "max_population": 11, "rng_seed": 3, "sample_interval": 0.25,
          "replications": 3}, [CAP, CAP, HORIZON], 1),
        # A one-club at m=10: the club's peers arrived at 0.0.
        ({"m": 10, "initial.kind": "one-club", "initial.n": 6,
          "policy.kind": "rarest-first", "sample_interval": 0.25}, [HORIZON, HORIZON], 1),
        # Three replications at m=2 of 1,619, 38 and 2,001 samples: four
        # chunks, whose boundaries fall inside the first and the last
        # replication; the middle one has no departure.
        ({"m": 2, "max_population": 12, "rng_seed": 54, "horizon": 100.0,
          "sample_interval": 0.05, "replications": 3}, [CAP, CAP, HORIZON], 4),
    ],
    ids=["m2-3reps-cut", "m10-oneclub", "m2-3reps-chunks"],
)
def test_simulate_csvs_match_csv_writer(tmp_path, overrides, terminations, chunks):
    # simulate spells each time, frequency, frequency row and population
    # once and streams the pieces in chunks of CHUNK_LINES lines;
    # csv.writer over the traces' own values, one Python object per field,
    # must write the same bytes.
    cfg = write_config(tmp_path, overrides)
    assert cmd_simulate(str(cfg), str(tmp_path / "out"), quiet=True) == 0
    scenario, reps = load_scenario_file(cfg)
    traces = run_replications(scenario.replication(rep) for rep in range(reps))
    # The cases the writer's tables fold: replications of different
    # lengths, a row that two replications share, equal rows held as
    # distinct tuples, and a departure that arrived at 0.0.
    assert [trace.termination for trace in traces] == terminations
    lengths = [len(trace.times) for trace in traces]
    assert -(-sum(lengths) // cli.CHUNK_LINES) == chunks
    if chunks > 1:
        # Every chunk boundary falls inside a replication, and one
        # replication adds no line to departures.csv.
        ends = set(accumulate(lengths))
        assert not ends & set(range(cli.CHUNK_LINES, sum(lengths), cli.CHUNK_LINES))
        assert [] in [trace.departures for trace in traces]
    assert set(traces[0].frequencies) & set(traces[1].frequencies)
    assert any(
        len(set(trace.frequencies)) < len(set(map(id, trace.frequencies))) for trace in traces
    )
    assert any(arrived == 0.0 for trace in traces for arrived, _ in trace.departures)
    samples = [
        (rep, time, pop, row)
        for rep, trace in enumerate(traces)
        for time, pop, row in zip(trace.times, trace.populations, trace.frequencies)
    ]
    expected = {
        "population.csv": [
            ["time", "replication", "population"],
            *([time, rep, pop] for rep, time, pop, _ in samples),
        ],
        "frequencies.csv": [
            ["time", "replication", *(f"pi_{j}" for j in range(1, scenario.params.m + 1))],
            *([time, rep, *row] for rep, time, _, row in samples),
        ],
        "departures.csv": [
            ["replication", "arrival_time", "departure_time", "sojourn"],
            *(
                [rep, arrived, departed, departed - arrived]
                for rep, trace in enumerate(traces)
                for arrived, departed in trace.departures
            ),
        ],
    }
    for name, rows in expected.items():
        assert (tmp_path / "out" / name).read_bytes().decode() == _csv_writer_text(rows), name


def _long_trace(samples: int, m: int) -> EventTrace:
    # A one-club-like trace: the population is near 500 and moves on
    # about one sample in twenty, and about one sample in five moves one
    # chunk count, so most samples repeat the row of the sample before.
    rng = random.Random(5)
    trace = EventTrace()
    pop, counts, row = 499, [400] * m, None
    for k in range(samples):
        if row is None or rng.random() < 0.2:
            if rng.random() < 0.25:
                pop += rng.choice((-1, 1))
            j = rng.randrange(m)
            counts[j] = min(pop, max(0, counts[j] + rng.choice((-1, 1))))
            row = tuple(count / pop for count in counts)
        trace.times.append(k * 0.05)
        trace.populations.append(pop)
        trace.frequencies.append(row)
    trace.departures = [(k * 0.05, k * 0.05 + 3.0) for k in range(0, samples, 50)]
    return trace


def test_simulate_writer_holds_no_body_whole(tmp_path):
    # The writer streams each body in chunks.  What it holds for the whole
    # call is one text per sample time, shared by population.csv and
    # frequencies.csv, and the texts of each replication's distinct rows
    # and values; at m=10 that is less than frequencies.csv itself.
    # Joining the body whole, as str and then as bytes, took about three
    # times the file.
    scenario, _ = parse_scenario_dict(edited(BASE_CONFIG, {"m": 10}))
    traces = [_long_trace(40_000, 10)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cli.write_simulation_outputs(tmp_path, scenario, traces)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "frequencies.csv").stat().st_size


# sweep.csv of BASE_CONFIG across lambda 1 and 2 (two values, two
# replications each), recorded while sweep still ran its replications one
# after another in this process.
SWEEP_CSV_SHA256 = "2ff9b2b845d58df7fb479354218cad7c5251c9eb8c7d69188fd49af072b73907"


def test_sweep_csv_digest(tmp_path):
    cfg = write_config(tmp_path)
    assert cmd_sweep(str(cfg), "lambda", ["1", "2"], str(tmp_path / "out"), quiet=True) == 0
    data = (tmp_path / "out" / "sweep.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == SWEEP_CSV_SHA256


def test_write_csv_text_per_value_type(tmp_path):
    # csv.writer writes int, float, str and None itself; bools and numpy
    # scalars go through _fmt.  Each row is one type, and one row mixes them.
    rows = [
        [3, -7],
        [-0.0, 1e-300, float("inf"), 0.1],
        [np.float64(0.1), np.float64(-0.0)],
        [np.int64(12), np.int64(-5)],
        [True, False],
        [None, None],
        ["a,b", "plain"],
        [1, 2.5, "x", None, True, np.float64(1e16)],
    ]
    path = tmp_path / "types.csv"
    cli.write_csv(path, ("c1", "c2"), [cli._rows(rows)])
    assert path.read_text() == (
        "c1,c2\n"
        "3,-7\n"
        "-0.0,1e-300,inf,0.1\n"
        "0.1,-0.0\n"
        "12,-5\n"
        "true,false\n"
        ",\n"
        '"a,b",plain\n'
        "1,2.5,x,,true,1e+16\n"
    )


def _csv_module_text(header, rows):
    # csv.writer quotes a field holding a character of its line end: a
    # "\r\n" end quotes a bare "\r" too.  Each line then ends in "\n".
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    lines = []
    for row in [header, *rows]:
        buf.seek(0)
        buf.truncate()
        writer.writerow([cli._fmt(v) for v in row])
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)


_TEXT = st.text(st.sampled_from('ab ,"\n\r;'), max_size=6)
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5]),
)
_VALUES = st.one_of(
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _FLOATS,
    _FLOATS.map(np.float64),
    st.booleans(),
    st.none(),
    _TEXT,
)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    header=st.lists(_TEXT, min_size=1, max_size=4),
    rows=st.lists(st.lists(_VALUES, max_size=4), max_size=6),
)
def test_write_csv_matches_csv_module(tmp_path, header, rows):
    # The text contract: csv.writer's minimal quoting, over _fmt's text,
    # and csv.reader reads that text back.
    path = tmp_path / "t.csv"
    cli.write_csv(path, header, [cli._rows(rows)])
    with path.open(newline="") as fh:
        assert fh.read() == _csv_module_text(header, rows)
    with path.open(newline="") as fh:
        expected = [[cli._fmt(v) for v in row] for row in [header, *rows]]
        assert list(csv.reader(fh)) == expected


def _pooled(elements, max_size=60):
    # Heavy repeats: every value is drawn from a pool of at most six.
    return st.lists(elements, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=max_size) if pool else st.just([])
    )


@given(_pooled(_FLOATS))
@example([0.0, -0.0, 0.0, -0.0, 0.0])
@example([math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-05, 5e-324, 1e16])
@example([-1.5, -5e-324, -1e16, -1e-05, -1.5])
def test_float_column_matches_repr(values):
    array = np.array(values, dtype=np.float64)
    assert bytetable.floats(array).tolist() == [repr(v).encode() for v in array.tolist()]
    text = "".join(repr(v) + "\n" for v in array.tolist())
    assert bytetable.text(bytetable.block(bytetable.floats(array), b"\n")) == text.encode()


def test_float_column_keys_on_bits_and_takes_only_float64():
    # Two NaN payloads, a negative NaN, 0.0 and -0.0, read backwards
    # through a strided view.
    bits = np.array(
        [0x7FF8000000000001, 0x7FF8000000000002, 0xFFF8000000000000 - 2**64, 0, -(2**63)],
        dtype=np.int64,
    )
    values = bits.view(np.float64)[::-1]
    assert bytetable.floats(values).tolist() == [b"-0.0", b"0.0", b"nan", b"nan", b"nan"]
    for dtype in (np.int64, np.float32):
        with pytest.raises(TypeError, match=np.dtype(dtype).name):
            bytetable.floats(np.zeros(2, dtype=dtype))


# Table sizes on each side of every digit-width boundary, past the widest
# state id of the benchmark's oracle instances (23,425 at m=2 cap 50).
_ID_COUNTS = [1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 9999, 10_000, 10_001, 100_001]


@pytest.mark.parametrize("n", _ID_COUNTS)
def test_decimals_are_str_of_each_id(n):
    assert bytetable.decimals(n).tolist() == [str(i).encode() for i in range(n)]


@settings(deadline=None)
@given(
    data=st.data(),
    n=st.sampled_from(_ID_COUNTS),
    floats=_pooled(_FLOATS, max_size=30),
)
def test_byte_table_matches_comma_join(data, n, floats):
    # Ids and counts gathered from the decimal table, the counts cut to
    # the width of their bound as the oracle cuts them to the cap's;
    # floats, literal separators and a true/false tag column.
    rows = len(floats)
    ids = data.draw(st.lists(st.integers(0, n - 1), min_size=rows, max_size=rows))
    top = data.draw(st.integers(0, n - 1))
    counts = data.draw(st.lists(st.integers(0, top), min_size=rows, max_size=rows))
    flags = data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    table = bytetable.decimals(n)
    narrow = table[: top + 1].astype(f"S{len(str(top))}")
    prefix = bytetable.block(table[ids], b',"(', narrow[counts], b')",')
    block = bytetable.block(
        prefix, bytetable.floats(np.array(floats, dtype=np.float64)), b",",
        np.where(np.array(flags, dtype=bool), b"true", b"false"), b"\n",
    )
    expected = "".join(
        ",".join([str(i), f'"({c})"', repr(x), "true" if f else "false"]) + "\n"
        for i, c, x, f in zip(ids, counts, floats, flags)
    )
    assert bytetable.text(block) == expected.encode()


def test_write_csv_converts_batches_past_the_first(tmp_path):
    # A bool far down a long table is still spelled as _fmt spells it.
    rows = [[i, 0.5] for i in range(5000)] + [[5000, True]]
    path = tmp_path / "long.csv"
    cli.write_csv(path, ("i", "v"), [cli._rows(rows)])
    lines = path.read_text().splitlines()
    assert lines[1] == "0,0.5" and lines[-1] == "5000,true" and len(lines) == 5002


def test_import_leaves_scipy_stats_unloaded():
    out = run_fresh("import sys, swarmsim.cli; print('scipy.stats' in sys.modules)")
    assert out.stdout.strip() == "False"


# Fresh-interpreter code that lists the loaded modules of the packages named.
_LOADED = (
    "import sys\n"
    "def loaded(*packages):\n"
    "    return sorted(name for name in sys.modules if name.split('.')[0] in packages)\n"
)


def test_simulate_and_sweep_leave_scipy_unloaded(tmp_path):
    # Only the oracle loads numpy, and nothing loads scipy.  The sweep's
    # two replications run in forked workers, which check after each run.
    cfg = write_config(tmp_path, replications=1)
    code = _LOADED + f"""
import os
from swarmsim import cli, engine
print(loaded("numpy", "scipy"))
run = engine.run
def checked(scenario):
    trace = run(scenario)
    assert not loaded("numpy", "scipy"), loaded("numpy", "scipy")
    return trace
engine.run = checked
os.sched_getaffinity = lambda pid: {{0, 1}}
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
args = ["--config", {str(cfg)!r}, "--quiet", "--out"]
assert cli.main(["simulate", *args, {str(tmp_path / "sim")!r}]) == 0
print(loaded("numpy", "scipy"))
assert cli.main(["sweep", "--param", "lambda", "--values", "1,2", *args,
                 {str(tmp_path / "sweep")!r}]) == 0
print(loaded("numpy", "scipy"), len(forks))
"""
    out = run_fresh(code)
    assert out.stdout.splitlines() == ["[]", "[]", "[] 2"], out.stderr
    assert out.stderr == ""


ORACLE_ARGS = ["oracle", "--m", "2", "--cap", "3", "--lambda", "1.0", "--T", "1", "--quiet"]


def test_loading_a_scenario_leaves_argparse_numpy_and_bytetable_unloaded(tmp_path):
    # What a cold simulate or sweep pays before it runs: only main parses
    # arguments and only the oracle loads numpy and the byte tables.
    cfg = write_config(tmp_path)
    code = f"""
import sys, swarmsim.cli
swarmsim.cli.load_scenario_file({str(cfg)!r})
print(sorted(m for m in ("argparse", "numpy", "swarmsim.bytetable") if m in sys.modules))
"""
    out = run_fresh(code)
    assert out.stdout.splitlines() == ["[]"], out.stderr


def test_cold_oracle_writes_what_an_in_process_run_writes(tmp_path):
    # This process has numpy and scipy loaded already (the oracle tests
    # import them at their top); a fresh interpreter shows that the oracle
    # loads numpy and no scipy module.
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    code = _LOADED + f"""
from swarmsim.cli import main
print(loaded("numpy", "scipy"))
code = main({ORACLE_ARGS + ["--out", str(cold)]!r})
print(code, loaded("scipy"), "numpy" in sys.modules)
"""
    out = run_fresh(code)
    assert out.stdout.splitlines() == ["[]", "0 [] True"], out.stderr
    assert main(ORACLE_ARGS + ["--out", str(warm)]) == 0
    files = {p.name: p.read_bytes() for p in sorted(warm.iterdir())}
    assert sorted(files) == ["drift.csv", "generator-audit.csv", "stationary.csv"]
    assert {p.name: p.read_bytes() for p in sorted(cold.iterdir())} == files


def _without(module, argv):
    """Run ``main(argv)`` in a fresh interpreter where ``import module`` fails."""
    code = f"""
import sys
sys.modules[{module!r}] = None
from swarmsim.cli import main
sys.exit(main({argv!r}))
"""
    return run_fresh(code, check=False)


def test_scipy_missing_leaves_the_oracle_unchanged(tmp_path):
    # Nothing in the package imports scipy, so without it the oracle
    # writes the bytes that a run with scipy installed writes.
    missing, normal = tmp_path / "missing", tmp_path / "normal"
    done = _without("scipy", ORACLE_ARGS + ["--out", str(missing)])
    assert (done.returncode, done.stderr) == (0, "")
    assert main(ORACLE_ARGS + ["--out", str(normal)]) == 0
    files = {p.name: p.read_bytes() for p in sorted(normal.iterdir())}
    assert sorted(files) == ["drift.csv", "generator-audit.csv", "stationary.csv"]
    assert {p.name: p.read_bytes() for p in sorted(missing.iterdir())} == files


def test_numpy_missing_fails_only_the_oracle(tmp_path):
    cfg = write_config(tmp_path, replications=1)
    sim, sweep = tmp_path / "sim", tmp_path / "sweep"
    done = _without("numpy", ["simulate", "--config", str(cfg), "--out", str(sim), "--quiet"])
    assert (done.returncode, done.stderr) == (0, "")
    assert sorted(p.name for p in sim.iterdir()) == [
        "departures.csv", "frequencies.csv", "population.csv", "summary.csv",
    ]
    done = _without("numpy", ["sweep", "--config", str(cfg), "--param", "lambda",
                              "--values", "1,2", "--out", str(sweep), "--quiet"])
    assert (done.returncode, done.stderr) == (0, "")
    assert sorted(p.name for p in sweep.iterdir()) == ["sweep.csv"]
    oracle = tmp_path / "oracle"
    oracle.mkdir()
    done = _without("numpy", ORACLE_ARGS + ["--out", str(oracle)])
    assert done.returncode == 4
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: ModuleNotFoundError"), lines
    assert list(oracle.iterdir()) == []  # no CSV, no .staging-* directory


def test_csv_mode_follows_umask(tmp_path):
    cfg = write_config(tmp_path, replications=1)
    for mask in (0o027, 0o022, 0o077):
        out = tmp_path / f"{mask:o}"
        old = os.umask(mask)
        try:
            assert cmd_simulate(str(cfg), str(out / "sim"), quiet=True) == 0
            assert cmd_sweep(str(cfg), "T", ["1"], str(out / "sweep"), quiet=True) == 0
            assert cmd_oracle(2, 3, 1.0, 1.0, 1.0, 1, str(out / "oracle"), quiet=True) == 0
        finally:
            os.umask(old)
        written = sorted(out.glob("*/*.csv"))
        assert len(written) == 4 + 1 + 3
        for path in written:
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~mask, path


class TestMain:
    def test_simulate_subcommand(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert code == 0
        assert (out / "summary.csv").exists()

    def test_sweep_subcommand(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main([
            "sweep", "--config", str(cfg), "--param", "lambda",
            "--values", "0.5,1.0", "--out", str(out),
            "--replications", "1", "--quiet",
        ])
        assert code == 0

    def test_oracle_subcommand(self, tmp_path):
        code = main([
            "oracle", "--m", "2", "--cap", "4", "--lambda", "1.0",
            "--T", "1", "--out", str(tmp_path), "--quiet",
        ])
        assert code == 0

    def test_bad_usage_exit_2(self, capsys):
        assert main(["simulate"]) == 2


# The flags of each subcommand, and an argument vector for it that gives
# only the required ones.
FLAGS = {
    "simulate": {"--config", "--out", "--replications", "--quiet"},
    "sweep": {"--config", "--out", "--replications", "--quiet", "--param", "--values"},
    "oracle": {"--m", "--cap", "--lambda", "--mu", "--u", "--T", "--epsilon", "--m-const",
               "--out", "--quiet"},
}
REQUIRED_ARGV = {
    "simulate": ["simulate", "--config", "scenario.json"],
    "sweep": ["sweep", "--config", "scenario.json", "--param", "T", "--values", "1,2"],
    "oracle": ["oracle", "--m", "2", "--cap", "3", "--lambda", "1"],
}


class TestCommandLine:
    @pytest.mark.parametrize("command", list(REQUIRED_ARGV))
    def test_namespace_is_the_commands_parameters(self, command):
        args = vars(cli._build_parser().parse_args(REQUIRED_ARGV[command]))
        function = args.pop("command")
        assert function is getattr(cli, f"cmd_{command}")
        assert set(args) == set(inspect.signature(function).parameters)

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_each_subcommand_takes_its_flags(self, command):
        (sub,) = (a for a in cli._build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
        flags = {flag for a in sub.choices[command]._actions for flag in a.option_strings}
        assert flags - {"-h", "--help"} == FLAGS[command]

    def test_oracle_defaults_are_the_librarys(self):
        # --mu, --u, --T and --epsilon restate no value: each default is
        # the one the library gives when the value is left out.
        args = cli._build_parser().parse_args(REQUIRED_ARGV["oracle"])
        params = ModelParams(m=2, arrival_rate=1.0)
        lp = LyapunovParams.compliant(params, threshold=1, m_const=10.0)
        assert args.peer_contact_rate == params.peer_contact_rate
        assert args.seed_contact_rate == params.seed_contact_rate
        assert args.threshold == PolicyConfig(PolicyKind.MODE_SUPPRESSION).threshold
        assert args.epsilon == lp.epsilon
        assert inspect.signature(cli.cmd_oracle).parameters["epsilon"].default == lp.epsilon

    def test_out_dir_env_sets_the_default_out(self, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
        for argv in REQUIRED_ARGV.values():
            assert cli._build_parser().parse_args(argv).out_dir == "."
        env_out = tmp_path / "env-out"
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(env_out))
        for argv in REQUIRED_ARGV.values():
            assert cli._build_parser().parse_args(argv).out_dir == str(env_out)
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--quiet"]) == 0
        assert (env_out / "summary.csv").exists()

    def test_empty_value_list_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        argv = ["sweep", "--config", str(cfg), "--param", "T", "--values", ",,"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == ["config error: values: empty value list"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["file", "flag"])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_replications_below_one_exit_2(self, tmp_path, capsys, command, source):
        cfg = write_config(tmp_path, replications=0 if source == "file" else 2)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--param", "T", "--values", "1"]
        if source == "flag":
            argv += ["--replications", "0"]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == ["config error: replications: must be >= 1"]
        assert not (tmp_path / "out").exists()

import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import random
import signal
import stat
import time
import warnings
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from conftest import TimeLimitExceeded, run_fresh
from hypothesis import HealthCheck, example, given, settings

from swarmsim import cli
from swarmsim.cli import (
    ConfigError,
    cmd_oracle,
    cmd_simulate,
    cmd_sweep,
    load_scenario_file,
    main,
    parse_scenario_dict,
)
from swarmsim.engine import InitialCondition, Scenario, Simulation, derive_seed
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


def write_config(tmp_path, overrides=None, **top):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc.update(top)
    for path, value in (overrides or {}).items():
        parts = path.split(".")
        node = doc
        for part in parts[:-1]:
            node = node[part]
        if value is None:
            node.pop(parts[-1], None)
        else:
            node[parts[-1]] = value
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(doc))
    return cfg


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
        assert parse_scenario_dict(doc) == (
            replace(
                expected,
                params=ModelParams(3, 1.0, 0.5, 2.0),
                policy=PolicyConfig(PolicyKind.EWMA_MS, 4, 0.25, 3, "source"),
                initial=InitialCondition("one-club", 7),
                max_population=40,
                warmup_departures=3,
                sample_interval=0.5,
            ),
            4,
        )

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

    def test_bad_policy_kind_lists_choices(self):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["policy"]["kind"] = "fastest-first"
        with pytest.raises(ConfigError, match="policy.kind"):
            parse_scenario_dict(doc)

    def test_type_errors_rejected(self):
        with pytest.raises(ConfigError, match="horizon"):
            parse_scenario_dict({**BASE_CONFIG, "horizon": "long"})

    def test_file_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scenario_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_scenario_file(bad)

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

    def test_rows_per_value_and_replication(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert cmd_sweep(str(cfg), "T", ["1", "2"], str(out), quiet=True) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("parameter,value,replication")
        assert len(lines) == 1 + 2 * 2  # 2 values x 2 replications

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


    def test_failed_write_leaves_no_partial_output(self, tmp_path):
        out = tmp_path / "oracle"
        (out / "stationary.csv").mkdir(parents=True)
        code = main(["oracle", "--m", "2", "--cap", "3", "--lambda", "1",
                     "--out", str(out), "--quiet"])
        assert code == 3
        assert [p.name for p in out.iterdir()] == ["stationary.csv"]


# SHA-256 of the oracle's three CSVs, recorded from the builder that walked
# every state in Python.  (m, cap, lambda, mu, U, T).
ORACLE_CSV_DIGESTS = [
    (
        (2, 50, 0.5, 1.0, 1.0, 1),
        {
            "generator-audit.csv": (
                "45d683c6459ccdfd40939474e6d8c4e0a130955f969d929f6f9d9701bbf80479"
            ),
            "stationary.csv": (
                "5dd60bfccadd436c63566ee742b9806ff269374864f76284e504f0975fbeaa86"
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
                "1193ea203eb0c39d563d9ed1655d85b6dca6c8a4d3ed34fda57ccbb3ff03d70d"
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
                "27c408e927a7dcb6abb0ebd346c85dfab6562bd2417ed2121a465c66b3ae19e2"
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
    [(2, 0, 1.0, 1.0, 1.0, 1), (2, 4, 1.0, 1.0, 1.0, 1), (3, 5, 1.0, 0.7, 1.3, 2)],
    ids=["m2-cap0", "m2-cap4-T1", "m3-cap5-T2"],
)
def test_oracle_csvs_match_csv_writer(tmp_path, config):
    # The oracle spells whole columns at once; csv.writer over one Python
    # object per field (ints, state tuples, floats, true/false, region
    # tags) must write the same bytes.
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
    residuals = np.asarray(gen.matrix.sum(axis=1)).ravel().tolist()
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
    cli.write_csv(path, ("c1", "c2"), rows)
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
    cli.write_csv(path, header, rows)
    with path.open(newline="") as fh:
        assert fh.read() == _csv_module_text(header, rows)
    with path.open(newline="") as fh:
        expected = [[cli._fmt(v) for v in row] for row in [header, *rows]]
        assert list(csv.reader(fh)) == expected


_KINDS = {
    "int": ("{}", st.integers()),
    "float": ("{!r}", _FLOATS),
    # A field that always holds a comma, such as the oracle's state tuple.
    "quoted": ('"{}"', st.text(st.sampled_from("ab ,;\r"), max_size=5).map("({}, 0)".format)),
}


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    data=st.data(),
    kinds=st.lists(st.sampled_from(sorted(_KINDS)), min_size=1, max_size=4),
)
def test_write_csv_template_matches_csv_module(tmp_path, data, kinds):
    template = ",".join(_KINDS[k][0] for k in kinds) + "\n"
    row = st.tuples(*(_KINDS[k][1] for k in kinds))
    rows = data.draw(st.lists(row, max_size=6))
    # One row object repeated, and a distinct row of equal values.
    rows += rows[:1] * 2 + [tuple(list(r)) for r in rows[:1]]
    path = tmp_path / "t.csv"
    cli.write_csv(path, kinds, rows, template)
    with path.open(newline="") as fh:
        assert fh.read() == _csv_module_text(kinds, rows)


@given(
    st.lists(_FLOATS, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=60) if pool else st.just([])
    )
)
@example([0.0, -0.0, 0.0, -0.0, 0.0])
@example([math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-05, 5e-324, 1e16])
def test_spell_floats_matches_repr(values):
    # Heavy repeats: every value is drawn from a pool of at most six.
    array = np.array(values, dtype=np.float64)
    assert cli._spell_floats(array) == list(map(repr, array.tolist()))


def test_spell_floats_keys_on_bits_and_takes_only_float64():
    # Two NaN payloads, a negative NaN, 0.0 and -0.0, read backwards
    # through a strided view.
    bits = np.array(
        [0x7FF8000000000001, 0x7FF8000000000002, 0xFFF8000000000000 - 2**64, 0, -(2**63)],
        dtype=np.int64,
    )
    values = bits.view(np.float64)[::-1]
    assert cli._spell_floats(values) == ["-0.0", "0.0", "nan", "nan", "nan"]
    with pytest.raises(TypeError, match="int64"):
        cli._spell_floats(np.zeros(2, dtype=np.int64))


def test_write_csv_converts_batches_past_the_first(tmp_path):
    # A bool far down a long table is still spelled as _fmt spells it.
    rows = [[i, 0.5] for i in range(5000)] + [[5000, True]]
    path = tmp_path / "long.csv"
    cli.write_csv(path, ("i", "v"), rows)
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
    # Only the oracle loads numpy, and only its build, closed-class and
    # solve stages load scipy.  The sweep's two jobs run in forked workers,
    # which check after each job.
    cfg = write_config(tmp_path, replications=1)
    code = _LOADED + f"""
import os
from swarmsim import cli, engine
print(loaded("numpy", "scipy"))
run = engine.run
def checked(*job):
    trace = run(*job)
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


def test_cold_oracle_writes_what_an_in_process_run_writes(tmp_path):
    # This process has numpy and scipy loaded already (the oracle tests
    # import them at their top); a fresh interpreter shows that the oracle
    # loads them.
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    code = _LOADED + f"""
from swarmsim.cli import main
print(loaded("numpy", "scipy"))
code = main({ORACLE_ARGS + ["--out", str(cold)]!r})
print(code, "scipy.sparse.linalg" in sys.modules, "numpy" in sys.modules)
"""
    out = run_fresh(code)
    assert out.stdout.splitlines() == ["[]", "0 True True"], out.stderr
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


def _missing_module_fails_only_the_oracle(tmp_path, module):
    cfg = write_config(tmp_path, replications=1)
    sim, sweep = tmp_path / "sim", tmp_path / "sweep"
    done = _without(module, ["simulate", "--config", str(cfg), "--out", str(sim), "--quiet"])
    assert (done.returncode, done.stderr) == (0, "")
    assert sorted(p.name for p in sim.iterdir()) == [
        "departures.csv", "frequencies.csv", "population.csv", "summary.csv",
    ]
    done = _without(module, ["sweep", "--config", str(cfg), "--param", "lambda",
                             "--values", "1,2", "--out", str(sweep), "--quiet"])
    assert (done.returncode, done.stderr) == (0, "")
    assert sorted(p.name for p in sweep.iterdir()) == ["sweep.csv"]
    oracle = tmp_path / "oracle"
    oracle.mkdir()
    done = _without(module, ORACLE_ARGS + ["--out", str(oracle)])
    assert done.returncode == 4
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("internal error: ModuleNotFoundError"), lines
    assert list(oracle.iterdir()) == []  # no CSV, no .staging-* directory


def test_scipy_missing_fails_only_the_oracle(tmp_path):
    _missing_module_fails_only_the_oracle(tmp_path, "scipy")


def test_numpy_missing_fails_only_the_oracle(tmp_path):
    _missing_module_fails_only_the_oracle(tmp_path, "numpy")


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

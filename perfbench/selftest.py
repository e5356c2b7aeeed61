"""Self-test of the benchmark; run from the checkout root:

    python3 perfbench/selftest.py

Runs every workload at the shortest length (two rounds) with tracing off
and on, and checks that every metric named in BENCHMARK.json is emitted
with its unit, that the per-layer counts repeat exactly for one seed,
that the wrappers are gone once a traced run ends, and that the benchmark
refuses to run without the program's sources.  Takes about three minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402

SEED = 7
REPEATED_COUNTS = ("engine.events", "oracle.states", "oracle.nnz", "oracle.exceptional")


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        cls.per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        cls.names = [w["name"] for w in spec["workloads"]]

    def check_result(self, res: dict, declared: dict) -> None:
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        emitted = {name: m["unit"] for name, m in res["metrics"].items()}
        self.assertEqual(emitted, declared)
        for m in res["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_workloads_match_declaration(self):
        self.assertEqual(self.names, list(workloads.NAMES))
        self.assertEqual(self.per_layer, dict(layers.PER_LAYER))

    def test_every_workload(self):
        for name in self.names:
            with self.subTest(workload=name):
                plain = result(bench(name, 0))
                self.check_result(plain, self.end_to_end)
                for metric in plain["metrics"].values():
                    self.assertGreater(metric["value"], 0)
                first = result(bench(name, 1))
                second = result(bench(name, 1))
                self.check_result(first, self.per_layer)
                for count in REPEATED_COUNTS:
                    self.assertEqual(
                        first["metrics"][count]["value"], second["metrics"][count]["value"], count
                    )
                sim = name != "oracle-verify"
                self.assertEqual(first["metrics"]["engine.events"]["value"] > 0, sim)
                self.assertEqual(first["metrics"]["oracle.states"]["value"] > 0, not sim)

    def test_wrappers_removed(self):
        import swarmsim.cli as cli
        import swarmsim.engine as engine
        import swarmsim.model as model
        import swarmsim.oracle as oracle
        import swarmsim.policies as policies

        owners = (cli, engine, model, oracle, policies, model.SwarmState, model.FrequencySnapshot)
        before = [dict(vars(owner)) for owner in owners]
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as tmp:
            wl = workloads.build("steady-churn", SEED, Path(tmp))
            argv = wl.calls[0].argv + ["--out", tmp, "--quiet"]
            instruments = layers.Instruments(full=True)
            with instruments:
                self.assertIsNot(vars(model.FrequencySnapshot)["refresh"], before[-1]["refresh"])
                self.assertEqual(instruments.span("cli.main", cli.main)(argv), 0)
            traced = instruments.take()
            self.assertGreater(traced.calls["model.apply_transfer"], 0)
            for owner, saved in zip(owners, before):
                for attr, value in saved.items():
                    self.assertIs(vars(owner)[attr], value, f"{owner}.{attr}")
            tap = layers.Instruments(full=False)
            with tap:
                self.assertEqual(cli.main(argv), 0)
            untraced = tap.take()
            self.assertGreater(untraced.values["engine.events"], 0)
            self.assertEqual(set(untraced.calls), {"cli.run"})

    def test_refuses_without_sources(self):
        work = ROOT / ".perfbench_work"
        work.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("steady-churn", 0, cwd=Path(tmp))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    unittest.main()

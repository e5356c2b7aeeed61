"""swarmsim benchmark: one workload per process, driven through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's round of ``swarmsim.cli.main`` calls (see
``workloads.py``) repeats in a closed loop, one call at a time, for
``--seconds`` seconds and at least twice, so that every round after the
first is checked byte for byte against the first.  Every call's output is
checked for correctness; a failed call counts all of its operations
(replications or oracle instances) as failed.

On a shared 2-vCPU virtual machine the CPU speed drifts by a quarter
either way over tens of seconds (identical engine runs took 0.164 s to
0.270 s within one minute), so timed CLI calls are also expressed in
*refs*: the time of a fixed pure-Python reference loop, run right before
and after each call.  Over that minute the ratio of the two moved by 4%.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median wall time of five fresh interpreters that import
  ``swarmsim.cli`` and parse the workload's inputs;
* ``wall_ref``: median over rounds of one round's CLI wall time, CSV
  writes included, in refs;
* ``work_per_ref``: median over rounds of work done per ref of CLI time:
  engine events (``EventTrace.events``) on the simulation workloads,
  enumerated oracle states on ``oracle-verify``;
* ``peak_rss_mb``: peak resident memory of this process.

The lines before the result also give ``wall_s``, the work rate per
second (``events_per_s`` or ``states_per_s``), ``sim_time_per_s`` and
``error_rate`` as measured.

``--trace 1`` spends the first half of the time untraced and the second
half with every layer wrapped (``layers.py``), and reports the per-layer
metrics of one round (counts from the first traced round, times in
seconds as medians over traced rounds) plus ``trace.overhead_s``: traced
minus untraced median round seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its unit and record the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
REF_REPEATS = 3
REF_ITERATIONS = 300_000
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("work_per_ref", "1/ref"),
    ("peak_rss_mb", "MB"),
)


def measure_setup(workload: workloads.Workload) -> float:
    """Median wall seconds for a fresh interpreter to import the CLI and
    parse the workload's inputs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", workload.setup_code],
            env=env,
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=120,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def reference_seconds() -> float:
    """One ref: median time of a fixed loop of dict stores and integer
    arithmetic, the operations the engine's event loop is made of."""
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        table = {}
        x = 0
        for i in range(REF_ITERATIONS):
            table[i & 1023] = x
            x = (x * 31 + i) & 0xFFFF
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Round:
    seconds: float  # CLI wall time
    refs: float  # the same in refs
    work: int  # engine events or oracle states
    counters: layers.Counters


class Loop:
    """Closed-loop runner for one workload's rounds."""

    def __init__(self, workload: workloads.Workload, run_dir: Path):
        import swarmsim.cli

        self.workload = workload
        self.run_dir = run_dir
        self.main = swarmsim.cli.main
        self.digests: dict = {}
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.ref = reference_seconds()

    def run_round(self, instruments: layers.Instruments) -> Round:
        main = instruments.span("cli.main", self.main)
        seconds = refs = 0.0
        work = 0
        for call in self.workload.calls:
            out = self.run_dir / f"round{self.rounds}-{call.name}"
            self.attempted += call.operations
            ok = False
            try:
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = main(call.argv + ["--out", str(out), "--quiet"])
                finally:
                    dt = time.perf_counter() - t0
                    ref_before, self.ref = self.ref, reference_seconds()
                    seconds += dt
                    refs += dt / ((ref_before + self.ref) / 2)
                if code != 0:
                    raise workloads.CheckFailed(f"exit code {code}")
                call.check(out)
                digest = workloads.output_digest(out)
                first = self.digests.setdefault(call.name, digest)
                if digest != first:
                    raise workloads.CheckFailed("output differs from the first round")
                ok = True
            except Exception:  # any failure of the call counts against it
                print(f"{call.name} round {self.rounds} failed:", file=sys.stderr)
                traceback.print_exc()
            finally:
                shutil.rmtree(out, ignore_errors=True)
            if ok:
                work += call.states
            else:
                self.failed += call.operations
        self.rounds += 1
        work += instruments.counters.values["engine.events"]
        return Round(seconds, refs, work, instruments.take())

    def phase(self, instruments: layers.Instruments, deadline: float, min_rounds: int):
        """Rounds until ``deadline`` and at least ``min_rounds``."""
        done = []
        with instruments:
            while len(done) < min_rounds or time.perf_counter() < deadline:
                done.append(self.run_round(instruments))
        return done


def environment(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    # A checkout without git metadata still names its program version.
    sources = hashlib.sha256()
    for path in sorted((SRC / "swarmsim").glob("*.py")):
        sources.update(path.read_bytes())
    return {
        "commit": commit,
        "sources_sha256": sources.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def as_measured(name: str, rounds: list, attempted: int, failed: int) -> dict:
    """The end-to-end figures in host seconds, for the report lines."""
    seconds = [r.seconds for r in rounds]
    rate = "states_per_s" if name == "oracle-verify" else "events_per_s"
    out = {
        "wall_s": (statistics.median(seconds), "s"),
        rate: (statistics.median(r.work / r.seconds for r in rounds), "1/s"),
    }
    if name != "oracle-verify":
        out["sim_time_per_s"] = (
            statistics.median(r.counters.values["engine.sim_time"] / r.seconds for r in rounds),
            "1/s",
        )
    out["error_rate"] = (failed / attempted, "ratio")
    return out


def traced_metrics(plain: list, traced: list) -> dict:
    """Per-layer metrics in declared order: counts from the first traced
    round, times as the median over traced rounds, simulated-time rate
    from the untraced rounds, and the tracing overhead."""
    per_round = [layers.round_metrics(r.counters) for r in traced]
    extra = {
        "engine.sim_time_per_s": statistics.median(
            r.counters.values["engine.sim_time"] / r.seconds for r in plain
        ),
        "trace.overhead_s": statistics.median(r.seconds for r in traced)
        - statistics.median(r.seconds for r in plain),
    }
    metrics = {}
    for name, unit in layers.PER_LAYER:
        if name in extra:
            metrics[name] = extra[name]
        elif unit == "s":
            metrics[name] = statistics.median(r[name] for r in per_round)
        else:
            metrics[name] = per_round[0][name]
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "swarmsim" / "cli.py").is_file():
        print(f"no swarmsim sources under {SRC}", file=sys.stderr)
        return 2
    # Before numpy loads: one thread per process, so the numbers measure
    # the program rather than the scheduler.
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = workloads.build(args.workload, args.seed, run_dir)
        setup_s = measure_setup(workload) if args.trace == 0 else None
        loop = Loop(workload, run_dir)
        env = environment(args.seed)
        start = time.perf_counter()
        if args.trace == 0:
            rounds = loop.phase(layers.Instruments(full=False), start + args.seconds, 2)
            report = as_measured(args.workload, rounds, loop.attempted, loop.failed)
            metrics = {
                "setup_s": setup_s,
                "wall_ref": statistics.median(r.refs for r in rounds),
                "work_per_ref": statistics.median(r.work / r.refs for r in rounds),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = dict(END_TO_END)
        else:
            half = start + args.seconds / 2
            plain = loop.phase(layers.Instruments(full=False), half, 1)
            traced = loop.phase(layers.Instruments(full=True), start + args.seconds, 1)
            report = {}
            metrics = traced_metrics(plain, traced)
            units = dict(layers.PER_LAYER)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# {args.workload}: {loop.rounds} rounds, {loop.attempted} operations, {loop.failed} failed")
    for name, (value, unit) in report.items():
        print(f"# as measured: {name} = {value:.6g} {unit}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

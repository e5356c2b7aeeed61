"""The benchmark's three workloads: generated inputs, CLI calls and checks.

A workload is a list of *calls* (argument vectors for ``swarmsim.cli.main``)
that together form one *round*.  The benchmark repeats the round in a
closed loop; every call of every round is checked, and the CSVs a call
writes must be byte-identical across rounds, since each round gets the
same inputs.

Only the inputs come from ``--seed``: each scenario's ``rng_seed``.  The
oracle instances are exact computations with no randomness, so
``oracle-verify`` ignores the seed.

The simulation rounds are made of several short calls, each on its own
scenario seed, rather than one call with several replications: the host's
speed is sampled between calls, and the round still sums independent runs,
so its length depends little on any one draw.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

NAMES = ("oneclub-rarest", "steady-churn", "oracle-verify")

# oneclub-rarest: CALLS `simulate` calls of one replication each.
ONECLUB_CALLS = 4
ONECLUB_HORIZON = 400.0
ONECLUB_INTERVAL = 0.05
# steady-churn: CALLS `sweep` calls, each one replication of mode
# suppression and distributed MS, both of which must keep the mean sojourn
# within [m, 1.35m] (measured: within 1.04m and 1.13m over 16 seeds).
# ewma-ms is left out: from an empty start at this arrival rate it falls
# into a one-club on about one run in ten (mean sojourn 1.3m to 2.8m, and
# once no departure at all past the warm-up by horizon 180).
CHURN_CALLS = 3
CHURN_HORIZON = 180.0
CHURN_POLICIES = ("mode-suppression", "distributed-ms")
CHURN_M = 10
CHURN_MIN_SOJOURNS = 2000
CHURN_MAX_SOJOURN = 1.35 * CHURN_M
# oracle-verify: (m, cap, lambda) -> expected exceptional-set size, i.e.
# non-boundary states of drift.csv with QV > -epsilon (epsilon = 0.5).
ORACLE_EPSILON = 0.5
ORACLE_INSTANCES = (
    ((2, 50, 0.5), 1609),
    ((3, 8, 1.0), 1395),
)


class CheckFailed(Exception):
    """A call's output broke one of the workload's correctness checks."""


@dataclass
class Call:
    """One CLI invocation: ``argv`` for ``swarmsim.cli.main``, the number
    of operations it performs (replications or oracle instances), the
    oracle states it enumerates (simulated events are counted from the
    returned traces), and its output check."""

    name: str
    argv: List[str]
    operations: int
    check: Callable[[Path], None]
    states: int = 0


@dataclass
class Workload:
    name: str
    calls: List[Call]
    # Python source run in a fresh interpreter to time set-up: import
    # the CLI and parse this round's inputs.
    setup_code: str


def scenario_seed(workload: str, seed: int, index: int) -> int:
    """63-bit scenario seed derived from the benchmark seed."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _read_rows(path: Path) -> List[Dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _number(text: str) -> float:
    """A CSV float; numpy 2 scalars are written as ``np.float64(x)``."""
    if text.startswith("np.") and text.endswith(")"):
        text = text[text.index("(") + 1 : -1]
    return float(text)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _check_oneclub(out: Path) -> None:
    rows = _read_rows(out / "summary.csv")
    _require(len(rows) == 1, f"{len(rows)} summary rows")
    row = rows[0]
    _require(row["termination"] == "horizon-reached", f"ended with {row['termination']}")
    _require(
        row["stabilization_time"] == "",
        f"stabilized at {row['stabilization_time']}",
    )
    samples = 0
    while samples * ONECLUB_INTERVAL <= ONECLUB_HORIZON:
        samples += 1
    with (out / "population.csv").open() as fh:
        n_pop = sum(1 for _ in fh) - 1
    _require(n_pop == samples, f"population.csv has {n_pop} rows, expected {samples}")


def _check_churn(out: Path) -> None:
    rows = _read_rows(out / "sweep.csv")
    values = [r["value"] for r in rows]
    _require(values == list(CHURN_POLICIES), f"sweep rows {values}")
    for row in rows:
        policy = row["value"]
        _require(
            row["termination"] == "horizon-reached",
            f"{policy} ended with {row['termination']}",
        )
        count = int(row["sojourn_count"])
        _require(count >= CHURN_MIN_SOJOURNS, f"{policy}: only {count} sojourns")
        mean = float(row["mean_sojourn"])
        _require(
            CHURN_M <= mean <= CHURN_MAX_SOJOURN,
            f"{policy}: mean sojourn {mean} outside [{CHURN_M}, {CHURN_MAX_SOJOURN}]",
        )


def oracle_state_count(m: int, cap: int) -> int:
    """States of the truncated chain: count vectors over the 2^m - 1
    proper-subset profiles with population at most ``cap``."""
    profiles = (1 << m) - 1
    return math.comb(cap + profiles, profiles)


def _oracle_check(states: int, exceptional: int) -> Callable[[Path], None]:
    def check(out: Path) -> None:
        with (out / "generator-audit.csv").open() as fh:
            last = fh.read().rstrip("\n").rsplit("\n", 1)[-1]
        _require(last == "lemma-checks,,,pass", f"lemma line reads {last!r}")
        # The state column is an unquoted tuple, so read probability as
        # the last field of each line.
        with (out / "stationary.csv").open() as fh:
            lines = fh.read().splitlines()[1:]
        probs = [float(line.rsplit(",", 1)[1]) for line in lines]
        _require(len(probs) == states, f"{len(probs)} stationary rows, expected {states}")
        _require(min(probs) >= 0.0, f"negative probability {min(probs)}")
        total = math.fsum(probs)
        _require(abs(total - 1.0) <= 1e-9, f"probabilities sum to {total!r}")
        drift = _read_rows(out / "drift.csv")
        _require(len(drift) == states, f"{len(drift)} drift rows, expected {states}")
        found = sum(
            1
            for r in drift
            if r["boundary"] == "false" and _number(r["QV"]) > -ORACLE_EPSILON
        )
        _require(found == exceptional, f"{found} exceptional states, expected {exceptional}")

    return check


def _oracle() -> Workload:
    calls = []
    setup = [
        "import swarmsim.cli",
        "from swarmsim.model import ModelParams",
        "from swarmsim.oracle import TruncationSpec",
    ]
    for (m, cap, lam), exceptional in ORACLE_INSTANCES:
        states = oracle_state_count(m, cap)
        argv = ["oracle", "--m", str(m), "--cap", str(cap), "--lambda", repr(lam)]
        calls.append(
            Call(f"oracle-m{m}-cap{cap}", argv, 1, _oracle_check(states, exceptional), states)
        )
        setup.append(f"TruncationSpec(m={m}, cap={cap})")
        setup.append(f"ModelParams(m={m}, arrival_rate={lam!r})")
    return Workload("oracle-verify", calls, "\n".join(setup))


def _scenario(name: str, rng_seed: int) -> Dict:
    if name == "oneclub-rarest":
        return {
            "m": 5,
            "lambda": 1.0,
            "mu": 1.0,
            "u": 1.0,
            "policy": {"kind": "rarest-first", "sample_peers": 1},
            "initial": {"kind": "one-club", "n": 500},
            "horizon": ONECLUB_HORIZON,
            "rng_seed": rng_seed,
            "sample_interval": ONECLUB_INTERVAL,
            "replications": 1,
        }
    return {
        "m": CHURN_M,
        "lambda": 30.0,
        "mu": 1.0,
        "u": 1.0,
        "policy": {"kind": CHURN_POLICIES[0], "T": 20, "sample_peers": 3},
        "initial": {"kind": "empty", "n": 0},
        "horizon": CHURN_HORIZON,
        "rng_seed": rng_seed,
        "replications": 1,
    }


def build(name: str, seed: int, work_dir: Path) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` under ``work_dir``
    and return its round of calls."""
    if name == "oracle-verify":
        return _oracle()
    if name == "oneclub-rarest":
        n_calls, argv, operations, check = ONECLUB_CALLS, ["simulate"], 1, _check_oneclub
    elif name == "steady-churn":
        n_calls, check = CHURN_CALLS, _check_churn
        argv = ["sweep", "--param", "policy.kind", "--values", ",".join(CHURN_POLICIES)]
        operations = len(CHURN_POLICIES)
    else:
        raise ValueError(f"unknown workload {name!r}")
    work_dir.mkdir(parents=True, exist_ok=True)
    calls = []
    setup = ["import swarmsim.cli"]
    for index in range(n_calls):
        config = work_dir / f"scenario-{index}.json"
        config.write_text(json.dumps(_scenario(name, scenario_seed(name, seed, index)), indent=1))
        calls.append(
            Call(f"{argv[0]}-{index}", argv + ["--config", str(config)], operations, check)
        )
        setup.append(f"swarmsim.cli.load_scenario_file({str(config)!r})")
    return Workload(name, calls, "\n".join(setup))


def output_digest(out: Path) -> str:
    """SHA-256 over every file a call wrote, by name and content."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()

"""Command-line operator surface.

Three subcommands: ``simulate`` runs a scenario file and writes the
population / frequency / departure / summary CSVs, ``sweep`` repeats a
scenario across one parameter's values, and ``oracle`` builds the exact
truncated chain and writes its audit, stationary and drift CSVs.
``simulate`` and ``sweep`` hand all of their replications to one
:func:`~swarmsim.engine.run_replications` call, which runs them in
parallel on the CPUs the process may use; the CSVs do not depend on how
many there are.

Scenario files are JSON documents; :data:`KEY_TABLES` is their schema.
It holds one table per dataclass that a file fills, mapping each key to
its field and JSON type, and the same tables drive unknown-key rejection
(naming the offending path), type errors, the label of each dataclass's
own errors and ``sweep``'s parameters.  A full document::

    {
      "m": 5, "lambda": 2.0, "mu": 1.0, "u": 1.0,
      "policy": {"kind": "mode-suppression", "T": 1, "alpha": 0.1,
                 "sample_peers": 1, "cc_variant": "downloader"},
      "initial": {"kind": "empty", "n": 500},
      "horizon": 500.0, "max_population": 10000, "rng_seed": 42,
      "warmup_departures": 2000, "sample_interval": 1.0,
      "replications": 10
    }

A key may be left out exactly when its field has a default, and the
defaults are the dataclasses' own (``ModelParams``, ``PolicyConfig``,
``InitialCondition``, ``Scenario``); ``replications``, which no dataclass
holds, defaults to 1.  Each command-line flag's ``dest`` is the name of
its command's parameter, so :func:`main` passes the parsed flags on as
they are.

Exit codes: 0 success, 2 usage or configuration error, 3 I/O failure,
4 internal error (any unexpected fault, printed as its type and
message), no CSV written.
"""

from __future__ import annotations

import errno
import functools
import inspect
import json
import os
import shutil
import sys
import tempfile
from dataclasses import MISSING, fields, replace
from enum import Enum
from itertools import chain, islice, repeat, starmap
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

# ``run`` is imported though no command calls it: perfbench's tap wraps
# ``cli.run`` and ``cli.run_replications`` by name.
from .engine import (
    EventTrace,
    InitialCondition,
    Scenario,
    run,
    run_replications,
)
from .metrics import sojourn_stats, stabilization_time
from .model import ModelParams
from .oracle import (
    REGION_TAGS,
    LyapunovParams,
    ReducibleChainError,
    TruncationSpec,
    build_generator_ms,
    drift_report,
    stationary_distribution,
    verify_lemmas,
)
from .policies import PolicyConfig, PolicyKind

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

DEFAULT_EPSILON_GAP = 0.05  # stabilization frequency gap
OUT_DIR_ENV = "SWARMSIM_OUT"


def _default(call, name: str):
    """The default of ``call``'s parameter ``name``: the library's own."""
    return inspect.signature(call).parameters[name].default


class ConfigError(ValueError):
    """Configuration problem, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# Each dataclass a scenario file fills: JSON key -> (field, type).  A
# dataclass as the type is a nested object, read by its own table.  The
# top-level object holds ModelParams' and Scenario's keys and
# ``replications``.
KEY_TABLES: Dict[type, Dict[str, Tuple[str, type]]] = {
    ModelParams: {
        "m": ("m", int),
        "lambda": ("arrival_rate", float),
        "mu": ("peer_contact_rate", float),
        "u": ("seed_contact_rate", float),
    },
    PolicyConfig: {
        "kind": ("kind", PolicyKind),
        "T": ("threshold", int),
        "alpha": ("alpha", float),
        "sample_peers": ("sample_peers", int),
        "cc_variant": ("cc_variant", str),
    },
    InitialCondition: {
        "kind": ("kind", str),
        "n": ("n", int),
    },
    Scenario: {
        "policy": ("policy", PolicyConfig),
        "initial": ("initial", InitialCondition),
        "horizon": ("horizon", float),
        "max_population": ("max_population", int),
        "rng_seed": ("rng_seed", int),
        "warmup_departures": ("warmup_departures", int),
        "sample_interval": ("sample_interval", float),
    },
}


def _reject_unknown(d: Dict, known: Iterable[str], path: str) -> None:
    for key in d:
        if key not in known:
            raise ConfigError(f"{path}{key}", "unknown key")


def _typed(value, kind: type, path: str):
    """``value`` as its table's ``kind``: an int, a float (an int is taken
    as one), a str, the member of an enum named by a str, or the dataclass
    read from a nested object."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    json_type = dict if kind in KEY_TABLES else str if issubclass(kind, Enum) else kind
    if not isinstance(value, json_type) or isinstance(value, bool):
        raise ConfigError(path, f"expected {json_type.__name__}")
    if kind in KEY_TABLES:
        _reject_unknown(value, KEY_TABLES[kind], f"{path}.")
        return _build(kind, value, f"{path}.")
    if kind is not json_type:
        try:
            return kind(value)
        except ValueError:
            raise ConfigError(path, f"must be one of: {', '.join(k.value for k in kind)}")
    return value


def _build(cls: type, doc: Dict, path: str, **given):
    """A ``cls`` from ``given`` and the keys of ``doc`` that its table
    names.  A ``ValueError`` of ``cls`` is reported under all of them."""
    table = KEY_TABLES[cls]
    optional = {f.name for f in fields(cls) if f.default is not MISSING}
    for key, (name, kind) in table.items():
        if key in doc:
            given[name] = _typed(doc[key], kind, f"{path}{key}")
        elif name not in optional:
            raise ConfigError(f"{path}{key}", "missing required key")
    try:
        return cls(**given)
    except ValueError as exc:
        raise ConfigError("/".join(path + key for key in table), str(exc))


def _replications(count: int) -> int:
    """``count``, the number of replications a command runs, if >= 1."""
    if count < 1:
        raise ConfigError("replications", "must be >= 1")
    return count


def parse_scenario_dict(doc: Dict) -> Tuple[Scenario, int]:
    """Validate a scenario document; returns (scenario, replications)."""
    _reject_unknown(doc, {*KEY_TABLES[ModelParams], *KEY_TABLES[Scenario], "replications"}, "")
    scenario = _build(Scenario, doc, "", params=_build(ModelParams, doc, ""))
    return scenario, _replications(_typed(doc.get("replications", 1), int, "replications"))


def load_scenario_file(path: str | Path) -> Tuple[Scenario, int]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("(file)", f"cannot read {path}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("(file)", f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("(file)", "top level must be a JSON object")
    return parse_scenario_dict(doc)


# -- CSV output --


_BOOL_TEXT = {False: "false", True: "true"}


def _fmt(value) -> str:
    if isinstance(value, float):  # np.float64 too, whose repr names its type
        return repr(float(value))
    if value is None:
        return ""
    if isinstance(value, bool):
        return _BOOL_TEXT[value]
    return str(value)


def _field(value) -> str:
    text = _fmt(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _line(row: Sequence) -> str:
    line = ",".join(map(_field, row))
    return '""\n' if not line and len(row) == 1 else line + "\n"


def _rows(rows: Iterable[Sequence]) -> bytes:
    """``rows`` as CSV lines in one chunk.

    Every value is spelled by :func:`_fmt` (floats as their shortest
    round-trip text, bools ``true``/``false``, None an empty field, numpy
    scalars as the Python number they hold), and a field holding a comma, a
    quote, a ``\\n`` or a ``\\r`` is quoted with its quotes doubled, as is
    a lone empty field, so that ``csv.reader`` reads every file back."""
    return "".join(map(_line, rows)).encode()


# Lines per chunk of a streamed body: each chunk is joined and encoded on
# its own, so no table's text is ever held whole.  At m=5 a chunk is about
# 100 KB, still one C-level join and one write over many lines.
CHUNK_LINES = 1024


def _chunks(lines: Iterable[Iterable[str]]) -> Iterator[bytes]:
    """The ``lines``, each given as its pieces, joined and encoded
    :data:`CHUNK_LINES` lines at a time.  No line is empty, so an empty
    join means that the lines are spent."""
    lines = iter(lines)
    while text := "".join(chain.from_iterable(islice(lines, CHUNK_LINES))):
        yield text.encode()


def write_csv(path: Path, header: Sequence[str], body: Iterable[bytes]) -> None:
    """Write one table to ``path``; the file gets the mode ``open`` gives it.

    The header is spelled as :func:`_rows` spells a row; ``body`` is the
    rest of the file as ``bytes`` chunks, every line already spelled and
    ended: one :func:`_rows` chunk for the summary and sweep tables,
    :func:`_chunks` for ``simulate``'s time series, and the oracle's byte
    blocks (see :mod:`swarmsim.bytetable`).  Each chunk is written as it
    comes, so a body that is a generator is spelled while the file is
    written."""
    with open(path, "wb") as fh:
        fh.write(_line(header).encode())
        fh.writelines(body)


# (file name, header, body as bytes chunks): write_csv's arguments after
# the path.
Table = Tuple[str, Sequence[str], Iterable[bytes]]


def write_csvs(out_dir: Path, tables: Sequence[Table]) -> None:
    """Write the ``(file name, header, body)`` tables (see
    :func:`write_csv`) into ``out_dir`` all or nothing.

    Every table is first written to a staging directory inside
    ``out_dir``.  The files are moved into place only after all of them
    are written and no target is a directory, the usual reason why one
    rename within a directory fails while the others succeed.  On an
    exception before that point, an ``OSError`` or a fault raised by a
    body that is spelled as it streams, ``out_dir`` is left as it was
    (though it is created if it was missing); the staging directory is
    always removed.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(dir=out_dir, prefix=".staging-"))
    try:
        for name, header, body in tables:
            write_csv(stage / name, header, body)
        for name, *_ in tables:
            if (out_dir / name).is_dir():
                raise IsADirectoryError(
                    errno.EISDIR, os.strerror(errno.EISDIR), str(out_dir / name)
                )
        for name, *_ in tables:
            os.replace(stage / name, out_dir / name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


SUMMARY_HEADER = (
    "replication", "policy", "params", "mean_sojourn", "stddev_sojourn",
    "sojourn_count", "stabilization_time", "termination",
)


def _summary_row(scenario: Scenario, rep: int, trace: EventTrace) -> List:
    policy = scenario.policy
    params = (
        f"T={policy.threshold};alpha={policy.alpha};"
        f"sample_peers={policy.sample_peers};cc_variant={policy.cc_variant}"
    )
    st = sojourn_stats(trace, scenario.warmup_departures)
    stab = stabilization_time(trace, DEFAULT_EPSILON_GAP)
    return [rep, policy.kind.value, params, st.mean, st.stddev, st.count, stab,
            trace.termination.value]


def write_simulation_outputs(
    out_dir: Path, scenario: Scenario, traces: Sequence[EventTrace]
) -> None:
    # Each time and frequency is spelled once per call, and each distinct
    # population and frequency row once per replication, as the tail of
    # its line after the time: ",{rep},{pop}\n" and ",{rep},{v1},...,{vm}\n".
    # A body is then streamed in chunks of those pieces, each replication's
    # tables built only when the body reaches it.  Every replication
    # samples at the same multiples of the interval, so the longest one's
    # times spell them all, each zip stopping at its own last sample.
    # Frequencies that compare equal share a dict key and so a text; that
    # merges no two texts, since every frequency is y/pop >= +0.0 (no -0.0
    # beside 0.0) and never NaN.
    times = list(map(repr, max((trace.times for trace in traces), key=len, default=())))
    rows = [set(trace.frequencies) for trace in traces]
    distinct = set(chain.from_iterable(chain.from_iterable(rows)))
    spell = dict(zip(distinct, map(repr, distinct))).__getitem__

    def populations(rep: int, trace: EventTrace):
        tail = {pop: f",{rep},{pop}\n" for pop in set(trace.populations)}
        return zip(times, map(tail.__getitem__, trace.populations))

    def frequencies(rep: int, trace: EventTrace):
        tail = {row: f",{rep},{','.join(map(spell, row))}\n" for row in rows[rep]}
        return zip(times, map(tail.__getitem__, trace.frequencies))

    def departures(rep: int, trace: EventTrace):
        arrived, departed = zip(*trace.departures) if trace.departures else ((), ())
        sojourns = map(float.__sub__, departed, arrived)
        return zip(
            repeat(f"{rep},"), map(repr, arrived), repeat(","), map(repr, departed),
            repeat(","), map(repr, sojourns), repeat("\n"),
        )

    def body(lines) -> Iterator[bytes]:
        return _chunks(chain.from_iterable(starmap(lines, enumerate(traces))))

    summary = [_summary_row(scenario, rep, trace) for rep, trace in enumerate(traces)]
    pis = (f"pi_{j}" for j in range(1, scenario.params.m + 1))
    write_csvs(out_dir, [
        ("population.csv", ("time", "replication", "population"), body(populations)),
        ("frequencies.csv", ("time", "replication", *pis), body(frequencies)),
        ("departures.csv", ("replication", "arrival_time", "departure_time", "sojourn"),
         body(departures)),
        ("summary.csv", SUMMARY_HEADER, [_rows(summary)]),
    ])


def _exit_code(command):
    """Run ``command`` under the exit-code contract: its own return code
    when it returns, else one stderr line and 2 for a :class:`ConfigError`
    or :class:`ReducibleChainError`, 3 for an ``OSError`` and 4 for any
    other exception.  Every command writes its CSVs last, through the
    all-or-nothing :func:`write_csvs`, so a failure leaves no CSV."""

    @functools.wraps(command)
    def mapped(*args, **kwargs) -> int:
        try:
            return command(*args, **kwargs)
        except (ConfigError, ReducibleChainError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO
        except Exception as exc:
            # As a traceback's last line: the type, then the message if any.
            text = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
            print(f"internal error: {text}", file=sys.stderr)
            return EXIT_INTERNAL

    return mapped


@_exit_code
def cmd_simulate(
    config_path: str,
    out_dir: str,
    replications: Optional[int] = None,
    quiet: bool = False,
) -> int:
    scenario, reps = load_scenario_file(config_path)
    if replications is not None:
        reps = _replications(replications)
    traces = run_replications(scenario.replication(rep) for rep in range(reps))
    write_simulation_outputs(Path(out_dir), scenario, traces)
    if not quiet:
        for rep, tr in enumerate(traces):
            print(
                f"replication {rep}: events={tr.events} departures={len(tr.departures)} "
                f"termination={tr.termination.value}"
            )
    return EXIT_OK


# Each sweep parameter: the part of the scenario it sets and that part's
# key, whose table entry gives the field and the type of the value.
SWEEP_PARAMETERS = {
    "lambda": ("params", "lambda"),
    "m": ("params", "m"),
    "T": ("policy", "T"),
    "policy.kind": ("policy", "kind"),
    "sample_peers": ("policy", "sample_peers"),
}


def _apply_sweep_value(scenario: Scenario, parameter: str, raw: str) -> Scenario:
    part_name, key = SWEEP_PARAMETERS[parameter]
    part = getattr(scenario, part_name)
    name, kind = KEY_TABLES[type(part)][key]
    try:
        return replace(scenario, **{part_name: replace(part, **{name: kind(raw)})})
    except ValueError as exc:
        raise ConfigError(f"values({raw})", str(exc))


@_exit_code
def cmd_sweep(
    config_path: str,
    parameter: str,
    values: Sequence[str],
    out_dir: str,
    replications: Optional[int] = None,
    quiet: bool = False,
) -> int:
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError("parameter", f"must be one of {tuple(SWEEP_PARAMETERS)}")
    if not values:
        raise ConfigError("values", "empty value list")
    base, reps = load_scenario_file(config_path)
    if replications is not None:
        reps = _replications(replications)
    runs = [
        (raw, rep, scenario.replication(idx, rep))
        for idx, raw in enumerate(values)
        for scenario in [_apply_sweep_value(base, parameter, raw)]
        for rep in range(reps)
    ]
    traces = run_replications(scenario for *_, scenario in runs)
    rows = []
    for (raw, rep, scenario), trace in zip(runs, traces):
        rows.append([parameter, raw, *_summary_row(scenario, rep, trace), scenario.rng_seed])
        if not quiet:
            print(f"{parameter}={raw} replication {rep}: done")
    header = ("parameter", "value", *SUMMARY_HEADER, "seed")
    write_csvs(Path(out_dir), [("sweep.csv", header, [_rows(rows)])])
    return EXIT_OK


@_exit_code
def cmd_oracle(
    m: int,
    cap: int,
    arrival_rate: float,
    peer_contact_rate: float,
    seed_contact_rate: float,
    threshold: int,
    out_dir: str,
    epsilon: float = _default(LyapunovParams.compliant, "epsilon"),
    m_const: Optional[float] = None,
    quiet: bool = False,
) -> int:
    if m not in (2, 3):
        raise ConfigError("m", "oracle supports m=2 or m=3")
    import numpy as np
    try:
        spec = TruncationSpec(m=m, cap=cap)
        params = ModelParams(
            m=m,
            arrival_rate=arrival_rate,
            peer_contact_rate=peer_contact_rate,
            seed_contact_rate=seed_contact_rate,
        )
        lp = LyapunovParams.compliant(
            params,
            threshold,
            m_const=max(2.0 * cap, 1.0) if m_const is None else m_const,
            epsilon=epsilon,
        )
    except ValueError as exc:
        raise ConfigError("m/cap/lambda/mu/u/T/epsilon/m-const", str(exc))
    # Rates that overflow end in one internal error (a failed solve or the
    # drift check below); numpy's warnings on the way would bury it.
    with np.errstate(all="ignore"):
        gen = build_generator_ms(spec, params, threshold)
        report = verify_lemmas(gen)
        p = stationary_distribution(gen)
        drift = drift_report(gen, lp)
    if not np.isfinite(drift.drifts).all():
        raise FloatingPointError("non-finite drift (floating-point overflow)")
    # Every field is text in a fixed-width, NUL-padded column (see
    # bytetable).  Populations and counts are at most the cap, which is
    # below the number of states, so they index the texts of the state
    # ids, cut to the cap's width.
    from .bytetable import block, decimals, floats, text
    ids = decimals(gen.n_states)
    small = ids[: cap + 1].astype(f"S{len(str(cap))}")
    populations = small[gen.populations]
    first, *rest = gen.counts.T
    state = [small[first]]
    for column in rest:
        state += [b", ", small[column]]
    # state_id, the quoted count tuple and population open every audit and
    # stationary row: one block for both.
    prefix = block(ids, b',"(', *state, b')",', populations, b",")
    verdict = "pass" if report.ok else f"{report.total_violations()} violations"
    audit = text(block(prefix, floats(gen.matrix.row_sums()), b"\n"))
    write_csvs(Path(out_dir), [
        ("generator-audit.csv", ("state_id", "state", "population", "row_sum_residual"),
         [audit, f"lemma-checks,,,{verdict}\n".encode()]),
        ("stationary.csv", ("state_id", "state", "population", "probability"),
         [text(block(prefix, floats(p), b"\n"))]),
        ("drift.csv", ("state_id", "population", "V", "QV", "boundary", "region"),
         [text(block(
             ids, b",", populations, b",", floats(drift.values), b",",
             floats(drift.drifts), b",", np.where(drift.boundary, b"true", b"false"), b",",
             np.array(REGION_TAGS, dtype="S")[drift.region_codes], b"\n",
         ))]),
    ])
    if not quiet:
        print(
            f"{gen.n_states} states; lemma checks "
            f"{'passed' if report.ok else 'FAILED'}"
        )
    return EXIT_OK


def _value_list(text: str) -> List[str]:
    """``--values``: the comma-separated values, empty ones dropped."""
    return [v for v in text.split(",") if v != ""]


def _build_parser():
    """The ``argparse`` parser.  Each flag's ``dest`` is its command's
    parameter, and each subcommand's ``command`` default is its command
    function."""
    import argparse  # only main parses arguments
    parser = argparse.ArgumentParser(
        prog="swarmsim",
        description="Chunk-level P2P swarm simulator and CTMC oracle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", dest="out_dir", default=os.environ.get(OUT_DIR_ENV, "."))
    output.add_argument("--quiet", action="store_true")
    config = argparse.ArgumentParser(add_help=False, parents=[output])
    config.add_argument("--config", dest="config_path", required=True)
    config.add_argument("--replications", type=int)

    sim = sub.add_parser("simulate", parents=[config], help="run a scenario file")
    sim.set_defaults(command=cmd_simulate)

    sweep = sub.add_parser(
        "sweep", parents=[config], help="repeat a scenario across parameter values"
    )
    sweep.add_argument("--param", dest="parameter", required=True)
    sweep.add_argument("--values", type=_value_list, required=True, help="comma-separated values")
    sweep.set_defaults(command=cmd_sweep)

    orc = sub.add_parser("oracle", parents=[output], help="exact truncated-chain analysis")
    orc.add_argument("--m", type=int, required=True)
    orc.add_argument("--cap", type=int, required=True)
    orc.add_argument("--lambda", dest="arrival_rate", type=float, required=True)
    for flag, dest, kind, owner in (
        ("--mu", "peer_contact_rate", float, ModelParams),
        ("--u", "seed_contact_rate", float, ModelParams),
        ("--T", "threshold", int, PolicyConfig),
        ("--epsilon", "epsilon", float, LyapunovParams.compliant),
    ):
        orc.add_argument(flag, dest=dest, type=kind, default=_default(owner, dest))
    orc.add_argument("--m-const", type=float)
    orc.set_defaults(command=cmd_oracle)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    return args.pop("command")(**args)


if __name__ == "__main__":
    sys.exit(main())

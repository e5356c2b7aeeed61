"""Command-line operator surface.

Three subcommands: ``simulate`` runs a scenario file and writes the
population / frequency / departure / summary CSVs, ``sweep`` repeats a
scenario across one parameter's values, and ``oracle`` builds the exact
truncated chain and writes its audit, stationary and drift CSVs.
``simulate`` and ``sweep`` hand all of their replications to one
:func:`~swarmsim.engine.run_replications` call, which runs them in
parallel on the CPUs the process may use; the CSVs do not depend on how
many there are.

Scenario files are JSON documents with exactly these keys (unknown keys
are rejected, naming the offending path)::

    {
      "m": 5, "lambda": 2.0, "mu": 1.0, "u": 1.0,
      "policy": {"kind": "mode-suppression", "T": 1, "alpha": 0.1,
                 "sample_peers": 1, "cc_variant": "downloader"},
      "initial": {"kind": "empty", "n": 500},
      "horizon": 500.0, "max_population": 10000, "rng_seed": 42,
      "warmup_departures": 2000, "sample_interval": 1.0,
      "replications": 10
    }

``policy.T``, ``policy.alpha``, ``policy.sample_peers``,
``policy.cc_variant``, ``max_population``, ``warmup_departures``,
``sample_interval`` and ``replications`` are optional with the defaults
shown by ``Scenario``/``PolicyConfig``.  Exit codes: 0 success, 2 usage or
configuration error, 3 I/O failure, 4 internal error (any unexpected
fault, printed as its type and message), no CSV written.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import shutil
import sys
import tempfile
import warnings
from itertools import chain, repeat, starmap
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

# ``run`` is imported though no command calls it: perfbench's tap wraps
# ``cli.run`` and ``cli.run_replications`` by name.
from .engine import (
    EventTrace,
    InitialCondition,
    Scenario,
    derive_seed,
    run,
    run_replications,
)
from .metrics import sojourn_stats, stabilization_time
from .model import ModelParams
from .oracle import (
    LyapunovParams,
    ReducibleChainError,
    TruncationSpec,
    build_generator_ms,
    drift_report,
    stationary_distribution,
    verify_lemmas,
)
from .policies import PolicyConfig, PolicyKind

if TYPE_CHECKING:
    import numpy as np

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

DEFAULT_EPSILON_GAP = 0.05  # stabilization frequency gap
OUT_DIR_ENV = "SWARMSIM_OUT"


class ConfigError(ValueError):
    """Configuration problem, carrying the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(d: Dict, key: str, kind, path: str):
    if key not in d:
        raise ConfigError(f"{path}{key}", "missing required key")
    value = d[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{path}{key}", f"expected {kind.__name__}")
    return value


def _optional(d: Dict, key: str, kind, default, path: str):
    if key not in d:
        return default
    return _require(d, key, kind, path)


def _reject_unknown(d: Dict, known: Iterable[str], path: str) -> None:
    for key in d:
        if key not in known:
            raise ConfigError(f"{path}{key}", "unknown key")


def parse_policy(d: Dict, path: str = "policy.") -> PolicyConfig:
    _reject_unknown(d, ("kind", "T", "alpha", "sample_peers", "cc_variant"), path)
    kind_name = _require(d, "kind", str, path)
    try:
        kind = PolicyKind(kind_name)
    except ValueError:
        names = ", ".join(k.value for k in PolicyKind)
        raise ConfigError(f"{path}kind", f"must be one of: {names}")
    try:
        return PolicyConfig(
            kind=kind,
            threshold=_optional(d, "T", int, 1, path),
            alpha=_optional(d, "alpha", float, 0.1, path),
            sample_peers=_optional(d, "sample_peers", int, 1, path),
            cc_variant=_optional(d, "cc_variant", str, "downloader", path),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}*", str(exc))


def parse_scenario_dict(doc: Dict) -> Tuple[Scenario, int]:
    """Validate a scenario document; returns (scenario, replications)."""
    known = (
        "m",
        "lambda",
        "mu",
        "u",
        "policy",
        "initial",
        "horizon",
        "max_population",
        "rng_seed",
        "warmup_departures",
        "sample_interval",
        "replications",
    )
    _reject_unknown(doc, known, "")
    try:
        params = ModelParams(
            m=_require(doc, "m", int, ""),
            arrival_rate=_require(doc, "lambda", float, ""),
            peer_contact_rate=_optional(doc, "mu", float, 1.0, ""),
            seed_contact_rate=_optional(doc, "u", float, 1.0, ""),
        )
    except ValueError as exc:
        raise ConfigError("m/lambda/mu/u", str(exc))
    policy = parse_policy(_require(doc, "policy", dict, ""))
    init_doc = _require(doc, "initial", dict, "")
    _reject_unknown(init_doc, ("kind", "n"), "initial.")
    try:
        initial = InitialCondition(
            kind=_require(init_doc, "kind", str, "initial."),
            n=_require(init_doc, "n", int, "initial."),
        )
    except ValueError as exc:
        raise ConfigError("initial.kind", str(exc))
    replications = _optional(doc, "replications", int, 1, "")
    if replications < 1:
        raise ConfigError("replications", "must be >= 1")
    try:
        scenario = Scenario(
            params=params,
            policy=policy,
            initial=initial,
            horizon=_require(doc, "horizon", float, ""),
            rng_seed=_require(doc, "rng_seed", int, ""),
            max_population=_optional(doc, "max_population", int, None, ""),
            warmup_departures=_optional(doc, "warmup_departures", int, 2000, ""),
            sample_interval=_optional(doc, "sample_interval", float, 1.0, ""),
        )
    except ValueError as exc:
        raise ConfigError("horizon/rng_seed/max_population/sample_interval", str(exc))
    return scenario, replications


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


def _spell_floats(values: np.ndarray) -> List[str]:
    """``list(map(repr, values.tolist()))`` for a float64 array, with one
    ``repr`` per distinct bit pattern.  Keyed on the bits, not the value,
    so that ``-0.0`` and ``0.0`` keep their own texts."""
    import numpy as np
    if values.dtype != np.float64:
        raise TypeError(f"expected a float64 array, got {values.dtype}")
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


def _body(*columns: Sequence[str]) -> str:
    """The lines of a table whose columns are already spelled as text."""
    return "\n".join(map(",".join, zip(*columns))) + "\n"


def write_csv(
    path: Path, header: Sequence[str], rows: Iterable[Sequence] | str, template: str = ""
) -> None:
    """Write one table to ``path`` in one write; the file gets the mode
    ``open`` gives it.

    With a ``template``, row ``r`` is the line ``template.format(*r)``,
    built once per table from ``{}`` for an int or str field, ``{!r}`` for
    a float (its shortest round-trip text) and ``"{}"`` for a field that
    holds a comma.  Without one, every value is spelled by :func:`_fmt`
    (bools ``true``/``false``, None an empty field, numpy scalars as the
    Python number they hold), for the small tables that mix such values.
    Either way a field holding a comma, a quote, a ``\\n`` or a ``\\r``
    is quoted with its quotes doubled, as is a lone empty field, so that
    ``csv.reader`` reads every file back.  ``rows`` may instead be the
    table's body as one ``str``, every line already spelled and ended by
    the caller (see :func:`cmd_oracle`); it is written as it is."""
    if isinstance(rows, str):
        lines = [rows]
    else:
        lines = starmap(template.format, rows) if template else map(_line, rows)
    with open(path, "w", newline="") as fh:
        fh.write("".join(chain([_line(header)], lines)))


Table = Tuple[str, Sequence[str], Iterable[Sequence] | str, str]


def write_csvs(out_dir: Path, tables: Sequence[Table]) -> None:
    """Write the ``(file name, header, rows, template)`` tables (see
    :func:`write_csv`) into ``out_dir`` all or nothing.

    Every table is first written to a staging directory inside
    ``out_dir``.  The files are moved into place only after all of them
    are written and no target is a directory, the usual reason why one
    rename within a directory fails while the others succeed.  On an
    ``OSError`` before that point ``out_dir`` is left as it was; the
    staging directory is always removed.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(dir=out_dir, prefix=".staging-"))
    try:
        for name, header, rows, template in tables:
            write_csv(stage / name, header, rows, template)
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
    m = scenario.params.m
    # Each distinct frequency row is spelled once, as its m fields with
    # their leading commas, for every sample of it in every replication.
    # Its values are y/pop >= 0, so no -0.0 or NaN key merges two texts.
    spell = (",{!r}" * m).format
    row_text: Dict[Tuple[float, ...], str] = {}
    pops, freqs, deps, summary = [], [], [], []
    for rep, trace in enumerate(traces):
        texts = []
        for row in trace.frequencies:
            text = row_text.get(row)
            if text is None:
                text = row_text[row] = spell(*row)
            texts.append(text)
        times = list(map(repr, trace.times))  # spelled once, for both files
        pops.append(zip(times, repeat(rep), trace.populations))
        freqs.append(zip(times, repeat(rep), texts))
        deps.extend((rep, arr, dep, dep - arr) for arr, dep in trace.departures)
        summary.append(_summary_row(scenario, rep, trace))
    pis = (f"pi_{j}" for j in range(1, m + 1))
    write_csvs(out_dir, [
        ("population.csv", ("time", "replication", "population"), chain(*pops), "{},{},{}\n"),
        ("frequencies.csv", ("time", "replication", *pis), chain(*freqs), "{},{}{}\n"),
        ("departures.csv", ("replication", "arrival_time", "departure_time", "sojourn"), deps,
         "{},{!r},{!r},{!r}\n"),
        ("summary.csv", SUMMARY_HEADER, summary, ""),
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
        if replications < 1:
            raise ConfigError("replications", "must be >= 1")
        reps = replications
    traces = run_replications(
        (scenario, derive_seed(scenario.rng_seed, rep)) for rep in range(reps)
    )
    write_simulation_outputs(Path(out_dir), scenario, traces)
    if not quiet:
        for rep, tr in enumerate(traces):
            print(
                f"replication {rep}: events={tr.events} departures={len(tr.departures)} "
                f"termination={tr.termination.value}"
            )
    return EXIT_OK


SWEEP_PARAMETERS = ("lambda", "m", "T", "policy.kind", "sample_peers")


def _apply_sweep_value(scenario: Scenario, parameter: str, raw: str) -> Scenario:
    from dataclasses import replace

    params = scenario.params
    policy = scenario.policy
    try:
        if parameter == "lambda":
            params = replace(params, arrival_rate=float(raw))
        elif parameter == "m":
            params = replace(params, m=int(raw))
        elif parameter == "T":
            policy = replace(policy, threshold=int(raw))
        elif parameter == "sample_peers":
            policy = replace(policy, sample_peers=int(raw))
        elif parameter == "policy.kind":
            policy = replace(policy, kind=PolicyKind(raw))
        else:
            raise ConfigError("parameter", f"must be one of {SWEEP_PARAMETERS}")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"values({raw})", str(exc))
    return replace(scenario, params=params, policy=policy)


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
        raise ConfigError("parameter", f"must be one of {SWEEP_PARAMETERS}")
    if not values:
        raise ConfigError("values", "empty value list")
    base, reps = load_scenario_file(config_path)
    if replications is not None:
        reps = replications
    if reps < 1:
        raise ConfigError("replications", "must be >= 1")
    cells = [
        (idx, raw, _apply_sweep_value(base, parameter, raw))
        for idx, raw in enumerate(values)
    ]
    runs = [
        (raw, scenario, rep, derive_seed(scenario.rng_seed, idx, rep))
        for idx, raw, scenario in cells
        for rep in range(reps)
    ]
    traces = run_replications((scenario, seed) for _, scenario, _, seed in runs)
    rows = []
    for (raw, scenario, rep, seed), trace in zip(runs, traces):
        rows.append([parameter, raw, *_summary_row(scenario, rep, trace), seed])
        if not quiet:
            print(f"{parameter}={raw} replication {rep}: done")
    header = ("parameter", "value", *SUMMARY_HEADER, "seed")
    write_csvs(Path(out_dir), [("sweep.csv", header, rows, "")])
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
    epsilon: float = 0.5,
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
    # drift check below); numpy's and the solver's warnings on the way
    # would bury it.
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Matrix is exactly singular")
        gen = build_generator_ms(spec, params, threshold)
        report = verify_lemmas(gen)
        p = stationary_distribution(gen)
        drift = drift_report(gen, lp)
    if not np.isfinite(drift.drifts).all():
        raise FloatingPointError("non-finite drift (floating-point overflow)")
    # Each field is spelled once per distinct value.  Populations and
    # counts are at most the cap, which is below the number of states, so
    # they index the texts of the state ids; floats go through
    # _spell_floats.  Each row is then the comma-join of its text columns.
    ids = list(map(str, range(gen.n_states)))
    ints = np.array(ids, dtype=object)
    populations = ints[gen.populations].tolist()
    digits = ints[: cap + 1]
    first, *rest = gen.counts.T
    state = ('"(' + digits)[first]
    after = ", " + digits
    for column in rest:
        state = state + after[column]
    # state_id, the quoted count tuple and population open every audit and
    # stationary row: joined once, for both.
    prefix = list(map(",".join, zip(ids, (state + ')"').tolist(), populations)))
    residuals = np.asarray(gen.matrix.sum(axis=1)).ravel()
    verdict = "pass" if report.ok else f"{report.total_violations()} violations"
    boundary = map(_BOOL_TEXT.__getitem__, drift.boundary.tolist())
    write_csvs(Path(out_dir), [
        ("generator-audit.csv", ("state_id", "state", "population", "row_sum_residual"),
         _body(prefix, _spell_floats(residuals)) + f"lemma-checks,,,{verdict}\n", ""),
        ("stationary.csv", ("state_id", "state", "population", "probability"),
         _body(prefix, _spell_floats(p)), ""),
        ("drift.csv", ("state_id", "population", "V", "QV", "boundary", "region"),
         _body(ids, populations, _spell_floats(drift.values), _spell_floats(drift.drifts),
               boundary, drift.regions.tolist()), ""),
    ])
    if not quiet:
        print(
            f"{gen.n_states} states; lemma checks "
            f"{'passed' if report.ok else 'FAILED'}"
        )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmsim",
        description="Chunk-level P2P swarm simulator and CTMC oracle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    default_out = os.environ.get(OUT_DIR_ENV, ".")

    sim = sub.add_parser("simulate", help="run a scenario file")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", default=default_out)
    sim.add_argument("--replications", type=int, default=None)
    sim.add_argument("--quiet", action="store_true")

    sweep = sub.add_parser("sweep", help="repeat a scenario across parameter values")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--param", required=True)
    sweep.add_argument("--values", required=True, help="comma-separated values")
    sweep.add_argument("--out", default=default_out)
    sweep.add_argument("--replications", type=int, default=None)
    sweep.add_argument("--quiet", action="store_true")

    orc = sub.add_parser("oracle", help="exact truncated-chain analysis")
    orc.add_argument("--m", type=int, required=True)
    orc.add_argument("--cap", type=int, required=True)
    orc.add_argument("--lambda", dest="arrival_rate", type=float, required=True)
    orc.add_argument("--mu", dest="peer_contact_rate", type=float, default=1.0)
    orc.add_argument("--u", dest="seed_contact_rate", type=float, default=1.0)
    orc.add_argument("--T", dest="threshold", type=int, default=1)
    orc.add_argument("--epsilon", type=float, default=0.5)
    orc.add_argument("--m-const", type=float, default=None)
    orc.add_argument("--out", default=default_out)
    orc.add_argument("--quiet", action="store_true")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    if args.command == "simulate":
        return cmd_simulate(args.config, args.out, args.replications, args.quiet)
    if args.command == "sweep":
        values = [v for v in args.values.split(",") if v != ""]
        return cmd_sweep(
            args.config, args.param, values, args.out, args.replications, args.quiet
        )
    if args.command == "oracle":
        return cmd_oracle(
            m=args.m,
            cap=args.cap,
            arrival_rate=args.arrival_rate,
            peer_contact_rate=args.peer_contact_rate,
            seed_contact_rate=args.seed_contact_rate,
            threshold=args.threshold,
            out_dir=args.out,
            epsilon=args.epsilon,
            m_const=args.m_const,
            quiet=args.quiet,
        )
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer measurement from outside the program.

The package's modules are the layers: ``model``, ``policies``, ``engine``,
``metrics``, ``oracle`` and ``cli``.  :class:`Instruments` replaces public
functions and class attributes of those modules with wrappers that count
calls and time them, and puts every original back on :meth:`remove`.

Each wrapper is a span.  Spans nest through one stack, so a span's *self
time* is its duration minus the time of the wrapped spans it called;
every ``.s`` metric is self time unless its description says otherwise.
Calls that stay unwrapped (the event race, sampling via ``_draw_samples``,
trace recording via ``_record``) land in the self time of the nearest
wrapped caller, which for the engine is its entry point
(``cli.run_replications`` or ``cli.run``).

An untraced run installs only the *tap*: the two engine entry points,
wrapped to read the returned traces (events, simulated time), one
wrapper call per replication.
"""

from __future__ import annotations

import os
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

SELECTOR_KINDS = ("rarest-first", "mode-suppression", "distributed-ms")

# (metric, unit) for every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("engine.events", "count"),
    ("engine.arrivals", "count"),
    ("engine.contacts", "count"),
    ("engine.useful_ratio", "ratio"),
    ("engine.samples_recorded", "count"),
    ("engine.self_s", "s"),
    ("engine.sim_time_per_s", "1/s"),
    ("model.refresh.calls", "count"),
    ("model.refresh.s", "s"),
    ("model.apply_transfer.calls", "count"),
    ("model.apply_transfer.s", "s"),
    ("model.apply_departure.calls", "count"),
    ("model.apply_departure.s", "s"),
    ("model.add_empty_peer.calls", "count"),
    ("model.add_empty_peer.s", "s"),
    ("model.choose_chunk.calls", "count"),
    ("model.choose_chunk.s", "s"),
    *(
        (f"policies.select.{kind}.{part}", unit)
        for kind in SELECTOR_KINDS
        for part, unit in (("calls", "count"), ("s", "s"), ("none", "count"))
    ),
    ("metrics.sojourn_stats.s", "s"),
    ("metrics.stabilization_time.s", "s"),
    ("metrics.samples_scanned", "count"),
    ("cli.self_s", "s"),
    ("cli.load_scenario_file.s", "s"),
    ("cli.run_replications.s", "s"),
    ("cli.run.s", "s"),
    ("cli.write_csv.calls", "count"),
    ("cli.write_csv.s", "s"),
    ("cli.write_csv.bytes", "bytes"),
    ("oracle.enumerate.s", "s"),
    ("oracle.build.s", "s"),
    ("oracle.closed_classes.s", "s"),
    ("oracle.solve.s", "s"),
    ("oracle.drift.s", "s"),
    ("oracle.lemmas.s", "s"),
    ("oracle.states", "count"),
    ("oracle.nnz", "count"),
    ("oracle.closed_class_size", "count"),
    ("oracle.exceptional", "count"),
    ("trace.overhead_s", "s"),
]


class Counters:
    """What one round of calls produced, as seen through the wrappers."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, float] = defaultdict(int)


class Instruments:
    """Wrappers around the package's public names, installed and removed
    as one unit.  ``full=False`` installs only the engine tap."""

    def __init__(self, full: bool):
        self.full = full
        self.counters = Counters()
        self._stack: List[float] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- spans --

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` as span ``name``; ``after(result, *args, **kwargs)``
        reads what the call returned."""
        stack = self._stack
        counters = self.counters
        calls, self_s, total_s = counters.calls, counters.self_s, counters.total_s

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                calls[name] += 1
                self_s[name] += dt - child
                total_s[name] += dt
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return wrapper

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, after))

    # -- result readers --

    def _engine_traces(self, out, *args, **kwargs) -> None:
        values = self.counters.values
        for trace in out if isinstance(out, list) else [out]:
            values["engine.events"] += trace.events
            values["engine.sim_time"] += trace.final_time
            values["engine.samples_recorded"] += len(trace.times)

    def _stabilization(self, out, trace, epsilon) -> None:
        scanned = len(trace.times) if out is None else trace.times.index(out) + 1
        self.counters.values["metrics.samples_scanned"] += scanned

    def _csv_bytes(self, out, path, *args, **kwargs) -> None:
        self.counters.values["cli.write_csv.bytes"] += os.path.getsize(path)

    def _generator(self, gen, *args, **kwargs) -> None:
        values = self.counters.values
        values["oracle.states"] += gen.n_states
        values["oracle.nnz"] += gen.matrix.nnz

    def _classes(self, classes, *args, **kwargs) -> None:
        self.counters.values["oracle.closed_class_size"] += sum(len(c) for c in classes)

    def _drift(self, rows, gen, lp) -> None:
        self.counters.values["oracle.exceptional"] += sum(
            1 for r in rows if not r.boundary and r.drift > -lp.epsilon
        )

    # -- install / remove --

    def install(self) -> None:
        import swarmsim.cli as cli
        import swarmsim.engine as engine
        import swarmsim.model as model
        import swarmsim.oracle as oracle
        import swarmsim.policies as policies

        if self._saved:
            raise RuntimeError("instruments already installed")
        self._patch(cli, "run_replications", "cli.run_replications", self._engine_traces)
        self._patch(cli, "run", "cli.run", self._engine_traces)
        if not self.full:
            return
        for attr in ("add_empty_peer", "apply_transfer", "apply_departure"):
            self._patch(model.SwarmState, attr, f"model.{attr}")
        self._patch(model.FrequencySnapshot, "refresh", "model.refresh")
        self._patch(policies, "choose_chunk", "model.choose_chunk")

        make_selector = vars(engine)["make_selector"]
        self._saved.append((engine, "make_selector", make_selector))
        values = self.counters.values

        def traced_make_selector(config):
            name = f"policies.select.{config.kind.value}"

            def count_none(out, *args, **kwargs):
                if out is None:
                    values[name + ".none"] += 1

            return self.span(name, make_selector(config), count_none)

        engine.make_selector = traced_make_selector

        self._patch(cli, "sojourn_stats", "metrics.sojourn_stats")
        self._patch(cli, "stabilization_time", "metrics.stabilization_time", self._stabilization)
        self._patch(cli, "load_scenario_file", "cli.load_scenario_file")
        self._patch(cli, "write_csv", "cli.write_csv", self._csv_bytes)
        self._patch(oracle, "enumerate_states", "oracle.enumerate")
        self._patch(oracle, "closed_classes", "oracle.closed_classes", self._classes)
        self._patch(cli, "build_generator_ms", "oracle.build", self._generator)
        self._patch(cli, "stationary_distribution", "oracle.solve")
        self._patch(cli, "drift_report", "oracle.drift", self._drift)
        self._patch(cli, "verify_lemmas", "oracle.lemmas")

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Instruments":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def take(self) -> Counters:
        """Return the counters gathered so far and start afresh.  The
        wrappers hold the counter dicts, so these are copied and cleared."""
        taken = Counters()
        for attr, counts in vars(self.counters).items():
            setattr(taken, attr, counts.copy())
            counts.clear()
        return taken


def round_metrics(c: Counters) -> Dict[str, float]:
    """Per-layer metrics of one traced round: every name of
    :data:`PER_LAYER` but ``engine.sim_time_per_s`` and
    ``trace.overhead_s``, which need the untraced rounds too."""
    out: Dict[str, float] = {}
    events = c.values["engine.events"]
    arrivals = c.calls["model.add_empty_peer"]
    contacts = events - arrivals
    useful = c.calls["model.apply_transfer"] + c.calls["model.apply_departure"]
    out["engine.events"] = events
    out["engine.arrivals"] = arrivals
    out["engine.contacts"] = contacts
    out["engine.useful_ratio"] = useful / contacts if contacts else 0.0
    out["engine.samples_recorded"] = c.values["engine.samples_recorded"]
    out["engine.self_s"] = c.self_s["cli.run_replications"] + c.self_s["cli.run"]
    for attr in ("refresh", "apply_transfer", "apply_departure", "add_empty_peer", "choose_chunk"):
        out[f"model.{attr}.calls"] = c.calls[f"model.{attr}"]
        out[f"model.{attr}.s"] = c.self_s[f"model.{attr}"]
    for kind in SELECTOR_KINDS:
        name = f"policies.select.{kind}"
        out[name + ".calls"] = c.calls[name]
        out[name + ".s"] = c.self_s[name]
        out[name + ".none"] = c.values[name + ".none"]
    out["metrics.sojourn_stats.s"] = c.self_s["metrics.sojourn_stats"]
    out["metrics.stabilization_time.s"] = c.self_s["metrics.stabilization_time"]
    out["metrics.samples_scanned"] = c.values["metrics.samples_scanned"]
    out["cli.self_s"] = c.self_s["cli.main"]
    out["cli.load_scenario_file.s"] = c.self_s["cli.load_scenario_file"]
    # Whole engine calls as the CLI sees them; their self time is engine.self_s.
    out["cli.run_replications.s"] = c.total_s["cli.run_replications"]
    out["cli.run.s"] = c.total_s["cli.run"]
    out["cli.write_csv.calls"] = c.calls["cli.write_csv"]
    out["cli.write_csv.s"] = c.self_s["cli.write_csv"]
    out["cli.write_csv.bytes"] = c.values["cli.write_csv.bytes"]
    for stage in ("enumerate", "build", "closed_classes", "solve", "drift", "lemmas"):
        out[f"oracle.{stage}.s"] = c.self_s[f"oracle.{stage}"]
    for name in ("states", "nnz", "closed_class_size", "exceptional"):
        out[f"oracle.{name}"] = c.values[f"oracle.{name}"]
    return out

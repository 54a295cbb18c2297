"""Per-layer tracing: wrap the public, module-level entry points of each layer.

Each wrapper records a span (name, parent span, start, end) in memory and,
where the layer does countable work, an exact count derived from the call's
arguments or result. Self time is a span's duration minus the time of its
direct children. Wrappers replace the attribute the caller looks up: for
example ``noisyfed.fedavg.sample_batch``, because ``fedavg`` imported that
name. A target that no longer exists is reported as missing and skipped.

Each layer metric and the end-to-end metric it should move:

- ``fedavg.metrics_eval.*``: ``rounds_per_s`` and ``run_s.*`` on all three
  workloads (through ``model.loss``/``model.full_gradient`` on softmax).
- ``backend.local_steps.*``, ``backend.batch_gradient.*``: ``rounds_per_s``,
  most on ``sweep_r``, less on ``reference``.
- ``data.sample_batch.*``, ``data.batch_rows``, ``fedavg.client_sample.s``:
  ``rounds_per_s`` on ``sweep_r``.
- ``fedavg.stream.*``: ``rounds_per_s`` on ``sweep_r`` and ``reference``.
- ``channel.*``: ``rounds_per_s`` on ``reference``; zero on ``noniid_softmax``.
- ``theory.*``, ``experiment.bound_inputs.self_s``: ``wall_s`` but not
  ``rounds_per_s`` on ``reference`` and ``noniid_softmax``; zero on ``sweep_r``.
- ``experiment.build_task.s``, ``data.generate.s``, ``data.partition.s``,
  ``model.smoothness_constant.s``: ``setup_s``.
- ``config.*``, ``experiment.metrics_csv_text.s``, the orchestration
  ``*.self_s`` and ``cli.main.self_s``: ``wall_s``.
- ``fedavg.rounds``, ``fedavg.client_updates``: exact counts, the base of
  every ratio.
"""

from __future__ import annotations

import contextlib
import importlib
from array import array
from collections import Counter
from time import perf_counter

# fedavg's stream purposes, by the integer its _stream receives
STREAM_PURPOSES = {1: "batch", 2: "uplink", 3: "downlink", 4: "sample", 5: "kstar"}
# streams whose draws channel variants share; the distinct-key ratio covers these
SHARED_STREAMS = ("fedavg.stream.batch", "fedavg.stream.sample", "fedavg.stream.kstar")


class Tracer:
    """Spans and exact counts of one traced invocation, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.stream_keys: set = set()

    def call(self, name, fn, args, kwargs):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.start[sid] = t0
            self.end[sid] = t1

    def durations(self, name: str) -> list[float]:
        """Duration of every span of one name, in call order."""
        nid = self._name_ids.get(name)
        return [self.end[sid] - self.start[sid] for sid in range(len(self.start))
                if self.span_name[sid] == nid]

    def summary(self) -> dict:
        """name -> {"calls", "s" (inclusive), "self_s"}."""
        child = [0.0] * len(self.start)
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for sid in range(len(self.start)):
            parent = self.span_parent[sid]
            if parent >= 0:
                child[parent] += self.end[sid] - self.start[sid]
        for sid in range(len(self.start)):
            rec = out[self.names[self.span_name[sid]]]
            dur = self.end[sid] - self.start[sid]
            rec["calls"] += 1
            rec["s"] += dur
            rec["self_s"] += dur - child[sid]
        return out


class _TimedStream:
    """Forwards every attribute to a numpy Generator, timing method calls."""

    __slots__ = ("_gen", "_span", "_tracer")

    def __init__(self, gen, span, tracer):
        self._gen, self._span, self._tracer = gen, span, tracer

    def __getattr__(self, attr):
        value = getattr(self._gen, attr)
        if not callable(value):
            return value
        tracer, span = self._tracer, self._span
        return lambda *a, **kw: tracer.call(span, value, a, kw)


def _count_rounds(tr, args, kwargs, result):
    tr.counts["fedavg.rounds"] += len(result.metrics)


def _count_client_updates(tr, args, kwargs, result):
    tr.counts["fedavg.client_updates"] += len(result)


def _count_batch_rows(tr, args, kwargs, result):
    tr.counts["data.batch_rows"] += len(result)


def _count_kernel(tr, args, kwargs, result):
    """Computed (not measured) flops and bytes of one local_steps call.

    Per step over a batch of b rows, d features, C classes, P = params:
    mse: 4bd + b + 4d flops; softmax: 4bdC + 5bC + 4P flops. Bytes: the
    gathered rows and targets plus four passes over the parameters.
    """
    kind, X, _y, _w0, _eta, batches = args[:6]
    n_classes = args[6] if len(args) > 6 else kwargs.get("n_classes", 0)
    steps, b = len(batches), len(batches[0])
    d = X.shape[1]
    if kind == "mse_linear":
        params, flops = d, 4 * b * d + b + 4 * d
    else:
        params = n_classes * d
        flops = 4 * b * d * n_classes + 5 * b * n_classes + 4 * params
    tr.counts["backend.local_steps.flops"] += steps * flops
    tr.counts["backend.local_steps.bytes"] += steps * 8 * (b * d + b + 4 * params)


# span name, attributes to wrap (the names callers look up), counter
HOOKS = (
    ("cli.main", ("noisyfed.cli.main",), None),
    ("config.load_config", ("noisyfed.cli.load_config",), None),
    ("experiment.run_experiment", ("noisyfed.cli.run_experiment",), None),
    ("experiment.run_sweep", ("noisyfed.cli.run_sweep",), None),
    ("experiment.build_task", ("noisyfed.experiment.build_task",), None),
    ("data.generate", ("noisyfed.experiment.generate_regression",
                       "noisyfed.experiment.generate_classification"), None),
    ("data.partition", ("noisyfed.experiment.partition_iid",
                        "noisyfed.experiment.partition_label_shard"), None),
    ("model.smoothness_constant", ("noisyfed.experiment.smoothness_constant",
                                   "noisyfed.data.smoothness_constant"), None),
    ("model.loss", ("noisyfed.experiment.loss", "noisyfed.fedavg.loss"), None),
    ("model.full_gradient", ("noisyfed.model.full_gradient",
                             "noisyfed.theory.full_gradient"), None),
    ("experiment.metrics_csv_text", ("noisyfed.experiment.metrics_csv_text",), None),
    ("experiment.bound_inputs", ("noisyfed.experiment.bound_inputs",), None),
    ("theory.empirical_sigma2", ("noisyfed.experiment.empirical_sigma2",), None),
    ("theory.fedavg_error_bound", ("noisyfed.experiment.fedavg_error_bound",), None),
    ("fedavg.run_noisy_fedavg", ("noisyfed.experiment.run_noisy_fedavg",), _count_rounds),
    ("fedavg.metrics_eval", ("noisyfed.fedavg._global_metrics",), None),
    ("fedavg.client_sample", ("noisyfed.fedavg.client_sample",), _count_client_updates),
    ("data.sample_batch", ("noisyfed.fedavg.sample_batch",
                           "noisyfed.theory.sample_batch"), _count_batch_rows),
    ("backend.local_steps", ("noisyfed.backend.local_steps",), _count_kernel),
    ("backend.batch_gradient", ("noisyfed.backend.batch_gradient",), None),
    ("channel.variance_at", ("noisyfed.fedavg.variance_at",
                             "noisyfed.experiment.variance_at"), None),
    ("fedavg.stream", ("noisyfed.fedavg._stream",), None),
)


def _wrapper(tracer, span, fn, count):
    if span == "fedavg.stream":
        def stream(seed, k, i, purpose):
            key = (int(seed), int(k), int(i), int(purpose))
            name = f"fedavg.stream.{STREAM_PURPOSES.get(key[3], key[3])}"
            if name in SHARED_STREAMS:
                tracer.stream_keys.add(key)
                tracer.counts["fedavg.stream.constructions"] += 1
            gen = tracer.call(name, fn, (seed, k, i, purpose), {})
            return _TimedStream(gen, name + ".draw", tracer)
        return stream
    if count is None:
        return lambda *a, **kw: tracer.call(span, fn, a, kw)

    def counted(*a, **kw):
        result = tracer.call(span, fn, a, kw)
        count(tracer, a, kw, result)
        return result
    return counted


def resolve(target: str):
    """(module, attribute name, current value) or None when the target is gone."""
    modname, attr = target.rsplit(".", 1)
    try:
        module = importlib.import_module(modname)
    except ModuleNotFoundError:
        return None
    if not hasattr(module, attr):
        return None
    return module, attr, getattr(module, attr)


# the one hook of timed (untraced) runs: per-seed simulation time and rounds
SEED_RUN_HOOKS = (
    ("experiment.run_one_seed", ("noisyfed.experiment.run_one_seed",), _count_rounds),
)


@contextlib.contextmanager
def installed(tracer: Tracer, hooks=HOOKS):
    """Wrap every hook target for the duration; yields the missing targets."""
    saved, missing = [], []
    try:
        for span, targets, count in hooks:
            for target in targets:
                found = resolve(target)
                if found is None:
                    missing.append(target)
                    continue
                module, attr, fn = found
                setattr(module, attr, _wrapper(tracer, span, fn, count))
                saved.append((module, attr, fn))
        yield missing
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# per-layer metric -> (span, field); "calls" are counts, the rest seconds
SPAN_METRICS = {
    "fedavg.metrics_eval.calls": ("fedavg.metrics_eval", "calls"),
    "fedavg.metrics_eval.self_s": ("fedavg.metrics_eval", "self_s"),
    "backend.local_steps.calls": ("backend.local_steps", "calls"),
    "backend.local_steps.s": ("backend.local_steps", "s"),
    "backend.batch_gradient.calls": ("backend.batch_gradient", "calls"),
    "backend.batch_gradient.self_s": ("backend.batch_gradient", "self_s"),
    "model.loss.self_s": ("model.loss", "self_s"),
    "model.full_gradient.self_s": ("model.full_gradient", "self_s"),
    "data.sample_batch.calls": ("data.sample_batch", "calls"),
    "data.sample_batch.s": ("data.sample_batch", "s"),
    "fedavg.client_sample.s": ("fedavg.client_sample", "s"),
    "fedavg.stream.batch.calls": ("fedavg.stream.batch", "calls"),
    "fedavg.stream.batch.construct_s": ("fedavg.stream.batch", "s"),
    "fedavg.stream.batch.draw_s": ("fedavg.stream.batch.draw", "s"),
    "fedavg.stream.sample.calls": ("fedavg.stream.sample", "calls"),
    "fedavg.stream.sample.construct_s": ("fedavg.stream.sample", "s"),
    "fedavg.stream.sample.draw_s": ("fedavg.stream.sample.draw", "s"),
    "fedavg.stream.kstar.calls": ("fedavg.stream.kstar", "calls"),
    "fedavg.stream.kstar.construct_s": ("fedavg.stream.kstar", "s"),
    "fedavg.stream.kstar.draw_s": ("fedavg.stream.kstar.draw", "s"),
    "channel.variance_at.calls": ("channel.variance_at", "calls"),
    "channel.variance_at.s": ("channel.variance_at", "s"),
    "channel.draws.uplink": ("fedavg.stream.uplink.draw", "calls"),
    "channel.draws.downlink": ("fedavg.stream.downlink.draw", "calls"),
    "channel.draw_s.uplink": ("fedavg.stream.uplink.draw", "s"),
    "channel.draw_s.downlink": ("fedavg.stream.downlink.draw", "s"),
    "theory.empirical_sigma2.s": ("theory.empirical_sigma2", "s"),
    "theory.fedavg_error_bound.s": ("theory.fedavg_error_bound", "s"),
    "experiment.bound_inputs.self_s": ("experiment.bound_inputs", "self_s"),
    "experiment.build_task.s": ("experiment.build_task", "s"),
    "data.generate.s": ("data.generate", "s"),
    "data.partition.s": ("data.partition", "s"),
    "model.smoothness_constant.s": ("model.smoothness_constant", "s"),
    "config.load_config.s": ("config.load_config", "s"),
    "experiment.metrics_csv_text.s": ("experiment.metrics_csv_text", "s"),
    "experiment.run_experiment.self_s": ("experiment.run_experiment", "self_s"),
    "experiment.run_sweep.self_s": ("experiment.run_sweep", "self_s"),
    "fedavg.run_noisy_fedavg.self_s": ("fedavg.run_noisy_fedavg", "self_s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}

# metrics computed from the exact counts
COUNT_UNITS = {
    "fedavg.rounds": "count",
    "fedavg.client_updates": "count",
    "fedavg.metrics_eval.per_round": "1/round",
    "fedavg.stream.distinct_ratio": "ratio",
    "data.batch_rows": "count",
    "backend.local_steps.flops": "flop",
    "backend.local_steps.bytes": "byte",
}


def layer_values(tracer: Tracer, summary: dict) -> dict:
    """Every per-layer metric of one traced invocation, name -> value."""
    values = {metric: summary.get(span, {}).get(field, 0)
              for metric, (span, field) in SPAN_METRICS.items()}
    counts = tracer.counts
    rounds = counts["fedavg.rounds"]
    built = counts["fedavg.stream.constructions"]
    values.update({
        "fedavg.rounds": rounds,
        "fedavg.client_updates": counts["fedavg.client_updates"],
        "fedavg.metrics_eval.per_round":
            values["fedavg.metrics_eval.calls"] / rounds if rounds else 0.0,
        "fedavg.stream.distinct_ratio": len(tracer.stream_keys) / built if built else 0.0,
        "data.batch_rows": counts["data.batch_rows"],
        "backend.local_steps.flops": counts["backend.local_steps.flops"],
        "backend.local_steps.bytes": counts["backend.local_steps.bytes"],
    })
    return values


# metrics the worker derives by comparing traced with untraced invocations
RUN_UNITS = {
    "trace.overhead_s": "s",
    "trace.self_minus_untraced_s": "s",
    "trace.hooks_missing": "count",
}

PER_LAYER = (*SPAN_METRICS, *COUNT_UNITS, *RUN_UNITS)


def unit_of(metric: str) -> str:
    for table in (COUNT_UNITS, RUN_UNITS):
        if metric in table:
            return table[metric]
    return "count" if SPAN_METRICS[metric][1] == "calls" else "s"

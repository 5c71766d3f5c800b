"""Span tracing of predprey's public functions, installed from outside the package.

A Tracer replaces each traced function with a wrapper in every predprey module
namespace that holds it (and on the class, for methods), records one span per
call (name, start, end, parent span) in memory, and restores the originals on
exit. `layer_metrics` turns the spans of one workload unit into the per-layer
numbers that BENCHMARK.json lists under `per_layer`.
"""

from __future__ import annotations

import csv
import importlib
import sys
import time
from collections import defaultdict

from predprey.world import EVENT_CAUGHT

# (span name, module, attribute). The two config parsers share one span name
# because the benchmark reports their sum as `configio.parse`.
TARGETS = (
    ("world.step", "world", "step"),
    ("world.observe_all", "world", "observe_all"),
    ("world.observation_matrix", "world", "observation_matrix"),
    ("world.predator_step", "world", "predator_step"),
    ("world.reset", "world", "reset"),
    ("net.forward", "net", "forward"),
    ("net.backward", "net", "backward"),
    ("net.adam_step", "net", "adam_step"),
    ("net.save_checkpoint", "net", "save_checkpoint"),
    ("net.load_checkpoint", "net", "load_checkpoint"),
    ("ppo.collect_rollout", "ppo", "collect_rollout"),
    ("ppo.sample_actions", "ppo", "sample_actions"),
    ("ppo.compute_gae", "ppo", "compute_gae"),
    ("ppo.RolloutBuffer.append_chunk", "ppo", "RolloutBuffer.append_chunk"),
    ("ppo.RolloutBuffer.stacked", "ppo", "RolloutBuffer.stacked"),
    ("ppo.ppo_update", "ppo", "ppo_update"),
    ("ppo.ppo_loss_and_grads", "ppo", "ppo_loss_and_grads"),
    ("train.run_training", "train", "run_training"),
    ("stats.evaluate_condition", "stats", "evaluate_condition"),
    ("stats.kde_occupancy", "stats", "kde_occupancy"),
    ("stats.summarize_condition", "stats", "summarize_condition"),
    ("stats.one_way_anova", "stats", "one_way_anova"),
    ("stats.cohens_d", "stats", "cohens_d"),
    ("trajectory.TrajectoryWriter.record", "trajectory", "TrajectoryWriter.record"),
    ("trajectory.TrajectoryTable.from_csv", "trajectory", "TrajectoryTable.from_csv"),
    ("trajectory.replay_export", "trajectory", "replay_export"),
    ("configio.parse", "configio", "parse_scenario_config"),
    ("configio.parse", "configio", "parse_eval_config"),
    ("configio.write_resolved", "configio", "write_resolved"),
    ("cli.main", "cli", "main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))


def _count_step_events(counters, args, kwargs, result) -> None:
    events = result[3]
    caught = sum(1 for ev in events if ev.kind == EVENT_CAUGHT)
    counters["world.events.caught"] += caught
    counters["world.events.collected"] += len(events) - caught


def _count_forward_rows(counters, args, kwargs, result) -> None:
    obs = args[1] if len(args) > 1 else kwargs["obs"]
    counters["net.forward.rows"] += obs.shape[0] if obs.ndim == 2 else 1


def _count_kde_samples(counters, args, kwargs, result) -> None:
    counters["stats.kde_occupancy.samples"] += result.n_samples


def _count_table_rows(counters, args, kwargs, result) -> None:
    counters["trajectory.TrajectoryTable.from_csv.rows"] += len(result)


# Counts taken from a call's arguments or result, where the work happens.
OBSERVERS = {
    "world.step": _count_step_events,
    "net.forward": _count_forward_rows,
    "stats.kde_occupancy": _count_kde_samples,
    "trajectory.TrajectoryTable.from_csv": _count_table_rows,
}

COUNTERS = (
    "world.events.collected",
    "world.events.caught",
    "net.forward.rows",
    "stats.kde_occupancy.samples",
    "trajectory.TrajectoryTable.from_csv.rows",
    "trajectory.bytes_written",  # measured by the eval check, from the file written
)


class Tracer:
    """Context manager: while active, every call to a TARGETS function is a span.

    Spans are tuples (name index, start, end, parent index); parent -1 marks a
    root span. The process is single-threaded, so one stack gives the parent.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        name_idx = SPAN_NAMES.index(name)
        observe = OBSERVERS.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_idx, start, end, parent)
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        package_modules = [
            m for key, m in list(sys.modules.items()) if key == "predprey" or key.startswith("predprey.")
        ]
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(f"predprey.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    self._patch(cls, method, classmethod(self._wrap(raw.__func__, name)))
                else:
                    self._patch(cls, method, self._wrap(raw, name))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name)
            for mod in package_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


def layer_metrics(tracer: Tracer, extra_counters: dict[str, float] | None = None) -> dict[str, float]:
    """Per-layer numbers for the spans and counts one tracer recorded.

    For every span name X: X.calls, X.s (summed duration) and X.self_s (duration
    minus the time covered by its direct child spans, which never overlap in a
    single thread). Counters, rows per forward call and the share of training
    time spent collecting rollouts are added by name.
    """
    n = len(SPAN_NAMES)
    calls = [0] * n
    total = [0.0] * n
    child = [0.0] * len(tracer.spans)
    for name_idx, start, end, parent in tracer.spans:
        dur = end - start
        calls[name_idx] += 1
        total[name_idx] += dur
        if parent >= 0:
            child[parent] += dur
    self_time = [0.0] * n
    for (name_idx, start, end, _), covered in zip(tracer.spans, child):
        self_time[name_idx] += (end - start) - covered

    out: dict[str, float] = {}
    for i, name in enumerate(SPAN_NAMES):
        out[f"{name}.calls"] = calls[i]
        out[f"{name}.s"] = total[i]
        out[f"{name}.self_s"] = self_time[i]
    for key in COUNTERS:
        out[key] = tracer.counters.get(key, 0)
    out.update(extra_counters or {})
    forwards = out["net.forward.calls"]
    out["net.forward.rows_per_call"] = out["net.forward.rows"] / forwards if forwards else 0.0
    training = out["train.run_training.s"]
    out["train.collect_share"] = out["ppo.collect_rollout.s"] / training if training else 0.0
    return out


def write_spans(tracer: Tracer, path) -> None:
    """Spans as CSV: index, name, start and end in seconds from the first span, parent index."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["span", "name", "start_s", "end_s", "parent"])
        for i, (name_idx, start, end, parent) in enumerate(tracer.spans):
            writer.writerow([i, SPAN_NAMES[name_idx], f"{start - origin:.9f}", f"{end - origin:.9f}", parent])

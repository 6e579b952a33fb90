"""In-memory spans around calls into the spikeprune modules.

A traced run replaces each public function listed in TRACED with a wrapper
wherever a module looks the name up (``spikeprune.engine.bernoulli_matrix``,
``spikeprune.cli.run_unrolled``, ...). The wrapper records a span (name,
start, end, parent) and the counts measured at that boundary. Nothing is
written until the run ends. Untraced runs use NullTracer, whose spans cost
one attribute lookup.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from collections import defaultdict

# the package modules, which are also the benchmark's layers
LAYERS = ("cli", "trainer", "autodiff", "engine", "numerics", "importance",
          "spatial", "temporal", "cost", "model", "data")


class NullTracer:
    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null


class Tracer:
    """Spans and counters for one run; install() patches, uninstall() restores."""

    enabled = True

    def __init__(self):
        self.names = []       # span i: name
        self.parents = []     # span i: index of the enclosing span, or -1
        self.starts = []
        self.ends = []
        self.nested = []      # span i sits inside another span of its own name
        self._stack = []
        self._open = defaultdict(int)
        self.counts = defaultdict(float)
        self.sublayer_rates = {}   # eval traces: name -> [rate * samples, samples]
        self._patched = []

    # -- spans -------------------------------------------------------------

    def _begin(self, name) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.nested.append(self._open[name] > 0)
        self.ends.append(None)
        self._open[name] += 1
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _end(self, idx) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        self._open[self.names[idx]] -= 1

    @contextlib.contextmanager
    def span(self, name):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def current(self):
        return self.names[self._stack[-1]] if self._stack else None

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        import spikeprune.cli  # noqa: F401  (loads every package module)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "spikeprune" or n.startswith("spikeprune.")]
        for mod_name, fn_name, counter in TRACED:
            target = getattr(sys.modules[f"spikeprune.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", target, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is target:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, target))

    def uninstall(self) -> None:
        for module, attr, target in reversed(self._patched):
            setattr(module, attr, target)
        self._patched.clear()

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- summaries ---------------------------------------------------------

    def durations(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self):
        dur = self.durations()
        own = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def inclusive(self, name) -> float:
        """Time inside calls of `name`, counting nested re-entries once."""
        dur = self.durations()
        return sum(d for n, d, nested in zip(self.names, dur, self.nested)
                   if n == name and not nested)

    def module_self(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, own in zip(self.names, self.self_times()):
            module = name.split(".", 1)[0]
            if module in out:
                out[module] += own
        return out

    def stage_trees(self) -> dict:
        """Per cli.* stage: call path below it -> [calls, total s, self s]."""
        dur = self.durations()
        own = self.self_times()
        path_of = {}
        trees = {}
        for i, name in enumerate(self.names):
            p = self.parents[i]
            if name.startswith("cli."):
                path_of[i] = (name,)
            elif p in path_of:
                path_of[i] = path_of[p] + (name,)
            else:
                continue
            stage = path_of[i][0]
            row = trees.setdefault(stage, {}).setdefault(path_of[i], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += own[i]
        return trees

    def to_dict(self) -> dict:
        return {"names": self.names, "parents": self.parents,
                "starts": self.starts, "ends": self.ends}


# -- counters: run after the call returns, outside its span ----------------

def _original(mod_name, fn_name):
    fn = getattr(sys.modules[f"spikeprune.{mod_name}"], fn_name)
    return getattr(fn, "__wrapped__", fn)


def _acs_pair(model, masks, plan):
    acs_total = _original("cost", "acs_total")
    mask_set = sys.modules["spikeprune.model"].MaskSet
    used = acs_total(model.config, masks, plan).total
    dense = acs_total(model.config, mask_set.all_ones(model), plan).total
    return used, dense


def _batch(tokens) -> int:
    shape = getattr(tokens, "shape", None)
    return 1 if shape is None or len(shape) == 1 else int(shape[0])


def _count_backward(tr, args, kwargs, result):
    tr.counts["autodiff.backward_calls"] += 1
    if tr.current() == "trainer.train":
        tr.counts["trainer.batches"] += 1


def _count_unrolled(tr, args, kwargs, result):
    model, masks, tokens, steps = args[:4]
    plan_cls = sys.modules["spikeprune.engine"].TimestepPlan
    b = _batch(tokens)
    tr.counts["engine.unrolled_sample_steps"] += b * steps
    used, dense = _acs_pair(model, masks,
                            plan_cls.uniform(model.config.num_layers, steps))
    tr.counts["acs.used"] += b * used
    tr.counts["acs.dense"] += b * dense


def _count_sequential(tr, args, kwargs, result):
    model, masks, plan, tokens = args[:4]
    b = _batch(tokens)
    tr.counts["engine.sequential_samples"] += b
    used, dense = _acs_pair(model, masks, plan)
    tr.counts["acs.used"] += b * used
    tr.counts["acs.dense"] += b * dense
    for trace in result[1]:
        row = tr.sublayer_rates.setdefault(trace.name, [0.0, 0])
        row[0] += float(trace.converged.mean()) * b
        row[1] += b


def _count_bernoulli(tr, args, kwargs, result):
    tr.counts["numerics.bernoulli_draws"] += result.size


def _count_pca(tr, args, kwargs, result):
    tr.counts["numerics.pca_calls"] += 1
    width = args[0].shape[1] if hasattr(args[0], "shape") else len(args[0][0])
    tr.counts["numerics.pca_max_width"] = max(
        tr.counts["numerics.pca_max_width"], width)


def _count_units(tr, args, kwargs, result):
    scores = args[0] if args else kwargs["scores"]
    units = (sum(len(h) for h in scores.head_scores)
             + sum(len(n) for n in scores.neuron_scores))
    tr.counts["spatial.units"] = max(tr.counts["spatial.units"], units)


def _count_refine(tr, args, kwargs, result):
    scores = args[1] if len(args) > 1 else kwargs["scores"]
    _count_units(tr, (scores,), {}, result)


def _count_checkpoint(tr, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tr.counts["model.checkpoint_bytes"] += os.path.getsize(path)


# (module, function, counter); spans are named "<module>.<function>"
TRACED = (
    ("trainer", "train", None),
    ("trainer", "evaluate_proxy", None),
    ("autodiff", "backward", _count_backward),
    ("engine", "run_unrolled", _count_unrolled),
    ("engine", "run_sequential", _count_sequential),
    ("engine", "rate_proxy_forward", None),
    ("numerics", "bernoulli_matrix", _count_bernoulli),
    ("numerics", "pca_component_count", _count_pca),
    ("importance", "fisher_diagonal", None),
    ("importance", "asr_factors", None),
    ("spatial", "select_masks", _count_units),
    ("spatial", "refine_masks", _count_refine),
    ("temporal", "layer_importance", None),
    ("temporal", "allocate_timesteps", None),
    ("cost", "acs_total", None),
    ("cost", "per_sublayer_acs", None),
    ("cost", "normalized_c", None),
    ("model", "init_model", None),
    ("model", "save_checkpoint", _count_checkpoint),
    ("model", "load_checkpoint", _count_checkpoint),
    ("data", "gen_keyword_task", None),
    ("data", "load_jsonl", None),
)

# per-layer metric -> span whose inclusive time it reports
SPAN_METRICS = {
    "trainer.train_s": "trainer.train",
    "trainer.evaluate_proxy_s": "trainer.evaluate_proxy",
    "autodiff.backward_s": "autodiff.backward",
    "engine.run_unrolled_s": "engine.run_unrolled",
    "engine.run_sequential_s": "engine.run_sequential",
    "importance.fisher_s": "importance.fisher_diagonal",
    "numerics.bernoulli_s": "numerics.bernoulli_matrix",
    "numerics.pca_s": "numerics.pca_component_count",
    "spatial.select_s": "spatial.select_masks",
    "spatial.refine_s": "spatial.refine_masks",
    "temporal.layer_importance_s": "temporal.layer_importance",
    "temporal.allocate_s": "temporal.allocate_timesteps",
    "model.save_checkpoint_s": "model.save_checkpoint",
    "model.load_checkpoint_s": "model.load_checkpoint",
}

CLI_STAGES = ("train", "prune-spatial", "prune-temporal", "retrain", "eval",
              "report", "ablate")

# counts summed over the run; the rest are maxima
_SUMMED = ("trainer.batches", "autodiff.backward_calls",
           "engine.unrolled_sample_steps", "engine.sequential_samples",
           "numerics.bernoulli_draws", "numerics.pca_calls",
           "model.checkpoint_bytes")
_MAXIMA = ("numerics.pca_max_width", "spatial.units")


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer values per operation (times and summed counts / ops)."""
    out = {}
    for stage in CLI_STAGES:
        out[f"cli.{stage.replace('-', '_')}_s"] = tracer.inclusive(f"cli.{stage}") / ops
    for metric, span in SPAN_METRICS.items():
        out[metric] = tracer.inclusive(span) / ops
    for key in _SUMMED:
        out[key] = tracer.counts[key] / ops
    for key in _MAXIMA:
        out[key] = tracer.counts[key]
    dense = tracer.counts["acs.dense"]
    out["engine.acs_executed_ratio"] = tracer.counts["acs.used"] / dense if dense else 0.0
    for layer, seconds in tracer.module_self().items():
        out[f"{layer}.self_s"] = seconds / ops
    return out

"""Quick self-check of the benchmark at tiny sizes (under a minute).

  python3 perfbench/selfcheck.py

Checks that
  - every workload, untraced and traced, ends its output with a JSON line
    holding correct, attempted, failed and every metric BENCHMARK.json names
    for that mode, each with its unit, and that at tiny size no operation fails;
  - another seed changes the inputs but not the set of metric names;
  - in traced runs, every span closes inside its parent's interval, and the
    self times of the spans under each cli.* stage sum to no more than the
    stage's wall time, as the workload timed it around the command;
  - a deliberately broken output, an over-budget mask set, is counted as a
    failed operation.
Exits 1 at the first check that does not hold.
"""

import json
import os
import shutil
import subprocess
import sys

import env

env.pin_threads()
env.use_checkout_source()

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spikeprune.model import MaskSet  # noqa: E402


def fail(message: str) -> None:
    print(f"selfcheck FAILED: {message}")
    sys.exit(1)


def run_tiny(workload: str, seed: int, trace: int) -> tuple:
    cmd = [sys.executable, os.path.join(env.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    tag = f"{workload}-s{seed}-t{trace}-tiny"
    with open(os.path.join(run.RESULTS, f"{tag}.json"), encoding="utf-8") as fh:
        detail = json.load(fh)
    if trace:
        check_spans(workload, detail)
    return line, detail["provenance"]["inputs_sha256"]


def check_spans(workload: str, detail: dict) -> None:
    """Every span closed and inside its parent's interval; the self times of
    the spans under each cli.* stage sum to no more than the stage's time as
    the workload measured it with its own clock around the command."""
    spans = detail["spans"]
    tracer = tracing.Tracer()
    tracer.names, tracer.parents = spans["names"], spans["parents"]
    tracer.starts, tracer.ends = spans["starts"], spans["ends"]
    for i, (name, parent) in enumerate(zip(tracer.names, tracer.parents)):
        if tracer.ends[i] is None or tracer.ends[i] < tracer.starts[i]:
            fail(f"{workload}: span {i} ({name}) never closed")
        if parent >= 0 and not (tracer.starts[parent] <= tracer.starts[i]
                                and tracer.ends[i] <= tracer.ends[parent]):
            fail(f"{workload}: span {i} ({name}) leaves its parent's interval")
    roots = [i for i, name in enumerate(tracer.names) if name.startswith("cli.")]
    if not roots:       # prune-search calls the library, not the CLI
        return
    stages = [(f"cli.{name}", seconds) for op in detail["stages_s"]
              for name, seconds in op.items()]
    if [tracer.names[i] for i in roots] != [name for name, _ in stages]:
        fail(f"{workload}: cli.* spans do not match the commands run")
    own = tracer.self_times()
    stage_of = {}
    sums = dict.fromkeys(roots, 0.0)
    for i, parent in enumerate(tracer.parents):
        root = i if i in sums else stage_of.get(parent)
        if root is None:
            continue
        stage_of[i] = root
        if i != root:
            sums[root] += own[i]
    for root, (name, seconds) in zip(roots, stages):
        if sums[root] > seconds:
            fail(f"{workload}: self times under {name} sum to {sums[root]} s "
                 f"> its {seconds} s")


def check_emission(spec) -> None:
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            seen = {}
            for seed in (1, 2):
                line, inputs = run_tiny(name, seed, trace)
                if set(line) != {"correct", "attempted", "failed", "metrics"}:
                    fail(f"{name}: result keys {sorted(line)}")
                got = {k: v["unit"] for k, v in line["metrics"].items()}
                if got != wanted:
                    fail(f"{name} trace {trace}: metrics/units {got} != {wanted}")
                if not all(isinstance(v["value"], (int, float))
                           for v in line["metrics"].values()):
                    fail(f"{name} trace {trace}: a metric value is not a number")
                if not line["correct"] or line["failed"] or line["attempted"] < 1:
                    fail(f"{name} trace {trace} seed {seed}: {line['failed']} of "
                         f"{line['attempted']} operations failed")
                seen[seed] = (inputs, set(got))
            if seen[1][0] == seen[2][0]:
                fail(f"{name}: seeds 1 and 2 produced the same inputs")
            if seen[1][1] != seen[2][1]:
                fail(f"{name}: seeds 1 and 2 emit different metric names")
            print(f"ok  {name} trace {trace}: {len(wanted)} metrics with units; "
                  f"seeds 1 and 2 differ in inputs only")


class OverBudget(workloads.PruneSearch):
    """prune-search whose masks are replaced by all-ones: every budget < 1 fails."""

    def op(self, i, tracer):
        result = super().op(i, tracer)
        result.outputs["searches"] = [
            (budget, selected, MaskSet([np.ones_like(h) for h in selected.heads],
                                       [np.ones_like(n) for n in selected.neurons]))
            for budget, selected, _ in result.outputs["searches"]]
        return result


def check_broken_output() -> None:
    setup_dir = os.path.join(env.WORK, "selfcheck", "setup")
    shutil.rmtree(os.path.dirname(setup_dir), ignore_errors=True)
    os.makedirs(setup_dir)
    workloads.prepare_search(3, setup_dir, tiny=True)
    wl = OverBudget(3, setup_dir, None, True, None)
    latencies, _, results, problems = run.measure(wl, 0.2, tracing.NullTracer())
    shutil.rmtree(os.path.dirname(setup_dir), ignore_errors=True)
    if results or len(problems) != len(latencies):
        fail(f"over-budget masks: {len(problems)} of {len(latencies)} operations "
             f"counted failed")
    if not any("over budget" in p for p in problems[0]):
        fail(f"over-budget masks not named in the failures: {problems[0]}")
    print(f"ok  over-budget mask sets: {len(problems)} of {len(latencies)} "
          f"operations counted failed")


def main() -> None:
    check_emission(run.load_spec())
    check_broken_output()
    print("selfcheck passed")


if __name__ == "__main__":
    main()

"""spikeprune benchmark.

One workload, one process, closed loop with one client:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

sets the workload up in a child process, runs operations one at a time until
the next would end after S seconds (at least the workload's min_ops), checks
each operation's outputs, repeats the set-up until it has run the workload's
`setups` times (setup_s is the median of all set-ups), and prints a report whose
last line is a JSON object: correct, attempted, failed, and the end-to-end
metrics of BENCHMARK.json (--trace 0) or its per-layer metrics, measured
through in-memory spans (--trace 1).

Every workload, untraced and traced, with a combined report:

  python3 perfbench/run.py [--seed N] [--seconds S]

Outputs go to .perfbench/ at the root of the checkout.
"""

from __future__ import annotations

import env

env.pin_threads()
env.use_checkout_source()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from spikeprune.model import load_checkpoint  # noqa: E402
from spikeprune.cost import per_sublayer_acs  # noqa: E402

PREPARE = os.path.join(env.HERE, "prepare.py")
RESULTS = os.path.join(env.WORK, "results")


def load_spec() -> dict:
    with open(os.path.join(env.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- provenance --------------------------------------------------------------

def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"{env.BLAS_THREADS} (requested; not readable from this BLAS)"


def _git_commit():
    """HEAD of the checkout's own .git, read without running git."""
    git = os.path.join(env.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _tree_digest(root: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(args, inputs_sha: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tiny": args.tiny, "seconds": args.seconds,
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "git_commit": _git_commit(), "source_sha256": _tree_digest(env.SRC),
        "inputs_sha256": inputs_sha,
    }


# -- statistics --------------------------------------------------------------

def timing_line(name: str, unit: str, values: list) -> str:
    """Median, plus the highest percentile with >= 10 samples beyond it
    (reported once there are 20 samples, so that it is at least the median)."""
    n = len(values)
    text = f"{name}: median {statistics.median(values):.6g} {unit}"
    if n >= 20:
        ordered = sorted(values)
        text += (f", p{100 * (n - 10) // n} {ordered[n - 11]:.6g} {unit}"
                 f" (10 of {n} samples beyond)")
    else:
        text += " (fewer than 20 samples: no tail percentile)"
    return text + f", n={n}"


# -- one workload --------------------------------------------------------------

def _setup(args, run_dir, k):
    """Set-up number k in a child process: (seconds, inputs digest, its dir)."""
    out = os.path.join(run_dir, f"setup{k}")
    os.makedirs(out)
    cmd = [sys.executable, PREPARE, args.workload, str(args.seed), out]
    start = time.perf_counter()
    subprocess.run(cmd + (["--tiny"] if args.tiny else []), check=True)
    return time.perf_counter() - start, _tree_digest(out), out


def _sublayer_table(wl, result, tracer):
    path = wl.final_checkpoint(result)
    if path is None:
        return []
    model, masks, plan = load_checkpoint(path)
    steps = plan.flat()
    rows = []
    for (name, acs), t in zip(per_sublayer_acs(model.config, masks, plan), steps):
        rate_sum, samples = tracer.sublayer_rates.get(name, (0.0, 0))
        rows.append({"sublayer": name, "acs": int(acs), "timesteps": int(t),
                     "converged_rate": rate_sum / samples if samples else None})
    return rows


def _print_layers(tracer, ops, table):
    print("self time per module (s per operation):")
    for layer, seconds in tracer.module_self().items():
        print(f"  {layer:<11}{seconds / ops:10.4f}")
    for stage, tree in tracer.stage_trees().items():
        print(f"span tree under {stage} (calls, total s, self s; whole run):")
        for path, (calls, total, own) in sorted(tree.items()):
            print(f"  {'  ' * (len(path) - 1)}{path[-1]:<{36 - 2 * len(path)}}"
                  f"{calls:7d}{total:11.4f}{own:11.4f}")
    if table:
        print("per-sublayer table of the final checkpoint:")
        print(f"  {'sublayer':<12}{'ACs':>14}{'timesteps':>11}{'converged rate':>16}")
        for row in table:
            rate = row["converged_rate"]
            print(f"  {row['sublayer']:<12}{row['acs']:>14}{row['timesteps']:>11}"
                  f"{'-' if rate is None else format(rate, '.6f'):>16}")


def measure(wl, seconds, tracer):
    """Closed loop: operations one at a time until the next would end after
    `seconds`, but at least wl.min_ops of them.

    Returns (latency of every operation, its CPU time, results of the
    passing ones, {operation index: failed checks}).
    """
    results, latencies, cpu, problems = [], [], [], {}
    start = time.perf_counter()
    while True:
        i = len(latencies)
        if tracer.enabled:
            tracer.sublayer_rates.clear()
            tracer.install()
        op_start, cpu_start = time.perf_counter(), time.process_time()
        result = None
        try:
            with tracer.span("op"):
                result = wl.op(i, tracer)
        except Exception:   # one failed operation; the loop goes on
            traceback.print_exc()
        finally:
            latencies.append(time.perf_counter() - op_start)
            cpu.append(time.process_time() - cpu_start)
            if tracer.enabled:
                tracer.uninstall()
        try:
            bad = ["operation raised"] if result is None else wl.check(result)
        except Exception:
            traceback.print_exc()
            bad = ["output check raised"]
        if bad:
            problems[i] = bad
        else:
            results.append(result)
        if (len(latencies) >= wl.min_ops and
                time.perf_counter() - start + statistics.median(latencies) > seconds):
            return latencies, cpu, results, problems


def run_workload(args, spec) -> int:
    tag = f"{args.workload}-s{args.seed}-t{args.trace}" + ("-tiny" if args.tiny else "")
    run_dir = os.path.join(env.WORK, "runs", tag)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    _, cls = workloads.WORKLOADS[args.workload]
    # The first set-up supplies the inputs; the others repeat it after the
    # timed phase, so the median spans the run rather than one moment of it.
    try:
        seconds, digest, setup_dir = _setup(args, run_dir, 0)
    except subprocess.CalledProcessError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    setup_times, digests = [seconds], [digest]
    prov = provenance(args, digest)
    manifest = os.path.join(env.WORK, "manifest",
                            f"{tag.replace(f'-t{args.trace}', '')}-"
                            f"{prov['source_sha256'][:12]}-{_tree_digest(env.HERE)[:12]}")
    wl = cls(args.seed, setup_dir, os.path.join(run_dir, "ops"), args.tiny, manifest)

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    latencies, cpu, results, problems = measure(wl, args.seconds, tracer)
    try:
        for k in range(1, cls.setups):
            seconds, digest, _ = _setup(args, run_dir, k)
            setup_times.append(seconds)
            digests.append(digest)
    except subprocess.CalledProcessError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    setup_problems = [] if len(set(digests)) == 1 else [
        f"set-ups with one seed wrote different inputs: {digests}"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    ops = len(latencies)
    print(f"== perfbench {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'}) ==")
    print(f"machine: nproc={prov['nproc']} python={prov['python']} numpy={prov['numpy']} "
          f"blas={prov['blas']['name']} {prov['blas']['version']} "
          f"threads={prov['blas']['threads']}")
    print(f"source: commit {prov['git_commit']} tree sha256 {prov['source_sha256'][:16]}; "
          f"inputs sha256 {prov['inputs_sha256'][:16]}")
    print(f"operations: {ops} attempted, {len(problems)} failed, closed loop, one client")
    for i, bad in sorted(problems.items()):
        for line in bad:
            print(f"  FAILED op {i}: {line}")
    for line in setup_problems:
        print(f"  FAILED set-up: {line}")
    notes = {r.index: r.outputs["notes"] for r in results if "notes" in r.outputs}
    for i, lines in sorted(notes.items()):
        for line in lines:
            print(f"  note op {i}: {line}")
    print(timing_line("setup_s", "s", setup_times))
    print(f"wall_s: mean {statistics.fmean(latencies):.6g} s per operation")
    print(timing_line("  operation latency", "s", latencies))
    print(timing_line("  cpu time per operation", "s", cpu))
    for name in sorted({k for r in results for k in r.stages}):
        print(timing_line(f"  stage {name}", "s", [r.stages[name] for r in results]))
    if results:
        for name, (unit, values) in wl.stages(results).items():
            if values:
                print(f"{name}: median {statistics.median(values):.6g} {unit}, n={len(values)}")
    print(f"peak_rss_mb: {peak_rss_mb:.1f} MB")

    detail = {"provenance": prov, "setup_s": setup_times, "latencies_s": latencies,
              "cpu_s": cpu,
              "stages_s": [r.stages for r in results], "problems": problems,
              "notes": notes,
              "setup_problems": setup_problems}
    if args.trace:
        metrics = tracing.layer_metrics(tracer, ops)
        metrics.update(wl.costs(results[0]) if results else
                       {"cost.acs_ratio": 0.0, "cost.normalized_c": 0.0})
        table = _sublayer_table(wl, results[-1], tracer) if results else []
        _print_layers(tracer, ops, table)
        detail.update({"module_self_s": tracer.module_self(),
                       "stage_trees": {s: [[list(p)] + v for p, v in t.items()]
                                       for s, t in tracer.stage_trees().items()},
                       "sublayer_table": table, "spans": tracer.to_dict(),
                       "wall_s": statistics.fmean(latencies)})
        wanted = spec["per_layer"]
    else:
        metrics = {"wall_s": statistics.fmean(latencies),
                   "setup_s": statistics.median(setup_times),
                   "peak_rss_mb": peak_rss_mb}
        wanted = spec["end_to_end"]
    mismatch = {m["name"] for m in wanted} ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
    line = {"correct": not problems and not setup_problems, "attempted": ops,
            "failed": len(problems),
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in wanted}}
    detail["result"] = line
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(line))
    return 0


# -- every workload ------------------------------------------------------------

def run_all(args, spec) -> int:
    """Each workload untraced then traced, same seed; overhead and report."""
    report = {}
    for w in spec["workloads"]:
        name = w["name"]
        report[name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            tag = f"{name}-s{args.seed}-t{trace}" + ("-tiny" if args.tiny else "")
            path = os.path.join(RESULTS, f"{tag}.json")
            if os.path.exists(path):
                os.remove(path)
            if subprocess.run(cmd).returncode != 0 or not os.path.exists(path):
                print(f"error: {name} (trace {trace}) produced no result", file=sys.stderr)
                return 1
            with open(path, encoding="utf-8") as fh:
                report[name][trace] = json.load(fh)
    print("\n== perfbench summary ==")
    for name, runs in report.items():
        plain, traced = runs[0], runs[1]
        print(f"{name}: correct={plain['result']['correct'] and traced['result']['correct']}")
        for metric, v in plain["result"]["metrics"].items():
            print(f"  {metric:<14}{v['value']:14.6g} {v['unit']}")
        overhead = traced["wall_s"] - plain["result"]["metrics"]["wall_s"]["value"]
        print(f"  tracing overhead (traced - untraced wall_s): {overhead:+.4f} s")
        runs["tracing_overhead_s"] = overhead
    with open(os.path.join(env.WORK, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"wrote {os.path.join(env.WORK, 'report.json')}")
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the self-check")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())

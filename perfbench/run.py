"""hsplab benchmark: one workload, one seed, a closed loop of solver instances.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.  One
client runs one instance at a time in this process, single-threaded, and the
next instance starts only when the previous one has finished.  The seed's
instance pool runs in whole passes, so every instance runs equally often:
at least three, and as many as take S seconds at the workload's nominal pass
time.  An instance's time is
the best of its runs: on a shared host the CPU's speed can swing by a quarter
within seconds with other tenants' load, and the fastest run is the one that
measures the program rather than its neighbours.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the L0 microbatch, then one pass in which every instance
runs once with every layer function wrapped and once without, and reports
the per-layer metrics.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
spans included, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_CHILDREN = 2  # extra set-ups in fresh processes, per untraced run
MIN_PASSES = 3
WORKLOAD_NAMES = ("commutator-es", "elem2-affine", "abelian-statevector", "cli-suite")


class BenchError(Exception):
    """The benchmark cannot run here."""


def _load_library():
    if sys.flags.optimize:
        raise BenchError("refusing to run under python -O: the solvers' budget asserts would vanish")
    if "HSPLAB_MAX_ENUM" in os.environ:
        raise BenchError("HSPLAB_MAX_ENUM is set; the benchmark measures the library defaults")
    src = ROOT / "src"
    if not (src / "hsplab" / "__init__.py").is_file():
        raise BenchError(f"no hsplab sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import hsplab

    if Path(hsplab.__file__).resolve().parent != (src / "hsplab").resolve():
        raise BenchError(f"imported hsplab from {hsplab.__file__}, not from {src}")


def _metric_specs() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    spec = json.loads(path.read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def environment() -> dict:
    import numpy
    import scipy
    import sympy
    from hsplab.core import enum_bound
    from hsplab.sim import SolverConfig

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "optimize_flag": sys.flags.optimize,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "defaults": {
            "epsilon": SolverConfig().epsilon,
            "enum_bound": enum_bound(),
            "HSPLAB_MAX_ENUM": os.environ.get("HSPLAB_MAX_ENUM"),
        },
    }


def prepare(name: str, seed: int):
    """Groups, instance pool and one warm-up instance per group."""
    from workloads import WORKLOADS, Prepared

    OUT.mkdir(exist_ok=True)
    prepared = Prepared(WORKLOADS[name], seed, OUT)
    seen = set()
    for inst in prepared.instances:
        if inst.group not in seen:
            seen.add(inst.group)
            prepared.run(inst, time.perf_counter)
    return prepared


def _process_age() -> float:
    """Seconds since this process started, to the kernel clock tick."""
    with open("/proc/self/stat") as fh:
        ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf("SC_CLK_TCK")


def _child_setup_seconds(name: str, seed: int) -> float:
    """Process start to the first timed instance, in a fresh process."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up process failed:\n{proc.stderr}")
    ready = float(proc.stdout.strip().splitlines()[-1])
    return ready - started


def _pass(prepared, instances) -> list:
    """One closed-loop pass; returns (instance index, Outcome) pairs."""
    return [(i, prepared.run(inst, time.perf_counter)) for i, inst in enumerate(instances)]


def _loop(prepared, instances, seconds: float) -> list:
    """Whole passes: at least MIN_PASSES, and as many as take `seconds` at
    the workload's nominal pass time."""
    passes = max(MIN_PASSES, round(seconds / prepared.workload.pass_seconds))
    results = []
    for _ in range(passes):
        results += _pass(prepared, instances)
    return results


def _p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def _accounting(results) -> dict:
    failures = [o.error for _, o in results if not o.ok]
    return {
        "attempted": len(results),
        "failed": len(failures),
        "wrong": sum(o.wrong for _, o in results),
        "errors": sorted(set(failures))[:10],
    }


def end_to_end(results, setup_samples) -> dict:
    """`samples` counts instances, each timed as the best of its runs;
    `runs` counts every run."""
    best, first_pass = {}, {}
    for i, o in results:
        best[i] = min(best.get(i, o.seconds), o.seconds)
        first_pass.setdefault(i, o)
    times = list(best.values())
    n, runs = len(times), len(results)
    acc = _accounting(results)
    return {
        "instances_per_s": {"value": n / sum(times), "unit": "1/s", "samples": n, "runs": runs},
        "instance_p50_ms": {
            "value": 1000 * statistics.median(times), "unit": "ms", "samples": n, "runs": runs
        },
        "instance_p90_ms": {"value": 1000 * _p90(times), "unit": "ms", "samples": n, "runs": runs},
        "fail_frac": {"value": acc["failed"] / runs, "unit": "ratio", "samples": runs},
        "ok_frac": {"value": 1 - acc["failed"] / runs, "unit": "ratio", "samples": runs},
        "f_queries_per_instance": {
            "value": statistics.mean(o.f_queries for o in first_pass.values()),
            "unit": "count",
            "samples": len(first_pass),
        },
        "setup_s": {
            "value": statistics.median(setup_samples),
            "unit": "s",
            "samples": len(setup_samples),
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
            "samples": 1,
        },
    }


def _instance_table(prepared, instances, results) -> list:
    """Per pool instance: group, |H|, best and all run times, f-queries."""
    rows = [
        {"group": prepared.groups[inst.group].label, "h_order": inst.h_order, "runs_ms": []}
        for inst in instances
    ]
    for i, o in results:
        rows[i]["runs_ms"].append(1000 * o.seconds)
        rows[i]["f_queries"] = o.f_queries
    for row in rows:
        row["best_ms"] = min(row["runs_ms"])
    return rows


def per_layer(tracer, loop_calls, traced, untraced, micro, suite) -> dict:
    """Per-layer metrics; `loop_calls` are the call counts of the traced
    instance runs alone, while the function totals include set-up."""
    n = len(traced)
    out = {name: {"value": value, "unit": "us"} for name, value in micro.items()}
    for name, row in tracer.functions().items():
        out[f"{name}.calls"] = {"value": row["calls"], "unit": "count"}
        out[f"{name}.errors"] = {"value": row["errors"], "unit": "count"}
        if row["self_ms"] is not None:
            out[f"{name}.self_ms"] = {"value": row["self_ms"], "unit": "ms"}
    for layer, ms in tracer.layer_self_ms().items():
        out[f"{layer}.self_ms"] = {"value": ms, "unit": "ms"}
        out[f"{layer}.errors"] = {
            "value": sum(v for k, v in tracer.errors.items() if k.startswith(layer + ".")),
            "unit": "count",
        }
    samples = loop_calls.get("sim.sample_character", 0)
    hsps = loop_calls.get("sim.abelian_hsp", 0)
    shrinks = loop_calls.get("linalg.solve_character_kernel", 0)
    budgets = [o.f_queries / o.f_query_budget for _, o in traced if o.f_query_budget]
    ops = loop_calls.get("core.multiply", 0) + loop_calls.get("core.invert", 0)
    derived = {
        "core.group_ops_per_instance": (ops / n, "count"),
        "core.harness_queries_per_instance": (loop_calls.get("core.oracle_peek", 0) / n, "count"),
        "sim.rounds_per_hsp": (samples / hsps if hsps else 0.0, "count"),
        "sim.useful_round_frac": (shrinks / samples if samples else 0.0, "ratio"),
        "sim.harness_peeks": (loop_calls.get("sim.harness_peek", 0) / n, "count"),
        "solvers.budget_use_max": (max(budgets, default=0.0), "ratio"),
        "trace_overhead_frac": (
            1 - sum(o.seconds for _, o in untraced) / sum(o.seconds for _, o in traced),
            "ratio",
        ),
    }
    for name, (value, unit) in derived.items():
        out[name] = {"value": value, "unit": unit}
    for name, (value, unit) in suite.items():
        out[name] = {"value": value, "unit": unit}
    return out


def _time_suite(prepared, count: int, seed: int) -> dict:
    """cli.run_suite on the pool with one thread and with one per CPU,
    alternating, best of two each."""
    from hsplab.cli import run_suite

    path = prepared.suite_file(count)
    jobs_n = os.cpu_count() or 1
    out = {}
    for label, jobs in (("jobs1", 1), ("jobsN", jobs_n)) * 2:
        start = time.perf_counter()
        worst, _ = run_suite(path, seed, jobs=jobs)
        seconds = time.perf_counter() - start
        best = out.get(f"cli.run_suite_s.{label}", (seconds,))[0]
        out[f"cli.run_suite_s.{label}"] = (min(best, seconds), "s")
        worst = max(worst, out.get(f"cli.run_suite_worst_exit.{label}", (0,))[0])
        out[f"cli.run_suite_worst_exit.{label}"] = (worst, "code")
    out["cli.suite_thread_speedup"] = (
        out["cli.run_suite_s.jobs1"][0] / out["cli.run_suite_s.jobsN"][0],
        f"jobs1/jobs{jobs_n}",
    )
    return out


def run_workload(name, seed, seconds, trace, max_instances=None, setup_children=SETUP_CHILDREN):
    """Run one workload; returns the full record (see the module docstring)."""
    import workloads  # noqa: F401  binds its unwrapped check functions first
    from tracer import Tracer

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    record["environment"] = environment()
    micro = {}
    tracer = None
    if trace:
        from microbatch import run_microbatch

        micro = run_microbatch()
        tracer = Tracer()
        tracer.install()
    try:
        prepared = prepare(name, seed)
        try:
            instances = prepared.instances[:max_instances]
            record["inputs"] = prepared.input_properties()
            if not trace:
                samples = [_process_age()]
                results = _loop(prepared, instances, seconds)
                samples += [_child_setup_seconds(name, seed) for _ in range(setup_children)]
                record["setup_samples_s"] = samples
                record["metrics"] = end_to_end(results, samples)
                record["instances"] = _instance_table(prepared, instances, results)
            else:
                # each instance runs traced and then untraced, back to back,
                # so the overhead compares runs made at the same machine speed
                tracer.remove()
                before = dict(tracer.calls)
                results, untraced = [], []
                for i, inst in enumerate(instances):
                    tracer.instance = i
                    with tracer:
                        results.append((i, prepared.run(inst, time.perf_counter)))
                    untraced.append((i, prepared.run(inst, time.perf_counter)))
                tracer.instance = None
                loop_calls = {k: v - before.get(k, 0) for k, v in tracer.calls.items()}
                suite = {}
                if name == "cli-suite":
                    suite = _time_suite(prepared, len(instances), seed)
                record["metrics"] = per_layer(tracer, loop_calls, results, untraced, micro, suite)
                record["functions"] = tracer.functions()
                record["spans"] = {
                    "fields": ["name", "start_s", "end_s", "parent", "instance"],
                    "rows": tracer.spans,
                }
        finally:
            prepared.close()
    finally:
        if tracer is not None:
            tracer.remove()
    acc = _accounting(results)
    record["accounting"] = acc
    record["correct"] = acc["wrong"] == 0 and all(
        v["value"] in (0, 1) for k, v in record["metrics"].items() if k.startswith("cli.run_suite_worst_exit")
    )
    return record


def _result_line(record, specs) -> dict:
    wanted = specs["per_layer"] if record["trace"] else specs["end_to_end"]
    metrics = {}
    for spec in wanted:
        got = record["metrics"].get(spec["name"])
        if got is None:
            raise BenchError(f"metric {spec['name']} was not measured")
        metrics[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    acc = record["accounting"]
    return {
        "correct": record["correct"],
        "attempted": acc["attempted"],
        "failed": acc["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        _load_library()
        if args.setup_only:
            prepare(args.workload, args.seed).close()
            print(time.monotonic())
            return 0
        specs = _metric_specs()
        record = run_workload(args.workload, args.seed, args.seconds, args.trace)
        line = _result_line(record, specs)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    print(f"{args.workload} seed={args.seed} trace={args.trace} inputs={json.dumps(record['inputs'])}")
    for key, value in sorted(record["metrics"].items()):
        samples = f" (n={value['samples']})" if "samples" in value else ""
        if "runs" in value:
            samples = f" (n={value['samples']} instances, best of {value['runs']} runs)"
        print(f"  {key:48s} {value['value']:.6g} {value['unit']}{samples}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

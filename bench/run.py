"""Benchmark of the ``shallowbs`` command line, driven in-process.

    python3 bench/run.py --workload montecarlo --seed 0 --seconds 34 --trace 0
    python3 bench/run.py --workload all --seconds 34

One run executes tasks of one workload (see ``workloads.py``) through
``shallowbs.cli.main`` at ``--threads 1``, in whole cycles of the workload's
task kinds, until ``--seconds`` have passed (and, untraced, at least
``MIN_TASKS`` tasks ran), and checks every output.

``--trace 0`` reports the end-to-end metrics: throughput, median and tail
task latency, set-up time (median over fresh interpreters, each importing the
package and running one warm-up task), and peak resident memory.
``--trace 1`` runs every task twice, plain and traced, alternating which goes
first; it reports per-layer call counts and self times per task from the
traced runs, and the tracing overhead from the pairs.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A fuller record, with library versions and per-task latencies, is written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Optional

import workloads
from workloads import OUT, ROOT, SRC, WORKLOADS, CheckError

SETUP_SPAWNS = 5
TAIL_LADDER = (50, 90, 99, 99.9)
# An untraced run goes on past --seconds until this many tasks are done, so
# that the tail is at least p90 even when the host is slow.
MIN_TASKS = 100

END_TO_END = (
    ("throughput", "tasks/s"),
    ("task_p50_s", "s"),
    ("task_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit, better); self times and counts are per traced task.
PER_LAYER = (
    ("arch.realize.calls", "calls/task", "lower"),
    ("arch.realize.self_s", "s/task", "lower"),
    ("arch.lightcone.calls", "calls/task", "lower"),
    ("arch.lightcone.self_s", "s/task", "lower"),
    ("linalg.generator.calls", "calls/task", "lower"),
    ("linalg.generator.self_s", "s/task", "lower"),
    ("linalg.haar_unitary.self_s", "s/task", "lower"),
    ("linalg.ginibre.self_s", "s/task", "lower"),
    ("matfn.permanent.small.calls", "calls/task", "lower"),
    ("matfn.permanent.small.self_s", "s/task", "lower"),
    ("matfn.permanent.large.calls", "calls/task", "lower"),
    ("matfn.permanent.large.self_s", "s/task", "lower"),
    ("matfn.permanent.ops", "ops/task", "lower"),
    ("matfn.hafnian.calls", "calls/task", "lower"),
    ("matfn.hafnian.self_s", "s/task", "lower"),
    ("fock.count_permitted.calls", "calls/task", "lower"),
    ("fock.count_permitted.self_s", "s/task", "lower"),
    ("fock.outcomes_total", "outcomes/task", "lower"),
    ("fock.outcomes_permitted", "outcomes/task", "higher"),
    ("fock.permitted_share", "ratio", "higher"),
    ("gaussian.count_permitted.calls", "calls/task", "lower"),
    ("gaussian.count_permitted.self_s", "s/task", "lower"),
    ("gaussian.outcomes_total", "outcomes/task", "lower"),
    ("gaussian.outcomes_permitted", "outcomes/task", "higher"),
    ("gaussian.permitted_share", "ratio", "higher"),
    ("gaussian.page_curve.self_s", "s/task", "lower"),
    ("gaussian.symplectic.self_s", "s/task", "lower"),
    ("stats.drivers.self_s", "s/task", "lower"),
    ("stats.bootstrap_std.self_s", "s/task", "lower"),
    ("stats.density_function.self_s", "s/task", "lower"),
    ("cli.run.calls", "calls/task", "lower"),
    ("cli.run.self_s", "s/task", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def run_task(cli, argv: list[str], out: Path) -> tuple[float, Optional[bytes], Optional[str]]:
    """Run one CLI task; returns (latency, output bytes, error or None)."""
    out.unlink(missing_ok=True)
    t0 = perf_counter()
    try:
        rc = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a task that raises counts as failed
        return perf_counter() - t0, None, f"raised {exc!r}"
    latency = perf_counter() - t0
    if rc != 0:
        return latency, None, f"exit code {rc}"
    return latency, out.read_bytes(), None


def run_pair(cli, argv: list[str], out: Path, tracer, index: int) -> dict:
    """Run a task plain and traced, alternating the order; outputs must be identical."""
    runs = {}
    for traced in (False, True) if index % 2 == 0 else (True, False):
        if traced:
            with tracer.installed(index), tracer.span("task"):
                runs[traced] = run_task(cli, argv, out)
        else:
            runs[traced] = run_task(cli, argv, out)
    (plain, data, error), (traced_latency, traced_data, traced_error) = runs[False], runs[True]
    error = error or traced_error
    if error is None and data != traced_data:
        error = "traced output differs from the plain output"
    return {"latency": plain, "traced_latency": traced_latency, "data": data, "error": error}


def run_tasks(cli, workload: str, seed: int, seconds: float, tracer=None) -> list[dict]:
    """Run whole cycles of the workload's tasks until ``seconds`` have passed and,
    untraced, at least ``MIN_TASKS`` tasks are done."""
    out = OUT / "task.out"
    cycle = len(WORKLOADS[workload])
    min_tasks = MIN_TASKS if tracer is None else 0
    tasks = []
    start = perf_counter()
    index = 0
    while index % cycle or index < min_tasks or perf_counter() - start < seconds:
        argv = workloads.task_argv(workload, seed, index, out)
        if tracer is None:
            latency, data, error = run_task(cli, argv, out)
            rec = {"latency": latency, "data": data, "error": error}
        else:
            rec = run_pair(cli, argv, out, tracer, index)
        rec.update(index=index, kind=workloads.task_kind(workload, index).label)
        data = rec.pop("data")
        if rec["error"] is None:
            try:
                rec["summary"], rec["digest"] = workloads.check_output(argv, data)
            except CheckError as exc:
                rec["error"] = str(exc)
        tasks.append(rec)
        index += 1
    return tasks


def apply_reference(workload: str, seed: int, tasks: list[dict]) -> int:
    """Fail tasks that disagree with the reference; returns how many were compared."""
    reference = workloads.load_reference(workload, seed)
    done = [(t["index"], t["summary"], t["digest"]) for t in tasks if t["error"] is None]
    for index, reason in workloads.reference_failures(workload, done, reference).items():
        tasks[index]["error"] = f"reference: {reason}"
    return sum(1 for t in tasks if t["index"] < len(reference))


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from launching a fresh interpreter until its warm-up task is done."""
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__).with_name("probe.py")),
                               workload, str(seed)], stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed ({line.strip()!r}, exit {proc.returncode})")
        times.append(ready - t0)
    return times


def tail_percentile(latencies: list[float]) -> tuple[float, float, int]:
    """Highest ladder percentile with at least ten tasks beyond it: (p, value, beyond)."""
    xs = sorted(latencies)
    n = len(xs)
    best = (100.0, xs[-1], 0)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            best = (p, xs[rank - 1], n - rank)
    return best


def end_to_end(tasks: list[dict], setup: list[float]) -> tuple[dict, str]:
    latencies = [t["latency"] for t in tasks]
    passed = sum(1 for t in tasks if t["error"] is None)
    p, tail, beyond = tail_percentile(latencies)
    values = {
        "throughput": passed / sum(latencies),
        "task_p50_s": statistics.median(latencies),
        "task_tail_s": tail,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    note = f"p{p:g} of {len(latencies)} tasks, {beyond} beyond it"
    return values, note


def per_layer(tracer, tasks: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics per traced task, and each span name's share of traced self time."""
    n = len(tasks)
    own = tracer.self_times()
    counters = tracer.counters
    values = {}
    for name, _, _ in PER_LAYER:
        layer, _, what = name.rpartition(".")
        if what == "calls":
            values[name] = own.get(layer, (0, 0.0))[0] / n
        elif what == "self_s":
            values[name] = own.get(layer, (0, 0.0))[1] / n
        elif what == "permitted_share":
            total = counters.get(f"{layer}.outcomes_total", 0.0)
            values[name] = counters.get(f"{layer}.outcomes_permitted", 0.0) / total if total else 0.0
        elif name == "trace.overhead":
            values[name] = (sum(t["traced_latency"] for t in tasks)
                            / sum(t["latency"] for t in tasks) - 1.0)
        else:
            values[name] = counters.get(name, 0.0) / n
    total_self = sum(s for _, s in own.values())
    shares = {name: s / total_self for name, (_, s) in sorted(own.items(), key=lambda kv: -kv[1][1])}
    return values, shares


def environment() -> dict:
    """Code identity, machine and library versions recorded with every result."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30).stdout.split()
        git_sha = top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "shallowbs").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), cpu)
    env = {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
    }
    for lib in ("numpy", "scipy", "networkx"):
        try:
            env[lib] = importlib.metadata.version(lib)
        except importlib.metadata.PackageNotFoundError:
            env[lib] = None
    return env


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process and print each one's report."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"bench: workload {workload} exited with {proc.returncode}")
        *report, last = proc.stdout.strip().splitlines()
        print("\n".join(report))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    shallowbs = workloads.import_shallowbs()
    OUT.mkdir(exist_ok=True)
    env = environment()
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    cli = shallowbs.cli
    run_task(cli, workloads.task_argv(args.workload, args.seed, -1, OUT / "task.out"), OUT / "task.out")

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    t0 = perf_counter()
    tasks = run_tasks(cli, args.workload, args.seed, args.seconds, tracer)
    wall = perf_counter() - t0
    compared = apply_reference(args.workload, args.seed, tasks)
    failed = [t for t in tasks if t["error"] is not None]

    print(f"workload {args.workload}, seed {args.seed}: {len(tasks)} tasks in {wall:.1f} s, "
          f"{compared} compared with the reference")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "tasks": tasks}
    if args.trace:
        values, shares = per_layer(tracer, tasks)
        units = {name: unit for name, unit, _ in PER_LAYER}
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
        print("self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items() if v >= 0.005))
        record["self_time_shares"] = shares
    else:
        values, note = end_to_end(tasks, setup)
        units = dict(END_TO_END)
        values_note = {"task_tail_s": note, "setup_s": f"median of {len(setup)} fresh interpreters"}
        record.update(tail=note, setup_runs=setup)
        for name, value in values.items():
            print(f"  {name:<12} {value:12.6g} {units[name]:<8} {values_note.get(name, '')}")
    print(f"  error_rate   {len(failed) / len(tasks):12.6g} ratio    "
          f"({len(failed)} failed of {len(tasks)} attempted)")
    for t in failed[:5]:
        print(f"  failed task {t['index']} ({t['kind']}): {t['error']}")
    print("env " + json.dumps(env, sort_keys=True))

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record["metrics"] = metrics
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": not failed, "attempted": len(tasks), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

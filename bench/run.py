"""The charcoords benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is run from src/ with
PYTHONPATH=src, one worker process at a time, never installed.  Workloads
and metrics are described in bench/README.md.  Prints a table of every
metric by name and unit, an environment record, and as its last line one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from harness import failed_share, query_failures, query_stream, sweep_failures, tail
from probes import probe_names
from worker import CACHED, COVERED, monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# workload -> expected case count of each verify suite at default ranges
SWEEPS = {
    "exact_sweep": {
        "power_closed_form": 1836,
        "cotnum_closed_form": 1836,
        "coeff_bridge": 110,
        "primitive_closed_form": 415,
        "reconstruction": 171,
        "series_oracle": 97,
    },
    "float_large_L": {"float_crosscheck": 3092},
}
WORKLOADS = (*SWEEPS, "coord_queries")
QUERY_PAIRS = 600     # 1,200 requests per worker process
SETUP_SPAWNS = 4      # setup-only processes before each worker and after the last
WORKER_TIMEOUT_S = 170
TRACE_BUDGET_S = 150  # keeps a traced run under three minutes

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cases_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
# spans every workload enters, so their times are never structurally zero
TIMED_SPANS = (
    "cli.main",
    "characters.enumerate_characters",
    "cotangent.icot_power",
    "coordinates.coord_definitional",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric by name, with its unit."""
    spans = ["cli.main"] + ["%s.%s" % (m, f) for m, names in COVERED.items() for f in names]
    units = {"%s.calls" % s: "count" for s in spans}
    for s in TIMED_SPANS:
        units["%s.busy_s" % s] = "s"
        units["%s.self_s" % s] = "s"
    for module, name in CACHED:
        units["%s.%s.hit_ratio" % (module, name)] = "ratio"
        units["%s.%s.entries" % (module, name)] = "count"
    units.update((name, "ms") for name in probe_names())
    return units


class WorkerFailed(RuntimeError):
    pass


def spawn(job: dict) -> dict:
    """Run one worker process to completion: its result plus the parent's
    spawn and exit times.  A crashed worker gives result None."""
    env = dict(os.environ)
    env.pop("CHARCOORDS_CONFIG", None)  # verify must run at its default ranges
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t_spawn = monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            input=json.dumps(job), stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"t_spawn": t_spawn, "t_exit": monotonic(), "result": None}
    t_exit = monotonic()
    result = None
    if proc.returncode == 0 and proc.stdout.strip():
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"t_spawn": t_spawn, "t_exit": t_exit, "result": result}


def setup_sample() -> float:
    run = spawn({"mode": "setup"})
    if run["result"] is None:
        raise WorkerFailed("the worker could not import charcoords.cli from %s" % SRC)
    return run["result"]["t_setup"] - run["t_spawn"]


def run_rep(workload: str, seed: int, rep: int, trace: bool) -> dict:
    """One worker process running the workload once."""
    if workload in SWEEPS:
        expected = SWEEPS[workload]
        argv = ["verify", *expected, "--format", "json"]
        run = spawn({"mode": "sweep", "argv": argv, "trace": trace})
        res = run["result"]
        attempted = sum(expected.values())
        if res is None:
            failed, latencies = attempted, []
        else:
            failed = sweep_failures(res["report"], res["rc"], expected)
            latencies = [run["t_exit"] - run["t_spawn"]]
    else:
        requests = query_stream(seed, rep, QUERY_PAIRS)
        run = spawn({"mode": "queries", "requests": requests, "trace": trace})
        res = run["result"]
        attempted = len(requests)
        if res is None:
            failed, latencies = attempted, []
        else:
            failed, latencies = query_failures(res["records"]), res["latencies_s"]
    rep_out = {
        "wall": run["t_exit"] - run["t_spawn"],
        "attempted": attempted,
        "failed": failed,
        "latencies": latencies,
        "result": res,
    }
    if res is not None:
        rep_out.update(
            setup=res["t_setup"] - run["t_spawn"],
            work=res["t_done"] - res["t_setup"],
            rss_mb=res["peak_rss_kb"] / 1024,
        )
    return rep_out


def end_to_end(reps: list[dict], setups: list[float]) -> dict[str, float]:
    ok = [r for r in reps if r["result"] is not None]
    if not ok:
        raise WorkerFailed("no worker process of this run completed")
    latencies = [x for r in ok for x in r["latencies"]]
    return {
        "wall_s": sum(r["wall"] for r in ok) / len(ok),
        "setup_s": statistics.median(setups + [r["setup"] for r in ok]),
        "cases_per_s": sum(r["attempted"] - r["failed"] for r in ok) / sum(r["work"] for r in ok),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p99_ms": tail(latencies, 99)["value"] * 1000,
        "peak_rss_mb": statistics.median([r["rss_mb"] for r in ok]),
    }


def worker_record(rep: dict) -> dict:
    """One worker's own figures, for the env record."""
    out = {"wall_s": rep["wall"], "attempted": rep["attempted"], "failed": rep["failed"]}
    if rep["result"] is not None:
        out.update(setup_s=rep["setup"], work_s=rep["work"], peak_rss_mb=rep["rss_mb"])
    return out


def per_layer(traced: dict, probes: dict) -> dict[str, float]:
    spans = traced["result"]["spans"]
    out = {}
    for name in per_layer_units():
        base, stat = name.rsplit(".", 1)
        if stat in ("calls", "busy_s", "self_s"):
            out[name] = spans.get(base, {}).get(stat, 0)
        elif stat in ("hit_ratio", "entries"):
            info = traced["result"]["caches"][base]
            lookups = info["hits"] + info["misses"]
            out[name] = info["entries"] if stat == "entries" else (info["hits"] / lookups if lookups else 0.0)
        else:
            out[name] = probes[name]
    return out


def environment(workload: str, seed: int) -> dict:
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or None,
        "git_sha": None,
        "git_dirty": None,
        "workload": workload,
        "seed": seed,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                   cwd=ROOT, capture_output=True, text=True, timeout=30)
            if sha.returncode == 0:
                env["git_sha"] = sha.stdout.strip()
                env["git_dirty"] = bool(dirty.stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return env


def print_spans(result: dict) -> None:
    """Every span of the traced worker, including those the fixed per-layer
    list leaves out, then the verify report's own suite timings."""
    print("spans of the traced worker (calls, busy s, self s):")
    spans = sorted(result["spans"].items(), key=lambda kv: -kv[1]["busy_s"])
    for name, s in spans:
        print("  %-46s %8d %12.6f %12.6f" % (name, s["calls"], s["busy_s"], s["self_s"]))
    for suite in (result.get("report") or {}).get("suites", ()):
        print("  verify.%s.seconds %.3f (%d cases)" % (suite["name"], suite["seconds"], suite["cases"]))


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print("  %-46s %16.6f %s" % (name, value, units[name]))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, list]:
    """The run's metrics, environment record and worker processes."""
    env = environment(workload, seed)
    t_start = monotonic()
    if not trace:
        # setup-only spawns are spread over the run, between its workers,
        # so that setup_s samples the same conditions as the workers
        setups, reps = [], []
        while True:
            setups += [setup_sample() for _ in range(SETUP_SPAWNS)]
            reps.append(run_rep(workload, seed, len(reps), trace=False))
            elapsed = monotonic() - t_start
            if elapsed + elapsed / len(reps) > seconds:  # the next round would end late
                break
        setups += [setup_sample() for _ in range(SETUP_SPAWNS)]
        metrics = end_to_end(reps, setups)
        env["workers"] = [worker_record(r) for r in reps]
        env["wall_s_untraced"] = metrics["wall_s"]
        env["wall_s_traced"] = None
        return metrics, env, reps
    setup_sample()  # fails early, like the untraced run, when the package is missing
    traced = run_rep(workload, seed, 0, trace=True)
    probes = spawn({"mode": "probes"})["result"]
    if traced["result"] is None or probes is None:
        raise WorkerFailed("the traced worker or the probe worker did not complete")
    reps = [traced]
    env["wall_s_traced"] = traced["wall"]
    env["wall_s_untraced"] = None
    # the untraced twin, for the tracing overhead, only if it can end in time
    if monotonic() - t_start + traced["wall"] < TRACE_BUDGET_S:
        reps.append(run_rep(workload, seed, 0, trace=False))
        env["wall_s_untraced"] = reps[-1]["wall"]
    print_spans(traced["result"])
    return per_layer(traced, probes["probes"]), env, reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "charcoords" / "cli.py").is_file():
        print("error: no charcoords sources under %s" % SRC, file=sys.stderr)
        return 2
    try:
        metrics, env, reps = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    units = per_layer_units() if args.trace else END_TO_END
    print_table("%s seed %d trace %d: %d worker process(es)" % (
        args.workload, args.seed, args.trace, len(reps)), metrics, units)
    latencies = [x for r in reps for x in r["latencies"]]
    p99 = tail(latencies, 99)
    print("  %-46s %16.6f share (%d failed of %d attempted)" % (
        "failed_share", failed_share(failed, attempted), failed, attempted))
    print("  latency samples %d, %d beyond p99" % (p99["samples"], p99["beyond"]))
    print("env " + json.dumps(env, sort_keys=True))
    metric_out = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metric_out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

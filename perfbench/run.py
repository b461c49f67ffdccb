"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_decode --seed 1 --seconds 8 --trace 0

``--trace 0`` splits ``--seconds`` over ``workloads.PARTS`` fresh processes
(``measure.py``), each of which imports the program, sets the workload up and
measures it untraced; it pools their samples and prints the end-to-end
metrics, every timing scaled to the reference speed of ``hostspeed.py`` and
also printed unscaled.  ``--trace 1`` runs a fixed number of operations
twice on fresh stacks in this process, first untraced and then with every
layer's public functions wrapped (see ``tracing.py``), and prints the
per-layer metrics.  Human-readable lines start with ``#``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every run also writes its full record (host,
seed, sample counts, failures) under ``.perfbench_out/results/``.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"
#: Seconds one part of an untraced run may take before it is killed.
PART_TIMEOUT_S = 85
#: End-to-end metrics registered in BENCHMARK.json, with their units.
END_TO_END = {
    "setup_s": "s",
    "compile_mean_s": "s",
    "reload_p50_us": "us",
    "latency_p50_us": "us",
    "throughput_rps": "1/s",
    "kernel_sim_us": "us",
    "peak_rss_mb": "MB",
}
#: Printed but not registered; NOTE.md gives their run-to-run spread.
INFORMATIONAL = {"reload_p99_us": "us", "latency_p99_us": "us"}


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def host_record(seed: int, workload: str, trace: int, host_cpus: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "host_cpus": host_cpus,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_digest": source_digest(SRC),
    }


def git_commit() -> str:
    """HEAD of the repository this benchmark sits in, if it is a checkout."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def source_digest(*roots: Path) -> str:
    """Digest of the Python sources under ``roots``, for checkouts without
    git metadata."""
    digest = hashlib.sha256()
    for path in sorted(p for root in roots for p in root.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def pooled(parts: list) -> tuple:
    """End-to-end metrics pooled over the parts of an untraced run.

    Returns the metrics, with every timing scaled to reference speed, the
    same timings unscaled, and each metric's sample count.
    """
    from percentiles import geomean, nearest_rank

    def pool(key):
        return [value for part in parts for value in part[key]]

    def total(key):
        return sum(part[key] for part in parts)

    if parts[0]["compile_s"]:
        compiled = len(pool("compile_s"))
        compile_s, compile_ref_s = sum(pool("compile_s")), sum(pool("compile_ref_s"))
    else:
        # Serving workloads compile only while warming up.
        compiled = total("warm_chains")
        compile_s, compile_ref_s = total("warm_s"), total("warm_ref_s")
    reload_ref, latency_ref = pool("reload_ref_us"), pool("latency_ref_us")
    metrics = {
        "setup_s": statistics.median(part["setup_ref_s"] for part in parts),
        "compile_mean_s": compile_ref_s / compiled,
        "reload_p50_us": nearest_rank(reload_ref, 50),
        "reload_p99_us": nearest_rank(reload_ref, 99),
        "latency_p50_us": nearest_rank(latency_ref, 50),
        "latency_p99_us": nearest_rank(latency_ref, 99),
        "throughput_rps": total("completed") / total("loop_ref_s"),
        "kernel_sim_us": geomean(pool("sim_us")),
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
    }
    unscaled = {
        "setup_s": statistics.median(part["setup_s"] for part in parts),
        "compile_mean_s": compile_s / compiled,
        "reload_p50_us": nearest_rank(pool("reload_us"), 50),
        "latency_p50_us": nearest_rank(pool("latency_us"), 50),
        "throughput_rps": total("completed") / total("loop_s"),
    }
    samples = {
        "setup_s": len(parts),
        "compile_mean_s": compiled,
        "reload_p50_us": len(reload_ref),
        "reload_p99_us": len(reload_ref),
        "latency_p50_us": len(latency_ref),
        "latency_p99_us": len(latency_ref),
        "throughput_rps": total("completed"),
        "kernel_sim_us": len(pool("sim_us")),
        "peak_rss_mb": len(parts),
    }
    return metrics, unscaled, samples


def run_untraced(workload: str, seed: int, seconds: float, parts: int, workdir: Path):
    """Measure ``parts`` parts of ``seconds / parts`` each, one fresh process
    apiece, and pool them.

    Each part leads a process group of its own, so a part that overruns
    ``PART_TIMEOUT_S`` is killed together with any fleet worker it started.
    """
    import hostspeed

    records = []
    for part in range(parts):
        command = [
            sys.executable, str(HERE / "measure.py"), workload, str(seed), str(part),
            repr(seconds / parts), str(workdir / f"part{part}"),
        ]
        proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=ROOT, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=PART_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            fail(f"part {part} of {workload} ran over {PART_TIMEOUT_S} s and was killed")
        if proc.returncode != 0:
            fail(f"part {part} of {workload} exited {proc.returncode}:\n{err}")
        records.append(json.loads(out.strip().splitlines()[-1]))
    metrics, unscaled, samples = pooled(records)
    extra = {
        "unscaled": unscaled,
        "host_speed": hostspeed.REFERENCE_US
        / statistics.median(record["reference_us"] for record in records),
        "mix_digest": hashlib.sha256(
            "".join(record["mix_digest"] for record in records).encode()
        ).hexdigest()[:16],
    }
    return metrics, samples, records, extra


def run_traced(wl, workdir, seconds):
    import tracing

    stack = wl.setup(workdir / "untraced")
    try:
        reference = wl.measure(stack, seconds, traced=True)
        wl.finish(stack, reference)
    finally:
        wl.teardown(stack)

    recorder = tracing.Recorder()
    restore = tracing.install(recorder)
    stack = None
    try:
        try:
            stack = wl.setup(workdir / "traced")
            start = time.perf_counter()
            outcome = wl.measure(stack, seconds, traced=True)
            end = time.perf_counter()
        finally:
            restore()
        wl.finish(stack, outcome)
    finally:
        if stack is not None:
            wl.teardown(stack)
    metrics = tracing.summarize(recorder, (start, end))
    metrics["trace_overhead_ratio"] = outcome.measure_s / reference.measure_s
    check_determinism(wl, {name: metrics[name] for name in tracing.EXACT_COUNTERS})
    samples = {"requests": len(outcome.latency_us), "reloads": len(outcome.reload_us)}
    records = [dataclasses.asdict(o) for o in (reference, outcome)]
    return metrics, samples, records, {"mix_digest": wl.mix_digest()}


def check_determinism(wl, counters) -> None:
    """Fail loudly when a traced run's exact counters differ from an earlier
    traced run of the same workload, seed, program and benchmark sources."""
    path = OUT / "counters" / f"{wl.name}-seed{wl.seed}-{source_digest(SRC, HERE)}.json"
    if path.exists():
        previous = json.loads(path.read_text())
        if previous != counters:
            fail(
                f"DETERMINISM FAILURE on {wl.name} seed {wl.seed}: exact counters "
                f"{counters} differ from the earlier run's {previous}",
                code=3,
            )
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counters, sort_keys=True))


def registered_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program to benchmark: {SRC / 'repro'} is missing")
    if not EXPECTED.is_file():
        fail(f"expected outputs {EXPECTED} are missing")
    host_cpus = len(os.sched_getaffinity(0))

    # One CPU for the benchmark and every thread and process it starts: the
    # client waits on each reply, so nothing runs in parallel anyway, and a
    # reply that must wake an idle virtual CPU instead of switching on a busy
    # one made fleet latency vary twofold between runs on the reference host.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.workload == "fleet_decode" and host_cpus - 1 < workloads.FLEET_WORKERS:
        fail(
            f"fleet_decode runs {workloads.FLEET_WORKERS} worker process(es) and "
            f"refuses more than host_cpus - 1 = {host_cpus - 1} on this host"
        )

    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.trace:
            import tracing

            units = tracing.metric_units()
            wl = workloads.WORKLOADS[args.workload](
                json.loads(EXPECTED.read_text()), args.seed
            )
            metrics, samples, records, extra = run_traced(wl, workdir, args.seconds)
        else:
            units = END_TO_END
            metrics, samples, records, extra = run_untraced(
                args.workload, args.seed, args.seconds, workloads.PARTS, workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    registered = registered_metrics(args.trace)
    shown = {**units, **INFORMATIONAL} if not args.trace else units
    if registered != units or set(shown) != set(metrics):
        fail(
            "printed metrics differ from BENCHMARK.json: "
            f"{sorted(set(registered.items()) ^ set(units.items()))}"
        )
    attempted = sum(record["attempted"] for record in records)
    failed = sum(record["failed"] for record in records)
    for record in records:
        for message in record["failures"]:
            print(f"perfbench: check failed: {message}", file=sys.stderr)

    host = host_record(args.seed, args.workload, args.trace, host_cpus)
    host["mix_digest"] = extra["mix_digest"]
    if "host_speed" in extra:
        host["host_speed"] = extra["host_speed"]
    print("# host " + json.dumps(host, sort_keys=True))
    for name, value in metrics.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        note = "  not registered" if name in INFORMATIONAL else ""
        print(f"# {name} = {value:.6g} {shown[name]}{count}{note}")
    for name, value in extra.get("unscaled", {}).items():
        print(f"# {name} unscaled = {value:.6g} {units[name]}  not registered")
    print(f"# error_rate = {failed / attempted:.6g} ratio  ({failed} of {attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(
        json.dumps(
            {
                "host": host,
                "samples": samples,
                "unscaled": extra.get("unscaled"),
                "result": result,
            },
            indent=1,
        )
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""Measure one part of an untraced run in a fresh process.

Usage (``run.py`` starts it, once per part; from the repository root)::

    python3 perfbench/measure.py <workload> <seed> <part> <seconds> <workdir>

Imports the program, sets the workload up in ``<workdir>``, measures it for
``<seconds>`` and checks every output.  Each timing is kept both raw and
scaled to reference speed (``hostspeed.py``).  Prints one JSON object with
the samples on standard output, for ``run.py`` to pool with the other parts.
Each part runs in a process of its own because on the reference host the
process itself moves latency: the p50 of the same request mix spread by
0.21 of its median across ten fresh processes, against 0.05 across eight
periods of one process.  Pooling parts averages that out.
"""

import dataclasses
import json
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def main() -> None:
    name, seed, part, seconds, workdir = sys.argv[1:6]
    workloads, import_s, import_scale = hostspeed.Gauge().timed(
        lambda: __import__("workloads")
    )
    expected = json.loads((HERE / "expected.json").read_text())
    wl = workloads.WORKLOADS[name](expected, int(seed), int(part))
    stack, build_s, build_scale = wl.gauge.timed(
        lambda: wl.setup(Path(workdir)), in_process=wl.in_process
    )
    try:
        outcome = wl.measure(stack, float(seconds), traced=False)
        wl.finish(stack, outcome)
    finally:
        wl.teardown(stack)
    record = dataclasses.asdict(outcome)
    record.update(
        setup_s=import_s + build_s,
        setup_ref_s=import_s * import_scale + build_s * build_scale,
        warm_s=stack.warm_s,
        warm_ref_s=stack.warm_ref_s,
        warm_chains=stack.warm_chains,
        reference_us=statistics.median(outcome.reference_us),
        peak_rss_mb=peak_rss_mb(with_children=name == "fleet_decode"),
        mix_digest=wl.mix_digest(),
    )
    print(json.dumps(record))


if __name__ == "__main__":
    main()

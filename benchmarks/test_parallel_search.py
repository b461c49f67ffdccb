"""Benchmark: sharded parallel search vs the serial engine on a chain sweep.

A cold compile is dominated by the fusion search, so a serving deployment's
warmup time is ``sum(search time)`` over its workload suite.  This benchmark
runs the same multi-GEMM chain sweep through the serial
:class:`~repro.search.engine.SearchEngine` and the sharded
:class:`~repro.search.parallel.ParallelSearchEngine` (default worker count —
inline on single-core hosts, a process pool elsewhere) and checks that both
select bit-identical plans.  The single-worker parallel engine ranks its
survivors with the serial engine's own code, so its throughput must match
the serial engine's within timing noise.
"""

from __future__ import annotations

import time

from repro.hardware.spec import h100_spec
from repro.ir.builders import build_standard_ffn
from repro.search.engine import SearchEngine
from repro.search.parallel import ParallelSearchEngine
from repro.search.space import SearchSpace
from repro.sim.engine import PerformanceSimulator

#: The sweep: eight 2-GEMM FFN chains spanning small to mid problem shapes.
SWEEP = (
    ("W1", 128, 256, 128, 128),
    ("W2", 128, 512, 128, 128),
    ("W3", 128, 256, 256, 128),
    ("W4", 128, 512, 256, 256),
    ("W5", 128, 768, 128, 256),
    ("W6", 64, 256, 128, 256),
    ("W7", 64, 512, 256, 128),
    ("W8", 128, 384, 128, 128),
)


def _chains():
    return [
        build_standard_ffn(name, m=m, n=n, k=k, l=l)[1]
        for name, m, n, k, l in SWEEP
    ]


def _sweep(engine, chains):
    start = time.perf_counter()
    results = [engine.search(chain) for chain in chains]
    return results, time.perf_counter() - start


def _assert_identical_selections(serial_results, parallel_results):
    # Identical selections, chain by chain: sharding may only change
    # wall-clock, never the plan.
    for serial, parallel in zip(serial_results, parallel_results):
        assert serial.succeeded and parallel.succeeded
        assert serial.best.candidate == parallel.best.candidate
        assert serial.best.predicted_cost_us == parallel.best.predicted_cost_us
        assert serial.candidates_enumerated == parallel.candidates_enumerated
        assert serial.candidates_analyzed == parallel.candidates_analyzed


def _engine(cls, device, simulator, **kwargs):
    return cls(
        device,
        top_k=5,
        profiler=simulator.profile,
        space=SearchSpace(device, max_tile=128),
        **kwargs,
    )


def test_parallel_cold_compile_throughput_at_least_serial(benchmark):
    device = h100_spec()
    simulator = PerformanceSimulator(device)
    chains = _chains()
    assert len(chains) >= 8

    serial_results, serial_s = _sweep(_engine(SearchEngine, device, simulator), chains)

    # The gated comparison uses the engine's deterministic single-worker
    # mode (no pool), which runs the serial engine's factored prune and
    # batched ranking: the assertion holds on any host, including one-core
    # CI runners where fork overhead would add noise.
    with _engine(
        ParallelSearchEngine, device, simulator, parallelism=1
    ) as inline_engine:
        # Register with pytest-benchmark so the per-commit bench.json
        # artifact tracks cold-compile throughput over time.
        inline_results, inline_s = benchmark.pedantic(
            _sweep, args=(inline_engine, chains), rounds=1, iterations=1
        )
    _assert_identical_selections(serial_results, inline_results)

    # At one worker both engines run the same code, so only noise separates
    # them.  A second pair of fresh sweeps in the opposite order keeps the
    # running order from deciding the comparison: each side counts its
    # faster sweep.
    with _engine(ParallelSearchEngine, device, simulator, parallelism=1) as again:
        inline_s = min(inline_s, _sweep(again, chains)[1])
    serial_s = min(
        serial_s, _sweep(_engine(SearchEngine, device, simulator), chains)[1]
    )

    # The pooled default (cpu_count workers) is tracked for the artifact and
    # checked for plan identity, but its wall-clock is host-dependent (fork
    # cost vs cores) and does not gate CI.
    with _engine(ParallelSearchEngine, device, simulator) as pooled_engine:
        pooled_results, pooled_s = _sweep(pooled_engine, chains)
    _assert_identical_selections(serial_results, pooled_results)

    serial_throughput = len(chains) / serial_s
    parallel_throughput = len(chains) / inline_s
    benchmark.extra_info["serial_s"] = serial_s
    benchmark.extra_info["inline_parallel_s"] = inline_s
    benchmark.extra_info["pooled_parallel_s"] = pooled_s
    benchmark.extra_info["inline_speedup"] = serial_s / inline_s
    print(
        f"\ncold-compile sweep: serial {serial_throughput:.2f} chains/s, "
        f"parallel(inline) {parallel_throughput:.2f} chains/s, "
        f"parallel(pool) {len(chains) / pooled_s:.2f} chains/s "
        f"({serial_s:.2f}s -> {inline_s:.2f}s / {pooled_s:.2f}s)"
    )
    assert parallel_throughput >= 0.8 * serial_throughput

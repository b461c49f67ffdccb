"""The benchmark's four workloads: set-up, measured phases and output checks.

Every workload drives the program only through its public entry points
(``FlashFuser.compile_request``, ``PlanCache.load_kernel``,
``ModelServer.serve`` and ``ServingFleet.request``) with one closed-loop
client: the next operation is sent only after the previous one returned.
A workload object is built before any tracing starts.  ``setup`` builds a
fresh stack over a fresh on-disk plan cache and warms it; ``measure`` runs
the seeded operations and checks each output against ``expected.json``;
``finish`` runs checks that must stay outside the traced window; and
``teardown`` releases the stack and its directory.

The host this benchmark was tuned on changes speed from second to second
and from run to run.  So the measured operations of a workload run
interleaved with a reference work (see ``hostspeed.py``), each sampling the
whole window, and each sample averages over all the chains it touches
rather than landing on one of them.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import hostspeed
from repro import FlashFuser, FuserConfig, ModelServer, PlanCache, ServingFleet
from repro.api import CompileRequest
from repro.fleet import FleetConfig
from repro.graphs.extract import extract_chains
from repro.ir import workloads as zoo

#: The default compiler: serial engine, transfer off, top_k 11, max_tile 256.
COMPILE_CHAINS = ("G1", "G4", "S8", "C5")
#: The serving knobs and M bins the repo's serving bench uses.
SERVE_KNOBS = {"top_k": 5, "max_tile": 128}
SERVE_BINS = (64, 256)
DECODE_MS = (1, 2, 4, 8, 16, 32)
PREFILL_MAX_M = 512
#: Worker processes of fleet_decode; run.py refuses more than host_cpus - 1.
FLEET_WORKERS = 1
#: Graph-zoo entries served next to the model-zoo names.
ZOO_GRAPHS = ("moe_layer", "attention_ffn")

#: The nearest-rank p99 of this many samples leaves ten beyond it.
P99_SAMPLES = 1000
#: Fresh processes that each measure a share of an untraced run; run.py
#: pools their samples.
PARTS = 2
#: Samples each stream needs per part so the pooled p99 rests on P99_SAMPLES.
PART_SAMPLES = -(-P99_SAMPLES // PARTS)
#: Operation counts of the traced run, fixed so its counters repeat exactly.
TRACED_RELOAD_ROUNDS = 250
TRACED_REQUESTS = 3000
#: Share of the measured seconds each serving workload spends on reloads.
SERVING_RELOAD_SHARE = 0.25
#: Share of the untraced measured seconds spent on the reference work.
REFERENCE_SHARE = 0.1
#: Failure messages kept per run (the count is always complete).
MAX_FAILURE_MESSAGES = 5


def chain_label(chain) -> str:
    """Name-independent label of a chain shape (the plan-cache identity)."""
    fields = chain.canonical_dict()
    return "/".join(f"{name}={fields[name]}" for name in sorted(fields))


def kernel_record(kernel) -> Dict[str, object]:
    """The checked outputs of one compiled kernel."""
    summary = kernel.plan.summary()
    return {
        "schedule": summary["schedule"],
        "cluster": list(summary["cluster"]),
        "block_tile": dict(summary["block_tile"]),
        "time_us": kernel.time_us,
    }


def segment_sources(plan) -> List[List[str]]:
    """Per-segment (name, source) pairs of a served model plan."""
    return [[segment.name, segment.source] for segment in plan.segments]


def model_factory(name: str) -> Callable[[int], object]:
    """The graph factory of a model-zoo name or a graph-zoo entry.

    Both are looked up on the module at call time, so the traced run's
    wrappers of ``ModelConfig.layer_graph`` and ``get_zoo_graph`` see them.
    """
    if name in ZOO_GRAPHS:
        return lambda m: zoo.get_zoo_graph(name, m=m)
    config = zoo.get_model(name)
    return lambda m: config.layer_graph(seq_len=m)


def serving_config(directory) -> FuserConfig:
    return FuserConfig(cache=str(directory), **SERVE_KNOBS)


def bin_for(m: int) -> int:
    """The serving M bin a runtime M resolves to: the smallest covering bin,
    or the largest bin, whose kernel then runs in several waves."""
    return next((b for b in SERVE_BINS if b >= m), SERVE_BINS[-1])


def serving_targets(models, bins=SERVE_BINS) -> List[Tuple[str, str, object]]:
    """(label, cache key, chain) of every distinct chain a model set compiles."""
    keys = FlashFuser(FuserConfig(cache=PlanCache(), **SERVE_KNOBS))
    targets: Dict[str, Tuple[str, str, object]] = {}
    for name in models:
        for bin_m in bins:
            for match in extract_chains(model_factory(name)(bin_m), rewrite=True).matches:
                label = chain_label(match.chain)
                targets.setdefault(label, (label, keys.cache_key(match.chain), match.chain))
    return list(targets.values())


def values_match(actual, expected) -> bool:
    """Exact match, except floats, which may differ in the last digits."""
    if isinstance(expected, float):
        return isinstance(actual, (int, float)) and math.isclose(
            actual, expected, rel_tol=1e-12, abs_tol=0.0
        )
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and actual.keys() == expected.keys()
            and all(values_match(actual[k], expected[k]) for k in expected)
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, (list, tuple))
            and len(actual) == len(expected)
            and all(values_match(a, e) for a, e in zip(actual, expected))
        )
    return actual == expected


@dataclass
class Outcome:
    """What one measured phase observed.

    Times named ``*_ref*`` are scaled to reference speed (``hostspeed.py``);
    untraced runs only.  The others are raw wall times.
    """

    reload_us: List[float] = field(default_factory=list)
    latency_us: List[float] = field(default_factory=list)
    reload_ref_us: List[float] = field(default_factory=list)
    latency_ref_us: List[float] = field(default_factory=list)
    #: Requests completed by the request stream, and the seconds its timed
    #: calls took (output checks excluded).
    completed: int = 0
    loop_s: float = 0.0
    loop_ref_s: float = 0.0
    #: Simulated time of the kernel or model plan each request was served.
    sim_us: List[float] = field(default_factory=list)
    #: Wall seconds of each measured cold compile (compile_cold only).
    compile_s: List[float] = field(default_factory=list)
    compile_ref_s: List[float] = field(default_factory=list)
    #: Microseconds of each reference work run between the operations.
    reference_us: List[float] = field(default_factory=list)
    measure_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, message: Callable[[], str]) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_MESSAGES:
                self.failures.append(message())


@dataclass
class Stack:
    """One set-up instance of a workload."""

    directory: Path
    handle: object
    #: Warm-up wall seconds, also at reference speed, and the chains compiled
    #: in them (serving workloads).
    warm_s: float = 0.0
    warm_ref_s: float = 0.0
    warm_chains: int = 0
    #: (model, M) -> requests served, handed from ``measure`` to ``finish``.
    served: Dict[Tuple[str, int], int] = field(default_factory=dict)


@dataclass
class Stream:
    """One kind of measured operation."""

    send: Callable[[], object]
    #: Checks one result; runs after the call is timed.
    check: Callable[[object], None]
    #: Share of the measured seconds this stream gets.
    share: float
    #: ``send`` calls of the traced run.
    fixed: int
    #: Operations per ``send`` call; a sample is the per-operation mean.
    per_call: int = 1
    samples: List[float] = field(default_factory=list)
    #: Start time of each sample.
    stamps: List[float] = field(default_factory=list)
    busy_s: float = 0.0

    def timeline(self) -> List[Tuple[float, float]]:
        return list(zip(self.stamps, self.samples))


def run_streams(streams: Sequence[Stream], seconds: float, traced: bool) -> None:
    """Interleave the streams in one closed loop.

    Each step runs the stream furthest behind its share: of the busy time
    untraced, of its fixed call count traced.  Untraced, the loop stops once
    ``seconds`` have passed and every stream has ``PART_SAMPLES`` samples.
    """
    start = time.perf_counter()
    while True:
        if traced:
            pending = [s for s in streams if len(s.samples) < s.fixed]
            if not pending:
                return
            stream = min(pending, key=lambda s: len(s.samples) / s.fixed)
        else:
            short = [s for s in streams if len(s.samples) < PART_SAMPLES]
            if time.perf_counter() - start >= seconds:
                if not short:
                    return
                streams = short
            stream = min(streams, key=lambda s: s.busy_s / s.share)
        t0 = time.perf_counter()
        result = stream.send()
        t1 = time.perf_counter()
        stream.check(result)
        stream.samples.append((t1 - t0) * 1e6 / stream.per_call)
        stream.stamps.append(t0)
        stream.busy_s += t1 - t0


class Workload:
    """Common seeded plumbing; subclasses define the phases."""

    name = ""
    #: Whether set-up work runs in this process (see ``Gauge.timed``).
    in_process = True

    def __init__(self, expected: Dict[str, object], seed: int, part: int = 0) -> None:
        self.expected = expected
        self.seed = seed
        #: Times set-up and compiles at reference speed (``hostspeed.py``).
        self.gauge = hostspeed.Gauge()
        #: Which part of an untraced run this is; each part draws its own
        #: requests from the seed.
        self.part = part

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.name}:{stream}:{self.seed}:{self.part}")

    def requests(self) -> Iterator:
        """The seeded request stream."""
        raise NotImplementedError

    def mix_digest(self, count: int = 1000) -> str:
        """Digest of the first ``count`` requests this seed and part draw."""
        gen = self.requests()
        head = [next(gen) for _ in range(count)]
        return hashlib.sha256(repr(head).encode()).hexdigest()[:16]

    def reload_stream(self, outcome, directory, targets, expected_for, share) -> Stream:
        """Reload the stored chains as a restarted process would.

        Each call builds one fresh ``PlanCache`` over the directory and loads
        every target chain from disk in a seeded order.
        """
        rng = self.rng("reload")
        order = list(targets)

        def send():
            rng.shuffle(order)
            cache = PlanCache(str(directory))
            return [(label, cache.load_kernel(key, chain=chain)) for label, key, chain in order]

        def check(result):
            for label, kernel in result:
                ok = kernel is not None and values_match(
                    kernel_record(kernel), expected_for(label)
                )
                outcome.check(ok, lambda: f"reload {label[:40]}: wrong or missing kernel")

        return Stream(send, check, share, TRACED_RELOAD_ROUNDS, per_call=len(order))

    def measure_streams(self, outcome, reload, requests, seconds, traced) -> None:
        """Run the streams; untraced, interleave the reference work too and
        scale the samples to reference speed."""
        if traced:
            run_streams((reload, requests), seconds, traced)
        else:
            reference = Stream(
                hostspeed.reference_work, lambda _: None, REFERENCE_SHARE, fixed=0
            )
            reload.share *= 1 - REFERENCE_SHARE
            requests.share *= 1 - REFERENCE_SHARE
            run_streams((reload, requests, reference), seconds, traced)
            outcome.reference_us = reference.samples
            outcome.reload_ref_us = hostspeed.scale_samples(
                reload.timeline(), reference.timeline()
            )
            outcome.latency_ref_us = hostspeed.scale_samples(
                requests.timeline(), reference.timeline()
            )
            outcome.loop_ref_s = sum(outcome.latency_ref_us) * requests.per_call / 1e6
        outcome.reload_us = reload.samples
        outcome.latency_us = requests.samples
        outcome.completed = len(requests.samples) * requests.per_call
        outcome.loop_s = requests.busy_s

    def finish(self, stack: Stack, outcome: Outcome) -> None:
        """Checks that must run outside the traced window (default: none)."""

    def teardown(self, stack: Stack) -> None:
        stack.handle.close()
        shutil.rmtree(stack.directory, ignore_errors=True)


class CompileCold(Workload):
    name = "compile_cold"

    def requests(self):
        rng = self.rng("requests")
        while True:
            yield COMPILE_CHAINS[rng.randrange(len(COMPILE_CHAINS))]

    def setup(self, directory: Path) -> Stack:
        compiler = FlashFuser(FuserConfig(cache=PlanCache(str(directory))))
        return Stack(directory=directory, handle=compiler)

    def measure(self, stack: Stack, seconds: float, traced: bool) -> Outcome:
        outcome = Outcome()
        compiler = stack.handle
        expected = self.expected["compile_cold"]
        start = time.perf_counter()
        targets = []
        for workload in COMPILE_CHAINS:
            response, wall, scale = self.gauge.timed(
                lambda: compiler.compile_request(CompileRequest(workload=workload))
            )
            outcome.compile_s.append(wall)
            outcome.compile_ref_s.append(wall * scale)
            ok = not response.cache_hit and values_match(
                kernel_record(response.kernel), expected[workload]
            )
            outcome.check(ok, lambda: f"compile {workload}: plan differs")
            targets.append((workload, response.cache_key, response.kernel.plan.chain))

        gen = self.requests()

        def send():
            # Seeded random chains, so the request mix, and with it
            # kernel_sim_us, follows the seed.
            names = [next(gen) for _ in COMPILE_CHAINS]
            return [
                (name, compiler.compile_request(CompileRequest(workload=name)))
                for name in names
            ]

        def check(result):
            for workload, response in result:
                ok = response.cache_hit and values_match(
                    kernel_record(response.kernel), expected[workload]
                )
                outcome.check(ok, lambda: f"request {workload}: not a matching cache hit")
                outcome.sim_us.append(response.kernel.time_us)

        self.measure_streams(
            outcome,
            self.reload_stream(outcome, stack.directory, targets, expected.__getitem__, 0.5),
            Stream(send, check, 0.5, TRACED_REQUESTS // len(COMPILE_CHAINS),
                   per_call=len(COMPILE_CHAINS)),
            seconds, traced,
        )
        outcome.measure_s = time.perf_counter() - start
        return outcome


class Serving(Workload):
    """Shared body of the serving workloads."""

    models: Tuple[str, ...] = ()
    #: Every M the workload draws from.
    m_domain: Tuple[int, ...] = ()

    def __init__(self, expected, seed, part=0) -> None:
        super().__init__(expected, seed, part)
        #: Only the bins this workload's traffic reaches are warmed.
        self.warm_bins = tuple(sorted({bin_for(m) for m in self.m_domain}))
        self.targets = serving_targets(self.models, self.warm_bins)

    def requests(self):
        rng = self.rng("requests")
        while True:
            model = self.models[rng.randrange(len(self.models))]
            yield model, self.m_domain[rng.randrange(len(self.m_domain))]

    def warmed(self, stack: Stack, warm: Callable[[str, int], object]) -> Stack:
        """Warm every model's kernel table in each bin its traffic reaches,
        timing each warm-up request in wall seconds and at reference speed."""
        for name in self.models:
            for bin_m in self.warm_bins:
                _, wall, scale = self.gauge.timed(
                    lambda: warm(name, bin_m), in_process=self.in_process
                )
                stack.warm_s += wall
                stack.warm_ref_s += wall * scale
        stack.warm_chains = len(self.targets)
        return stack

    def expected_kernel(self, label: str):
        return self.expected["serving_kernels"][label]

    def expected_plan(self, model: str, m: int):
        return self.expected["plans"][model][str(m)]

    def serve(self, stack: Stack, model: str, m: int):
        raise NotImplementedError

    def check_response(self, outcome: Outcome, stack: Stack, model: str, m: int, response) -> None:
        raise NotImplementedError

    def measure(self, stack: Stack, seconds: float, traced: bool) -> Outcome:
        outcome = Outcome()
        start = time.perf_counter()
        gen = self.requests()

        def send():
            model, m = next(gen)
            return model, m, self.serve(stack, model, m)

        def check(result):
            self.check_response(outcome, stack, *result)

        self.measure_streams(
            outcome,
            self.reload_stream(
                outcome, stack.directory, self.targets, self.expected_kernel,
                SERVING_RELOAD_SHARE,
            ),
            Stream(send, check, 1 - SERVING_RELOAD_SHARE, TRACED_REQUESTS),
            seconds, traced,
        )
        outcome.measure_s = time.perf_counter() - start
        return outcome


class ServeInProcess(Serving):
    def setup(self, directory: Path) -> Stack:
        server = ModelServer(config=serving_config(directory), m_bins=SERVE_BINS)
        for name in self.models:
            server.register(name, model_factory(name))
        return self.warmed(Stack(directory=directory, handle=server), server.serve)

    def serve(self, stack, model, m):
        return stack.handle.serve(model, m)

    def check_response(self, outcome, stack, model, m, response):
        ok = values_match(
            response.plan.time_us, self.expected_plan(model, m)
        ) and segment_sources(response.plan) == self.expected["sources"][model]
        outcome.check(ok, lambda: f"serve {model} m={m}: plan or sources differ")
        outcome.sim_us.append(response.plan.time_us)


class ServeDecode(ServeInProcess):
    name = "serve_decode"
    models = ("BERT", "Qwen3-0.6B", "moe_layer")
    m_domain = DECODE_MS


class ServePrefill(ServeInProcess):
    name = "serve_prefill"
    models = ("BERT", "Qwen3-0.6B", "attention_ffn")
    m_domain = tuple(range(1, PREFILL_MAX_M + 1))


class FleetDecode(Serving):
    name = "fleet_decode"
    in_process = False
    models = ("BERT", "Qwen3-0.6B")
    m_domain = DECODE_MS

    def setup(self, directory: Path) -> Stack:
        config = FleetConfig(
            workers=FLEET_WORKERS,
            cache_dir=str(directory),
            m_bins=SERVE_BINS,
            **SERVE_KNOBS,
        )
        fleet = ServingFleet(config).start()

        def warm(name, bin_m):
            response = fleet.request(name, bin_m, kind="model")
            if not response.ok:
                fleet.close()
                raise RuntimeError(f"fleet warm-up of {name} failed: {response.error}")

        return self.warmed(Stack(directory=directory, handle=fleet), warm)

    def serve(self, stack, model, m):
        return stack.handle.request(model, m, kind="model")

    def check_response(self, outcome, stack, model, m, response):
        ok = response.ok and response.source == "table" and response.bin_m == bin_for(m)
        outcome.check(ok, lambda: f"fleet {model} m={m}: {response.status} {response.source}")
        stack.served[(model, m)] = stack.served.get((model, m), 0) + 1

    def teardown(self, stack: Stack) -> None:
        """Close the fleet, then stop the helper process ``multiprocessing``
        started for its queues, so the run leaves no process behind.  The
        closed fleet is collected first, so its queues release their
        semaphores before the helper would clean them up as leaked."""
        from multiprocessing import resource_tracker

        super().teardown(stack)
        stack.handle = None
        gc.collect()
        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()

    def finish(self, stack: Stack, outcome: Outcome) -> None:
        """Rebuild each served (model, M) plan from the fleet's shared cache.

        Fleet responses carry no plan, so the plan the worker served is
        reassembled here from the kernels the worker stored, checked, and
        counted once per request for plan quality.
        """
        verifier = ModelServer(config=serving_config(stack.directory), m_bins=SERVE_BINS)
        try:
            for name in self.models:
                verifier.register(name, model_factory(name))
            for (model, m), count in sorted(stack.served.items()):
                time_us = verifier.serve(model, m).plan.time_us
                outcome.check(
                    values_match(time_us, self.expected_plan(model, m)),
                    lambda: f"fleet plan {model} m={m}: time differs",
                )
                outcome.sim_us.extend([time_us] * count)
        finally:
            verifier.close()


WORKLOADS = {
    cls.name: cls for cls in (CompileCold, ServeDecode, ServePrefill, FleetDecode)
}

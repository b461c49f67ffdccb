"""Tests for the graph compiler subsystem (extraction, plans, serving)."""

from __future__ import annotations

import pytest

from repro.api import FlashFuser, FusionError
from repro.baselines.base import unfused_launches
from repro.graphs import (
    ChainMatch,
    ModelServer,
    compile_graph,
    extract_chains,
)
from repro.graphs.plan import (
    KIND_FUSED,
    KIND_UNFUSED,
    SOURCE_CACHE,
    SOURCE_SEARCH,
    SOURCE_SIMULATED,
    SOURCE_UNFUSABLE,
    assemble_plan,
    price_extraction,
)
from repro.ir.builders import (
    build_conv_chain,
    build_gated_ffn,
    build_standard_ffn,
    build_transformer_layer,
)
from repro.ir.graph import ChainKind, GemmChainSpec, OperatorGraph
from repro.ir.ops import Activation, ActivationKind, Elementwise, ElementwiseKind, Gemm
from repro.ir.tensor import TensorSpec
from repro.ir.workloads import get_model, get_workload, get_zoo_graph, list_workloads
from repro.runtime import PlanCache
from repro.sim.engine import KernelLaunch

TINY = dict(m=64, n=256, k=128, l=128)


def _tiny_graph(name="graphs-tiny", **dims):
    merged = {**TINY, **dims}
    return build_standard_ffn(name, **merged)


@pytest.fixture(scope="module")
def tiny_compiler(h100):
    with FlashFuser(device=h100, top_k=3, max_tile=128) as compiler:
        yield compiler


# --------------------------------------------------------------------- #
# OperatorGraph validation
# --------------------------------------------------------------------- #
class TestGraphValidation:
    def test_valid_graph_passes_and_chains(self):
        graph, _ = _tiny_graph()
        assert graph.validate() is graph

    def test_cycle_raises_fusion_error(self):
        # a consumes b's output and vice versa: a.out -> b -> b.out -> a.
        graph = OperatorGraph("cyclic")
        graph.add(
            Gemm("a", lhs=TensorSpec("b.out", (4, 4)), rhs=TensorSpec("wa", (4, 4)))
        )
        graph.add(
            Gemm("b", lhs=TensorSpec("a.out", (4, 4)), rhs=TensorSpec("wb", (4, 4)))
        )
        with pytest.raises(FusionError, match="cycle"):
            graph.validate()
        with pytest.raises(FusionError, match="cycle"):
            graph.topological_order()
        with pytest.raises(FusionError, match="cycle"):
            extract_chains(graph)

    def test_undeclared_input_raises_when_inputs_declared(self):
        x = TensorSpec("x", (8, 8))
        graph = OperatorGraph("typo", inputs=[x])
        graph.add(Gemm("g", lhs=x, rhs=TensorSpec("wieght", (8, 8))))
        with pytest.raises(FusionError, match="wieght"):
            graph.validate()

    def test_implicit_inputs_stay_legal_without_declaration(self):
        x = TensorSpec("x", (8, 8))
        graph = OperatorGraph("implicit")
        graph.add(Gemm("g", lhs=x, rhs=TensorSpec("anything", (8, 8))))
        graph.validate()

    def test_inconsistent_edge_raises_fusion_error(self):
        graph = OperatorGraph("badedge")
        gemm = graph.add(
            Gemm("g0", lhs=TensorSpec("x", (8, 16)), rhs=TensorSpec("w", (16, 32)))
        )
        # Consumer claims g0.out has half the elements it actually has.
        graph.add(
            Activation("act", ActivationKind.RELU, gemm.output.with_shape((8, 16)))
        )
        with pytest.raises(FusionError, match="inconsistent"):
            graph.validate()

    def test_pure_reshape_edges_are_legal(self):
        graph = OperatorGraph("reshape")
        gemm = graph.add(
            Gemm("g0", lhs=TensorSpec("x", (8, 16)), rhs=TensorSpec("w", (16, 32)))
        )
        graph.add(
            Activation("act", ActivationKind.RELU, gemm.output.with_shape((16, 16)))
        )
        graph.validate()


# --------------------------------------------------------------------- #
# Chain extraction
# --------------------------------------------------------------------- #
class TestExtraction:
    def test_standard_ffn_roundtrip(self):
        graph, spec = _tiny_graph()
        result = extract_chains(graph)
        assert result.num_chains == 1
        assert not result.residual
        match = result.matches[0]
        assert match.chain.same_shape(spec)
        assert match.chain.canonical_hash() == spec.canonical_hash()
        assert match.kind is ChainKind.STANDARD_FFN
        assert result.flops_coverage() == 1.0

    def test_gated_ffn_branch_matching(self):
        graph, spec = build_gated_ffn("graphs-gated", **TINY)
        result = extract_chains(graph)
        assert result.num_chains == 1
        match = result.matches[0]
        assert match.kind is ChainKind.GATED_FFN
        assert match.chain.same_shape(spec)
        # All five operators (two branches, act, mul, down) are claimed.
        assert len(match.operator_names) == 5
        assert not result.residual

    def test_gated_ffn_matches_with_swapped_branch_insertion(self):
        # Same gated block, but the un-activated branch is inserted first.
        m, n, k, l = TINY["m"], TINY["n"], TINY["k"], TINY["l"]
        a = TensorSpec("x", (m, k))
        graph = OperatorGraph("gated-swapped")
        up = graph.add(Gemm("up", lhs=a, rhs=TensorSpec("b1", (k, n))))
        gate = graph.add(Gemm("gate", lhs=a, rhs=TensorSpec("b0", (k, n))))
        act = graph.add(Activation("act", ActivationKind.SILU, gate.output))
        mul = graph.add(
            Elementwise("mul", ElementwiseKind.MUL, act.output, up.output)
        )
        graph.add(Gemm("down", lhs=mul.output, rhs=TensorSpec("d", (n, l))))
        result = extract_chains(graph)
        assert result.num_chains == 1
        chain = result.matches[0].chain
        assert chain.kind is ChainKind.GATED_FFN
        assert (chain.m, chain.n, chain.k, chain.l) == (m, n, k, l)

    def test_conv_chain_lowering(self):
        graph, spec = build_conv_chain(
            "graphs-conv",
            batch=1,
            in_channels=64,
            height=14,
            width=14,
            out_channels1=64,
            out_channels2=128,
            kernel1=3,
            kernel2=1,
        )
        result = extract_chains(graph)
        assert result.num_chains == 1
        match = result.matches[0]
        assert match.kind is ChainKind.CONV_CHAIN
        assert match.chain.canonical_hash() == spec.canonical_hash()

    def test_zero_fusible_chains(self):
        # GEMM -> GEMM with no activation between them is not a chain shape.
        graph = OperatorGraph("nochains")
        g0 = graph.add(
            Gemm("g0", lhs=TensorSpec("x", (8, 16)), rhs=TensorSpec("w0", (16, 32)))
        )
        graph.add(Gemm("g1", lhs=g0.output, rhs=TensorSpec("w1", (32, 8))))
        result = extract_chains(graph)
        assert result.num_chains == 0
        assert [op.name for op in result.residual] == ["g0", "g1"]
        assert result.flops_coverage() == 0.0

    def test_overlapping_candidates_deterministic_tiebreak(self):
        # G0 -> act1 -> G1 -> act2 -> G2: both triples are candidates and
        # share G1; the earlier region wins, the tail stays residual.
        m, k = 64, 128
        graph = OperatorGraph("overlap")
        g0 = graph.add(
            Gemm("g0", lhs=TensorSpec("x", (m, k)), rhs=TensorSpec("w0", (k, 256)))
        )
        act1 = graph.add(Activation("act1", ActivationKind.RELU, g0.output))
        g1 = graph.add(
            Gemm("g1", lhs=act1.output, rhs=TensorSpec("w1", (256, 128)))
        )
        act2 = graph.add(Activation("act2", ActivationKind.RELU, g1.output))
        graph.add(Gemm("g2", lhs=act2.output, rhs=TensorSpec("w2", (128, 256))))
        result = extract_chains(graph)
        assert result.num_chains == 1
        assert result.matches[0].operator_names == ("g0", "act1", "g1")
        assert [op.name for op in result.residual] == ["act2", "g2"]

    def test_shared_intermediate_blocks_fusion(self):
        # The intermediate feeds a second consumer outside the would-be
        # region, so it must be materialised and the chain is not fusible.
        graph, _ = _tiny_graph("shared")
        gemm0 = graph.operators[0]
        graph.add(
            Elementwise(
                "leak", ElementwiseKind.ADD, gemm0.output, gemm0.output
            )
        )
        result = extract_chains(graph)
        assert result.num_chains == 0

    def test_produced_weight_blocks_fusion(self):
        # A GEMM whose rhs is itself produced by the graph is not a
        # weight-resident chain.
        m, k, n = 32, 32, 32
        graph = OperatorGraph("produced-weight")
        wgen = graph.add(
            Gemm("wgen", lhs=TensorSpec("seed", (k, k)), rhs=TensorSpec("ws", (k, n)))
        )
        g0 = graph.add(Gemm("g0", lhs=TensorSpec("x", (m, k)), rhs=wgen.output))
        act = graph.add(Activation("act", ActivationKind.RELU, g0.output))
        graph.add(Gemm("g1", lhs=act.output, rhs=TensorSpec("d", (n, 16))))
        result = extract_chains(graph)
        assert result.num_chains == 0

    def test_workload_suite_extraction_identity(self):
        # Acceptance: every workload graph yields exactly its table chain.
        for workload_id in list_workloads():
            config = get_workload(workload_id)
            result = extract_chains(config.to_graph())
            assert result.num_chains == 1, workload_id
            assert (
                result.matches[0].chain.canonical_hash()
                == config.to_spec().canonical_hash()
            ), workload_id
            assert not result.residual, workload_id

    def test_model_zoo_ffn_graph_identity(self):
        from repro.experiments.fig17_e2e_sglang import WORKLOAD_MODELS

        for _, model_name in WORKLOAD_MODELS:
            model = get_model(model_name)
            result = extract_chains(model.ffn_graph(seq_len=128))
            assert result.num_chains == 1, model_name
            assert result.matches[0].chain.same_shape(
                model.ffn_chain(seq_len=128)
            ), model_name

    def test_transformer_layer_partition(self):
        graph = build_transformer_layer(
            "layer", m=64, hidden=128, intermediate=256,
            ffn_kind=ChainKind.GATED_FFN,
        )
        result = extract_chains(graph)
        assert result.num_chains == 1
        assert result.matches[0].kind is ChainKind.GATED_FFN
        assert [op.name for op in result.residual] == [
            "layer.attn_proj",
            "layer.residual1",
            "layer.residual2",
        ]
        assert 0.0 < result.flops_coverage() < 1.0


# --------------------------------------------------------------------- #
# compile_graph / ModelPlan
# --------------------------------------------------------------------- #
class TestCompileGraph:
    def test_pure_ffn_plan_matches_direct_compile(self, tiny_compiler):
        graph, spec = _tiny_graph("plan-direct")
        direct = tiny_compiler.compile(spec)
        plan = compile_graph(graph, compiler=tiny_compiler)
        assert plan.time_us == pytest.approx(direct.time_us)
        assert len(plan.segments) == 1
        segment = plan.segments[0]
        assert segment.kind == KIND_FUSED
        assert segment.kernel is not None
        # Identical plans; only the chain's provenance name differs (the
        # extractor names chains after the graph region they came from).
        extracted_summary = dict(segment.kernel.plan.summary())
        direct_summary = dict(direct.plan.summary())
        assert extracted_summary.pop("workload") == "plan-direct/plan-direct.gemm0"
        direct_summary.pop("workload")
        assert extracted_summary == direct_summary

    def test_layer_plan_orders_segments_topologically(self, tiny_compiler):
        graph = build_transformer_layer("plan-layer", m=64, hidden=128, intermediate=256)
        plan = compile_graph(graph, compiler=tiny_compiler)
        kinds = [segment.kind for segment in plan.segments]
        assert kinds == [KIND_UNFUSED, KIND_UNFUSED, KIND_FUSED, KIND_UNFUSED]
        names = [segment.name for segment in plan.segments]
        assert names[0] == "plan-layer.attn_proj"
        assert names[-1] == "plan-layer.residual2"
        assert plan.residual_time_us > 0
        assert plan.fused_time_us > 0
        assert plan.time_us == pytest.approx(
            plan.fused_time_us + plan.residual_time_us
        )
        assert plan.speedup_vs_unfused() > 1.0
        summary = plan.summary()
        assert summary["fused_chains"] == 1
        assert summary["residual_ops"] == 3
        rows = plan.rows()
        assert [row["segment"] for row in rows] == names

    def test_residual_sources_are_simulated(self, tiny_compiler):
        graph = build_transformer_layer("plan-src", m=64, hidden=128, intermediate=256)
        plan = compile_graph(graph, compiler=tiny_compiler)
        sources = {segment.name: segment.source for segment in plan.segments}
        assert sources["plan-src.attn_proj"] == SOURCE_SIMULATED
        fused = plan.fused_segments[0]
        assert fused.source in (SOURCE_SEARCH, SOURCE_CACHE)

    def test_plan_cache_hit_on_second_compile(self, h100, tmp_path):
        graph, spec = _tiny_graph("plan-cache")
        with FlashFuser(
            device=h100, top_k=3, max_tile=128, cache=PlanCache(directory=tmp_path)
        ) as compiler:
            cold = compile_graph(graph, compiler=compiler)
            warm = compile_graph(graph, compiler=compiler)
            assert cold.cache_hits == 0
            assert warm.cache_hits == 1
            assert warm.fused_segments[0].source == SOURCE_CACHE
            assert warm.time_us == pytest.approx(cold.time_us)
            # Bit-identical cache keys: the extracted chain keys exactly as
            # the hand-built spec does.
            extracted = extract_chains(graph).matches[0].chain
            assert compiler.cache_key(extracted) == compiler.cache_key(spec)

    def test_direct_compile_then_graph_compile_shares_cache(self, h100, tmp_path):
        graph, spec = _tiny_graph("plan-shared-cache")
        with FlashFuser(
            device=h100, top_k=3, max_tile=128, cache=PlanCache(directory=tmp_path)
        ) as compiler:
            compiler.compile(spec)
            plan = compile_graph(graph, compiler=compiler)
            assert plan.cache_hits == 1

    def test_unfusable_chain_degrades_to_unfused_segment(self, h100):
        # GPT-6.7B-sized FFN with DSM off has no feasible fused plan.
        graph, _ = _tiny_graph("plan-unfusable", m=128, n=16384, k=4096, l=4096)
        with FlashFuser(
            device=h100, include_dsm=False, top_k=3, max_tile=128
        ) as compiler:
            plan = compile_graph(graph, compiler=compiler)
        assert len(plan.fused_segments) == 0
        segment = plan.segments[0]
        assert segment.source == SOURCE_UNFUSABLE
        assert segment.kind == KIND_UNFUSED
        assert segment.time_us == pytest.approx(segment.unfused_time_us)
        assert plan.speedup_vs_unfused() == pytest.approx(1.0)

    def test_identical_chains_compile_once(self, tiny_compiler):
        # Two canonically identical FFN branches off the same input: one
        # fusion search, one kernel object shared by both fused segments.
        m, k, n, l = 64, 128, 256, 128
        x = TensorSpec("x", (m, k))
        graph = OperatorGraph("dedup")
        for branch in ("a", "b"):
            g0 = graph.add(
                Gemm(f"g0{branch}", lhs=x, rhs=TensorSpec(f"w0{branch}", (k, n)))
            )
            act = graph.add(
                Activation(f"act{branch}", ActivationKind.RELU, g0.output)
            )
            graph.add(
                Gemm(
                    f"g1{branch}",
                    lhs=act.output,
                    rhs=TensorSpec(f"w1{branch}", (n, l)),
                )
            )
        plan = compile_graph(graph, compiler=tiny_compiler)
        assert len(plan.fused_segments) == 2
        first, second = plan.fused_segments
        assert first.chain.canonical_hash() == second.chain.canonical_hash()
        assert first.kernel is second.kernel

    def test_owned_compiler_is_closed(self, h100, monkeypatch):
        closed = {"count": 0}
        original = FlashFuser.close

        def counting(self):
            closed["count"] += 1
            original(self)

        monkeypatch.setattr(FlashFuser, "close", counting)
        graph, _ = _tiny_graph("plan-owned")
        plan = compile_graph(graph, device=h100, top_k=3, max_tile=128)
        assert plan.time_us > 0
        assert closed["count"] == 1

    def test_compiler_and_overrides_are_exclusive(self, tiny_compiler):
        graph, _ = _tiny_graph("plan-exclusive")
        with pytest.raises(ValueError):
            compile_graph(graph, compiler=tiny_compiler, top_k=5)

    def test_malformed_graph_fails_before_compiling(self, tiny_compiler):
        graph = OperatorGraph("bad")
        graph.add(
            Gemm("a", lhs=TensorSpec("b.out", (4, 4)), rhs=TensorSpec("wa", (4, 4)))
        )
        graph.add(
            Gemm("b", lhs=TensorSpec("a.out", (4, 4)), rhs=TensorSpec("wb", (4, 4)))
        )
        with pytest.raises(FusionError, match="cycle"):
            compile_graph(graph, compiler=tiny_compiler)


# --------------------------------------------------------------------- #
# ModelServer
# --------------------------------------------------------------------- #
class TestModelServer:
    @pytest.fixture()
    def model_server(self, h100, tmp_path):
        with ModelServer(
            device=h100,
            top_k=3,
            max_tile=128,
            cache=PlanCache(directory=tmp_path),
            m_bins=(64, 128),
        ) as server:
            yield server

    def test_serve_registered_factory(self, model_server):
        model_server.register(
            "tiny",
            lambda m: build_transformer_layer(
                "tiny.layer", m=m, hidden=128, intermediate=256
            ),
        )
        first = model_server.serve("tiny", m=64)
        assert first.source == "compiled"
        assert first.time_us > 0
        assert first.speedup_vs_unfused > 1.0
        second = model_server.serve("tiny", m=64)
        assert second.source == "table"
        assert second.time_us == pytest.approx(first.time_us)
        # A kernel-table hit is not a plan-cache hit: provenance keeps the
        # two tiers distinct.
        assert second.plan.fused_segments[0].source == "table"
        assert second.plan.cache_hits == 0
        assert model_server.stats.hit_rate() == pytest.approx(0.5)
        snapshot = model_server.snapshot()
        assert snapshot["models"]["by_workload"]["tiny"] == 2
        assert snapshot["kernels"]["serving"]["requests"] == 2

    def test_serve_bins_runtime_m(self, model_server):
        model_server.register(
            "binned",
            lambda m: build_transformer_layer(
                "binned.layer", m=m, hidden=128, intermediate=256
            ),
        )
        model_server.serve("binned", m=128)
        # m=100 quantises to the 128 bin: the fused chain is a table hit
        # even though this exact graph was never compiled.
        response = model_server.serve("binned", m=100)
        assert response.source == "table"
        assert response.m == 100

    def test_m_above_largest_bin_charges_waves(self, model_server):
        model_server.register(
            "waves",
            lambda m: build_transformer_layer(
                "waves.layer", m=m, hidden=128, intermediate=256
            ),
        )
        # m=512 with bins (64, 128): the 128-bin kernel runs 4 waves, and
        # the plan must charge all of them against the m=512 baseline.
        response = model_server.serve("waves", m=512)
        fused = response.plan.fused_segments[0]
        assert fused.time_us == pytest.approx(fused.kernel.time_us * 4)
        within_bin = model_server.serve("waves", m=128)
        within_fused = within_bin.plan.fused_segments[0]
        assert within_fused.time_us == pytest.approx(within_fused.kernel.time_us)

    def test_extraction_memo_is_bounded(self, model_server):
        from repro.graphs.server import _EXTRACTION_MEMO_CAPACITY

        model_server.register(
            "dyn",
            lambda m: build_transformer_layer(
                "dyn.layer", m=m, hidden=128, intermediate=256
            ),
        )
        model_server.serve("dyn", m=64)
        for m in range(65, 65 + _EXTRACTION_MEMO_CAPACITY + 8):
            model_server.serve("dyn", m=m)
        assert len(model_server._extractions) <= _EXTRACTION_MEMO_CAPACITY

    def test_static_graph_registration(self, model_server):
        graph, _ = _tiny_graph("static")
        model_server.register("static", graph)
        response = model_server.serve("static")
        assert response.m == TINY["m"]
        with pytest.raises(ValueError, match="factory"):
            model_server.serve("static", m=32)

    def test_register_validates_graphs(self, model_server):
        graph = OperatorGraph("badmodel")
        graph.add(
            Gemm("a", lhs=TensorSpec("b.out", (4, 4)), rhs=TensorSpec("wa", (4, 4)))
        )
        graph.add(
            Gemm("b", lhs=TensorSpec("a.out", (4, 4)), rhs=TensorSpec("wb", (4, 4)))
        )
        with pytest.raises(FusionError, match="cycle"):
            model_server.register("badmodel", graph)

    def test_concurrent_serves_are_safe(self, model_server):
        from concurrent.futures import ThreadPoolExecutor

        model_server.register(
            "conc",
            lambda m: build_transformer_layer(
                "conc.layer", m=m, hidden=128, intermediate=256
            ),
        )
        with ThreadPoolExecutor(max_workers=4) as pool:
            responses = list(
                pool.map(lambda m: model_server.serve("conc", m=m), [64, 64, 100, 128] * 2)
            )
        assert all(response.time_us > 0 for response in responses)
        assert model_server.stats.requests == 8

    def test_unknown_model_raises(self, model_server):
        with pytest.raises(KeyError):
            model_server.serve("nope", m=64)

    def test_zoo_name_registration(self, model_server):
        model_server.register("bert", "BERT")
        response = model_server.serve("bert", m=64)
        assert response.plan.summary()["fused_chains"] == 1


# --------------------------------------------------------------------- #
# Warm serve path: memoized pricing, inline table hits
# --------------------------------------------------------------------- #
#: Models of the serving benchmark, by zoo name: two single-chain layers
#: and two rewrite-dependent zoo graphs (``moe_layer`` has two chains).
SERVE_PATH_MODELS = {
    "BERT": lambda m: get_model("BERT").layer_graph(seq_len=m),
    "Qwen3-0.6B": lambda m: get_model("Qwen3-0.6B").layer_graph(seq_len=m),
    "moe_layer": lambda m: get_zoo_graph("moe_layer", m=m),
    "attention_ffn": lambda m: get_zoo_graph("attention_ffn", m=m),
}
#: Runtime Ms across both bins; 300 and 512 exceed the largest bin, so the
#: plan charges the 256 kernel in several waves.
SERVE_PATH_MS = (1, 32, 64, 200, 300, 512)


@pytest.fixture(scope="module")
def warm_model_server(h100, tmp_path_factory):
    """A ModelServer over the serving-benchmark models, every bin compiled."""
    with ModelServer(
        device=h100,
        top_k=1,
        max_tile=64,
        cache=PlanCache(directory=tmp_path_factory.mktemp("serve-path")),
        m_bins=(64, 256),
    ) as server:
        for name, factory in SERVE_PATH_MODELS.items():
            server.register(name, factory)
            for m in (64, 256):
                server.serve(name, m=m)
        yield server


def _segment_view(plan):
    return [
        (s.name, s.kind, s.source, s.time_us, s.unfused_time_us, s.anchor)
        for s in plan.segments
    ]


class TestWarmServePath:
    @pytest.mark.parametrize("name", sorted(SERVE_PATH_MODELS))
    def test_memoized_pricing_matches_fresh_assembly(self, warm_model_server, name):
        simulator = warm_model_server.simulator
        for m in SERVE_PATH_MS:
            first = warm_model_server.serve(name, m=m)
            again = warm_model_server.serve(name, m=m)  # memo hit
            extraction = extract_chains(SERVE_PATH_MODELS[name](m), rewrite=True)
            kernels = {s.name: s for s in first.plan.fused_segments}

            def resolve(match):
                segment = kernels[match.chain.name]
                return (
                    segment.kernel,
                    segment.source,
                    segment.cache_hit,
                    segment.time_us,
                )

            fresh = assemble_plan(
                first.plan.graph_name,
                extraction,
                resolve,
                price_extraction(extraction, simulator),
            )
            assert _segment_view(first.plan) == _segment_view(fresh)
            assert _segment_view(again.plan) == _segment_view(fresh)
            assert again.plan.time_us == fresh.time_us
            # Every charge equals a direct simulation of the same kernels.
            for segment in fresh.segments:
                if segment.fused:
                    launches = unfused_launches(segment.chain)
                    assert segment.unfused_time_us == (
                        simulator.simulate_kernels(launches).time_us
                    )
                    bin_m = 64 if m <= 64 else 256
                    waves = -(-m // bin_m)
                    assert segment.time_us == segment.kernel.time_us * waves
                else:
                    (op,) = [
                        o for o in extraction.residual if o.name == segment.name
                    ]
                    launch = KernelLaunch(op.name, op.flops(), op.io_bytes())
                    assert segment.time_us == (
                        simulator.simulate_kernels([launch]).time_us
                    )
            # Plans never share a mutable segment.
            assert all(
                a is not b for a, b in zip(first.plan.segments, again.plan.segments)
            )

    def test_warm_multi_chain_serve_starts_no_thread(
        self, warm_model_server, monkeypatch
    ):
        import repro.graphs.server as server_module

        def refuse(*args, **kwargs):
            raise AssertionError("a warm serve started a thread pool")

        monkeypatch.setattr(server_module, "ThreadPoolExecutor", refuse)
        kernel_requests = warm_model_server.server.stats.requests
        response = warm_model_server.serve("moe_layer", m=16)
        assert len(response.sources) == 2
        assert set(response.sources.values()) == {"table"}
        # Every chain still goes through KernelServer.request once.
        assert warm_model_server.server.stats.requests == kernel_requests + 2

    def test_cold_multi_chain_serve_fans_out_one_search_per_bin(
        self, h100, tmp_path, monkeypatch
    ):
        import repro.graphs.server as server_module

        pools = []
        real_pool = server_module.ThreadPoolExecutor

        def recording_pool(*args, **kwargs):
            pool = real_pool(*args, **kwargs)
            pools.append(pool)
            return pool

        monkeypatch.setattr(server_module, "ThreadPoolExecutor", recording_pool)
        with ModelServer(
            device=h100,
            top_k=1,
            max_tile=64,
            cache=PlanCache(directory=tmp_path),
            m_bins=(64,),
        ) as server:
            compiles = []
            compile_request = server.server.compiler.compile_request

            def counting(request):
                compiles.append(request.chain.m)
                return compile_request(request)

            monkeypatch.setattr(server.server.compiler, "compile_request", counting)
            server.register("moe", SERVE_PATH_MODELS["moe_layer"])
            cold = server.serve("moe", m=64)
            assert len(pools) == 1
            # Both experts share one (shape, bin): the in-flight dedup runs
            # one search and the sibling chain reads the table it filled.
            assert compiles == [64]
            assert sorted(cold.sources.values()) == ["compiled", "table"]
            warm = server.serve("moe", m=48)
            assert len(pools) == 1 and compiles == [64]
            assert set(warm.sources.values()) == {"table"}

    def test_concurrent_cold_serves_search_once_per_bin(self, h100, tmp_path):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        with ModelServer(
            device=h100,
            top_k=1,
            max_tile=64,
            cache=PlanCache(directory=tmp_path),
            m_bins=(64, 256),
        ) as server:
            server.register("moe", SERVE_PATH_MODELS["moe_layer"])
            ms = [8, 64, 100, 256, 300, 8, 64, 100, 256, 300, 16, 48]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                with ThreadPoolExecutor(max_workers=6) as pool:
                    futures = [pool.submit(server.serve, "moe", m=m) for m in ms]
                    responses = [future.result(timeout=120) for future in futures]
            finally:
                sys.setswitchinterval(interval)
            kernel_stats = server.server.stats
            # Two experts x 12 serves, and one search per (shape, bin).
            assert kernel_stats.requests == 2 * len(ms)
            assert kernel_stats.misses == 2
            for m, response in zip(ms, responses):
                again = server.serve("moe", m=m)
                assert again.plan.time_us == response.plan.time_us
                assert [s.name for s in again.plan.segments] == [
                    s.name for s in response.plan.segments
                ]

    def test_register_drops_pricing_with_extraction(self, warm_model_server):
        warm_model_server.register("swap", SERVE_PATH_MODELS["BERT"])
        bert = warm_model_server.serve("swap", m=32)
        assert ("swap", 32) in warm_model_server._extractions
        warm_model_server.register("swap", SERVE_PATH_MODELS["Qwen3-0.6B"])
        assert not any(key[0] == "swap" for key in warm_model_server._extractions)
        qwen = warm_model_server.serve("swap", m=32)
        reference = warm_model_server.serve("Qwen3-0.6B", m=32)
        assert _segment_view(qwen.plan) == _segment_view(reference.plan)
        assert qwen.plan.time_us != bert.plan.time_us


# --------------------------------------------------------------------- #
# End-to-end reroute (fig16/fig17 path)
# --------------------------------------------------------------------- #
class TestEndToEndReroute:
    def test_inference_model_routes_ffn_through_graph_compiler(self):
        from repro.models.inference import E2EConfig, InferenceLatencyModel

        latency = InferenceLatencyModel()
        result = latency.evaluate(E2EConfig(model_name="BERT", seq_len=64))
        assert result.ffn_plan is not None
        assert result.fused_chains == 1
        assert result.ffn_plan.extraction.graph_name == "BERT.ffn"
        assert result.e2e_speedup > 1.0
        # The memo reuses the plan object for a repeated evaluation point.
        again = latency.evaluate(E2EConfig(model_name="BERT", seq_len=64))
        assert again.ffn_plan is result.ffn_plan

    def test_timing_model_ffn_plan(self):
        from repro.models.transformer import TransformerTimingModel

        with TransformerTimingModel(get_model("BERT")) as timing:
            plan = timing.ffn_plan(seq_len=64)
            assert len(plan.fused_segments) == 1
            assert plan.time_us > 0
            breakdown = timing.layer_breakdown(seq_len=64, ffn_time_us=plan.time_us)
            assert breakdown.ffn_us == pytest.approx(plan.time_us)

    def test_latency_model_closes_owned_compiler(self, monkeypatch):
        from repro.models.inference import InferenceLatencyModel

        closed = {"count": 0}
        original = FlashFuser.close

        def counting(self):
            closed["count"] += 1
            original(self)

        monkeypatch.setattr(FlashFuser, "close", counting)
        with InferenceLatencyModel():
            pass
        assert closed["count"] == 1
        # A caller-provided compiler is left open.
        with FlashFuser(top_k=3, max_tile=128) as external:
            with InferenceLatencyModel(compiler=external):
                pass
        before_exit = closed["count"]
        assert before_exit == 2  # only the explicit context-manager close


# --------------------------------------------------------------------- #
# ChainMatch surface
# --------------------------------------------------------------------- #
class TestChainMatchSurface:
    def test_match_is_frozen_and_typed(self):
        graph, _ = _tiny_graph("surface")
        match = extract_chains(graph).matches[0]
        assert isinstance(match, ChainMatch)
        assert isinstance(match.chain, GemmChainSpec)
        with pytest.raises(AttributeError):
            match.anchor = 7

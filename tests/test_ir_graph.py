"""Tests for operator graphs and the canonical GEMM-chain spec."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import FusionError
from repro.ir.builders import build_conv_chain, build_gated_ffn, build_standard_ffn
from repro.ir.graph import ChainKind, GemmChainSpec, OperatorGraph
from repro.ir.ops import Activation, ActivationKind, Elementwise, ElementwiseKind, Gemm
from repro.ir.tensor import TensorSpec


class TestGemmChainSpec:
    def setup_method(self):
        self.chain = GemmChainSpec("x", m=128, n=512, k=256, l=256)

    def test_dimension_sizes(self):
        assert self.chain.dimension_sizes() == {"m": 128, "n": 512, "k": 256, "l": 256}

    def test_tensor_sizes(self):
        assert self.chain.a_bytes == 128 * 256 * 2
        assert self.chain.b_bytes == 256 * 512 * 2
        assert self.chain.c_bytes == 128 * 512 * 2
        assert self.chain.d_bytes == 512 * 256 * 2
        assert self.chain.e_bytes == 128 * 256 * 2

    def test_flops(self):
        assert self.chain.gemm0_flops() == 2 * 128 * 512 * 256
        assert self.chain.gemm1_flops() == 2 * 128 * 256 * 512
        assert self.chain.total_flops() == self.chain.gemm0_flops() + self.chain.gemm1_flops()

    def test_unfused_traffic_exceeds_minimum(self):
        assert self.chain.unfused_global_bytes() > self.chain.io_bytes_min()

    def test_gated_chain_doubles_gemm0(self):
        gated = GemmChainSpec("g", 128, 512, 256, 256, kind=ChainKind.GATED_FFN)
        assert gated.num_gemm0_branches == 2
        assert gated.gemm0_flops() == 2 * self.chain.gemm0_flops()
        assert gated.b_bytes == 2 * self.chain.b_bytes
        assert gated.intermediate_bytes() == 2 * self.chain.intermediate_bytes()

    def test_scaled_changes_only_m(self):
        scaled = self.chain.scaled(m=256)
        assert scaled.m == 256
        assert (scaled.n, scaled.k, scaled.l) == (512, 256, 256)

    def test_invalid_dimension_rejected(self):
        with pytest.raises(ValueError):
            GemmChainSpec("bad", m=0, n=1, k=1, l=1)

    def test_arithmetic_intensity_positive(self):
        assert self.chain.arithmetic_intensity() > 0


class TestOperatorGraph:
    def _two_gemm_graph(self):
        a = TensorSpec("A", (64, 32))
        b = TensorSpec("B", (32, 64))
        d = TensorSpec("D", (64, 16))
        graph = OperatorGraph("g")
        gemm0 = graph.add(Gemm("gemm0", a, b))
        graph.add(Gemm("gemm1", gemm0.output.with_shape((64, 64)), d))
        return graph

    def test_io_and_intermediate_tensors(self):
        graph = self._two_gemm_graph()
        input_names = {t.name for t in graph.input_tensors()}
        assert input_names == {"A", "B", "D"}
        assert [t.name for t in graph.intermediate_tensors()] == ["gemm0.out"]
        assert len(graph.output_tensors()) == 1

    def test_producer_consumer_lookup(self):
        graph = self._two_gemm_graph()
        assert graph.producer_of("gemm0.out").name == "gemm0"
        assert graph.producer_of("A") is None
        assert [op.name for op in graph.consumers_of("gemm0.out")] == ["gemm1"]

    def test_duplicate_operator_rejected(self):
        graph = self._two_gemm_graph()
        with pytest.raises(ValueError):
            graph.add(Gemm("gemm0", TensorSpec("A", (64, 32)), TensorSpec("B", (32, 64))))

    def test_topological_order(self):
        graph = self._two_gemm_graph()
        names = [op.name for op in graph.topological_order()]
        assert names.index("gemm0") < names.index("gemm1")

    @staticmethod
    def _relu(name, source):
        return Activation(name, ActivationKind.RELU, TensorSpec(source, (4, 4)))

    @staticmethod
    def _add(name, lhs, rhs):
        return Elementwise(
            name, ElementwiseKind.ADD, TensorSpec(lhs, (4, 4)), TensorSpec(rhs, (4, 4))
        )

    def test_topological_order_is_generation_by_generation(self):
        # Added out of order: "late" reads "early", and "join" reads
        # "early" twice, which is one producer edge, not two.
        graph = OperatorGraph("gens")
        graph.add(self._relu("late", "early.out"))
        graph.add(self._add("join", "early.out", "early.out"))
        graph.add(self._relu("early", "x"))
        graph.add(self._relu("other", "x"))
        names = [op.name for op in graph.topological_order()]
        assert names == ["early", "other", "late", "join"]

    def test_cycle_behind_an_acyclic_prefix_names_its_operators(self):
        graph = OperatorGraph("loop")
        graph.add(self._relu("head", "x"))
        graph.add(self._add("a", "head.out", "c.out"))
        graph.add(self._relu("b", "a.out"))
        graph.add(self._relu("c", "b.out"))
        graph.add(self._relu("tail", "c.out"))
        for check in (graph.validate, graph.topological_order):
            with pytest.raises(FusionError, match="cycle") as info:
                check()
            path = str(info.value).split(": ", 1)[1]
            assert set(path.split(" -> ")) == {"a", "b", "c"}

    def test_self_loop_is_a_cycle(self):
        graph = OperatorGraph("self")
        graph.add(self._relu("spin", "spin.out"))
        with pytest.raises(FusionError, match="spin -> spin"):
            graph.topological_order()

    def test_total_flops_sums_operators(self):
        graph = self._two_gemm_graph()
        assert graph.total_flops() == sum(op.flops() for op in graph.operators)

    def test_compute_intensive_operators(self):
        graph, _ = build_standard_ffn("ffn", 64, 128, 64, 64)
        assert len(graph.compute_intensive_operators()) == 2


class TestBuilders:
    def test_standard_ffn_structure(self):
        graph, spec = build_standard_ffn("ffn", 128, 512, 256, 256)
        assert spec.kind is ChainKind.STANDARD_FFN
        assert len(graph) == 3  # gemm, activation, gemm
        assert graph.total_flops() >= spec.total_flops()

    def test_gated_ffn_structure(self):
        graph, spec = build_gated_ffn("gated", 128, 512, 256, 256)
        assert spec.kind is ChainKind.GATED_FFN
        assert spec.activation is ActivationKind.SILU
        assert len(graph) == 5  # two gemms, act, mul, down gemm
        assert len(graph.compute_intensive_operators()) == 3

    def test_conv_chain_lowering(self):
        graph, spec = build_conv_chain(
            "conv", batch=1, in_channels=64, height=56, width=56,
            out_channels1=256, out_channels2=64, kernel1=1, kernel2=1,
        )
        assert spec.kind is ChainKind.CONV_CHAIN
        assert spec.m == 56 * 56
        assert spec.n == 256
        assert spec.k == 64
        assert spec.l == 64
        assert len(graph.compute_intensive_operators()) == 2

    def test_conv_chain_3x3_kernel_grows_k(self):
        _, spec = build_conv_chain(
            "conv", batch=1, in_channels=64, height=56, width=56,
            out_channels1=64, out_channels2=256, kernel1=3, kernel2=1,
        )
        assert spec.k == 64 * 9


def test_import_does_not_load_networkx():
    """networkx is a test-only dependency: importing the library skips it."""
    import repro

    probe = "import sys, repro; print('networkx' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"

"""Record the outputs the benchmark checks against into ``expected.json``.

Usage (from the repository root)::

    python3 perfbench/record_expected.py

Records, for the commit it runs on: each compile_cold chain's selected
schedule, cluster geometry, block tile and simulated time; the same for
every distinct chain the serving workloads compile; and ``ModelPlan.time_us``
for every (model, M) the serving workloads can draw, with each model's
per-segment sources in the warm state.  Re-record only when a change is
meant to move these outputs, and say so in the change.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from repro import FlashFuser, FuserConfig, ModelServer, PlanCache  # noqa: E402
from repro.api import CompileRequest  # noqa: E402

#: Every M a workload can draw for each model.
DOMAINS = {
    "BERT": range(1, wl.PREFILL_MAX_M + 1),
    "Qwen3-0.6B": range(1, wl.PREFILL_MAX_M + 1),
    "attention_ffn": range(1, wl.PREFILL_MAX_M + 1),
    "moe_layer": wl.DECODE_MS,
}


def main() -> None:
    scratch = Path(tempfile.mkdtemp(prefix="perfbench-expected-", dir=HERE.parent))
    try:
        with FlashFuser(FuserConfig(cache=PlanCache(str(scratch / "cold")))) as compiler:
            compile_cold = {
                workload: wl.kernel_record(
                    compiler.compile_request(CompileRequest(workload=workload)).kernel
                )
                for workload in wl.COMPILE_CHAINS
            }

        directory = scratch / "serve"
        with ModelServer(config=wl.serving_config(directory), m_bins=wl.SERVE_BINS) as server:
            for name in DOMAINS:
                server.register(name, wl.model_factory(name))
                for bin_m in wl.SERVE_BINS:
                    server.serve(name, bin_m)
            plans, sources = {}, {}
            for name, domain in DOMAINS.items():
                plans[name] = {}
                for m in domain:
                    response = server.serve(name, m)
                    plans[name][str(m)] = response.plan.time_us
                    sources.setdefault(name, wl.segment_sources(response.plan))
        serving_kernels = {
            label: wl.kernel_record(PlanCache(str(directory)).load_kernel(key, chain=chain))
            for label, key, chain in wl.serving_targets(DOMAINS)
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    expected = {
        "compile_cold": compile_cold,
        "serving_kernels": serving_kernels,
        "sources": sources,
        "plans": plans,
    }
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

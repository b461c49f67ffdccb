"""Checks of the benchmark itself.

Usage (from the repository root)::

    python3 perfbench/selfcheck.py

1. The output checks bite: ``serve_decode`` runs in this process against
   the expected outputs with one plan time altered, and must report
   failures, which is ``error_rate`` above 0.
2. Determinism: the traced ``serve_prefill`` runs twice on one seed (the
   second run compares its exact counters with the first and exits non-zero
   if they differ) and once on a second seed, which must draw a different
   request mix while every output check still passes.

Exits non-zero when any check fails.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out" / "selfcheck"


def run(workload: str, seed: int, trace: int, seconds: float = 1.0):
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command[1:])} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    host = next(json.loads(line[len("# host "):]) for line in lines if line.startswith("# host "))
    return host, json.loads(lines[-1])


def altered_expected_fails() -> bool:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads

    expected = json.loads((HERE / "expected.json").read_text())
    expected["plans"]["BERT"]["1"] *= 1.01
    wl = workloads.ServeDecode(expected, 1)
    stack = wl.setup(OUT / "altered")
    try:
        outcome = wl.measure(stack, 1.0, traced=False)
        wl.finish(stack, outcome)
    finally:
        wl.teardown(stack)
    ok = outcome.failed > 0
    print(f"altered expected value: error_rate {outcome.failed}/{outcome.attempted} "
          f"-> {'ok' if ok else 'FAILED: the change went unnoticed'}")
    return ok


def determinism_holds(workload: str = "serve_prefill", seeds=(11, 12)) -> bool:
    first_host, first = run(workload, seeds[0], 1)
    # The repeat exits non-zero (and run() raises) if the counters moved.
    _, repeat = run(workload, seeds[0], 1)
    other_host, other = run(workload, seeds[1], 1)
    mix_changed = first_host["mix_digest"] != other_host["mix_digest"]
    checks_pass = all(r["correct"] and r["failed"] == 0 for r in (first, repeat, other))
    print(f"{workload}: exact counters repeat on seed {seeds[0]}; mix "
          f"{first_host['mix_digest']} vs {other_host['mix_digest']} on seed {seeds[1]} "
          f"-> {'ok' if mix_changed and checks_pass else 'FAILED'}")
    return mix_changed and checks_pass


def main() -> None:
    results = [altered_expected_fails(), determinism_holds()]
    sys.exit(0 if all(results) else 1)


if __name__ == "__main__":
    main()

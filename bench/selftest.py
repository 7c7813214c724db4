"""Self-test of the benchmark; run from the repository root:

    python3 bench/selftest.py

Runs every workload for one pass, untraced and traced, and checks that

* the result line has exactly the keys correct, attempted, failed and
  metrics, and every metric of BENCHMARK.json is printed with its unit;
* the per-layer counts repeat exactly across two traced runs;
* the layers a workload leaves idle read zero;
* a deliberately wrong pinned output is counted as a failed operation.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Layers each workload must leave idle.
IDLE = {
    "search-hc": ("wellconn.wc_order_calls", "wellconn.wc_pair_calls"),
    "search-wc": ("connectivity.kappa_mask_calls", "connectivity.bruteforce_calls"),
    "certify": ("arrows.colorings_scanned",),
}
EXACT_UNITS = ("count", "ratio", "bytes")


def expect(ok: bool, what: str) -> None:
    if not ok:  # not an assert: the checks must also run under python -O
        raise AssertionError(what)


def bench(workload: str, trace: int, seed: int = 3) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)])
    expect(rc == 0, f"{workload}: exit {rc}")
    return json.loads(out.getvalue().strip().split("\n")[-1])


def check_shape(result: dict, wanted: list[dict], label: str) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(result)}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, label)
    expect(isinstance(result["failed"], int), label)
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(printed == {m["name"]: m["unit"] for m in wanted}, f"{label}: metrics {printed}")


def main() -> int:
    for workload in run.WORKLOADS:
        plain = bench(workload, 0)
        check_shape(plain, SPEC["end_to_end"], f"{workload} trace 0")
        expect(plain["correct"] and plain["failed"] == 0, f"{workload}: {plain}")
        expect(all(v["value"] > 0 for v in plain["metrics"].values()), f"{workload}: zero metric")

        first, second = bench(workload, 1), bench(workload, 1)
        check_shape(first, SPEC["per_layer"], f"{workload} trace 1")
        for name, metric in first["metrics"].items():
            if metric["unit"] in EXACT_UNITS:
                again = second["metrics"][name]["value"]
                expect(metric["value"] == again, f"{workload}: {name} {metric['value']} then {again}")
        for name in IDLE[workload]:
            expect(first["metrics"][name]["value"] == 0, f"{workload}: {name} is not idle")
        print(f"selftest: {workload} ok", file=sys.stderr)

    pins = run.load_pins()
    wrong = copy.deepcopy(pins)
    cell = run.key(run.SEARCH_CELLS["search-hc"][1])
    wrong["ramsey"][cell]["stdout"] = wrong["ramsey"][cell]["stdout"].replace('"threshold":6', '"threshold":5')
    expect(wrong != pins, "the wrong pin is identical to the right one")
    run.load_pins = lambda: wrong
    result = bench("search-hc", 0)
    expect(not result["correct"] and result["failed"] >= 1, f"wrong pin not caught: {result}")
    print("selftest: wrong pin raises the error rate; ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""
Fast self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json once in each mode, on shortened
simulated runs (run.py --quick --seconds 0), and checks that

- BENCHMARK.json and the metric tables of run.py and layers.py agree on
  each metric's name, unit and direction;
- every metric of BENCHMARK.json is emitted in the JSON result with its
  unit and a finite value (end-to-end values also non-zero), and printed
  in the report with its direction;
- every run passes its output checks.

Exits 0 when all checks pass, 1 otherwise.  Takes about 15 s.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []

    e2e = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    for name, m in e2e.items():
        if run.END_TO_END.get(name) != (m["unit"], m["better"]):
            problems.append(f"end_to_end {name}: BENCHMARK.json says "
                            f"{m['unit']}/{m['better']}, run.py {run.END_TO_END.get(name)}")
    for name in run.END_TO_END:
        if name not in e2e and name not in run.REPORT_ONLY:
            problems.append(f"end_to_end {name} missing from BENCHMARK.json")
    declared = [(n, u, b) for n, u, b, _ in layers.LAYER_METRICS]
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != listed:
        problems.append("per_layer of BENCHMARK.json differs from layers.LAYER_METRICS")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["better"] not in ("lower", "higher"):
            problems.append(f"{m['name']}: better is {m['better']!r}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        problems.append("workloads of BENCHMARK.json differ from run.WORKLOADS")

    for workload in run.WORKLOADS:
        for trace, wanted in ((0, e2e), (1, per_layer)):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run.main(["--workload", workload, "--seed", "0",
                                 "--seconds", "0", "--trace", str(trace), "--quick"])
            lines = buf.getvalue().splitlines()
            tag = f"{workload} --trace {trace}"
            if code != 0 or not lines:
                problems.append(f"{tag}: exit code {code}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
                problems.extend(f"{tag}: {ln}" for ln in lines if ln.startswith("FAIL"))
            metrics = result["metrics"]
            if set(metrics) != set(wanted):
                problems.append(f"{tag}: emitted {sorted(set(metrics) ^ set(wanted))} "
                                "differ from BENCHMARK.json")
            for name, m in wanted.items():
                got = metrics.get(name)
                if got is None:
                    continue
                value = got.get("value")
                if got.get("unit") != m["unit"]:
                    problems.append(f"{tag}: {name} unit {got.get('unit')!r}")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{tag}: {name} value {value!r}")
                elif trace == 0 and value == 0:
                    problems.append(f"{tag}: {name} is 0")
                prefix = f"{workload} {name} = "
                if not any(ln.startswith(prefix) and f"{m['unit']} (" in ln
                           and f"{m['better']} is better" in ln for ln in lines):
                    problems.append(f"{tag}: no report line for {name} with its "
                                    "unit and direction")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

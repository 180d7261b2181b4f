"""
Record perfbench runs of one commit as a BENCH_<commit>.json file.

    python3 perfbench/run.py --workload approach --seed 1 --seconds 30 > a1.txt
    ...
    python3 tools/bench_record.py --tier1-s 29.0 a1.txt a2.txt ...

Each input is the stdout of one perfbench/run.py call (of one workload,
or of `--workload all`).  All must come from one commit, which their
`meta` lines name; the file is written as BENCH_<first 7 hex digits of
that commit>.json in the current directory, or to --out.

Per workload the file holds:
    metrics  each metric's median, q1, q3 and n over the calls that
             print it, with its unit and which way is better;
    meta     the `meta` line, as JSON, of the call with the lowest
             --seed (commit, versions, load average, seeds);
    sha256   that call's `sha256` line, as its JSON text: the output
             hashes of each run seed, which a call of any commit with
             the same --seed repeats for the seeds both ran;
    calls    per call, in --seed order: its --seed, load average,
             correct / attempted / failed counts, and each metric line's
             value, with the q1, q3 and n of the runs behind that median
             where the line gives them.
At the top level it holds the commit, the tier-1 wall time in seconds
as given by --tier1-s (time `python -m pytest -q` in the same checkout),
and MALLOC_MMAP_THRESHOLD_ when it is set in this script's environment,
so run it from the shell that ran the benchmark.

Quartiles are statistics.quantiles(n=4), as perfbench/run.py takes them.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys

# "<workload> <metric> = <value> <unit> (<how>; <lower|higher> is better...)"
_METRIC = re.compile(r"^(?P<workload>\w+) (?P<name>[\w.]+) = (?P<value>\S+) "
                     r"(?P<unit>\S+) \((?P<how>.*?); "
                     r"(?P<better>lower|higher) is better")
_RUNS = re.compile(r"median of (?P<n>\d+) runs, q1=(?P<q1>\S+) q3=(?P<q3>\S+)")


def quartiles(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, q3 = (statistics.quantiles(values, n=4)[::2] if len(values) > 1
              else (med, med))
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


_META_KEYS = ("commit", "workload", "bench_seed", "loadavg_1m")
_COUNTS = ("correct", "attempted", "failed")


def _json_with(line: str, text: str, keys: tuple) -> dict:
    """The JSON object text of a meta or result line, which holds keys."""
    obj = json.loads(text)
    if not isinstance(obj, dict) or not set(keys) <= obj.keys():
        raise ValueError(f"a line without {keys}: {line!r}")
    return obj


def parse_calls(text: str) -> list[dict]:
    """One dict per perfbench call in a stdout: its meta and sha256
    lines, its counts, and its metric lines' values and units.  Raises
    ValueError on a call's line before any meta line, on a meta or
    result line without the keys read here, and on a call without its
    result line, as a killed call leaves."""
    calls = []
    for line in text.splitlines():
        if line.startswith("meta "):
            calls.append({"meta": _json_with(line, line[5:], _META_KEYS),
                          "metrics": {}, "units": {}})
        elif not calls:
            if line.startswith(("sha256 ", "{")) or _METRIC.match(line):
                raise ValueError(f"a line before any meta line: {line!r}")
        elif line.startswith("sha256 "):
            calls[-1]["sha256"] = line[7:]
        elif line.startswith("{"):
            result = _json_with(line, line, _COUNTS)
            calls[-1].update({k: result[k] for k in _COUNTS})
        elif (m := _METRIC.match(line)) and m["value"] != "n/a":
            entry = {"value": float(m["value"])}
            if runs := _RUNS.search(m["how"]):
                entry.update(q1=float(runs["q1"]), q3=float(runs["q3"]),
                             n=int(runs["n"]))
            calls[-1]["metrics"][m["name"]] = entry
            calls[-1]["units"][m["name"]] = {"unit": m["unit"],
                                             "better": m["better"]}
    for call in calls:
        if "correct" not in call:   # the result line, printed last
            raise ValueError(f"the call of --seed {call['meta']['bench_seed']}"
                             " has no result line: killed or timed out?")
    return calls


def record(calls: list[dict], tier1_s: float | None) -> dict:
    commits = {c["meta"]["commit"] for c in calls}
    if len(commits) != 1 or None in commits:
        raise ValueError(f"the calls name commits {sorted(map(str, commits))}"
                         "; expected one")
    workloads: dict = {}
    for call in calls:
        workloads.setdefault(call["meta"]["workload"], []).append(call)
    out = {"commit": commits.pop(), "tier1_wall_s": tier1_s,
           "workloads": {}}
    threshold = os.environ.get("MALLOC_MMAP_THRESHOLD_")
    if threshold is not None:
        out["MALLOC_MMAP_THRESHOLD_"] = threshold
    for name, group in sorted(workloads.items()):
        group.sort(key=lambda c: c["meta"]["bench_seed"])
        units: dict = {}     # of every call, in first-seen order
        for call in group:
            for metric, unit in call["units"].items():
                units.setdefault(metric, unit)
        metrics = {}
        for metric, unit in units.items():
            values = [c["metrics"][metric]["value"] for c in group
                      if metric in c["metrics"]]
            metrics[metric] = {**unit, **quartiles(values)}
        out["workloads"][name] = {
            "metrics": metrics, "meta": group[0]["meta"],
            "sha256": group[0]["sha256"],
            "calls": [{"bench_seed": c["meta"]["bench_seed"],
                       "loadavg_1m": c["meta"]["loadavg_1m"],
                       **{k: c[k] for k in ("correct", "attempted", "failed",
                                            "metrics")}} for c in group]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("stdout", nargs="+",
                        help="stdout files of perfbench/run.py calls")
    parser.add_argument("--tier1-s", type=float,
                        help="tier-1 wall time of the commit, seconds")
    parser.add_argument("--out", help="output path (default "
                        "BENCH_<commit>.json in the current directory)")
    args = parser.parse_args(argv)
    calls = []
    for path in args.stdout:
        try:
            with open(path) as f:
                calls += parse_calls(f.read())
        except (OSError, ValueError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
    try:
        bench = record(calls, args.tier1_s)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = args.out or f"BENCH_{bench['commit'][:7]}.json"
    try:
        with open(path, "w") as f:
            json.dump(bench, f, indent=1, sort_keys=True)
            f.write("\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{len(calls)} calls of {len(bench['workloads'])} workloads "
          f"-> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""tools/bench_record.py on synthetic perfbench/run.py stdouts."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record",
    Path(__file__).resolve().parent.parent / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _stdout(commit="abc1234def", step_us=20.0, rss=40.0, seed=1):
    meta = {"commit": commit, "workload": "approach", "bench_seed": seed,
            "loadavg_1m": 0.5}
    # step_us None: no step_us line, as when every measured run failed
    step = [] if step_us is None else [
        f"approach step_us = {step_us:g} us (median of 41 runs, q1=19.5 "
        "q3=21.25; lower is better)"]
    return "\n".join([
        "meta " + json.dumps(meta),
        f'sha256 {{"{seed}": {{"trace.csv": "00ff"}}}}',
        *step,
        f"approach peak_rss_mb = {rss:g} MB (of this process; lower is "
        "better)",
        json.dumps({"correct": True, "attempted": 42, "failed": 0,
                    "metrics": {}}),
    ]) + "\n"


def test_calls_of_a_workload_are_summarised_by_quartiles(tmp_path,
                                                         monkeypatch):
    monkeypatch.delenv("MALLOC_MMAP_THRESHOLD_", raising=False)
    paths = []
    # written, and read, out of --seed order
    for seed, step_us in ((3, 20.0), (1, 22.0), (4, 21.0), (2, 30.0)):
        paths.append(tmp_path / f"run{seed}.txt")
        paths[-1].write_text(_stdout(step_us=step_us, seed=seed))
    out = tmp_path / "bench.json"
    assert bench_record.main([*map(str, paths), "--tier1-s", "29.5",
                              "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert (bench["commit"], bench["tier1_wall_s"]) == ("abc1234def", 29.5)
    assert "MALLOC_MMAP_THRESHOLD_" not in bench
    approach = bench["workloads"]["approach"]
    assert approach["metrics"]["step_us"] == {
        "unit": "us", "better": "lower", "median": 21.5, "q1": 20.25,
        "q3": 28.0, "n": 4}
    # the meta and sha256 lines of the call with the lowest --seed
    assert approach["meta"]["bench_seed"] == 1
    assert approach["sha256"] == '{"1": {"trace.csv": "00ff"}}'
    assert [c["bench_seed"] for c in approach["calls"]] == [1, 2, 3, 4]
    call = approach["calls"][0]
    assert (call["loadavg_1m"], call["correct"], call["attempted"],
            call["failed"]) == (0.5, True, 42, 0)
    assert call["metrics"] == {
        "step_us": {"value": 22.0, "q1": 19.5, "q3": 21.25, "n": 41},
        "peak_rss_mb": {"value": 40.0}}


def test_a_metric_the_lowest_seed_call_lacks_is_kept(tmp_path):
    """The call with the lowest --seed prints no step_us; the metric
    comes from the calls that do, after that call's own metrics."""
    paths = []
    for seed, step_us in ((2, 30.0), (1, None), (3, 20.0)):
        paths.append(tmp_path / f"run{seed}.txt")
        paths[-1].write_text(_stdout(step_us=step_us, seed=seed))
    out = tmp_path / "bench.json"
    assert bench_record.main([*map(str, paths), "--out", str(out)]) == 0
    approach = json.loads(out.read_text())["workloads"]["approach"]
    assert approach["metrics"]["step_us"] == {
        "unit": "us", "better": "lower", "median": 25.0, "q1": 17.5,
        "q3": 32.5, "n": 2}
    assert approach["metrics"]["peak_rss_mb"]["n"] == 3
    calls = [c for p in paths for c in bench_record.parse_calls(p.read_text())]
    assert list(bench_record.record(calls, None)["workloads"]["approach"]
                ["metrics"]) == ["peak_rss_mb", "step_us"]


def test_the_default_name_and_the_allocator_setting(tmp_path, monkeypatch):
    monkeypatch.setenv("MALLOC_MMAP_THRESHOLD_", "131072")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.txt").write_text(_stdout())
    assert bench_record.main(["run.txt"]) == 0
    bench = json.loads((tmp_path / "BENCH_abc1234.json").read_text())
    assert bench["MALLOC_MMAP_THRESHOLD_"] == "131072"
    assert bench["tier1_wall_s"] is None


def test_calls_of_two_commits_are_rejected(tmp_path, capsys):
    (tmp_path / "a.txt").write_text(_stdout(commit="aaa"))
    (tmp_path / "b.txt").write_text(_stdout(commit="bbb"))
    assert bench_record.main([str(tmp_path / "a.txt"),
                              str(tmp_path / "b.txt")]) == 2
    assert capsys.readouterr().err.startswith("error: the calls name commits")
    assert not list(tmp_path.glob("BENCH_*.json"))


_LINES = _stdout().splitlines(keepends=True)


@pytest.mark.parametrize("text, message", [
    # a killed or timed-out call: its stdout ends before the result line
    pytest.param("".join(_LINES[:-1]), "the call of --seed 1 has no result "
                 "line", id="no_result"),
    pytest.param(_stdout(seed=2) + "".join(_LINES[:3]), "the call of --seed 1 "
                 "has no result line", id="second_call_cut"),
    pytest.param(_LINES[2] + _stdout(), "a line before any meta line",
                 id="metric_first"),
    pytest.param(_LINES[1] + _stdout(), "a line before any meta line",
                 id="sha256_first"),
    pytest.param("".join(_LINES[:-1]) + '{"metrics": {}}\n',
                 "a line without ('correct', 'attempted', 'failed')",
                 id="result_without_counts"),
    pytest.param('meta {"commit": "abc1234def"}\n' + "".join(_LINES[1:]),
                 "a line without ('commit', 'workload', 'bench_seed', "
                 "'loadavg_1m')", id="meta_without_seed"),
    pytest.param("meta [1]\n" + "".join(_LINES[1:]), "a line without",
                 id="meta_not_an_object"),
])
def test_an_incomplete_stdout_is_rejected_naming_its_file(tmp_path, capsys,
                                                          text, message):
    (tmp_path / "good.txt").write_text(_stdout(seed=3))
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert bench_record.main([str(tmp_path / "good.txt"), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {message}")
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_a_missing_input_or_an_unwritable_output_exits_2(tmp_path, capsys):
    (tmp_path / "run.txt").write_text(_stdout())
    missing = tmp_path / "missing.txt"
    assert bench_record.main([str(missing)]) == 2
    assert bench_record.main([str(tmp_path / "run.txt"), "--out",
                              str(tmp_path / "no" / "bench.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert err[0].startswith(f"error: {missing}: ")
    assert err[1].startswith("error: ") and "bench.json" in err[1]


@pytest.mark.parametrize("values, expected", [
    ([3.0], (3.0, 3.0, 3.0)),
    ([1.0, 2.0, 3.0, 4.0, 5.0], (1.5, 3.0, 4.5)),
])
def test_quartiles_are_perfbench_s(values, expected):
    q = bench_record.quartiles(values)
    assert (q["q1"], q["median"], q["q3"], q["n"]) == (*expected, len(values))

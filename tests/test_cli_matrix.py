"""The tolerance report of tests/cli_matrix.py on small synthetic matrices."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "cli_matrix", Path(__file__).resolve().parent / "cli_matrix.py")
cli_matrix = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_matrix)

METRICS = {"touchdown_time": 29.111, "observer_rms_error": 0.0125,
           "steps": 29111, "settled": True}
TRACE = "t,theta,z\n0,0.125,-10.5\n0.01,0.126,-10.25\n0.02,0.127,-10\n"


def _matrix(root: Path, cases: dict) -> Path:
    """A matrix output directory: case name -> (exit, metrics, trace)."""
    root.mkdir()
    lines = []
    for name, (code, metrics, trace) in cases.items():
        out = root / name / "out"
        out.mkdir(parents=True)
        (out / "metrics.json").write_text(json.dumps(metrics))
        (out / "trace.csv").write_text(trace)
        (root / f"{name}.stdout").write_bytes(b"")
        (root / f"{name}.stderr").write_bytes(b"")
        lines.append(f"{name} exit={code} stdout=- stderr=-")
    (root / "manifest.txt").write_text("\n".join(lines) + "\n")
    return root


def test_identical_cases_are_reported_identical(tmp_path):
    cases = {"run_a": (0, METRICS, TRACE), "run_b": (3, METRICS, TRACE)}
    report = cli_matrix.compare(_matrix(tmp_path / "a", cases),
                                _matrix(tmp_path / "b", cases))
    assert report == ["run_a: exit 0, identical", "run_b: exit 3, identical",
                      "largest relative difference of each JSON float "
                      "field over all cases:"]


def test_perturbed_float_reports_its_relative_difference(tmp_path):
    changed = dict(METRICS, observer_rms_error=0.0125 * (1.0 + 4e-9))
    report = cli_matrix.compare(
        _matrix(tmp_path / "a", {"run": (0, METRICS, TRACE)}),
        _matrix(tmp_path / "b", {"run": (0, changed, TRACE)}))
    assert report[0] == "run: exit 0"
    assert report[1] == ("  out/metrics.json floats: worst 4e-09 at "
                         "observer_rms_error (1 of 2 differ)")
    table = report[report.index("largest relative difference of each JSON "
                                "float field over all cases:") + 1:]
    assert [line.split() for line in table] == [
        ["observer_rms_error", "4e-09"], ["touchdown_time", "0"]]


def test_exit_code_and_row_count_mismatches_are_reported(tmp_path):
    short = TRACE.rsplit("0.02", 1)[0]
    report = cli_matrix.compare(
        _matrix(tmp_path / "a", {"run": (0, METRICS, TRACE)}),
        _matrix(tmp_path / "b", {"run": (3, METRICS, short)}))
    assert report[:3] == ["run: exit 0", "  exit: 0 -> 3",
                          "  out/trace.csv rows: 4 -> 3"]

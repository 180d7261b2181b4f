import contextlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import pytest

import carrierland
from carrierland.cli import (EXIT_ABORT, EXIT_BROKEN_PIPE, EXIT_OK,
                             EXIT_UNSETTLED, EXIT_USAGE, build_parser, main)
from carrierland.airframe import AeroModel, AircraftParams
from carrierland.config import (CONFIG_KEYS, CONTROLLERS, SCENARIOS,
                                ConfigError, ScenarioConfig, config_from_dict,
                                config_to_dict)


def run_cli(*argv):
    return main(list(argv))


def test_trim_subcommand(capsys):
    assert run_cli("trim") == EXIT_OK
    out = capsys.readouterr().out
    assert "airspeed" in out and "69.1" in out


def test_linearize_subcommand(capsys):
    assert run_cli("linearize") == EXIT_OK
    out = capsys.readouterr().out
    assert "short-period" in out and "phugoid" in out


# stdout of `carrierland trim` and `carrierland linearize` with the
# default model, pinned digit for digit
TRIM_STDOUT = """\
airspeed             69.1000 m/s
alpha = theta         7.1000 deg
pitch rate            0.0000 rad/s
flight path           0.0000 rad
elevator            -10.1686 deg
thrust               22591.8 N
residuals       1.11e-16 0.00e+00 0.00e+00
"""

LINEARIZE_STDOUT = """\
A (dV_T, dtheta, dalpha, dq):
     -0.043258    -9.750000    -0.274000     0.000000
      0.000000     0.000000     0.000000     1.000000
     -0.004006     0.000000    -0.590000     0.989881
      0.000000     0.000000    -0.260000    -0.150000
B (ddelta_e [rad], ddelta_t):
     -0.057296     4.708417
      0.000000     0.000000
     -0.042972    -0.008487
     -0.859437     0.000000
  -0.401933 +0.451685j  short-period
  -0.401933 -0.451685j  short-period
  +0.010304 +0.166351j  phugoid
  +0.010304 -0.166351j  phugoid
"""


@pytest.mark.parametrize("command, golden", [
    ("trim", TRIM_STDOUT), ("linearize", LINEARIZE_STDOUT)],
    ids=("trim", "linearize"))
def test_trim_commands_stdout_is_pinned(capsys, command, golden):
    assert run_cli(command) == EXIT_OK
    assert capsys.readouterr().out == golden


def test_run_writes_three_files(tmp_path, capsys):
    out = tmp_path / "run1"
    code = run_cli("run", "--scenario", "pitch_step", "--controller", "opd",
                   "--seed", "42", "--duration", "1.0", "--out", str(out))
    assert code == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == [
        "metrics.json", "resolved_config.json", "trace.csv"]
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["aborted"] is False


def test_usage_error_for_bad_dt(capsys):
    code = run_cli("run", "--scenario", "pitch_step", "--dt", "-0.001")
    assert code == EXIT_USAGE
    assert "dt must be > 0" in capsys.readouterr().err


def test_unknown_set_key_lists_valid_keys(capsys):
    code = run_cli("run", "--set", "bogus=1")
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "bogus" in err and "pitch.kp" in err


def test_malformed_set_item(capsys):
    code = run_cli("run", "--set", "no_equals_sign")
    assert code == EXIT_USAGE
    assert "KEY=VALUE" in capsys.readouterr().err


def test_resolved_config_rerun_is_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_cli("run", "--scenario", "pitch_step", "--seed", "7",
                   "--duration", "1.0", "--set", "wind_on=on",
                   "--set", "noise_on=on", "--out", str(out1)) == EXIT_OK
    assert run_cli("run", "--config", str(out1 / "resolved_config.json"),
                   "--out", str(out2)) == EXIT_OK
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "resolved_config.json").read_bytes() == \
        (out2 / "resolved_config.json").read_bytes()


def test_model_abort_exit_code_and_partial_trace(tmp_path, capsys):
    out = tmp_path / "boom"
    code = run_cli("run", "--scenario", "pitch_step", "--seed", "0",
                   "--set", "pitch_step_deg=-45", "--set",
                   "theta_r_low_deg=-60", "--out", str(out))
    assert code == EXIT_ABORT
    err = capsys.readouterr().err
    assert "model abort" in err
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["aborted"] is True
    assert "abort_reason" in metrics
    assert (out / "trace.csv").read_text().count("\n") > 1


def test_require_settled_exit_code(tmp_path, capsys):
    out = tmp_path / "unsettled"
    code = run_cli("run", "--scenario", "pitch_step", "--controller", "pid",
                   "--seed", "2", "--wind", "on", "--noise", "on",
                   "--require-settled", "--out", str(out))
    assert code == EXIT_UNSETTLED


@pytest.mark.parametrize("stderr_too", [False, True],
                         ids=["stdout", "stdout_and_stderr"])
@pytest.mark.parametrize("argv, files", [
    (("trim",), []),
    (("run", "--scenario", "pitch_step", "--duration", "0.5"),
     ["metrics.json", "resolved_config.json", "trace.csv"]),
])
def test_a_reader_that_leaves_early_is_not_an_error(tmp_path, argv, files,
                                                    stderr_too):
    """`carrierland trim 2>&1 | head -0`: a reader that closed the pipe
    ends the program with 128 + SIGPIPE and nothing on stderr, as a shell
    reports for a writer whose reader left, not with a usage error or a
    traceback; the output files already written stay."""
    out = ("--out", str(tmp_path)) if files else ()
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "carrierland.cli", *argv, *out],
            stdout=write, stderr=write if stderr_too else subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(
                Path(carrierland.__file__).parents[1])), timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr or b"") == (EXIT_BROKEN_PIPE, b"")
    assert sorted(p.name for p in tmp_path.iterdir()) == files


@pytest.mark.parametrize("command", ["compare", "sweep"])
def test_require_settled_only_on_run(tmp_path, capsys, command):
    # compare and sweep never read the flag, so they reject it
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--scenario", "pitch_step", "--duration", "0.5",
                "--require-settled", "--out", str(tmp_path / command))
    assert exc.value.code == EXIT_USAGE
    assert "--require-settled" in capsys.readouterr().err
    assert not (tmp_path / command).exists()


# (argv, exit code, each law's aborted flag)
_COMPARE_CASES = [
    (("--scenario", "pitch_step", "--seed", "3", "--duration", "2.0"),
     EXIT_OK, {"opd": False, "pid": False}),
    # PID leaves the aero table on the default 10 m/s sink command
    (("--scenario", "sink_step", "--duration", "3"),
     EXIT_ABORT, {"opd": False, "pid": True}),
]


def test_compare_outputs(tmp_path, capsys):
    for k, (argv, code, aborted) in enumerate(_COMPARE_CASES):
        out = tmp_path / f"cmp{k}"
        assert run_cli("compare", *argv, "--out", str(out)) == code
        names = sorted(p.name for p in out.iterdir())
        assert names == ["comparison.json", "metrics_opd.json",
                         "metrics_pid.json", "resolved_config.json",
                         "trace_opd.csv", "trace_pid.csv"]
        for law, flag in aborted.items():
            metrics = json.loads((out / f"metrics_{law}.json").read_text())
            assert metrics["aborted"] is flag
        summary = json.loads((out / "comparison.json").read_text())
        assert sorted(summary) == ["fraction_faster", "opd_settle_s",
                                   "pid_settle_s", "speedup_ratio"]


# (argv, exit code, seeds); every run of the second case aborts
_SWEEP_CASES = [
    (("--seed", "10", "--duration", "1.0", "--runs", "3"),
     EXIT_OK, [10, 11, 12]),
    (("--set", "pitch_step_deg=-45", "--set", "theta_r_low_deg=-60",
      "--duration", "3", "--runs", "2"), EXIT_ABORT, [0, 1]),
]


def test_sweep_outputs(tmp_path, capsys):
    for k, (argv, code, seeds) in enumerate(_SWEEP_CASES):
        out = tmp_path / f"sw{k}"
        assert run_cli("sweep", "--scenario", "pitch_step", *argv,
                       "--out", str(out)) == code
        dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert dirs == sorted(f"seed_{s}" for s in seeds)
        agg = (out / "aggregate.csv").read_text().strip().splitlines()
        header = agg[0].split(",")
        assert header[0] == "seed"
        assert len(agg) == len(seeds) + 1
        # each row repeats its seed's metrics.json
        for line, seed in zip(agg[1:], seeds):
            row = dict(zip(header, line.split(",")))
            metrics = json.loads((out / f"seed_{seed}" / "metrics.json")
                                 .read_text())
            assert row["seed"] == str(seed)
            st = metrics["settle_time_2pct"]
            assert row["settle_time_2pct"] == ("" if st is None
                                               else format(st, ".10g"))
            assert row["aborted"] == str(int(metrics["aborted"]))
            assert metrics["aborted"] is (code == EXIT_ABORT)


def test_sweep_and_compare_release_their_trace_files(tmp_path, capsys):
    """Each run holds its trace in an open file; once a command returns,
    every one of them is closed."""
    fd_dir = Path("/proc/self/fd")
    if not fd_dir.is_dir():
        pytest.skip("no /proc/self/fd to count open files")

    def open_fds():
        return len(list(fd_dir.iterdir()))

    before = open_fds()
    assert run_cli("sweep", "--scenario", "pitch_step", "--duration", "0.5",
                   "--runs", "4", "--out", str(tmp_path / "sweep")) == EXIT_OK
    assert open_fds() == before
    assert run_cli("compare", "--duration", "0.5",
                   "--out", str(tmp_path / "compare")) == EXIT_OK
    assert open_fds() == before


def test_out_dir_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CARRIERLAND_OUT", str(tmp_path / "root"))
    code = run_cli("run", "--scenario", "pitch_step", "--seed", "1",
                   "--duration", "0.5")
    assert code == EXIT_OK
    assert (tmp_path / "root" / "pitch_step_opd_s1" / "trace.csv").exists()


def test_help_covers_config_keys():
    parser = build_parser()
    # the run subparser embeds the full key registry in its epilog
    sub = None
    for action in parser._actions:
        if hasattr(action, "choices") and action.choices and \
                "run" in action.choices:
            sub = action.choices["run"]
    assert sub is not None
    text = sub.format_help()
    for key in CONFIG_KEYS:
        assert key in text


def _usage_error(capsys, *argv):
    """Run the CLI, expect exit 2, return the one-line stderr message."""
    assert run_cli(*argv) == EXIT_USAGE
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err
    return err


def test_zero_sink_rate_command_is_a_usage_error(tmp_path, capsys):
    err = _usage_error(capsys, "run", "--scenario", "sink_step",
                       "--set", "sink_rate_cmd=0", "--out", str(tmp_path))
    assert "sink_rate_cmd" in err


def test_infinite_duration_is_a_usage_error(tmp_path, capsys):
    err = _usage_error(capsys, "run", "--duration", "inf",
                       "--out", str(tmp_path))
    assert "duration" in err


def test_non_finite_dt_is_a_usage_error(tmp_path, capsys):
    err = _usage_error(capsys, "run", "--dt", "inf", "--set", "dt_noise=inf",
                       "--set", "noise_dt=inf", "--out", str(tmp_path))
    assert "dt must be finite" in err
    err = _usage_error(capsys, "run", "--duration", "1e300", "--dt", "1e-300",
                       "--out", str(tmp_path))
    assert "duration / dt" in err


def test_zero_wind_over_deck_with_wind_is_a_usage_error(tmp_path, capsys):
    err = _usage_error(capsys, "run", "--wind", "on", "--set", "v_wd=0",
                       "--out", str(tmp_path))
    assert "v_wd" in err


# a JSON file nested deeper than the decoder recurses
_DEEP_JSON = "[" * 100_000 + "]" * 100_000


def test_malformed_config_json_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": 1,\n')
    err = _usage_error(capsys, "run", "--config", str(bad),
                       "--out", str(tmp_path / "out"))
    assert str(bad) in err
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[1, 2]\n")
    err = _usage_error(capsys, "run", "--config", str(not_an_object),
                       "--out", str(tmp_path / "out"))
    assert "JSON object" in err
    too_deep = tmp_path / "deep.json"
    too_deep.write_text(_DEEP_JSON)
    err = _usage_error(capsys, "run", "--config", str(too_deep),
                       "--out", str(tmp_path / "out"))
    assert "recursion depth" in err


@pytest.mark.parametrize("argv, fragment", [
    (("--scenario", "approach", "--set", "ship_warmup_s=inf"),
     "ship_warmup_s must be >= 0 and finite"),
    (("--set", "ship_warmup_s=-1"), "ship_warmup_s must be >= 0"),
    (("--set", "dt_noise=1e308"), "dt_noise / dt must be finite"),
    (("--set", "noise_dt=1e308"), "noise_dt / dt must be finite"),
    (("--set", "t_max=-5"), "t_max must be > 0"),
    (("--set", "t_max=1000"), "no trim point"),
    (("--wind", "on", "--set", "turb_norm=-1"), "turb_norm must be >= 0"),
    (("--set", "ship_noise_gain=nan"), "ship_noise_gain must be >="),
    (("--set", "ship_noise_gain=-0.0"), "ship_noise_gain must be >="),
    (("--set", "glide_slope_deg=inf"), "glide_slope_deg must be finite"),
    (("--wind", "on", "--set", "v_wd=1e-320"), "wake_extent / v_wd"),
    (("--set", "pitch.dqdot_dde=0"), "pitch.dqdot_dde must be nonzero"),
    (("--scenario", "approach", "--set", "vel.ki=0"), "vel.ki and sink.ki"),
    (("--scenario", "approach", "--set", "sink.ki=0"), "vel.ki and sink.ki"),
    (("--controller", "pid", "--set", "pid.tau=-0.001"), "pid.tau"),
    (("--set", "guid.tau=-0.001"), "guid.tau"),
    (("--set", "sink.notch_zeta=-1"), "sink.notch_zeta must be >= 0"),
    (("--set", "theta_r_low_deg=9", "--set", "theta_r_high_deg=8"),
     "theta_r_low_deg must be <= theta_r_high_deg"),
    (("--dt", "0.003"), "dt must divide dt_noise"),
    (("--set", "noise_dt=0.0105"), "dt must divide noise_dt"),
    (("--dt", "1e-300"), "duration / dt must be <= 1e+08 steps"),
    (("--scenario", "approach", "--dt", "1e-7"),
     "ship_warmup_s / dt must be <= 1e+08 steps"),
    (("--scenario", "sink_step", "--set", "integrator_limit=-1"),
     "integrator_limit must be >= 0"),
    (("--scenario", "sink_step", "--set", "integrator_limit=nan"),
     "integrator_limit must be >= 0"),
    (("--scenario", "sink_step", "--set", "sink.tau=-1"),
     "sink.tau must be >= 0"),
    (("--scenario", "sink_step", "--set", "sink.tau=nan"),
     "sink.tau must be >= 0"),
    (("--set", "pitch.kp=nan"), "pitch.kp must be finite"),
    (("--set", "vel.kp=inf"), "vel.kp must be finite"),
    (("--set", "pitch_step_deg=nan"), "pitch_step_deg must be finite"),
    (("--set", "initial_altitude=nan"), "initial_altitude must be finite"),
    (("--set", "pitch.dqdot_dq=inf"), "pitch.dqdot_dq must be finite"),
    (("--set", "guid.kp=nan"), "guid.kp must be finite"),
    (("--set", "sink.notch_omega=nan"), "sink.notch_omega must be >= 0"),
    (("--set", "metric_skip_s=nan"), "metric_skip_s must be finite"),
    (("--set", "initial_range=inf"), "initial_range must be finite"),
    (("--set", "obs.k2=1e308"), "obs.*: invalid observer parameters: the "
     "gain k2/eps^2 overflows to inf"),
    (("--set", "obs.k3=1e308"), "obs.*: invalid observer parameters: the "
     "gain k3/eps overflows to inf"),
    (("--set", "obs.k1=1e307", "--set", "obs.k2=1e8", "--set", "obs.k3=1e300"),
     "obs.*: invalid observer parameters: the gain k1/eps^3 overflows"),
    (("--set", "obs.epsilon=1e-105"), "obs.*: invalid observer parameters: "
     "the gain k1/eps^3 overflows"),
    (("--scenario", "sink_step", "--set", "sink.notch_omega=1e300"),
     "sink.notch_omega is too large"),
    (("--scenario", "sink_step", "--set", "sink.notch_omega=1e160"),
     "sink.notch_omega is too large"),
    (("--scenario", "sink_step", "--set", "sink.notch_zeta=1e308"),
     "sink.notch_zeta is too large"),
    (("--dt", "1e-160", "--set", "dt_noise=1e-160", "--set",
      "noise_dt=1e-160", "--duration", "1e-153", "--set", "ship_warmup_s=0"),
     "dt is too small: the sink notch's coefficients"),
    (("--set", "ship_noise_gain=1e308"),
     "ship_noise_gain is too large: the held ship noise's sigmas"),
    (("--scenario", "approach", "--wind", "on", "--set", "turb_norm=1e308"),
     "turb_norm is too large: the held wind noise's sigmas"),
    (("--dt", "1e-309", "--set", "dt_noise=1e-309", "--set",
      "noise_dt=1e-309", "--duration", "1e-302", "--set", "ship_warmup_s=0"),
     "dt_noise is too small: the held ship noise's sigmas"),
    (("--ship", "off", "--wind", "on", "--dt", "1e-309", "--set",
      "dt_noise=1e-309", "--set", "noise_dt=1e-309", "--duration", "1e-302",
      "--set", "ship_warmup_s=0"),
     "dt_noise is too small: the held wind noise's sigmas"),
    # wake_extent / v_wd is finite, but the wake phase it feeds is not
    (("--wind", "on", "--set", "v_wd=1.3e-305", "--set", "wake_extent=2200",
      "--duration", "0.01"), "wake_extent / v_wd or duration is too large"),
    (("--scenario", "approach", "--wind", "on", "--set", "v_wd=1.3e-305",
      "--set", "wake_extent=2200"), "the wake phase is not finite"),
])
def test_invalid_config_is_a_usage_error(tmp_path, capsys, argv, fragment):
    # argv comes last, so that its own --duration wins
    err = _usage_error(capsys, "run", "--duration", "0.1", *argv,
                       "--out", str(tmp_path))
    assert fragment in err


def _float_bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_float(n: int) -> float:
    return struct.unpack("<d", struct.pack("<q", n))[0]


_MAX = sys.float_info.max
_BIG_K1 = {"obs.k2": 1e8, "obs.k3": 1e300}   # room for k1 under the k2 rule


@pytest.mark.parametrize("key, inside, outside, extra, edge", [
    ("obs.k3", 3.0, 1e308, {}, 0.3 * _MAX),                  # k3 / eps
    ("obs.k2", 2.75, 1e308, {}, 0.09 * _MAX),                # k2 / eps^2
    ("obs.k1", 0.75, 1e308, _BIG_K1, 0.027 * _MAX),          # k1 / eps^3
    ("obs.epsilon", 0.3, 1e-110, {}, (0.75 / _MAX) ** (1 / 3)),
    ("sink.notch_omega", 7.1, 1e300, {}, math.sqrt(_MAX / 2)),   # 2 w0^2
    ("sink.notch_zeta", 0.25, 1e308, {}, _MAX / (2 * 7.1 * 2000)),
    # the held heave sigma at dt_noise = 0.1 times the gain
    ("ship_noise_gain", 0.16, 1e308, {}, _MAX / math.sqrt(10 ** 0.45 / 0.1)),
    # turb_norm times the u1 PSD height, 200
    ("turb_norm", 0.5, 1e308, {"wind_on": True}, _MAX / 200),
])
def test_gain_overflow_edges(tmp_path, capsys, key, inside, outside, extra,
                             edge):
    """Bisect the floats between an accepted and a rejected value down to
    the two neighbours at the edge: the edge is where the gain, notch
    coefficient or held-noise sigma overflows, the value inside it runs
    (0, 3 or 4) and the float past it exits 2 naming the key."""
    def accepted(value):
        try:
            config_from_dict({**extra, key: value})
        except ConfigError:
            return False
        return True

    lo, hi = _float_bits(inside), _float_bits(outside)
    assert accepted(inside) and not accepted(outside)
    while abs(hi - lo) > 1:
        mid = (lo + hi) // 2
        if accepted(_bits_float(mid)):
            lo = mid
        else:
            hi = mid
    last, first = _bits_float(lo), _bits_float(hi)
    assert last == pytest.approx(edge, rel=1e-6)
    argv = ["run", "--duration", "0.01", "--out", str(tmp_path)]
    if key.startswith("sink."):
        argv += ["--scenario", "sink_step"]
    for k, v in extra.items():
        argv += ["--set", f"{k}={v!r}"]
    assert run_cli(*argv, "--set", f"{key}={last!r}") in (
        EXIT_OK, EXIT_ABORT, EXIT_UNSETTLED)
    capsys.readouterr()
    err = _usage_error(capsys, *argv, "--set", f"{key}={first!r}")
    assert ("obs.*" if key.startswith("obs.") else key) in err


def test_notch_dt_edge(tmp_path, capsys):
    """2 (2/dt)^2, a notch coefficient's numerator, overflows below
    dt = 2 / sqrt(max / 2): a dt just above that runs, one just below
    exits 2 naming dt."""
    edge = 2.0 / math.sqrt(_MAX / 2)

    def argv(dt):
        return ["run", "--dt", repr(dt), "--set", f"dt_noise={dt!r}",
                "--set", f"noise_dt={dt!r}", "--duration", repr(100 * dt),
                "--set", "ship_warmup_s=0", "--out", str(tmp_path)]

    assert run_cli(*argv(edge * (1 + 1e-6))) in (EXIT_OK, EXIT_ABORT,
                                                 EXIT_UNSETTLED)
    capsys.readouterr()
    assert "dt is too small" in _usage_error(capsys,
                                             *argv(edge * (1 - 1e-6)))


def test_hold_intervals_accept_exact_multiples(tmp_path, capsys):
    # 0.1 / 0.001 and 0.01 / 0.0005 are whole up to rounding
    assert run_cli("run", "--dt", "0.0005", "--set", "dt_noise=0.1",
                   "--duration", "0.05", "--out", str(tmp_path)) == EXIT_OK


_SHIPPED_MODEL = json.loads(resources.files("carrierland.data").joinpath(
    "fa18_aero.json").read_text())


@pytest.mark.parametrize("model_json, fragment", [
    ({"cl_base": [0.1]}, "missing keys"),
    ("not json", "aero model"),
    ([1, 2], "expected a JSON object of model fields, got list"),
    pytest.param(_DEEP_JSON, "recursion depth", id="nested-recursion depth"),
    # the shipped model with an integer no float can hold
    ({**_SHIPPED_MODEL, "cl_q": 10 ** 400},
     "int too large to convert to float"),
    # the shipped model with a number that is not finite
    ({**_SHIPPED_MODEL, "alpha_min_deg": math.nan},
     "alpha_min must be finite"),
    ({**_SHIPPED_MODEL, "cm_de": math.nan}, "cm_de must be finite"),
    ({**_SHIPPED_MODEL, "cl_base": [math.nan, *_SHIPPED_MODEL["cl_base"][1:]]},
     "cl_base must be finite"),
    ({**_SHIPPED_MODEL, "alpha_max_deg": math.inf},
     "alpha_max must be finite"),
    # the shipped model with a value of the wrong JSON type
    ({**_SHIPPED_MODEL, "cl_base": "1234"},
     "cl_base: expected a list of numbers, got '1234'"),
    ({**_SHIPPED_MODEL, "cd_base": {"0": 0.1}},
     "cd_base: expected a list of numbers"),
    ({**_SHIPPED_MODEL, "cm_base": [True, *_SHIPPED_MODEL["cm_base"][1:]]},
     "cm_base: expected a number, got True"),
    ({**_SHIPPED_MODEL, "cl_base": ["0.1", *_SHIPPED_MODEL["cl_base"][1:]]},
     "cl_base: expected a number, got '0.1'"),
    ({**_SHIPPED_MODEL, "cm_q": True}, "cm_q: expected a number, got True"),
    ({**_SHIPPED_MODEL, "alpha_min_deg": False},
     "alpha_min_deg: expected a number, got False"),
    ({**_SHIPPED_MODEL, "cl_de": "0.5"}, "cl_de: expected a number, got '0.5'"),
    ({**_SHIPPED_MODEL, "cd_de": None}, "cd_de: expected a number, got None"),
    # a top level that is not a JSON object, as the file's text
    ("5", "expected a JSON object of model fields, got int"),
    ("null", "expected a JSON object of model fields, got NoneType"),
    ('"x"', "expected a JSON object of model fields, got str"),
])
def test_bad_aero_model_file_is_a_usage_error(tmp_path, capsys, model_json,
                                              fragment):
    path = tmp_path / "aero.json"
    path.write_text(model_json if isinstance(model_json, str)
                    else json.dumps(model_json))
    err = _usage_error(capsys, "run", "--set", f"aero_model_path={path}",
                       "--duration", "0.1", "--out", str(tmp_path / "out"))
    assert fragment in err


@pytest.mark.parametrize("argv, reads", [
    (("run",), 1),
    (("compare",), 2),
    (("sweep", "--runs", "3"), 3),
])
def test_each_run_reads_its_aero_model_file_once(tmp_path, capsys,
                                                 monkeypatch, argv, reads):
    """The config is checked without reading the model file; each run
    reads it once, where the run is built."""
    path = tmp_path / "aero.json"
    path.write_bytes(resources.files("carrierland.data")
                     .joinpath("fa18_aero.json").read_bytes())
    read, calls = AeroModel.from_file, []

    def counted(p):
        calls.append(p)
        return read(p)

    monkeypatch.setattr(AeroModel, "from_file", counted)
    assert run_cli(*argv, "--set", f"aero_model_path={path}",
                   "--duration", "0.1", "--out", str(tmp_path / "out")) \
        == EXIT_OK
    assert calls == [str(path)] * reads


@pytest.mark.parametrize("argv, fragment", [
    (("--runs", "0"), "--runs"),
    (("--set", "aero_model_path={bad}"), "missing keys"),
    (("--set", "dt=-1"), "dt must be"),
    # the shipped model with a pitch-control derivative that vanishes in
    # the linearization at trim, which the pitch laws divide by
    (("--set", "aero_model_path={flat}", "--set", "use_local_partials=on"),
     "use_local_partials: the linearized pitch.dqdot_dde at trim is 0"),
    # the shipped model with an elevator derivative so large that its
    # difference quotient at trim overflows
    (("--set", "aero_model_path={steep}", "--set", "use_local_partials=on"),
     "use_local_partials: the linearized model at trim is not finite"),
])
def test_rejected_sweep_writes_nothing(tmp_path, capsys, argv, fragment):
    bad = tmp_path / "aero.json"
    bad.write_text('{"cl_base": [0.1]}\n')
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({**_SHIPPED_MODEL, "cm_base": [0, 0, 0, 0],
                                "cm_de": -5e-324}))
    steep = tmp_path / "steep.json"
    steep.write_text(json.dumps({**_SHIPPED_MODEL, "cm_de": -1e308}))
    out = tmp_path / "out"
    # a later --runs overrides this one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _usage_error(capsys, "sweep", "--runs", "2", "--duration",
                           "0.1", "--out", str(out),
                           *(a.format(bad=bad, flat=flat, steep=steep)
                             for a in argv))
    assert fragment in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["trim", "linearize"])
def test_trim_commands_reject_bad_model_or_airspeed(tmp_path, capsys,
                                                     command):
    bad = tmp_path / "aero.json"
    bad.write_text('{"cl_base": [0.1]}\n')
    err = _usage_error(capsys, command, "--aero-model", str(bad))
    assert "missing keys" in err
    bad.write_text(_DEEP_JSON)
    err = _usage_error(capsys, command, "--aero-model", str(bad))
    assert "recursion depth" in err
    bad.write_text(json.dumps({**_SHIPPED_MODEL, "cd_de": math.nan}))
    err = _usage_error(capsys, command, "--aero-model", str(bad))
    assert "cd_de must be finite" in err
    err = _usage_error(capsys, command, "--airspeed", "1000")
    assert "no trim point" in err


def test_linearize_rejects_a_model_whose_differences_overflow(tmp_path,
                                                              capsys):
    """A finite model that trims, but whose central differences at trim
    overflow: linearize exits 2 with one line, warning nothing."""
    path = tmp_path / "aero.json"
    path.write_text(json.dumps({**_SHIPPED_MODEL, "cm_base": [0, 1e308, 0, 0],
                                "cm_de": -1e308}))
    assert run_cli("trim", "--aero-model", str(path)) == EXIT_OK
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _usage_error(capsys, "linearize", "--aero-model", str(path))
    assert err == "error: the linearized model at trim is not finite"


@pytest.mark.parametrize("command", ["trim", "linearize"])
@pytest.mark.parametrize("airspeed", ["-5", "0", "-0.0", "nan", "inf", "-inf",
                                      "1e308", "1e-200"])
def test_trim_commands_reject_out_of_range_airspeed(capsys, command,
                                                    airspeed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _usage_error(capsys, command, f"--airspeed={airspeed}")
    assert "airspeed must be > 0" in err


def test_invalid_gain_in_config_file_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"pitch.dqdot_dde": 0}\n')
    err = _usage_error(capsys, "run", "--config", str(cfg),
                       "--out", str(tmp_path / "out"))
    assert "pitch.dqdot_dde" in err


# every numeric config key, drawn with its degenerate values too
_NUMERIC_KEYS = sorted(k for k, (_, typ, _) in CONFIG_KEYS.items()
                       if typ in (int, float))
# keys whose finite values set the run's cost, drawn short
_SHORT_KEYS = {"duration": (0.001, 0.2), "ship_warmup_s": (0.0, 0.3)}


def _domain_draws(st, key):
    """A numeric key's values from its CONFIG_KEYS domain: the finite
    edges, the nearest value past each, values inside, and nan."""
    _, typ, domain = CONFIG_KEYS[key]
    lo, hi = domain.lo, domain.hi
    if typ is int:
        beyond = (lo - 1, hi + 1)
        inside = st.integers(int(lo), int(min(hi, 2 ** 40)))
    else:
        beyond = (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))
        inside = st.floats(lo, hi)
    edges = [v for edge, past in zip((lo, hi), beyond) if math.isfinite(edge)
             for v in (edge, past)]
    return st.one_of(st.sampled_from(edges + [math.nan]), inside)


def _config_draws(st):
    """(scenario, controller, wind, noise, ship, settings) draws, where
    settings always holds the short keys and up to four other keys."""
    degenerate = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e308]
    special = st.sampled_from(degenerate + [1e308, 1e-308])
    values = {}
    for key in _NUMERIC_KEYS:
        if key in _SHORT_KEYS:
            values[key] = st.one_of(special, st.floats(*_SHORT_KEYS[key]))
        elif key == "dt":
            values[key] = st.sampled_from(
                degenerate + [0.001, 0.002, 0.0005, 0.003, 0.01, 0.05,
                              1e-300, 5e-324])
        else:
            values[key] = _domain_draws(st, key)
    other = st.lists(st.sampled_from(
        [k for k in _NUMERIC_KEYS if k not in _SHORT_KEYS]).flatmap(
            lambda k: st.tuples(st.just(k), values[k])), max_size=4)
    settings = st.tuples(values["duration"], values["ship_warmup_s"],
                         other).map(lambda d: [("duration", d[0]),
                                               ("ship_warmup_s", d[1])] + d[2])
    return st.tuples(st.sampled_from(SCENARIOS), st.sampled_from(CONTROLLERS),
                     st.booleans(), st.booleans(), st.booleans(), settings)


def test_config_fuzz_runs_or_rejects():
    """Every numeric config either runs (exit 0, 3 or 4) or is rejected
    with exit 2 and a one-line message; none ends in a traceback."""
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(_config_draws(hypothesis.strategies))
    # a pitch step to exactly 0 rad on the default airframe, a value of
    # measure zero that the draws miss
    @hypothesis.example(("pitch_step", "opd", False, False, True,
                         [("duration", 0.2), ("ship_warmup_s", 0.0),
                          ("pitch_step_deg", -7.099999999999988)]))
    # a finite wake_extent / v_wd whose wake phase overflows, at the
    # float edge that the draws miss
    @hypothesis.example(("pitch_step", "opd", True, False, True,
                         [("duration", 0.01), ("ship_warmup_s", 0.0),
                          ("v_wd", 1.3e-305), ("wake_extent", 2200.0)]))
    # a dt whose 1 / dt overflows, which sizes the steady-state tail; the
    # noise holds equal dt, and the sink notch is off
    @hypothesis.example(("pitch_step", "opd", False, False, False,
                         [("duration", 1e-308), ("ship_warmup_s", 0.0),
                          ("dt", 1e-310), ("dt_noise", 1e-310),
                          ("noise_dt", 1e-310), ("sink.notch_omega", 0.0)]))
    def check(draw):
        scenario, controller, wind, noise, ship, settings = draw
        argv = ["run", "--scenario", scenario, "--controller", controller,
                "--wind", "on" if wind else "off",
                "--noise", "on" if noise else "off",
                "--ship", "on" if ship else "off"]
        for key, value in settings:
            argv += ["--set", f"{key}={value!r}"]
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as out, \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--out", out])
        message = err.getvalue().strip()
        if code == EXIT_USAGE:
            assert message.startswith("error: ") and "\n" not in message
        else:
            assert code in (EXIT_OK, EXIT_ABORT, EXIT_UNSETTLED), message

    check()


# the shipped model with cm_q and alpha_max_deg at 1e154: a stage's pitch
# angle overflows, and math.sin raised ValueError on its flight-path angle
_OVERFLOWING_ANGLES = {"cm_q": 1e154, "alpha_max_deg": 1e154}


def test_model_whose_angles_overflow_aborts_the_run(tmp_path, capsys):
    path = tmp_path / "aero.json"
    path.write_text(json.dumps({**_SHIPPED_MODEL, **_OVERFLOWING_ANGLES}))
    assert run_cli("run", "--scenario", "pitch_step", "--duration", "0.2",
                   "--set", f"aero_model_path={path}",
                   "--out", str(tmp_path / "out")) == EXIT_ABORT
    assert capsys.readouterr().err.startswith(
        "model abort at t=0.001 s: NonFiniteDerivative: non-finite "
        "flight-path angle: -inf\n")


_MODEL_SCALARS = ("cl_q", "cm_q", "cl_de", "cd_de", "cm_de", "alpha_min_deg",
                  "alpha_max_deg")
_MODEL_TABLES = ("cl_base", "cd_base", "cm_base")
_EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e-308, 1e-5, 1e154, -1e154, 1e300,
             -1e300, _MAX, -_MAX, math.nan, math.inf, -math.inf)


def _model_draws(st):
    """(fields, scenario, wind) draws: fields replaces one or two fields
    of the shipped model, each scalar by an extreme or any float, each
    table by a shorter or longer one, or by the shipped table with one
    coefficient replaced."""
    number = st.one_of(st.sampled_from(_EXTREMES), st.floats())
    scalar = st.tuples(st.sampled_from(_MODEL_SCALARS), number)
    table = st.tuples(st.sampled_from(_MODEL_TABLES),
                      st.lists(number, max_size=7))
    coefficient = st.tuples(st.sampled_from(_MODEL_TABLES),
                            st.integers(0, 3), number).map(
        lambda d: (d[0], [*_SHIPPED_MODEL[d[0]][:d[1]], d[2],
                          *_SHIPPED_MODEL[d[0]][d[1] + 1:]]))
    fields = st.lists(st.one_of(scalar, table, coefficient), min_size=1,
                      max_size=2)
    return st.tuples(fields, st.sampled_from(SCENARIOS), st.booleans())


def test_model_file_fuzz_runs_or_rejects():
    """Every model file either trims, linearizes and runs (exit 0 or 3)
    or is rejected with exit 2 and a one-line message, under each pitch
    partials source; none ends in a traceback or warns."""
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(_model_draws(hypothesis.strategies))
    @hypothesis.example((list(_OVERFLOWING_ANGLES.items()), "pitch_step",
                         False))
    def check(draw):
        fields, scenario, wind = draw
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "aero.json"
            path.write_text(json.dumps({**_SHIPPED_MODEL, **dict(fields)}))
            run = ("run", "--scenario", scenario, "--duration", "0.2",
                   "--wind", "on" if wind else "off",
                   "--set", "ship_warmup_s=0", "--set",
                   f"aero_model_path={path}", "--out", str(Path(tmp) / "out"))
            for argv in (("trim", "--aero-model", str(path)),
                         ("linearize", "--aero-model", str(path)),
                         run + ("--set", "use_local_partials=off"),
                         run + ("--set", "use_local_partials=on")):
                err = io.StringIO()
                with warnings.catch_warnings(record=True) as caught, \
                        contextlib.redirect_stderr(err), \
                        contextlib.redirect_stdout(io.StringIO()):
                    warnings.simplefilter("always")
                    code = main(list(argv))
                message = err.getvalue().strip()
                assert not caught, (argv[0], [str(w.message) for w in caught])
                if code == EXIT_USAGE:
                    assert message.startswith("error: ") \
                        and "\n" not in message, message
                else:
                    assert code in (EXIT_OK, EXIT_ABORT), message

    check()


@pytest.mark.parametrize("config, key", [
    ('{"seed": 1.7}', "seed"),
    ('{"trace_decimation": 2.9}', "trace_decimation"),
    ('{"seed": true}', "seed"),
    ('{"wind_on": 2}', "wind_on"),
])
def test_config_file_value_of_the_wrong_type_is_a_usage_error(
        tmp_path, capsys, config, key):
    # each was coerced before: seed 1, decimation 2, seed 1, wind on
    path = tmp_path / "cfg.json"
    path.write_text(config + "\n")
    err = _usage_error(capsys, "run", "--config", str(path),
                       "--duration", "0.01", "--out", str(tmp_path / "out"))
    assert key in err


def test_config_file_takes_integral_floats_for_int_keys(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"seed": 2.0, "trace_decimation": 5.0, '
                    '"wind_on": true}\n')
    assert run_cli("run", "--config", str(path), "--duration", "0.01",
                   "--out", str(tmp_path / "out")) == EXIT_OK
    resolved = json.loads((tmp_path / "out" / "resolved_config.json")
                          .read_text())
    assert (resolved["seed"], resolved["trace_decimation"],
            resolved["wind_on"]) == (2, 5, True)


# an inside value for the keys whose default is null
_NULL_DEFAULT_INSIDE = {"duration": 0.01, "t_max": AircraftParams().t_max}


@pytest.mark.parametrize("key", _NUMERIC_KEYS)
def test_numeric_key_domain_boundaries(tmp_path, capsys, key):
    """A value inside each numeric key's domain runs; nan and the nearest
    value outside each finite edge of the domain exit 2 naming the key."""
    _, typ, domain = CONFIG_KEYS[key]
    inside = _NULL_DEFAULT_INSIDE.get(key,
                                      config_to_dict(ScenarioConfig())[key])
    argv = ("run", "--set", "duration=0.01", "--out", str(tmp_path))
    assert inside is not None
    assert run_cli(*argv, "--set", f"{key}={inside!r}") in (
        EXIT_OK, EXIT_ABORT, EXIT_UNSETTLED)
    capsys.readouterr()
    outside = [math.nan]
    if domain.lo > -math.inf:
        outside.append(domain.lo - 1 if typ is int
                       else math.nextafter(domain.lo, -math.inf))
    if domain.hi < math.inf:
        outside.append(math.nextafter(domain.hi, math.inf))
    for value in outside:
        err = _usage_error(capsys, *argv, "--set", f"{key}={value!r}")
        assert key in err, value

import contextlib
import io
import json
import math
import tempfile
import warnings

import pytest

from carrierland.cli import (EXIT_ABORT, EXIT_OK, EXIT_UNSETTLED, EXIT_USAGE,
                             build_parser, main)
from carrierland.sim import CONFIG_KEYS, CONTROLLERS, SCENARIOS


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


@pytest.mark.parametrize("command", ["compare", "sweep"])
def test_require_settled_only_on_run(tmp_path, capsys, command):
    # compare and sweep never read the flag, so they reject it
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--scenario", "pitch_step", "--duration", "0.5",
                "--require-settled", "--out", str(tmp_path / command))
    assert exc.value.code == EXIT_USAGE
    assert "--require-settled" in capsys.readouterr().err
    assert not (tmp_path / command).exists()


def test_compare_outputs(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = run_cli("compare", "--scenario", "pitch_step", "--seed", "3",
                   "--duration", "2.0", "--out", str(out))
    assert code == EXIT_OK
    names = sorted(p.name for p in out.iterdir())
    assert names == ["comparison.json", "metrics_opd.json", "metrics_pid.json",
                     "resolved_config.json", "trace_opd.csv", "trace_pid.csv"]
    summary = json.loads((out / "comparison.json").read_text())
    assert "speedup_ratio" in summary


def test_sweep_outputs(tmp_path, capsys):
    out = tmp_path / "sw"
    code = run_cli("sweep", "--scenario", "pitch_step", "--seed", "10",
                   "--duration", "1.0", "--runs", "3", "--out", str(out))
    assert code == EXIT_OK
    dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert dirs == ["seed_10", "seed_11", "seed_12"]
    agg = (out / "aggregate.csv").read_text().strip().splitlines()
    assert agg[0].startswith("seed,")
    assert len(agg) == 4


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
])
def test_invalid_config_is_a_usage_error(tmp_path, capsys, argv, fragment):
    err = _usage_error(capsys, "run", *argv, "--duration", "0.1",
                       "--out", str(tmp_path))
    assert fragment in err


def test_hold_intervals_accept_exact_multiples(tmp_path, capsys):
    # 0.1 / 0.001 and 0.01 / 0.0005 are whole up to rounding
    assert run_cli("run", "--dt", "0.0005", "--set", "dt_noise=0.1",
                   "--duration", "0.05", "--out", str(tmp_path)) == EXIT_OK


@pytest.mark.parametrize("model_json, fragment", [
    ({"cl_base": [0.1]}, "missing keys"),
    ("not json", "aero model"),
    ([1, 2], "aero model"),
])
def test_bad_aero_model_file_is_a_usage_error(tmp_path, capsys, model_json,
                                              fragment):
    path = tmp_path / "aero.json"
    path.write_text(model_json if isinstance(model_json, str)
                    else json.dumps(model_json))
    err = _usage_error(capsys, "run", "--set", f"aero_model_path={path}",
                       "--duration", "0.1", "--out", str(tmp_path / "out"))
    assert fragment in err


@pytest.mark.parametrize("command", ["trim", "linearize"])
def test_trim_commands_reject_bad_model_or_airspeed(tmp_path, capsys,
                                                     command):
    bad = tmp_path / "aero.json"
    bad.write_text('{"cl_base": [0.1]}\n')
    err = _usage_error(capsys, command, "--aero-model", str(bad))
    assert "missing keys" in err
    err = _usage_error(capsys, command, "--airspeed", "1000")
    assert "no trim point" in err


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
_NUMERIC_KEYS = sorted(k for k, (_, typ) in CONFIG_KEYS.items()
                       if typ in (int, float))
# keys whose finite values set the run's cost, drawn short
_SHORT_KEYS = {"duration": (0.001, 0.2), "ship_warmup_s": (0.0, 0.3)}


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
        elif CONFIG_KEYS[key][1] is int:
            values[key] = st.integers(-3, 2 ** 40)
        else:
            values[key] = st.one_of(special, st.floats())
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

import json

from carrierland.cli import (EXIT_ABORT, EXIT_OK, EXIT_UNSETTLED, EXIT_USAGE,
                             build_parser, main)
from carrierland.sim import CONFIG_KEYS


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

"""
Command-line entry point.

Subcommands:
    trim        solve and print the level-flight trim point
    linearize   print the small-perturbation state-space model
    run         run one scenario, writing trace.csv / metrics.json /
                resolved_config.json into the output directory
    compare     run the observer-PD and PID pitch laws against the same
                seeded environment, writing trace_opd.csv / trace_pid.csv /
                metrics_opd.json / metrics_pid.json, one resolved_config.json
                of the base config (its controller is ignored) and
                comparison.json
    sweep       repeat a scenario over consecutive seeds, writing run's
                three files into seed_<n>/ per seed and one aggregate.csv

Configuration precedence: built-in defaults, then --config file, then
--set key=value overrides (repeatable).  `run --help` lists each key
and its domain.  The resolved_config.json of a run or a sweep seed
reproduces that run byte-for-byte when passed back via --config.

Exit codes: 0 success, 2 usage or configuration error, 3 model abort
(simulation left its valid envelope), 4 run completed but a required
settling check failed (--require-settled), 141 (128 + SIGPIPE) the
reader of stdout or stderr left early; nothing more is printed, and
output files already written stay.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from .airframe import AircraftParams
from .config import (CONFIG_KEYS, CONTROLLERS, SCENARIOS, ConfigError,
                     ScenarioConfig, config_from_dict, config_to_dict)
from .sim import (RunResult, compare_controllers, load_aero_model,
                  run_scenario, trim_point, write_trace_csv)
from .trimlin import TRIM_AIRSPEED, eigenmodes, linearize

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ABORT = 3
EXIT_UNSETTLED = 4
EXIT_BROKEN_PIPE = 141

OUT_ROOT_ENV = "CARRIERLAND_OUT"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left: point stdout at devnull so that the
        # interpreter's exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carrierland",
        description="Closed-loop carrier-landing simulation for an "
                    "F/A-18-class aircraft.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_trim = sub.add_parser("trim", help="solve the level-flight trim point")
    _add_model_args(p_trim)
    p_trim.set_defaults(func=cmd_trim)

    p_lin = sub.add_parser("linearize",
                           help="print the linear model at the trim point")
    _add_model_args(p_lin)
    p_lin.set_defaults(func=cmd_linearize)

    p_run = sub.add_parser(
        "run", help="run one scenario",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="config keys and their domains (exit 2 outside them):\n"
        + "\n".join(f"  {key:<19} {entry.domain.text}"
                    for key, entry in sorted(CONFIG_KEYS.items())))
    _add_run_args(p_run)
    p_run.add_argument("--require-settled", action="store_true",
                       help="exit 4 when the scenario metric does not settle")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="run opd and pid against the same environment")
    _add_run_args(p_cmp, controller_choice=False)
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="repeat a scenario over seeds")
    _add_run_args(p_sweep)
    p_sweep.add_argument("--runs", type=int, default=10,
                         help="number of consecutive seeds (default 10)")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def _add_model_args(p):
    p.add_argument("--aero-model", help="path to an aero model JSON file")
    p.add_argument("--airspeed", type=float, default=TRIM_AIRSPEED,
                   help="trim airspeed, m/s")


def _add_run_args(p, controller_choice=True):
    p.add_argument("--config", help="JSON file of config keys")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override one config key (repeatable)")
    p.add_argument("--out", help="output directory (default: under "
                   f"${OUT_ROOT_ENV} or ./runs)")
    p.add_argument("--scenario", choices=SCENARIOS)
    if controller_choice:
        p.add_argument("--controller", choices=CONTROLLERS)
    p.add_argument("--seed", type=int)
    p.add_argument("--duration", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--wind", choices=("on", "off"), dest="wind_on")
    p.add_argument("--noise", choices=("on", "off"), dest="noise_on")
    p.add_argument("--ship", choices=("on", "off"), dest="ship_on")


def resolve_config(args) -> ScenarioConfig:
    data: dict = {}
    if args.config:
        with open(args.config) as f:
            try:
                data = json.load(f)
            except (ValueError, RecursionError) as exc:
                # JSONDecodeError, UnicodeDecodeError, or nesting too deep
                raise ConfigError(f"--config {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"--config {args.config}: expected a JSON "
                              "object of config keys")
    overrides: dict = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got '{item}'")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    # compare has no --controller, hence getattr
    for key in ("scenario", "controller", "seed", "duration", "dt",
                "wind_on", "noise_on", "ship_on"):
        v = getattr(args, key, None)
        if v is not None:
            overrides[key] = v
    return config_from_dict(data, overrides)


def out_dir_for(args, name: str) -> str:
    if args.out:
        return args.out
    root = os.environ.get(OUT_ROOT_ENV, "runs")
    return os.path.join(root, name)


def _trim_from_args(args):
    """(params, model, trim point) of the trim and linearize commands."""
    params = AircraftParams()
    model = load_aero_model(args.aero_model)
    return params, model, trim_point(params, model, args.airspeed)


def cmd_trim(args) -> int:
    _, _, tp = _trim_from_args(args)
    print(f"airspeed        {tp.v_t_star:12.4f} m/s")
    print(f"alpha = theta   {math.degrees(tp.alpha_star):12.4f} deg")
    print(f"pitch rate      {tp.q_star:12.4f} rad/s")
    print(f"flight path     {tp.gamma_star:12.4f} rad")
    print(f"elevator        {math.degrees(tp.delta_e_star):12.4f} deg")
    print(f"thrust          {tp.thrust_star:12.1f} N")
    print(f"residuals       {tp.residuals[0]:.2e} {tp.residuals[1]:.2e} "
          f"{tp.residuals[2]:.2e}")
    return EXIT_OK


def cmd_linearize(args) -> int:
    params, model, tp = _trim_from_args(args)
    try:
        lm = linearize(tp, params, model)
    except OverflowError as exc:
        raise ConfigError(str(exc)) from exc
    print("A (dV_T, dtheta, dalpha, dq):")
    for row in lm.a:
        print("  " + " ".join(f"{v:12.6f}" for v in row))
    print("B (ddelta_e [rad], ddelta_t):")
    for row in lm.b:
        print("  " + " ".join(f"{v:12.6f}" for v in row))
    modes = eigenmodes(lm.a)
    for ev, label in zip(modes.eigenvalues, modes.labels):
        name = label or "unlabeled"
        print(f"  {ev.real:+.6f} {ev.imag:+.6f}j  {name}")
    return EXIT_OK


def _write_json(path: str, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _emit_run(result: RunResult, out_dir: str, suffix: str = "") -> None:
    """Write one run's files: resolved_config.json (untagged runs only),
    then trace[_suffix].csv and metrics[_suffix].json."""
    os.makedirs(out_dir, exist_ok=True)
    if not suffix:
        _write_json(os.path.join(out_dir, "resolved_config.json"),
                    config_to_dict(result.config))
    tag = f"_{suffix}" if suffix else ""
    write_trace_csv(os.path.join(out_dir, f"trace{tag}.csv"), result.trace)
    payload = dict(vars(result.metrics))
    payload["aborted"] = result.aborted
    if result.aborted:
        payload["abort_time"] = result.abort_time
        payload["abort_reason"] = result.abort_reason
    _write_json(os.path.join(out_dir, f"metrics{tag}.json"), payload)


def cmd_run(args) -> int:
    cfg = resolve_config(args)
    out_dir = out_dir_for(args, f"{cfg.scenario}_{cfg.controller}_s{cfg.seed}")
    result = run_scenario(cfg)
    _emit_run(result, out_dir)
    m = result.metrics
    if result.aborted:
        print(f"model abort at t={result.abort_time:.3f} s: "
              f"{result.abort_reason}", file=sys.stderr)
        print(f"partial trace written to {out_dir}", file=sys.stderr)
        return EXIT_ABORT
    _print_summary(cfg, m)
    print(f"outputs written to {out_dir}")
    if args.require_settled and not m.settled:
        print("required settling not achieved", file=sys.stderr)
        return EXIT_UNSETTLED
    return EXIT_OK


def _print_summary(cfg: ScenarioConfig, m) -> None:
    print(f"scenario={cfg.scenario} controller={cfg.controller} "
          f"seed={cfg.seed}")
    if m.settle_time_2pct is not None:
        print(f"  settle (2%):        {m.settle_time_2pct:.3f} s")
    elif cfg.scenario != "approach":
        print("  settle (2%):        not settled")
    if m.steady_state_error is not None:
        print(f"  steady-state error: {100 * m.steady_state_error:.3f} %")
    if m.overshoot is not None:
        print(f"  overshoot:          {100 * m.overshoot:.2f} %")
    if m.max_glidepath_deviation is not None:
        print(f"  max path deviation: {m.max_glidepath_deviation:.2f} m")
    if m.pitch_ref_rms_error is not None:
        print(f"  pitch RMS vs ref:   {math.degrees(m.pitch_ref_rms_error):.3f} deg")
    if m.touchdown_time is not None:
        print(f"  touchdown:          {m.touchdown_time:.2f} s "
              f"(vertical error {m.touchdown_vertical_error:.2f} m)")
    print(f"  saturation steps:   elevator {m.elevator_saturation_count}, "
          f"thrust {m.thrust_saturation_count}")
    if m.observer_rms_error is not None:
        print(f"  observer RMS error: {m.observer_rms_error:.4f} rad/s^2")


def cmd_compare(args) -> int:
    cfg = resolve_config(args)
    out_dir = out_dir_for(args, f"compare_{cfg.scenario}_s{cfg.seed}")
    runs = compare_controllers(cfg)._asdict()
    os.makedirs(out_dir, exist_ok=True)
    # one config for both laws: the base config, whose controller is unread
    _write_json(os.path.join(out_dir, "resolved_config.json"),
                config_to_dict(cfg))
    for law, res in runs.items():
        _emit_run(res, out_dir, suffix=law)
    opd, pid = (res.metrics.settle_time_2pct for res in runs.values())
    speedup = pid / opd if opd and pid and opd > 0.0 else None
    faster = None if speedup is None else 1.0 - 1.0 / speedup
    _write_json(os.path.join(out_dir, "comparison.json"),
                {"opd_settle_s": opd, "pid_settle_s": pid,
                 "speedup_ratio": speedup, "fraction_faster": faster})
    for law, res in runs.items():
        st = res.metrics.settle_time_2pct
        state = f"{st:.3f} s" if st is not None else "not settled"
        extra = " (aborted)" if res.aborted else ""
        print(f"  {law}: settle {state}{extra}")
    if speedup is not None:
        print(f"  speedup: {speedup:.2f}x ({100 * faster:.0f}% faster)")
    print(f"outputs written to {out_dir}")
    return EXIT_ABORT if any(r.aborted for r in runs.values()) else EXIT_OK


def cmd_sweep(args) -> int:
    cfg = resolve_config(args)
    if args.runs < 1:
        raise ConfigError("--runs must be >= 1")
    out_dir = out_dir_for(args, f"sweep_{cfg.scenario}_{cfg.controller}")
    rows = []
    for seed in range(cfg.seed, cfg.seed + args.runs):
        result = run_scenario(replace(cfg, seed=seed))
        _emit_run(result, os.path.join(out_dir, f"seed_{seed}"))
        m = result.metrics
        rows.append((seed, m.settle_time_2pct, m.steady_state_error,
                     m.max_glidepath_deviation, result.aborted))
    agg_path = os.path.join(out_dir, "aggregate.csv")
    with open(agg_path, "w") as f:
        f.write("seed,settle_time_2pct,steady_state_error,"
                "max_glidepath_deviation,aborted\n")
        for seed, st, ss, dev, ab in rows:
            f.write(f"{seed},{_opt(st)},{_opt(ss)},{_opt(dev)},{int(ab)}\n")
    settled = [st for _, st, _, _, _ in rows if st is not None]
    print(f"{len(rows)} runs -> {out_dir}")
    if settled:
        print(f"  settled {len(settled)}/{len(rows)}, "
              f"settle range {min(settled):.3f}-{max(settled):.3f} s")
    return EXIT_ABORT if any(row[-1] for row in rows) else EXIT_OK


def _opt(v) -> str:
    return "" if v is None else format(v, ".10g")


if __name__ == "__main__":
    sys.exit(main())

import dataclasses
import gc
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest

from carrierland import sim
from carrierland.airframe import AeroModel, state_derivative
from carrierland.cli import EXIT_USAGE, main as cli_main
from carrierland.config import (CONFIG_KEYS, CONTROLLERS, ConfigError,
                                ScenarioConfig, config_from_dict,
                                config_to_dict, parse_config_value)
from carrierland.control import known_input
from carrierland.environment import PitchNoise, rng_stream
from carrierland.integrate import rk4_step
from carrierland.sim import (TRACE_BLOCK_ROWS, RunMetrics, Simulation,
                             StepResponse, TRACE_HEADER, Trace,
                             compare_controllers, run_scenario,
                             write_trace_csv)
from carrierland.trimlin import linearize, solve_trim


# ---------------------------------------------------------------- RK4
def test_rk4_constant_state():
    y = rk4_step(lambda t, s: (0.0,), (3.7,), 0.0, 0.01)
    assert y == (3.7,)


def test_rk4_exponential_single_step():
    y = rk4_step(lambda t, s: (-s[0],), (1.0,), 0.0, 0.001)
    assert abs(y[0] - math.exp(-0.001)) <= 0.001 ** 5


def test_rk4_cosine_single_step():
    dt = 0.001
    y = rk4_step(lambda t, s: (math.cos(t),), (0.0,), 0.0, dt)
    assert abs(y[0] - math.sin(dt)) <= dt ** 5


def _exp_global_error(dt):
    y = (1.0,)
    n = int(round(1.0 / dt))
    for k in range(n):
        y = rk4_step(lambda t, s: (-s[0],), y, k * dt, dt)
    return abs(y[0] - math.exp(-1.0))


def test_rk4_observed_order_at_least_3_8():
    # step triple chosen in the truncation-dominated regime; below
    # dt = 0.002 the error sits on the double-precision rounding floor
    errs = [_exp_global_error(dt) for dt in (0.008, 0.004, 0.002)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 3.8


# ------------------------------------------------------------ metrics
def _step_response(metrics, t, y, start, target, dt):
    """StepResponse's metrics of the samples y at times t."""
    fold = StepResponse(start, target, dt, len(y))
    for sample in zip(t, y):
        fold.add(*sample)
    fold.into(metrics)


def _settle_time(t, y, target):
    """StepResponse's settle time of the samples y at times t."""
    metrics = RunMetrics()
    _step_response(metrics, t, y, target, target, 1.0)
    return metrics.settle_time_2pct


def test_settle_time_basic():
    t = [0.0, 1.0, 2.0, 3.0, 4.0]
    y = [0.0, 0.5, 0.99, 1.0, 1.0]
    assert _settle_time(t, y, 1.0) == 2.0


def test_settle_time_requires_staying_in_band():
    t = [0.0, 1.0, 2.0, 3.0]
    y = [1.0, 1.0, 5.0, 1.0]
    assert _settle_time(t, y, 1.0) == 3.0
    y = [0.0, 0.5, 0.6, 0.7]
    assert _settle_time(t, y, 1.0) is None


# The step-response scans over whole histories before StepResponse folded
# them one sample at a time, as they were: the reference for the fold.
def ref_settle_time(t, y, target):
    band = 0.02 * abs(target)
    last_out = -1
    for i in range(len(y) - 1, -1, -1):
        if abs(y[i] - target) > band:
            last_out = i
            break
    if last_out == len(y) - 1:
        return None
    return t[last_out + 1]


def ref_step_response(metrics, t, y, start, target, dt):
    st = ref_settle_time(t, y, target)
    metrics.settle_time_2pct = st
    metrics.settled = st is not None
    tail = y[-max(1, int(1.0 / dt)):]
    if target != 0.0:
        metrics.steady_state_error = abs(
            sum(tail) / len(tail) - target) / abs(target)
    step_size = target - start
    if step_size != 0.0:
        metrics.overshoot = max(
            0.0, max((yi - target) / step_size for yi in y))


def _metric_bits(m):
    """The step-response metrics, floats as bit patterns."""
    return [m.settled] + [None if v is None else struct.pack("<d", v)
                          for v in (m.settle_time_2pct, m.steady_state_error,
                                    m.overshoot)]


_SPECIAL = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
            1e308, -1e308)


def test_step_response_fold_matches_the_list_scans():
    """The fold gives the bits of the scans on any history: nan, +-0.0, a
    zero target, a zero step, a signal that never settles, and runs
    shorter than the one-second tail."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    number = st.one_of(st.sampled_from(_SPECIAL), st.floats())

    @st.composite
    def histories(draw):
        target = draw(st.one_of(st.sampled_from((1.0, -2.5, 8.1e-2)),
                                number))
        start = draw(st.one_of(st.just(target), number))
        # samples at, inside, on the edge of and outside the band, or any
        near = st.sampled_from((0.0, 0.01, -0.019, 0.02, -0.02, 0.021, 0.5,
                                -3.0))
        y = draw(st.lists(st.one_of(
            near.map(lambda e: target + e * abs(target)), number),
            min_size=1, max_size=60))
        dt = draw(st.sampled_from((0.001, 0.01, 0.05, 0.3, 1.0, 1.5, 1e-20)))
        t = [k * dt for k in range(len(y))]
        return t, y, start, target, dt

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(histories())
    # settles; never settles; a zero target; a zero step from -0.0; nan
    @hypothesis.example(([0.0, 0.1, 0.2, 0.3], [0.0, 0.5, 0.99, 1.0],
                         0.0, 1.0, 0.1))
    @hypothesis.example(([0.0, 0.5, 1.0], [0.0, 0.5, 0.7], 0.0, 1.0, 0.5))
    @hypothesis.example(([0.0, 0.5, 1.0], [0.1, 0.0, -0.0], 1.0, 0.0, 0.5))
    @hypothesis.example(([0.0, 0.5], [-0.0, 0.0], -0.0, 0.0, 0.5))
    @hypothesis.example(([0.0, 1.0, 2.0], [math.nan, 1.0, 2.0], 0.0, 1.0,
                         1.0))
    def check(history):
        t, y, start, target, dt = history
        ref, got = RunMetrics(), RunMetrics()
        ref_step_response(ref, t, y, start, target, dt)
        _step_response(got, t, y, start, target, dt)
        assert _metric_bits(got) == _metric_bits(ref)
        # the same sample's time, or None
        assert _settle_time(t, y, target) is ref_settle_time(t, y, target)

    check()


# ------------------------------------------------------------- config
def test_config_round_trip():
    base = ScenarioConfig(scenario="sink_step", seed=9)
    cfg = dataclasses.replace(base, kp_theta=80.0, kp_z=0.7)
    d = config_to_dict(cfg)
    again = config_from_dict(d)
    assert config_to_dict(again) == d


def test_config_keys_name_every_config_field_once():
    """The fields of ScenarioConfig are exactly the attributes CONFIG_KEYS
    maps to: no field without a key, no key without a field.  Each
    field's metadata holds its key's domain and name (None for the
    field's name), and that key maps to the field."""
    fields = [(f.name, f) for f in dataclasses.fields(ScenarioConfig)]
    for path, f in fields:
        assert set(f.metadata) == {"key", "domain"}, path
        entry = CONFIG_KEYS[f.metadata["key"] or f.name]
        assert (entry.path, entry.domain) == (path, f.metadata["domain"])
    keyed = [path for path, _, _ in CONFIG_KEYS.values()]
    assert sorted(path for path, _ in fields) == sorted(keyed)
    assert len(set(keyed)) == len(keyed) == 53


_MAX = sys.float_info.max
_INF = math.inf
_TINY = math.ulp(0.0)
_BELOW_1 = math.nextafter(1.0, 0.0)

# every config key written out, in its order in CONFIG_KEYS: key, path,
# type, domain text, lo, hi, nullable
_KEY_TABLE = [
    ("scenario", "scenario", str,
     "one of ('pitch_step', 'sink_step', 'approach')", -_MAX, _MAX, False),
    ("controller", "controller", str, "one of ('opd', 'pid', 'opd_truth')",
     -_MAX, _MAX, False),
    ("wind_on", "wind_on", bool, "on or off", False, True, False),
    ("noise_on", "noise_on", bool, "on or off", False, True, False),
    ("ship_on", "ship_on", bool, "on or off", False, True, False),
    ("seed", "seed", int, ">= 0", 0, _INF, False),
    ("duration", "duration", float, "> 0 and finite, or null", _TINY, _MAX,
     True),
    ("dt", "dt", float, "> 0 and finite", _TINY, _MAX, False),
    ("initial_range", "initial_range", float, "> 0 and finite", _TINY, _MAX,
     False),
    ("initial_altitude", "initial_altitude", float, "finite", -_MAX, _MAX,
     False),
    ("pitch_step_deg", "pitch_step_deg", float, "finite", -_MAX, _MAX, False),
    ("sink_rate_cmd", "sink_rate_cmd", float, "finite", -_MAX, _MAX, False),
    ("glide_slope_deg", "glide_slope_deg", float, "> -90 and < 90",
     math.nextafter(-90.0, 0.0), math.nextafter(90.0, 0.0), False),
    ("theta_r_low_deg", "theta_r_low_deg", float, "finite", -_MAX, _MAX,
     False),
    ("theta_r_high_deg", "theta_r_high_deg", float, "finite", -_MAX, _MAX,
     False),
    ("trace_decimation", "trace_decimation", int, ">= 1", 1, _INF, False),
    ("ship_warmup_s", "ship_warmup_s", float, ">= 0 and finite", 0.0, _MAX,
     False),
    ("metric_skip_s", "metric_skip_s", float, "finite", -_MAX, _MAX, False),
    ("dt_noise", "dt_noise", float, "finite", -_MAX, _MAX, False),
    ("noise_dt", "noise_dt", float, "finite", -_MAX, _MAX, False),
    ("ship_noise_gain", "ship_noise_gain", float, ">= +0.0 and finite", 0.0,
     _MAX, False),
    ("v_wd", "v_wd", float, "finite", -_MAX, _MAX, False),
    ("turb_norm", "turb_norm", float, ">= 0 and finite", 0.0, _MAX, False),
    ("wake_extent", "wake_extent", float, "finite", -_MAX, _MAX, False),
    ("t_max", "t_max", float, "> 0 and finite, or null", _TINY, _MAX, True),
    ("aero_model_path", "aero_model_path", str,
     "a JSON aero model file, or null", -_MAX, _MAX, True),
    ("use_local_partials", "use_local_partials", bool, "on or off", False,
     True, False),
    ("obs.k1", "obs_k1", float, "> 0 and finite", _TINY, _MAX, False),
    ("obs.k2", "obs_k2", float, "finite", -_MAX, _MAX, False),
    ("obs.k3", "obs_k3", float, "> 0 and finite", _TINY, _MAX, False),
    ("obs.alpha1", "obs_alpha1", float, "> 0 and < 1", _TINY, _BELOW_1,
     False),
    ("obs.epsilon", "obs_epsilon", float, "> 0 and < 1", _TINY, _BELOW_1,
     False),
    ("pitch.kp", "kp_theta", float, "finite", -_MAX, _MAX, False),
    ("pitch.kd", "kd_theta", float, "finite", -_MAX, _MAX, False),
    ("pitch.dqdot_dq", "dqdot_dq", float, "finite", -_MAX, _MAX, False),
    ("pitch.dqdot_dde", "dqdot_dde", float, "nonzero and finite",
     -_MAX, _MAX, False),
    ("pid.kp", "kp_theta2", float, "finite", -_MAX, _MAX, False),
    ("pid.ki", "ki_theta", float, "finite", -_MAX, _MAX, False),
    ("pid.kd", "kd_theta2", float, "finite", -_MAX, _MAX, False),
    ("pid.tau", "rate_filter_tau", float, ">= 0", 0.0, _INF, False),
    ("vel.kp", "kp_v", float, "finite", -_MAX, _MAX, False),
    ("vel.ki", "ki_v", float, "finite", -_MAX, _MAX, False),
    ("vel.kd", "kd_v", float, "finite", -_MAX, _MAX, False),
    ("sink.kp", "kp_s", float, "finite", -_MAX, _MAX, False),
    ("sink.ki", "ki_s", float, "finite", -_MAX, _MAX, False),
    ("sink.tau", "sink_filter_tau", float, ">= 0", 0.0, _INF, False),
    ("sink.notch_omega", "sink_notch_omega", float, ">= 0 and finite",
     0.0, _MAX, False),
    ("sink.notch_zeta", "sink_notch_zeta", float, ">= 0 and finite",
     0.0, _MAX, False),
    ("guid.kp", "kp_z", float, "finite", -_MAX, _MAX, False),
    ("guid.ki", "ki_z", float, "finite", -_MAX, _MAX, False),
    ("guid.kd", "kd_z", float, "finite", -_MAX, _MAX, False),
    ("guid.tau", "deriv_filter_tau", float, ">= 0", 0.0, _INF, False),
    ("integrator_limit", "integrator_limit", float, ">= 0", 0.0, _INF,
     False),
]

# the keys whose domain is a test rather than lo..hi: sample values and
# whether the test passes each
_KEY_TESTS = {
    "scenario": [("pitch_step", True), ("sink_step", True),
                 ("approach", True), ("warp", False), ("", False)],
    "controller": [("opd", True), ("pid", True), ("opd_truth", True),
                   ("truth", False)],
    "ship_noise_gain": [(0.0, True), (-0.0, False), (1.0, True),
                        (_MAX, True), (_INF, False), (math.nan, False),
                        (-1.0, False)],
    "aero_model_path": [("model.json", True), ("", True), (1.0, False)],
    "pitch.dqdot_dde": [(-0.015, True), (0.0, False), (-0.0, False),
                        (_MAX, True), (-_MAX, True), (_INF, False),
                        (-_INF, False), (math.nan, False)],
}


def test_config_keys_equal_the_written_out_table():
    """CONFIG_KEYS, key by key and in order, is the table above: path,
    type, domain text, bounds, nullable, and the domain's test on sample
    values."""
    assert list(CONFIG_KEYS) == [row[0] for row in _KEY_TABLE]
    for key, path, typ, text, lo, hi, nullable in _KEY_TABLE:
        entry = CONFIG_KEYS[key]
        d = entry.domain
        assert (entry.path, entry.typ, d.text, d.nullable) == (
            path, typ, text, nullable), key
        assert (type(d.lo), d.lo, type(d.hi), d.hi) == (
            type(lo), lo, type(hi), hi), key
        samples = _KEY_TESTS.get(key)
        assert (d.test is None) == (samples is None), key
        for value, passes in samples or ():
            assert bool(d.test(value)) is passes, (key, value)


def test_config_unknown_key_lists_valid_keys():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"bogus_key": 1.0})
    assert "bogus_key" in str(err.value)
    assert "scenario" in str(err.value)


def test_config_bool_parsing():
    assert parse_config_value("wind_on", "on") is True
    assert config_from_dict({"wind_on": "on"}).wind_on is True
    assert parse_config_value("wind_on", "off") is False
    with pytest.raises(ConfigError):
        parse_config_value("wind_on", "maybe")


@pytest.mark.parametrize("key,value,msg", [
    ("dt", -0.001, "dt"),
    ("duration", 0.0, "duration"),
    ("trace_decimation", 0, "trace_decimation"),
    ("seed", -3, "seed"),
    ("obs.epsilon", 1.5, "obs"),
    ("scenario", "warp", "scenario"),
])
def test_config_validation_messages(key, value, msg):
    with pytest.raises(ConfigError, match=msg):
        config_from_dict({key: value})


def test_first_key_outside_its_domain_in_table_order_is_named():
    bad = {"scenario": "warp", "seed": -1, "duration": 0.0, "dt": -1.0,
           "ship_noise_gain": -0.0, "obs.k1": 0.0, "pitch.dqdot_dde": 0.0,
           "integrator_limit": -1.0}
    assert list(bad) == [k for k in CONFIG_KEYS if k in bad]
    for i, first in enumerate(bad):
        for later in list(bad)[i + 1:]:
            # set the later key first: the table's order decides
            with pytest.raises(ConfigError) as err:
                config_from_dict({later: bad[later], first: bad[first]})
            assert str(err.value).startswith(f"{first} must be "), (
                first, later, str(err.value))


def test_a_derived_config_shares_no_writable_record():
    """A run derived by dataclasses.replace, as compare and sweep derive
    theirs, cannot write through to its base config."""
    base = ScenarioConfig()
    derived = dataclasses.replace(base, seed=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        derived.kp_theta = 99.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        derived.kp_z = 0.7
    with pytest.raises(dataclasses.FrozenInstanceError):
        derived.seed = 2
    assert base == ScenarioConfig()


@pytest.mark.parametrize("key, value", [("dt", -1.0), ("seed", -1)])
def test_a_derived_config_is_checked(key, value):
    """dataclasses.replace, the path of compare's laws and sweep's seeds,
    raises the one-line ConfigError config_from_dict gives for the same
    value."""
    with pytest.raises(ConfigError) as want:
        config_from_dict({key: value})
    cfg = config_from_dict({"scenario": "approach", "wind_on": "on"})
    for base in (ScenarioConfig(), cfg):
        with pytest.raises(ConfigError) as got:
            dataclasses.replace(base, **{key: value})
        assert str(got.value) == str(want.value)
        assert "\n" not in str(got.value)


def test_gain_override_paths():
    cfg = config_from_dict({"pitch.kp": 70.0, "vel.ki": 0.9, "sink.kp": 0.01,
                            "guid.kd": 0.5, "pid.tau": 0.02})
    assert cfg.kp_theta == 70.0
    assert cfg.ki_v == 0.9
    assert cfg.kp_s == 0.01
    assert cfg.kd_z == 0.5
    assert cfg.rate_filter_tau == 0.02


# ---------------------------------------------------------- scenarios
def test_bit_reproducibility(tmp_path):
    cfg = ScenarioConfig(scenario="pitch_step", controller="opd",
                         wind_on=True, noise_on=True, seed=5, duration=2.0)
    r1 = run_scenario(cfg)
    r2 = run_scenario(config_from_dict(config_to_dict(cfg)))
    assert list(r1.trace) == list(r2.trace)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(p1, r1.trace)
    write_trace_csv(p2, r2.trace)
    assert p1.read_bytes() == p2.read_bytes()


def test_trace_shape_and_header():
    cfg = ScenarioConfig(duration=0.5, seed=1)
    r = run_scenario(cfg)
    assert len(TRACE_HEADER) == 32
    assert all(len(row) == len(TRACE_HEADER) for row in r.trace)
    assert len(r.trace) == int(0.5 / cfg.dt / cfg.trace_decimation)


# ------------------------------------------------------- trace store
def _bits(row):
    return [struct.pack("<d", v) for v in row]


def test_trace_round_trips_floats_bit_for_bit():
    specials = (-0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                -5e-324, 1.7976931348623157e308, 0.1, 29.111000000012595,
                struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0])
    width = len(TRACE_HEADER)
    rows = [tuple(specials[(i + j) % len(specials)] for j in range(width))
            for i in range(TRACE_BLOCK_ROWS + 3)]
    trace = Trace()
    for row in rows:
        trace.append(row)
    assert len(trace) == len(rows)
    assert [_bits(row) for row in trace] == [_bits(row) for row in rows]


def _row(*head):
    """A full trace row: head, then zeros."""
    return head + (0.0,) * (len(TRACE_HEADER) - len(head))


def _trace_of(rows):
    trace = Trace()
    for row in rows:
        trace.append(row)
    return trace


def test_trace_reads_like_a_list_of_rows():
    rows = [_row(0.0, 1.5), _row(2.0, -3.0), _row(4.0, 5.0)]
    trace = _trace_of(rows)
    assert len(trace) == len(rows) and bool(trace) and list(trace) == rows
    assert not Trace() and len(Trace()) == 0 and list(Trace()) == []
    with pytest.raises(struct.error):
        trace.append(rows[0] + (1.0,))
    with pytest.raises(struct.error):
        trace.append(rows[0][1:])
    assert len(trace) == len(rows)
    # reads in between, a partial iteration too, leave the appends at the
    # end, in order, across block boundaries
    more = [_row(float(i), -i / 7.0) for i in range(2 * TRACE_BLOCK_ROWS + 5)]
    for n, row in enumerate(more, len(rows) + 1):
        assert next(iter(trace)) == rows[0]
        trace.append(row)
        assert len(trace) == n
    assert list(trace) == rows + more


def _child_env():
    """The environment of a child python that imports this carrierland."""
    return dict(os.environ, PYTHONPATH=str(Path(sim.__file__).parents[1]))


def test_dropping_a_trace_closes_its_file():
    code = "\n".join((
        "import gc",
        "from carrierland.sim import TRACE_HEADER, Trace",
        "trace = Trace()",
        "row = (0.5,) * len(TRACE_HEADER)",
        "for _ in range(3):",
        "    trace.append(row)",
        "assert list(trace) == [row] * 3",
        "del trace",
        "gc.collect()"))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c",
         code], capture_output=True, text=True, env=_child_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("module", [
    "config", "control", "environment", "observer", "airframe", "trimlin",
    "sim", "cli"])
def test_each_module_imports_first(module):
    """Each module imports on its own in a fresh interpreter, with every
    warning an error: control.py names ScenarioConfig only for type
    checking, as importing config.py there would be a cycle."""
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", f"import carrierland.{module}"],
        capture_output=True, text=True, env=_child_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_dense_run_fits_an_address_space_capped_near_its_baseline(tmp_path):
    """Recording no longer grows with the run: a pitch step with a trace
    row every step for 120 s, whose rows alone would take 31 MB in memory,
    runs in a child whose address space is capped 24 MB above the peak
    the child reaches by importing the program."""
    resource = pytest.importorskip("resource")
    if not Path("/proc/self/status").is_file():
        pytest.skip("no /proc/self/status to read the child's baseline")
    env = _child_env()
    probe = subprocess.run(
        [sys.executable, "-c", "import carrierland.cli; "
         "print(open('/proc/self/status').read())"],
        capture_output=True, text=True, env=env, check=True, timeout=120)
    vm_peak_kb = next(int(line.split()[1])
                      for line in probe.stdout.splitlines()
                      if line.startswith("VmPeak:"))
    cap = (vm_peak_kb + 24 * 1024) * 1024

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "carrierland.cli", "run", "--scenario",
         "pitch_step", "--ship", "off", "--duration", "120", "--set",
         "trace_decimation=1", "--out", str(out)],
        capture_output=True, text=True, env=env, preexec_fn=limit,
        timeout=600)
    assert proc.returncode == 0, proc.stderr
    with open(out / "trace.csv") as fh:
        assert sum(1 for _ in fh) == 1 + 120_000


def test_run_trace_writes_the_bytes_of_its_rows_with_int_flags(tmp_path):
    r = run_scenario(ScenarioConfig(pitch_step_deg=5.0, duration=0.5))
    flags = (TRACE_HEADER.index("sat_elev"), TRACE_HEADER.index("sat_thr"))
    assert isinstance(r.trace, Trace)
    assert {row[i] for row in r.trace for i in flags} == {0.0, 1.0}
    rows = [row[:flags[0]] + tuple(int(row[i]) for i in flags)
            for row in r.trace]
    lines = [",".join(TRACE_HEADER)] + [
        ",".join(format(v, ".10g") for v in row) for row in rows]
    path = tmp_path / "trace.csv"
    write_trace_csv(path, r.trace)
    assert path.read_bytes() == "".join(f"{line}\n" for line in lines).encode()


def _dense_sink_peak(duration: float) -> tuple[int, int]:
    """tracemalloc peak of a run with a trace row per step, and its rows."""
    run = Simulation(ScenarioConfig(scenario="sink_step", duration=duration,
                                    trace_decimation=1)).run
    gc.collect()
    tracemalloc.start()
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not result.aborted
    return peak, len(result.trace)


def test_dense_trace_memory_per_row():
    _dense_sink_peak(0.1)                 # first-run caches
    peak1, rows1 = _dense_sink_peak(1.0)
    peak2, rows2 = _dense_sink_peak(2.0)
    assert rows2 - rows1 == 1000
    per_row = (peak2 - peak1) / (rows2 - rows1)
    # the rows go to a file; rows kept in memory would cost 32 cells of
    # 8 bytes at least
    assert per_row <= 400, per_row


def test_trim_hold_without_disturbances(trim):
    """Commanding trim references with everything off parks the states."""
    cfg = ScenarioConfig(scenario="pitch_step", pitch_step_deg=0.0,
                         wind_on=False, noise_on=False, ship_on=False,
                         duration=60.0, seed=0)
    r = run_scenario(cfg)
    assert not r.aborted
    i = {h: j for j, h in enumerate(TRACE_HEADER)}
    for row in r.trace:
        assert abs(row[i["v_t"]] - trim.v_t_star) < 1e-3
        assert abs(row[i["theta"]] - trim.theta_star) < 1e-3
        assert abs(row[i["alpha"]] - trim.alpha_star) < 1e-3
        assert abs(row[i["q"]]) < 1e-3


def test_touchdown_fires_once_and_ends_run():
    cfg = ScenarioConfig(scenario="approach", wind_on=False, noise_on=False,
                         ship_on=False, seed=0)
    r = run_scenario(cfg)
    assert not r.aborted
    m = r.metrics
    assert m.touchdown_time is not None
    assert list(r.trace)[-1][0] <= m.touchdown_time
    assert m.touchdown_vertical_error == pytest.approx(0.0, abs=0.2)
    assert m.max_glidepath_deviation < 1.0


def test_environment_identical_across_compared_controllers():
    cfg = ScenarioConfig(scenario="pitch_step", wind_on=True, noise_on=True,
                         ship_on=True, seed=3, duration=3.0)
    cmp = compare_controllers(cfg)
    i = {h: j for j, h in enumerate(TRACE_HEADER)}
    env_cols = [i[c] for c in ("u_g", "w_g", "u1", "w1", "z_g", "theta_s",
                               "noise")]
    assert len(cmp.opd.trace) == len(cmp.pid.trace)
    for ra, rb in zip(cmp.opd.trace, cmp.pid.trace):
        for c in env_cols:
            assert ra[c] == rb[c]


_DECK_COLUMNS = ("z_g", "theta_s", "x_l", "z_l")


@pytest.mark.parametrize("scenario", ["pitch_step", "sink_step"])
@pytest.mark.parametrize("controller", CONTROLLERS)
def test_deck_motion_is_exogenous_to_the_aircraft(tmp_path, scenario,
                                                  controller):
    """Off the approach nothing reads the deck, so switching the ship on
    or off moves only the deck's own trace columns: every other cell
    keeps its bits and metrics.json its bytes."""
    runs, metrics, codes = {}, {}, set()
    for ship in ("on", "off"):
        argv = ["--scenario", scenario, "--controller", controller,
                "--ship", ship, "--wind", "off", "--noise", "off",
                "--seed", "1", "--duration", "2"]
        cfg = config_from_dict({"scenario": scenario, "controller": controller,
                                "ship_on": ship == "on", "seed": 1,
                                "duration": 2.0})
        runs[ship] = run_scenario(cfg).trace
        codes.add(cli_main(["run", *argv, "--out", str(tmp_path / ship)]))
        metrics[ship] = (tmp_path / ship / "metrics.json").read_bytes()
    # PID aborts on the sink step (an alpha-table exit), at the same step
    assert len(codes) == 1 and metrics["on"] == metrics["off"]
    assert len(runs["on"]) == len(runs["off"]) > 0
    deck = {_COL[c] for c in _DECK_COLUMNS}
    moved = set()
    for row_on, row_off in zip(runs["on"], runs["off"]):
        for j, (a, b) in enumerate(zip(_bits(row_on), _bits(row_off))):
            if a != b:
                moved.add(j)
    assert moved == deck


def test_model_abort_is_reported():
    cfg = ScenarioConfig(scenario="pitch_step", pitch_step_deg=-45.0,
                         theta_r_low_deg=-60.0, duration=5.0, seed=0)
    r = run_scenario(cfg)
    assert r.aborted
    assert r.abort_time is not None
    assert "OutOfTableRange" in r.abort_reason
    assert len(r.trace) > 0  # partial trace retained


def test_truth_fed_loop_not_slower_than_observer_fed():
    # compared in the unsaturated small-step regime; with the elevator
    # pinned at its stop, estimate lag shortens band entry artificially
    base = ScenarioConfig(scenario="pitch_step", seed=0, pitch_step_deg=0.2)
    obs_fed = run_scenario(base).metrics.settle_time_2pct
    truth = run_scenario(
        dataclasses.replace(base, controller="opd_truth")
    ).metrics.settle_time_2pct
    assert truth is not None and obs_fed is not None
    assert truth <= 1.1 * obs_fed


def test_truth_fed_loop_rejects_disturbances_at_least_as_well():
    base = ScenarioConfig(scenario="pitch_step", seed=2, wind_on=True,
                          noise_on=True)
    obs_fed = run_scenario(base).metrics.steady_state_error
    truth = run_scenario(
        dataclasses.replace(base, controller="opd_truth")
    ).metrics.steady_state_error
    assert truth <= 1.1 * obs_fed


def test_pitch_step_metrics_populated():
    cfg = ScenarioConfig(scenario="pitch_step", seed=0)
    m = run_scenario(cfg).metrics
    assert m.settled
    assert m.settle_time_2pct is not None
    assert m.steady_state_error < 0.01
    assert m.overshoot is not None
    assert m.observer_rms_error is not None


def test_sink_step_metrics_populated():
    cfg = ScenarioConfig(scenario="sink_step", seed=0, duration=20.0)
    m = run_scenario(cfg).metrics
    assert m.steady_state_error is not None
    assert m.overshoot is not None and m.overshoot < 1.0


def test_overflowing_error_metric_reads_inf():
    # a tiny epsilon makes the observer's disturbance estimate overflow
    # within a few steps; the rows recorded before the state leaves the
    # floats square to inf rather than raising
    for controller in CONTROLLERS:
        cfg = config_from_dict({"controller": controller,
                                "obs.epsilon": 1e-20, "duration": 0.005,
                                "trace_decimation": 1})
        r = run_scenario(cfg)
        assert not r.aborted, controller
        assert r.metrics.observer_rms_error == math.inf, controller


def test_pinned_elevator_keeps_observer_error_finite():
    # a huge PID gain only pins the elevator; the observer's known input
    # is formed from the applied command, not the raw demand
    cfg = config_from_dict({"controller": "pid", "pid.kp": 1e308,
                            "duration": 0.02})
    r = run_scenario(cfg)
    assert not r.aborted
    assert math.isfinite(r.metrics.observer_rms_error)


def _velocity_loop_sim(v_r_offset, wind_u, duration, params, model, trim):
    """Closed-loop airspeed-hold test rig: plant + engine lag + pitch hold."""
    from carrierland.actuation import saturate_inputs
    from carrierland.control import PitchOPD, VelocityPID
    from carrierland.observer import ObserverParams, observer_derivative

    cfg = ScenarioConfig()
    dt = 1e-3
    vel = VelocityPID(cfg, trim, params, dt)
    opd = PitchOPD(cfg, trim)
    obs_p = ObserverParams()
    v_r = trim.v_t_star + v_r_offset
    y = (trim.v_t_star, trim.theta_star, trim.alpha_star, 0.0, 0.0, 300.0,
         trim.thrust_star, 0.0, 0.0, 0.0)
    last_outside = 0.0
    sat_after_settle = 0
    for k in range(int(duration / dt)):
        t = k * dt
        v, th = y[0], y[1]
        de_cmd = opd.step(trim.theta_star, th, y[8], y[9])
        thrust_cmd = vel.step(v_r, v)
        de_cmd, thrust_cmd, _, sat_thrust = saturate_inputs(de_cmd, thrust_cmd,
                                                            params)
        h = known_input(y[8], de_cmd, trim.delta_e_star, cfg)
        y_op = th - trim.theta_star

        def f(_t, s):
            d = state_derivative(s[0], s[1], s[2], s[3], de_cmd, s[6],
                                 wind_u, 0.0, model, params)
            return d + ((thrust_cmd - s[6]) / 0.625,) \
                + observer_derivative(s[7:], y_op, h, obs_p)

        y = rk4_step(f, y, t, dt)
        if abs(y[0] - v_r) > 0.02 * abs(v_r):
            last_outside = t
            sat_after_settle = 0
        elif sat_thrust:
            sat_after_settle += 1
    return last_outside + dt, y[0], v_r, sat_after_settle


def test_velocity_loop_step_settles_under_5s(params, model, trim):
    settle, v_end, v_r, sat_tail = _velocity_loop_sim(5.0, 0.0, 10.0,
                                                      params, model, trim)
    assert settle < 5.0
    assert abs(v_end - v_r) < 0.02 * v_r
    assert sat_tail == 0  # no saturation once settled around trim


def test_velocity_loop_rejects_constant_wind_offset(params, model, trim):
    # steady headwind shifts the drag balance; the integral trims it out
    _, v_end, v_r, _ = _velocity_loop_sim(0.0, -3.0, 30.0,
                                          params, model, trim)
    assert abs(v_end - v_r) < 0.05


# ------------------------------------------ metrics from a full trace
_COL = {h: j for j, h in enumerate(TRACE_HEADER)}


def _column(rows, name):
    return [row[_COL[name]] for row in rows]


@pytest.mark.parametrize("controller", ["opd", "pid"])
def test_observer_known_input_uses_applied_elevator(controller, params,
                                                    model, trim):
    cfg = config_from_dict({"controller": controller, "pitch_step_deg": 5.0,
                            "duration": 2.0, "trace_decimation": 1})
    r = run_scenario(cfg)
    assert not r.aborted
    rows = [row for row in r.trace if row[_COL["sat_elev"]]]
    assert rows
    stops = (params.elevator_min, params.elevator_max)
    for row in rows:
        v, th, al, q, de, thrust, u_g, w_g, x2, d_true = (
            row[_COL[name]] for name in ("v_t", "theta", "alpha", "q",
                                         "delta_e", "thrust", "u_g", "w_g",
                                         "x2", "d_true"))
        qdot = state_derivative(v, th, al, q, de, thrust, u_g, w_g, model,
                                params)[3]
        h = qdot - d_true
        assert any(h == pytest.approx(
            known_input(x2, stop, trim.delta_e_star, cfg),
            rel=1e-9, abs=1e-12) for stop in stops), row[0]


def test_truth_law_trace_holds_observer_estimates(trim):
    cfg = ScenarioConfig(scenario="pitch_step", controller="opd_truth",
                         duration=1.0)
    r = run_scenario(cfg)
    theta_star = trim.theta_star
    assert any(x1 != th - theta_star for x1, th in zip(
        _column(r.trace, "x1"), _column(r.trace, "theta")))


def test_local_partials_come_from_linearize_only_when_on(monkeypatch,
                                                          params, model,
                                                          trim):
    linear = linearize(trim, params, model)
    on = Simulation(ScenarioConfig(use_local_partials=True))
    assert (on.pitch_cfg.dqdot_dq, on.pitch_cfg.dqdot_dde) == (
        linear.dqdot_dq, linear.dqdot_dde_deg)
    # the default model reproduces the published partials
    assert on.pitch_cfg.dqdot_dq == pytest.approx(-0.15, rel=1e-9)
    assert on.pitch_cfg.dqdot_dde == pytest.approx(-0.015, rel=1e-9)
    calls = []

    def counted(*args):
        calls.append(args)
        return linearize(*args)

    monkeypatch.setattr(sim, "linearize", counted)
    off = Simulation(ScenarioConfig())
    assert calls == []
    assert off.pitch_cfg == ScenarioConfig()
    Simulation(ScenarioConfig(use_local_partials=True))
    assert len(calls) == 1


def test_local_partials_keep_every_other_override(params, model, trim):
    """use_local_partials replaces only the two partials in the config the
    pitch laws read; the run's own config, the one RunResult and
    resolved_config.json keep, holds the partials as given."""
    cfg = config_from_dict({"pitch.kp": 70.0, "pitch.dqdot_dq": -0.2,
                            "integrator_limit": 0.5,
                            "use_local_partials": "on"})
    s = Simulation(cfg)
    linear = linearize(trim, params, model)
    assert s.pitch_cfg == dataclasses.replace(
        cfg, dqdot_dq=linear.dqdot_dq, dqdot_dde=linear.dqdot_dde_deg)
    assert (s.pitch_cfg.kp_theta, s.pitch_cfg.integrator_limit) == (70.0, 0.5)
    assert s.pitch_cfg.dqdot_dq == pytest.approx(-0.15, rel=1e-9)
    assert s.pitch_cfg.dqdot_dde == pytest.approx(-0.015, rel=1e-9)
    assert s.cfg is cfg and s.cfg.dqdot_dq == -0.2
    short = dataclasses.replace(cfg, duration=0.01)
    assert Simulation(short).run().config is short


def test_runs_of_one_airframe_share_one_trim_solve(monkeypatch, trim):
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_trim(*args)

    monkeypatch.setattr(sim, "solve_trim", counted)
    a = Simulation(ScenarioConfig())
    calls.clear()   # solved here or by an earlier test in this process
    b = Simulation(ScenarioConfig(scenario="sink_step", seed=4))
    assert a.trim is b.trim and a.trim == trim
    # a t_max no other test uses, so its first solve is a miss
    own = [Simulation(ScenarioConfig(t_max=71172.5)) for _ in range(3)]
    assert own[0].trim is not a.trim
    assert own[0].trim is own[1].trim is own[2].trim
    assert own[0].trim == solve_trim(own[0].params, own[0].model)
    assert [args[0].t_max for args in calls] == [71172.5]


def test_a_run_reads_its_aero_model_file_once(monkeypatch, tmp_path, model):
    """Building the config reads no file: the run reads its model file
    once, where it is built, and keeps that model."""
    path = tmp_path / "aero.json"
    path.write_bytes(
        resources.files("carrierland.data").joinpath("fa18_aero.json")
        .read_bytes())
    read, calls = AeroModel.from_file, []

    def counted(p):
        calls.append(p)
        return read(p)

    monkeypatch.setattr(AeroModel, "from_file", counted)
    assert Simulation(ScenarioConfig(aero_model_path=str(path))).model == model
    assert calls == [str(path)]


def test_failing_trim_is_solved_again_on_each_run(monkeypatch, capsys,
                                                  tmp_path):
    calls = []

    def counted(*args):
        calls.append(args)
        return solve_trim(*args)

    monkeypatch.setattr(sim, "solve_trim", counted)
    for n in (1, 2):
        assert cli_main(["run", "--set", "t_max=1000",
                         "--out", str(tmp_path)]) == EXIT_USAGE
        assert "no trim point" in capsys.readouterr().err
        assert len(calls) == n


def test_pitch_noise_of_a_config_holds_as_its_run(monkeypatch):
    """A PitchNoise built from a config draws on the same steps as the
    sensor noise of a run of that config."""
    build, envs = sim.Environment, []

    def recorded(*args):
        envs.append(build(*args))
        return envs[-1]

    monkeypatch.setattr(sim, "Environment", recorded)
    cfg = ScenarioConfig(noise_on=True, duration=0.2)
    run_scenario(cfg)
    (env,) = envs
    ref = PitchNoise(cfg, rng_stream(cfg.seed, "noise"))
    t = 0.0
    for k in range(200):
        ref.sample(k, t)
        t += cfg.dt
    # as many draws over the run, then in step with it
    assert ref.rng.bit_generator.state == env.noise.rng.bit_generator.state
    for k in range(200, 225):
        assert ref.sample(k, t) == env.noise.sample(k, t)
        t += cfg.dt


def test_the_run_continues_the_warm_up_hold_phase(monkeypatch):
    """A deck warm-up of half a hold leaves the run half a hold from its
    next draw: one warm-up draw at step 0, then run draws at run steps
    50, 150, 250, ... (each a heave and a pitch draw)."""
    from carrierland import environment
    draws, clock = [], {"phase": None, "warmup": 0, "run": 0}

    class Recorded:
        def __init__(self, rng):
            self.rng = rng

        def normal(self, mean, sigma):
            draws.append((clock["phase"], clock[clock["phase"]] - 1))
            return self.rng.normal(mean, sigma)

    def counted(phase, fn):
        def step(*args):
            clock["phase"] = phase
            clock[phase] += 1
            return fn(*args)
        return step

    stream = environment.rng_stream
    monkeypatch.setattr(environment, "rng_stream", lambda seed, name: (
        Recorded(stream(seed, name)) if name == "ship" else
        stream(seed, name)))
    monkeypatch.setattr(environment, "ship_step",
                        counted("warmup", environment.ship_step))
    monkeypatch.setattr(sim, "held_ship_inputs",
                        counted("run", sim.held_ship_inputs))
    cfg = ScenarioConfig(scenario="approach", ship_on=True, ship_warmup_s=0.05,
                         duration=0.5)
    assert (cfg.dt, cfg.dt_noise) == (1e-3, 0.1)    # a hold of 100 steps
    run_scenario(cfg)
    assert clock["warmup"] == 50 and clock["run"] == 500
    want = [("warmup", 0)] + [("run", n) for n in range(50, 500, 100)]
    assert draws == [d for d in want for _ in ("heave", "pitch")]


@pytest.mark.parametrize("controller, calls", [("opd", 100),
                                               ("opd_truth", 1000)])
def test_pitch_acceleration_evaluated_once_per_step(monkeypatch, controller,
                                                    calls):
    # 1 000 steps, a trace row every 10: the truth law's own evaluation
    # also serves the row's d_true
    n = 0

    def counted(*args):
        nonlocal n
        n += 1
        return state_derivative(*args)

    monkeypatch.setattr(sim, "state_derivative", counted)
    cfg = ScenarioConfig(scenario="pitch_step", controller=controller,
                         duration=1.0, trace_decimation=10)
    r = run_scenario(cfg)
    assert not r.aborted and len(r.trace) == 100
    assert n == calls


@pytest.mark.parametrize("controller", ["opd", "pid", "opd_truth"])
def test_approach_metrics_rebuilt_from_full_rate_trace(controller):
    cfg = ScenarioConfig(scenario="approach", controller=controller,
                         wind_on=True, noise_on=True, ship_on=True, seed=3,
                         initial_range=150.0, ship_warmup_s=1.0,
                         metric_skip_s=0.5, trace_decimation=1)
    r = run_scenario(cfg)
    assert not r.aborted and r.metrics.touchdown_time is not None
    rows = [row for row in r.trace if row[0] >= cfg.metric_skip_s]
    assert rows
    dev = [abs(z - z_r) for z, z_r in zip(_column(rows, "z"),
                                            _column(rows, "z_r"))]
    assert r.metrics.max_glidepath_deviation == max(dev)
    err_sq = 0.0
    for th, th_r in zip(_column(rows, "theta"), _column(rows, "theta_r")):
        err_sq += (th - th_r) ** 2
    assert r.metrics.pitch_ref_rms_error == math.sqrt(err_sq / len(rows))
    assert r.metrics.settled is True


def test_approach_metrics_empty_when_skip_passes_touchdown():
    cfg = ScenarioConfig(scenario="approach", wind_on=True, noise_on=True,
                         seed=3, initial_range=150.0, ship_warmup_s=1.0,
                         trace_decimation=1)
    r = run_scenario(cfg)
    assert r.metrics.touchdown_time < cfg.metric_skip_s
    assert r.metrics.max_glidepath_deviation is None
    assert r.metrics.pitch_ref_rms_error is None
    assert r.metrics.settled is True


def _assert_step_metrics(metrics, t, y, start, target, dt):
    expected = RunMetrics()
    _step_response(expected, t, y, start, target, dt)
    for key in ("settled", "settle_time_2pct", "steady_state_error",
                "overshoot"):
        assert getattr(metrics, key) == getattr(expected, key), key


@pytest.mark.parametrize("controller", ["opd", "pid", "opd_truth"])
@pytest.mark.parametrize("disturbed", [False, True])
def test_pitch_step_metrics_rebuilt_from_full_rate_trace(controller,
                                                         disturbed, trim):
    cfg = ScenarioConfig(scenario="pitch_step", controller=controller,
                         wind_on=disturbed, noise_on=disturbed, seed=4,
                         duration=3.0, trace_decimation=1)
    r = run_scenario(cfg)
    assert len(r.trace) == 3000
    theta_star = trim.theta_star
    _assert_step_metrics(r.metrics, _column(r.trace, "t"),
                         _column(r.trace, "theta"), theta_star,
                         theta_star + math.radians(cfg.pitch_step_deg),
                         cfg.dt)
    if not disturbed:
        assert r.metrics.settled


@pytest.mark.parametrize("controller", ["opd", "pid", "opd_truth"])
def test_sink_step_metrics_rebuilt_from_full_rate_trace(controller):
    cfg = ScenarioConfig(scenario="sink_step", controller=controller,
                         wind_on=True, noise_on=True, seed=4, duration=4.0,
                         trace_decimation=1)
    r = run_scenario(cfg)
    assert r.trace
    zdot = [v * math.sin(gamma) + w_g for v, gamma, w_g in zip(
        _column(r.trace, "v_t"), _column(r.trace, "gamma"),
        _column(r.trace, "w_g"))]
    _assert_step_metrics(r.metrics, _column(r.trace, "t"), zdot, 0.0,
                         -cfg.sink_rate_cmd, cfg.dt)


@pytest.mark.parametrize("target", [0.0, -0.0])
def test_step_response_to_a_zero_target_has_no_steady_state_error(target):
    # the error is relative to |target|; the settle band, 2 % of it, is 0
    m = RunMetrics()
    _step_response(m, [0.0, 1.0, 2.0], [0.1, 0.05, 0.0], 0.1, target, 1.0)
    assert m.steady_state_error is None
    assert (m.settled, m.settle_time_2pct, m.overshoot) == (True, 2.0, 0.0)


def test_pitch_step_to_a_zero_target_runs(tmp_path):
    trim = sim.trim_point(sim.AircraftParams(), sim.load_aero_model(None))
    step = math.degrees(-trim.theta_star)
    assert trim.theta_star + math.radians(step) == 0.0
    assert cli_main(["run", "--scenario", "pitch_step", "--set",
                     f"pitch_step_deg={step!r}", "--duration", "2",
                     "--out", str(tmp_path)]) == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["settled"] is False
    assert metrics["steady_state_error"] is None


def test_a_climbing_approach_starts_its_engine_at_t_max():
    # a -30 deg glide slope is a climb whose equilibrium thrust lies
    # above t_max; the engine starts at its limit
    run = Simulation(config_from_dict({
        "scenario": "approach", "glide_slope_deg": -30.0, "ship_on": False,
        "duration": 0.01}))
    row0 = next(iter(run.run().trace))
    assert row0[TRACE_HEADER.index("thrust")] == run.params.t_max


# ------------------------------------------------------------ aborts
_TABLE_LOW = ("OutOfTableRange: alpha = -5.001950550062759 deg outside "
              "table range [-5.0, 40.0] deg")
_TABLE_HIGH = ("OutOfTableRange: alpha = 40.054029383903405 deg outside "
               "table range [-5.0, 40.0] deg")
_NON_FINITE = "non-finite state after step"
_STEP_M45 = {"pitch_step_deg": -45.0, "theta_r_low_deg": -60.0}
# at dt = 0.1 the state leaves the alpha table between two steps, so
# the step-head pitch acceleration (truth law, trace row) raises first
_BIG_DT = {"dt": 0.1, "noise_dt": 0.1, "theta_r_high_deg": 90.0,
           "trace_decimation": 1}


@pytest.mark.parametrize(
    "controller, settings, reason, abort_time, rows, sat_e, sat_t", [
        # raised in an RK4 stage
        ("opd", _STEP_M45, _TABLE_LOW, 1.428, 143, 1429, 0),
        ("pid", _STEP_M45, _TABLE_LOW, 1.428, 143, 1429, 0),
        ("opd_truth", _STEP_M45, _TABLE_LOW, 1.428, 143, 1429, 0),
        # the observer diverges and the state after the step is not finite
        ("opd", {"obs.epsilon": 1e-20}, _NON_FINITE, 0.006, 1, 7, 0),
        ("pid", {"obs.epsilon": 1e-20}, _NON_FINITE, 0.006, 1, 7, 0),
        # a far smaller epsilon diverges within the first step
        ("opd_truth", {"obs.epsilon": 1e-100, "noise_on": True},
         _NON_FINITE, 0.0, 1, 1, 0),
        # raised by the truth law's pitch acceleration, before saturation
        ("opd_truth", dict(_BIG_DT, pitch_step_deg=55.9), _TABLE_HIGH, 3.9,
         39, 39, 19),
        # raised by the trace row's pitch acceleration, after saturation
        ("opd", dict(_BIG_DT, pitch_step_deg=55.9), _TABLE_HIGH, 3.9, 39,
         40, 20),
        ("pid", dict(_BIG_DT, pitch_step_deg=28.0), _TABLE_HIGH, 3.9, 39,
         40, 20),
        # the truth law runs the observer too, so it diverges the same way
        ("opd_truth", {"obs.epsilon": 1e-20}, _NON_FINITE, 0.006, 1, 7, 0),
    ])
def test_every_abort_source_is_reported(controller, settings, reason,
                                        abort_time, rows, sat_e, sat_t):
    cfg = config_from_dict(dict(settings, scenario="pitch_step",
                                controller=controller, duration=5.0))
    r = run_scenario(cfg)
    assert r.aborted
    assert r.abort_reason == reason
    assert r.abort_time == pytest.approx(abort_time, abs=1e-9)
    assert len(r.trace) == rows
    assert r.abort_time >= list(r.trace)[-1][0]
    assert r.metrics.elevator_saturation_count == sat_e
    assert r.metrics.thrust_saturation_count == sat_t

"""
Byte-identity matrix of the carrierland command-line program.

    python tests/cli_matrix.py OUT

Runs a fixed set of CLI calls against the source tree next to this
script (its ../src), each in a fresh process with OUT/<case> as the
working directory, and writes OUT/manifest.txt: a first line
"# python X.Y numpy V" naming the versions that wrote it, then one line
per case with its exit code and the sha256 of its stdout and stderr,
then one line per output file with its sha256.  Two checkouts give the
same manifest exactly when every output byte and exit code is the same,
so a change meant to leave outputs alone is checked with

    python tests/cli_matrix.py /tmp/a        # in the parent checkout
    python tests/cli_matrix.py /tmp/b        # in the changed checkout
    diff /tmp/a/manifest.txt /tmp/b/manifest.txt

tests/cli_matrix_manifest.txt is the manifest of the checked-in tree
under the versions its first line names; CI diffs a fresh one against
it under those versions.

The cases cover trim and linearize, the approach under each control law
with two seeds, pitch and sink steps clean, disturbed and with a trace
row every step, an approach with wind but no sensor noise (seed 0), a
pitch step with sensor noise but no wind (seed 3) and a pitch step with
wind and sensor noise but no ship motion (seed 5), so that each source's
off path is checked on its own, a pitch step that leaves the aero table,
observer gains that abort or are rejected under each law, a PID gain
that pins the elevator, a sweep, a compare, three values outside their
keys' domains on a pitch step, a pitch step whose pitch law takes its
partials from the linearization (use_local_partials=on), a ship noise
gain whose held draw overflows at t = 0 (exit 3), PID's limit cycle on a
1e-6 m/s sink step, and the output layer's edges: a compare where PID
aborts (exit 3, both partial traces), a compare given --set
controller=pid (its resolved_config.json is the base config), a sweep
whose runs abort (exit 3) and a one-seed sweep from seed 4; then a pitch
step to a target of exactly 0 rad on the default airframe (null
steady-state error), a finite wake_extent / v_wd whose wake phase
overflows (exit 2) and an approach that gives every environment key
(v_wd, turb_norm, wake_extent, dt_noise, noise_dt, ship_noise_gain,
ship_warmup_s) a value other than its default (seed 2); last, three
cases that read an aero model file, written into the case's working
directory as model.json and named by that relative path: a verbatim
copy of the shipped model under use_local_partials=on, and two finite
models whose linearization at trim overflows (exit 2), one under
linearize and one under use_local_partials=on; then `run --help` at
COLUMNS=80, which pins the help text's list of config keys and their
domains, and a model whose pitch angle overflows in an RK4 stage
(cm_q and alpha_max_deg at 1e154, exit 3); and an approach whose deck
warm-up, 0.05 s or 50 steps, is half a noise hold of 100 steps, so the
run's first deck draw falls 50 steps in, where the warm-up's hold phase
leaves it; then trim and linearize at a candidate airspeed of 80 m/s,
and trim at 1000 m/s, where no trim point exists (exit 2).  The whole
matrix takes about 30 s on a 2-core x86 machine.  pytest does not
collect this file.

Each case's stdout and stderr are kept next to the manifest, as
OUT/<case>.stdout and OUT/<case>.stderr, so a change meant to move
outputs within a stated tolerance is checked with

    python tests/cli_matrix.py --compare /tmp/a /tmp/b

which reads two such directories and reports, per case: exit-code,
stdout and stderr mismatches (each differing line); files present on
one side only; every non-float field of a JSON file that differs; the
largest relative difference |a - b| / max(|a|, |b|) over the float
fields of each JSON file; and, for each CSV file, row-count and header
mismatches, any non-numeric cell that differs, and the worst numeric
cell, its difference taken relative to the largest magnitude in its
column.  Byte-identical files are not listed.  A last table gives each
float field's largest relative difference over all cases, zeros
included.  Both directories must be written by this version of the
script (it runs against the ../src next to it, so copy it into the
parent checkout to run the parent).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy

SRC = Path(__file__).resolve().parent.parent / "src"
SHIPPED_MODEL = SRC / "carrierland" / "data" / "fa18_aero.json"

# the model.json of each case that reads one: the shipped model with
# these fields replaced, or its verbatim bytes for no fields
MODEL_FILES = {
    "model_file_local_partials": {},
    "linearize_model_overflows": {"cm_base": [0, 1e308, 0, 0],
                                  "cm_de": -1e308},
    "local_partials_model_overflows": {"cm_de": -1e308},
    "model_angles_overflow": {"cm_q": 1e154, "alpha_max_deg": 1e154},
}

# environment variables of a case, beyond PYTHONPATH
CASE_ENV = {"run_help": {"COLUMNS": "80"}}

LAWS = ("opd", "pid", "opd_truth")

STEP_VARIANTS = {
    "clean": ("--wind", "off", "--noise", "off", "--ship", "off"),
    "disturbed": ("--wind", "on", "--noise", "on", "--seed", "3"),
    "fullrate": ("--set", "trace_decimation=1"),
}


def cases() -> list[tuple[str, tuple[str, ...]]]:
    out = [("trim", ("trim",)), ("linearize", ("linearize",))]
    for law in LAWS:
        for seed in (0, 7):
            out.append((f"approach_{law}_s{seed}",
                        ("run", "--scenario", "approach", "--controller", law,
                         "--wind", "on", "--noise", "on", "--seed", str(seed))))
    out.append(("approach_opd_wind_only_s0",
                ("run", "--scenario", "approach", "--wind", "on",
                 "--noise", "off", "--seed", "0")))
    out.append(("pitch_step_opd_noise_only_s3",
                ("run", "--scenario", "pitch_step", "--wind", "off",
                 "--noise", "on", "--seed", "3")))
    out.append(("pitch_step_opd_no_ship_s5",
                ("run", "--scenario", "pitch_step", "--ship", "off",
                 "--wind", "on", "--noise", "on", "--seed", "5")))
    for scenario in ("pitch_step", "sink_step"):
        for law in LAWS:
            for variant, args in STEP_VARIANTS.items():
                out.append((f"{scenario}_{law}_{variant}",
                            ("run", "--scenario", scenario,
                             "--controller", law) + args))
    for law in LAWS:
        out.append((f"pitch_m45_{law}",
                    ("run", "--scenario", "pitch_step", "--controller", law,
                     "--set", "pitch_step_deg=-45",
                     "--set", "theta_r_low_deg=-60")))
    for eps in ("1e-20", "1e-100"):
        for law in LAWS:
            out.append((f"epsilon_{eps}_{law}",
                        ("run", "--scenario", "pitch_step",
                         "--controller", law, "--set", f"obs.epsilon={eps}")))
    out.append(("pid_kp_1e308",
                ("run", "--scenario", "pitch_step", "--controller", "pid",
                 "--set", "pid.kp=1e308", "--duration", "0.02")))
    out.append(("sweep", ("sweep", "--scenario", "pitch_step", "--wind", "on",
                          "--noise", "on", "--duration", "4", "--runs", "3")))
    out.append(("compare", ("compare", "--scenario", "pitch_step",
                            "--wind", "on", "--noise", "on", "--seed", "2")))
    for setting in ("pitch.kp=nan", "initial_range=inf", "guid.kp=nan"):
        out.append((setting.replace(".", "_").replace("=", "_"),
                    ("run", "--scenario", "pitch_step", "--set", setting)))
    out.append(("use_local_partials_on",
                ("run", "--scenario", "pitch_step",
                 "--set", "use_local_partials=on")))
    out.append(("ship_noise_gain_3_3e307",
                ("run", "--scenario", "pitch_step", "--ship", "on",
                 "--set", "ship_noise_gain=3.3e307", "--duration", "2")))
    out.append(("sink_pid_limit_cycle",
                ("run", "--scenario", "sink_step", "--controller", "pid",
                 "--set", "sink_rate_cmd=1e-6")))
    out.append(("compare_sink_pid_aborts",
                ("compare", "--scenario", "sink_step", "--duration", "3")))
    out.append(("compare_set_controller_pid",
                ("compare", "--scenario", "pitch_step", "--duration", "2",
                 "--set", "controller=pid")))
    out.append(("sweep_aborts",
                ("sweep", "--scenario", "pitch_step",
                 "--set", "pitch_step_deg=-45", "--set", "theta_r_low_deg=-60",
                 "--duration", "3", "--runs", "2")))
    out.append(("sweep_one_seed_4",
                ("sweep", "--scenario", "sink_step", "--duration", "2",
                 "--runs", "1", "--seed", "4")))
    out.append(("pitch_step_zero_target",
                ("run", "--scenario", "pitch_step",
                 "--set", "pitch_step_deg=-7.099999999999988")))
    out.append(("wake_phase_overflow",
                ("run", "--scenario", "pitch_step", "--wind", "on",
                 "--set", "v_wd=1.3e-305", "--set", "wake_extent=2200",
                 "--duration", "0.01")))
    out.append(("approach_env_keys",
                ("run", "--scenario", "approach", "--controller", "opd",
                 "--wind", "on", "--noise", "on", "--ship", "on",
                 "--seed", "2", "--set", "v_wd=12", "--set", "turb_norm=0.8",
                 "--set", "wake_extent=700", "--set", "dt_noise=0.05",
                 "--set", "noise_dt=0.005", "--set", "ship_noise_gain=0.2",
                 "--set", "ship_warmup_s=5")))

    def local_partials(duration):
        return ("run", "--scenario", "pitch_step", "--duration", duration,
                "--set", "aero_model_path=model.json",
                "--set", "use_local_partials=on")

    out.append(("model_file_local_partials", local_partials("2")))
    out.append(("linearize_model_overflows",
                ("linearize", "--aero-model", "model.json")))
    out.append(("local_partials_model_overflows", local_partials("0.2")))
    out.append(("run_help", ("run", "--help")))
    out.append(("model_angles_overflow",
                ("run", "--scenario", "pitch_step", "--duration", "0.2",
                 "--set", "aero_model_path=model.json")))
    out.append(("approach_warmup_half_hold",
                ("run", "--scenario", "approach", "--ship", "on",
                 "--set", "ship_warmup_s=0.05")))
    out.append(("trim_airspeed_80", ("trim", "--airspeed", "80")))
    out.append(("linearize_airspeed_80", ("linearize", "--airspeed", "80")))
    out.append(("trim_no_point", ("trim", "--airspeed", "1000")))
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(root: Path, name: str, args: tuple[str, ...]) -> list[str]:
    cwd = root / name
    cwd.mkdir(parents=True)
    if name in MODEL_FILES:
        model = SHIPPED_MODEL.read_bytes()
        if MODEL_FILES[name]:
            model = json.dumps({**json.loads(model),
                                **MODEL_FILES[name]}).encode()
        (cwd / "model.json").write_bytes(model)
    if args[0] in ("run", "sweep", "compare"):
        args = args + ("--out", "out")
    env = dict(os.environ, PYTHONPATH=str(SRC), **CASE_ENV.get(name, {}))
    proc = subprocess.run([sys.executable, "-m", "carrierland.cli", *args],
                          cwd=cwd, env=env, capture_output=True)
    (root / f"{name}.stdout").write_bytes(proc.stdout)
    (root / f"{name}.stderr").write_bytes(proc.stderr)
    lines = [f"{name} exit={proc.returncode} stdout={_sha(proc.stdout)} "
             f"stderr={_sha(proc.stderr)}"]
    for path in sorted(p for p in cwd.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        lines.append(f"  {rel} {_sha(path.read_bytes())}")
    return lines


def _rel(a: float, b: float, scale: float = 0.0) -> float:
    """|a - b| / max(|a|, |b|, scale); inf when either side is not finite
    and they differ."""
    if a == b or (a != a and b != b):
        return 0.0
    d = abs(a - b) / max(abs(a), abs(b), scale)
    return d if d == d else math.inf


def _leaves(obj, path=""):
    """(dotted path, value) of every scalar in a decoded JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def _compare_json(a: bytes, b: bytes, floats: dict) -> list[str]:
    """Non-float mismatches and the worst float; floats collects each
    field's relative difference."""
    la, lb = dict(_leaves(json.loads(a))), dict(_leaves(json.loads(b)))
    out, rel = [], {}
    for key in sorted(set(la) | set(lb)):
        x, y = la.get(key, "<missing>"), lb.get(key, "<missing>")
        if type(x) is float and type(y) is float:
            rel[key] = _rel(x, y)
        elif x != y:
            out.append(f"{key}: {x!r} -> {y!r}")
    for key, r in rel.items():
        floats[key] = max(floats.get(key, 0.0), r)
    if rel:
        worst = max(rel, key=rel.get)
        out.append(f"floats: worst {rel[worst]:.2g} at {worst} "
                   f"({sum(r > 0.0 for r in rel.values())} of {len(rel)} "
                   "differ)")
    return out


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _compare_csv(a: bytes, b: bytes) -> list[str]:
    """Row counts, header, non-numeric cells and the worst numeric cell."""
    ra = list(csv.reader(a.decode().splitlines()))
    rb = list(csv.reader(b.decode().splitlines()))
    out = []
    if len(ra) != len(rb):
        out.append(f"rows: {len(ra)} -> {len(rb)}")
    if ra[:1] != rb[:1]:
        out.append("header differs")
    header = ra[0] if ra else []
    scale: dict[int, float] = {}
    for row in ra[1:]:
        for j, cell in enumerate(row):
            x = _number(cell)
            if x is not None and math.isfinite(x):
                scale[j] = max(scale.get(j, 0.0), abs(x))
    worst, where = 0.0, None
    for i, (row_a, row_b) in enumerate(zip(ra[1:], rb[1:]), start=1):
        for j, (ca, cb) in enumerate(zip(row_a, row_b)):
            if ca == cb:
                continue
            xa, xb = _number(ca), _number(cb)
            if xa is None or xb is None:
                out.append(f"row {i} col {j}: {ca!r} -> {cb!r}")
                continue
            d = _rel(xa, xb, scale.get(j, 0.0))
            if d > worst:
                worst, where = d, (i, j)
    if where is not None:
        i, j = where
        name = header[j] if j < len(header) else f"col {j}"
        out.append(f"worst cell {worst:.2g} of its column's max |value| "
                   f"at row {i} ({name}: {ra[i][j]} -> {rb[i][j]}); "
                   f"{len(ra) - 1} rows")
    return out


def _text_diff(label: str, a: bytes, b: bytes) -> list[str]:
    la, lb = a.decode().splitlines(), b.decode().splitlines()
    out = [f"{label} line {i + 1}: {x!r} -> {y!r}"
           for i, (x, y) in enumerate(zip(la, lb)) if x != y]
    if len(la) != len(lb):
        out.append(f"{label}: {len(la)} -> {len(lb)} lines")
    return out


def _exit_codes(root: Path) -> dict[str, str]:
    codes = {}
    for line in (root / "manifest.txt").read_text().splitlines():
        if not line.startswith((" ", "#")):
            name, exit_field = line.split()[:2]
            codes[name] = exit_field.split("=", 1)[1]
    return codes


def compare(root_a: Path, root_b: Path) -> list[str]:
    """The report of two matrix output directories, one line per item."""
    codes_a, codes_b = _exit_codes(root_a), _exit_codes(root_b)
    floats: dict[str, float] = {}
    report = []
    for name in sorted(set(codes_a) | set(codes_b)):
        if name not in codes_a or name not in codes_b:
            report.append(f"{name}: only in "
                          f"{root_a if name in codes_a else root_b}")
            continue
        items = []
        if codes_a[name] != codes_b[name]:
            items.append(f"exit: {codes_a[name]} -> {codes_b[name]}")
        for stream in ("stdout", "stderr"):
            items += _text_diff(stream,
                                (root_a / f"{name}.{stream}").read_bytes(),
                                (root_b / f"{name}.{stream}").read_bytes())
        files_a = {p.relative_to(root_a / name).as_posix()
                   for p in (root_a / name).rglob("*") if p.is_file()}
        files_b = {p.relative_to(root_b / name).as_posix()
                   for p in (root_b / name).rglob("*") if p.is_file()}
        for rel in sorted(files_a ^ files_b):
            items.append(f"{rel}: only in "
                         f"{root_a if rel in files_a else root_b}")
        for rel in sorted(files_a & files_b):
            a = (root_a / name / rel).read_bytes()
            b = (root_b / name / rel).read_bytes()
            if a == b:
                continue
            if rel.endswith(".json"):
                lines = _compare_json(a, b, floats)
            elif rel.endswith(".csv"):
                lines = _compare_csv(a, b)
            else:
                lines = ["bytes differ"]
            items += [f"{rel} {line}" for line in lines]
        report.append(f"{name}: exit {codes_a[name]}"
                      + ("" if items else ", identical"))
        report += [f"  {item}" for item in items]
    report.append("largest relative difference of each JSON float field "
                  "over all cases:")
    report += [f"  {key:32s} {floats[key]:.2g}"
               for key in sorted(floats, key=lambda k: (-floats[k], k))]
    return report


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        for line in compare(Path(argv[1]), Path(argv[2])):
            print(line)
        return 0
    if len(argv) != 1:
        print("usage: python tests/cli_matrix.py OUT\n"
              "       python tests/cli_matrix.py --compare A B",
              file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    if root.exists() and any(root.iterdir()):
        print(f"error: {root} is not empty", file=sys.stderr)
        return 2
    root.mkdir(parents=True, exist_ok=True)
    # the Python and numpy that wrote the manifest
    manifest = ["# python {}.{} numpy {}".format(*sys.version_info[:2],
                                                 numpy.__version__)]
    for name, args in cases():
        lines = run_case(root, name, args)
        print(lines[0], flush=True)
        manifest.extend(lines)
    (root / "manifest.txt").write_text("\n".join(manifest) + "\n")
    print(f"{len(manifest)} lines -> {root / 'manifest.txt'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""
Byte-identity matrix of the carrierland command-line program.

    python tests/cli_matrix.py OUT

Runs a fixed set of CLI calls against the source tree next to this
script (its ../src), each in a fresh process with OUT/<case> as the
working directory, and writes OUT/manifest.txt: one line per case with
its exit code and the sha256 of its stdout and stderr, then one line
per output file with its sha256.  Two checkouts give the same manifest
exactly when every output byte and exit code is the same, so a change
meant to leave outputs alone is checked with

    python tests/cli_matrix.py /tmp/a        # in the parent checkout
    python tests/cli_matrix.py /tmp/b        # in the changed checkout
    diff /tmp/a/manifest.txt /tmp/b/manifest.txt

The cases cover trim and linearize, the approach under each control law
with two seeds, pitch and sink steps clean, disturbed and with a trace
row every step, a pitch step that leaves the aero table, observer gains
that abort or are rejected under each law, a PID gain that pins the
elevator, a sweep and a compare.  The whole matrix takes about half a
minute on a 2-core x86 machine.  pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

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
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(root: Path, name: str, args: tuple[str, ...]) -> list[str]:
    cwd = root / name
    cwd.mkdir(parents=True)
    if args[0] in ("run", "sweep", "compare"):
        args = args + ("--out", "out")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "carrierland.cli", *args],
                          cwd=cwd, env=env, capture_output=True)
    lines = [f"{name} exit={proc.returncode} stdout={_sha(proc.stdout)} "
             f"stderr={_sha(proc.stderr)}"]
    for path in sorted(p for p in cwd.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        lines.append(f"  {rel} {_sha(path.read_bytes())}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/cli_matrix.py OUT", file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    if root.exists() and any(root.iterdir()):
        print(f"error: {root} is not empty", file=sys.stderr)
        return 2
    root.mkdir(parents=True, exist_ok=True)
    manifest = []
    for name, args in cases():
        lines = run_case(root, name, args)
        print(lines[0], flush=True)
        manifest.extend(lines)
    (root / "manifest.txt").write_text("\n".join(manifest) + "\n")
    print(f"{len(manifest)} lines -> {root / 'manifest.txt'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

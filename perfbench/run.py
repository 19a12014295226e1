#!/usr/bin/env python3
"""Benchmark of wicknls: one workload, one seed, one JSON result line.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload weak-contrast --seed 1 --seconds 20 --trace 0

It runs the package from ``src/`` of that checkout in fresh child processes
with BLAS pinned to one thread: first ``SETUP_PROBES`` processes that only
import wicknls and build the workload's inputs (their median start-to-ready
time is ``setup_s``), then one process that runs the workload for
``--seconds``. Every time is corrected to the reference machine's quiet speed
by the speed reference of ``speed.py``. The last line of standard output is the result. With
``--trace 1`` it reports the per-layer metrics instead of the end-to-end
ones. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import METRICS as PER_LAYER  # noqa: E402
from speed import NOMINAL_S  # noqa: E402

WORKLOADS = ("weak-contrast", "rough-ensemble", "strichartz", "mc-stats")
SETUP_PROBES = 5
TIMEOUT_S = 170.0
OUT_DIR = Path(".perfbench")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
_IMPORTTIME = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|( *)(\S+)\s*$")


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(src)
    return env


def setup_probe(cmd: list, env: dict, importtime: bool) -> tuple[float, float, dict]:
    """Start a set-up-only child.

    Return its start-to-ready seconds, the speed reference's seconds in the
    child right after set-up, and the import times.
    """
    if importtime:
        cmd = [cmd[0], "-X", "importtime"] + cmd[1:]
    # stderr goes to a file: -X importtime can write more than a pipe holds
    # before the ready line
    with open(OUT_DIR / "probe-stderr.txt", "w+") as err_file:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd + ["--setup-only"], env=env, stdout=subprocess.PIPE,
                                stderr=err_file, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err_file.seek(0)
        err = err_file.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed ({proc.returncode}):\n{err[-2000:]}")
    return elapsed, float(rest), import_times(err) if importtime else {}


def import_times(report: str) -> dict:
    """Cumulative import seconds of wicknls and of scipy.stats from -X importtime.

    A module's line follows the lines of the modules it imported, indented
    one level deeper. scipy.stats counts every scipy.stats* module whose
    importer is outside scipy.stats.
    """
    out = {"wicknls": 0.0, "scipy.stats": 0.0}
    stack = []  # (depth, name) of the enclosing modules, read bottom-up
    for row in reversed(report.splitlines()):
        m = _IMPORTTIME.match(row)
        if not m:
            continue
        seconds, depth, name = int(m.group(1)) * 1e-6, len(m.group(2)) // 2, m.group(3)
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name == "wicknls":
            out["wicknls"] = seconds
        elif name.startswith("scipy.stats") and not parent.startswith("scipy.stats"):
            out["scipy.stats"] += seconds
        stack.append((depth, name))
    return out


def run_worker(cmd: list, env: dict, timeout: float) -> dict:
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    src = Path.cwd() / "src"
    if not (src / "wicknls" / "__init__.py").is_file():
        print("perfbench: no src/wicknls under the working directory; run from the "
              "root of a checkout", file=sys.stderr)
        return 2

    started = time.perf_counter()
    OUT_DIR.mkdir(exist_ok=True)
    env = child_env(src)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    probes = [setup_probe(cmd, env, importtime=bool(args.trace))
              for _ in range(SETUP_PROBES)]
    remaining = TIMEOUT_S - (time.perf_counter() - started)
    result = run_worker(cmd, env, timeout=remaining)

    values = {"setup_s": statistics.median(p[0] * NOMINAL_S / p[1] for p in probes)}
    if args.trace:
        values.update(result["layers"])
        values["setup.import_s"] = statistics.median(p[2]["wicknls"] for p in probes)
        values["setup.import_scipy_stats_s"] = statistics.median(
            p[2]["scipy.stats"] for p in probes)
        values["speed.factor"] = result["speed_factor"]
        values["uncorrected.wall_s"] = result["uncorrected_wall_s"]
        values["uncorrected.setup_s"] = statistics.median(p[0] for p in probes)
        names = PER_LAYER
    else:
        values.update({k: result[k] for k in ("wall_s", "cpu_s", "peak_rss_mib")})
        names = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names.items()}
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}

    record = dict(line, workload=args.workload, seed=args.seed, trace=args.trace,
                  uncorrected_wall_s=result["uncorrected_wall_s"],
                  speed_factor=result["speed_factor"], op_times=result["op_times"],
                  setup_samples=[p[:2] for p in probes])
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: import wicknls, build a workload's inputs, run it.

Started by ``run.py``, never by hand. It prints one ``ready`` line as soon as
the inputs are built (``run.py`` times interpreter start to that line as
set-up), exits there with ``--setup-only`` after one more line, the speed
reference's time, and otherwise runs passes of the workload for
``--seconds`` and prints its result as one JSON line.
"""

# wicknls first, so that -X importtime charges numpy and scipy to it
import wicknls  # noqa: F401

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

MIN_PASSES = 3
SETUP_REFERENCES = 5


def run_pass(ops, tracer=None):
    """Run every operation once; return (per-op times, failures, messages).

    An operation's times are (wall_s, cpu_s, reference wall_s, reference
    cpu_s): the call's own times and those of the speed reference, measured
    just before and just after the call and averaged. An operation that
    raises has no times and counts as failed.
    """
    times = []
    failed = 0
    messages = []
    ref = speed.measure()
    for op in ops:
        if tracer is not None:
            tracer.install()
        try:
            c0, t0 = time.process_time(), time.perf_counter()
            out = op.call()
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            problems = None
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        finally:
            if tracer is not None:
                tracer.uninstall()
        after = speed.measure()
        if problems is None:
            times.append((wall, cpu, 0.5 * (ref[0] + after[0]), 0.5 * (ref[1] + after[1])))
            problems = op.check(out)
        else:
            times.append(None)
        ref = after
        if problems:
            failed += 1
            messages.extend(f"{op.name}: {p}" for p in problems)
    return times, failed, messages


def pass_time(passes, column: int, corrected: bool) -> float:
    """Median over passes of the summed operation times (0 wall, 1 cpu).

    Corrected, each operation's time is scaled to the reference machine's
    quiet speed by ``speed.NOMINAL_S`` over the reference time around it.
    """
    def one(t):
        return t[column] * speed.NOMINAL_S / t[column + 2] if corrected else t[column]
    return statistics.median(sum(one(t) for t in p if t is not None) for p in passes)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    ops = workloads.WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        # the speed reference right after set-up, for run.py to correct by
        print(statistics.median(speed.measure()[0] for _ in range(SETUP_REFERENCES)),
              flush=True)
        return 0

    attempted = failed = 0
    messages = []
    plain, traced = [], []   # per pass, per operation: (wall_s, cpu_s)
    tracer = Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    while True:
        # a traced run alternates untraced and traced passes
        use_tracer = tracer is not None and len(traced) < len(plain)
        times, n_failed, msgs = run_pass(ops, tracer if use_tracer else None)
        (traced if use_tracer else plain).append(times)
        attempted += len(ops)
        failed += n_failed
        messages.extend(msgs)
        passes = len(plain) + len(traced)
        if time.perf_counter() >= deadline and passes >= MIN_PASSES and (
                tracer is None or traced):
            break

    for m in messages[:20]:
        print(m, file=sys.stderr)
    result = {"attempted": attempted, "failed": failed,
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "wall_s": pass_time(plain, 0, True), "cpu_s": pass_time(plain, 1, True),
              "uncorrected_wall_s": pass_time(plain, 0, False),
              "speed_factor": statistics.median(
                  speed.NOMINAL_S / t[2] for p in plain for t in p if t is not None),
              "op_times": plain}
    if tracer is not None:
        traced_wall = pass_time(traced, 0, False)
        result["layers"] = layers.report(tracer, len(traced), traced_wall,
                                         traced_wall - result["uncorrected_wall_s"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

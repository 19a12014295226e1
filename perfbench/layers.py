"""Per-layer metrics of a traced run.

Two sources feed them:

* the ``Tracer`` counts and times of the workload's own calls, averaged per
  traced pass (``<layer>.<fn>.calls``, ``.s`` inclusive, ``.self_s``, plus
  the counters named below);
* kernel sweeps at fixed sizes, the same on every workload: the cubic
  convolution's direct and FFT paths for N = 8..512 and the pointwise
  nonlinear phase on the 525, 1575 and 4725-point grids of bands 84, 256 and
  768. Each is the best of 5 repeats of a loop of at least 2 ms.
"""

import time

import numpy as np

from tracing import TARGETS

CONV_BANDS = (8, 16, 32, 64, 128, 256, 512)
PHASE_GRIDS = (525, 1575, 4725)

_FUNCTIONS = tuple(dict.fromkeys(prefix for _, _, prefix in TARGETS if prefix != "fft"))

# name -> unit, in the order BENCHMARK.json lists them
METRICS = {}
for _prefix in _FUNCTIONS:
    METRICS.update({f"{_prefix}.calls": "count", f"{_prefix}.s": "s",
                    f"{_prefix}.self_s": "s"})
METRICS.update({
    "fft.calls": "count", "fft.s": "s", "fft.points": "count",
    "dynamics.steps": "count", "dynamics.evolve.us_per_step": "us",
    "kernels.cubic_convolution.direct_calls": "count",
    "kernels.cubic_convolution.fft_calls": "count",
    "experiments.free_flow_l4_norm.s_per_sample": "s",
    "random_data.sample.us_per_call": "us",
    "random_data.sample.share": "fraction",
    "trace.overhead_s": "s",
    "setup.import_s": "s",
    "setup.import_scipy_stats_s": "s",
    "speed.factor": "ratio",
    "uncorrected.wall_s": "s",
    "uncorrected.setup_s": "s",
})
for _n in CONV_BANDS:
    METRICS[f"kernels.cubic_convolution.direct_us.N{_n}"] = "us"
    METRICS[f"kernels.cubic_convolution.fft_us.N{_n}"] = "us"
for _m in PHASE_GRIDS:
    METRICS[f"kernels.nonlinear_phase.us.M{_m}"] = "us"


def _best_of(fn, repeats=5, min_loops=3, min_seconds=2e-3) -> float:
    best = float("inf")
    for _ in range(repeats):
        loops = 0
        t0 = time.perf_counter()
        while True:
            fn()
            loops += 1
            elapsed = time.perf_counter() - t0
            if loops >= min_loops and elapsed > min_seconds:
                break
        best = min(best, elapsed / loops)
    return best


def kernel_sweeps() -> dict:
    from wicknls import _kernels as K

    # the direct path is the numpy double convolution; if a later version
    # drops it, the dispatcher is timed in its place
    direct = getattr(K, "cubic_convolution_numpy", K.cubic_convolution)
    fft = getattr(K, "_cubic_convolution_fft", K.cubic_convolution)
    out = {}
    for n in CONV_BANDS:
        rng = np.random.default_rng(n)
        c = rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
        out[f"kernels.cubic_convolution.direct_us.N{n}"] = 1e6 * _best_of(lambda: direct(c))
        out[f"kernels.cubic_convolution.fft_us.N{n}"] = 1e6 * _best_of(lambda: fft(c))
    for m in PHASE_GRIDS:
        rng = np.random.default_rng(m)
        u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        out[f"kernels.nonlinear_phase.us.M{m}"] = 1e6 * _best_of(
            lambda: K.nonlinear_phase(u.copy(), 1e-3, -0.2))
    return out


def report(tracer, passes: int, traced_wall: float, overhead: float) -> dict:
    """Per-pass layer metrics from ``passes`` traced passes, plus the sweeps."""
    out = {}
    for prefix, st in tracer.stats.items():
        if prefix == "fft":
            continue
        out[f"{prefix}.calls"] = st.calls / passes
        out[f"{prefix}.s"] = st.s / passes
        out[f"{prefix}.self_s"] = st.self_s / passes
    fft = tracer.stats["fft"]
    out["fft.calls"] = fft.calls / passes
    out["fft.s"] = fft.s / passes
    out["fft.points"] = fft.extra.get("points", 0) / passes

    evolve = tracer.stats["dynamics.evolve"]
    steps = evolve.extra.get("steps", 0)
    out["dynamics.steps"] = steps / passes
    out["dynamics.evolve.us_per_step"] = 1e6 * evolve.s / steps if steps else 0.0
    conv = tracer.stats["kernels.cubic_convolution"].extra
    out["kernels.cubic_convolution.direct_calls"] = conv.get("direct_calls", 0) / passes
    out["kernels.cubic_convolution.fft_calls"] = conv.get("fft_calls", 0) / passes
    l4 = tracer.stats["experiments.free_flow_l4_norm"]
    out["experiments.free_flow_l4_norm.s_per_sample"] = l4.s / l4.calls if l4.calls else 0.0
    sample = tracer.stats["random_data.sample"]
    out["random_data.sample.us_per_call"] = 1e6 * sample.s / sample.calls if sample.calls else 0.0
    out["random_data.sample.share"] = sample.s / passes / traced_wall
    out["trace.overhead_s"] = overhead
    out.update(kernel_sweeps())
    return out

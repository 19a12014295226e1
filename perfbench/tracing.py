"""Per-layer tracing from outside the program.

``Tracer`` replaces chosen functions with timing wrappers wherever they are
looked up: in the module that defines them and in every ``wicknls`` module
(or the package namespace) that bound them with ``from ... import``. For
each wrapped function it counts calls and sums inclusive and self time; self
time is the call's duration minus the time spent in wrapped callees.
``uninstall`` puts the original objects back.
"""

import sys
import time

import numpy as np

# (module, function, metric prefix); the prefix is the module's name without
# a leading underscore, since metric names start with a letter.
TARGETS = (
    ("wicknls.experiments", "phase_defect_contrast_run", "experiments.phase_defect_contrast_run"),
    ("wicknls.experiments", "strichartz_ratio_probe", "experiments.strichartz_ratio_probe"),
    ("wicknls.experiments", "apriori_growth_probe", "experiments.apriori_growth_probe"),
    ("wicknls.experiments", "free_flow_l4_norm", "experiments.free_flow_l4_norm"),
    ("wicknls.dynamics", "evolve", "dynamics.evolve"),
    ("wicknls._kernels", "cubic_convolution", "kernels.cubic_convolution"),
    ("wicknls._kernels", "nonlinear_phase", "kernels.nonlinear_phase"),
    ("wicknls._kernels", "hermite_batch", "kernels.hermite_batch"),
    ("wicknls.random_data", "sample", "random_data.sample"),
    ("wicknls.random_data", "regularity_profile", "random_data.regularity_profile"),
    ("wicknls.wick", "hypercontractivity_check", "wick.hypercontractivity_check"),
    ("wicknls.field", "spacetime_lp_norm", "field.spacetime_lp_norm"),
    ("wicknls.field", "norm", "field.norm"),
    ("wicknls.field", "synthesize", "field.synthesize"),
    ("numpy.fft", "fft", "fft"),
    ("numpy.fft", "ifft", "fft"),
)


class Stat:
    __slots__ = ("calls", "s", "self_s", "active", "extra")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.active = 0  # open activations, so recursion counts once in s
        self.extra = {}

    def add(self, key: str, amount) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


def _evolve_steps(stat, args, kwargs):
    integ = kwargs.get("integ", args[2] if len(args) > 2 else None)
    stat.add("steps", integ.step_count())


def _convolution_path(stat, args, kwargs):
    from wicknls import _kernels
    n_max = (len(args[0]) - 1) // 2
    cutoff = getattr(_kernels, "DIRECT_CONV_MAX_MODE", -1)
    stat.add("fft_calls" if n_max > cutoff else "direct_calls", 1)


def _fft_points(stat, args, kwargs):
    stat.add("points", int(np.size(args[0])))


# counters recorded where the work happens, read from a call's arguments
COUNTERS = {
    "dynamics.evolve": _evolve_steps,
    "kernels.cubic_convolution": _convolution_path,
    "fft": _fft_points,
}


class Tracer:
    def __init__(self, targets=TARGETS):
        self.stats = {prefix: Stat() for _, _, prefix in targets}
        self._targets = targets
        self._stack = []       # time spent in wrapped callees, per open call
        self._patched = []     # (namespace, attribute, original)

    def _wrap(self, fn, stat, counter):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if counter is not None:
                counter(stat, args, kwargs)
            stack.append(0.0)
            stat.active += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stat.active -= 1
                stat.calls += 1
                stat.self_s += elapsed - stack.pop()
                if not stat.active:
                    stat.s += elapsed
                if stack:
                    stack[-1] += elapsed

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers = {}
        for module, name, prefix in self._targets:
            fn = getattr(sys.modules[module], name)
            wrappers[id(fn)] = (fn, self._wrap(fn, self.stats[prefix], COUNTERS.get(prefix)))
        namespaces = [m for key, m in list(sys.modules.items())
                      if key == "wicknls" or key.startswith("wicknls.")]
        namespaces.append(sys.modules["numpy.fft"])
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, hit[1])

    def uninstall(self) -> None:
        while self._patched:
            ns, attr, value = self._patched.pop()
            setattr(ns, attr, value)

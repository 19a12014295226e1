"""Tests of the benchmark's reference values and tracer on tiny inputs.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench
"""

import math

import numpy as np
import pytest

import reference


def test_ranks_and_spearman():
    assert list(reference.ranks([3.0, 1.0, 1.0, 2.0])) == [4.0, 1.5, 1.5, 3.0]
    assert reference.spearman_rho([1, 2, 3, 4], [9, 7, 5, 1]) == pytest.approx(-1.0)
    # sum d^2 = 4 over 5 points: 1 - 6*4 / (5*24) = 0.8
    assert reference.spearman_rho([1, 2, 3, 4, 5], [2, 1, 4, 3, 5]) == pytest.approx(0.8)


def test_loglog_slope():
    x = np.array([16.0, 32.0, 64.0, 128.0])
    assert reference.loglog_slope(x, 3.0 * np.sqrt(x)) == pytest.approx(0.5)


def test_phase_defect_plateau_against_a_time_grid():
    t = np.linspace(-1.0, 1.0, 200_001)
    brute = 2.0 * math.pi * np.max(np.abs(np.exp(2j * t) - 1.0))
    value = reference.phase_defect_plateau(1.0, 1.0, 2.0 * math.pi)
    assert value == pytest.approx(brute, rel=1e-9)
    assert value == pytest.approx(4.0 * math.pi * math.sin(1.0))


def test_weight_sum_and_mass():
    assert reference.weight_sum(0, 1.0) == 1.0
    assert reference.weight_sum(1, 1.0) == 2.0
    assert reference.weight_sum(2, 0.0) == 2.5
    assert reference.mass(np.array([0.0, 1.0, 0.0])) == pytest.approx(2.0 * math.pi)


def _brute_free_l4(coeffs, horizon, nodes=64):
    """Gauss-Legendre in time, an oversampled grid in space."""
    c = np.asarray(coeffs)
    n_max = (len(c) - 1) // 2
    modes = np.arange(-n_max, n_max + 1)
    x = 2.0 * math.pi * np.arange(8 * n_max + 8) / (8 * n_max + 8)
    t, wt = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for ti, wi in zip(horizon * t, horizon * wt):
        u = np.exp(1j * (np.outer(x, modes) + modes**2 * ti)) @ c
        total += wi * 2.0 * math.pi * np.mean(np.abs(u) ** 4)
    return total**0.25


def test_free_flow_l4_exact_matches_quadrature():
    rng = np.random.default_rng(3)
    c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert reference.free_flow_l4_exact(c, 0.5) == pytest.approx(
        _brute_free_l4(c, 0.5), rel=1e-12)


def test_two_mode_formula_matches_the_exact_sum():
    a, b = 0.7 - 0.2j, -1.1 + 0.4j
    c = np.zeros(7, dtype=complex)
    c[3 - 2], c[3 + 1] = a, b      # modes -2 and +1
    assert reference.two_mode_l4(a, b, 0.8) == pytest.approx(
        reference.free_flow_l4_exact(c, 0.8), rel=1e-12)


def test_h2_moment_ratio_by_gauss_hermite():
    x, wt = np.polynomial.hermite_e.hermegauss(20)
    wt = wt / wt.sum()
    h2 = x**2 - 1.0
    ratio = np.sum(wt * h2**4) ** 0.25 / np.sum(wt * h2**2) ** 0.5
    assert ratio == pytest.approx(reference.H2_L4_OVER_L2, rel=1e-12)


def test_tracer_counts_steps_and_restores():
    import wicknls as w
    from wicknls import dynamics
    from tracing import Tracer

    original = dynamics.nonlinear_phase
    tracer = Tracer()
    tracer.install()
    try:
        integ = w.IntegratorSpec("strang", dt=1e-2, t_end=0.1, snapshot_stride=10)
        w.evolve(w.TorusField.single_mode(1, 1.0), w.EquationSpec("wnls"), integ)
    finally:
        tracer.uninstall()
    assert dynamics.nonlinear_phase is original and w.evolve.__name__ == "evolve"
    evolve = tracer.stats["dynamics.evolve"]
    assert evolve.calls == 1 and evolve.extra["steps"] == 10
    assert tracer.stats["kernels.nonlinear_phase"].calls == 10
    assert tracer.stats["fft"].calls >= 20
    assert 0.0 < evolve.self_s < evolve.s


def test_gauge_check_flags_a_wrong_pair():
    import workloads

    op = workloads.rough_ensemble(0)[0]
    tn, tw = op.call()
    assert op.check((tn, tw)) == []
    assert any("gauge distance" in m for m in op.check((tw, tn)))


def test_pass_time_scales_each_operation_by_the_reference_around_it():
    import speed
    import worker

    n = speed.NOMINAL_S
    # (wall, cpu, reference wall, reference cpu) per operation; None failed
    passes = [[(1.0, 0.9, n, n), (2.0, 1.8, 2 * n, 3 * n)],
              [(3.0, 3.0, 3 * n, 3 * n), None]]
    assert worker.pass_time(passes, 0, True) == pytest.approx((2.0 + 1.0) / 2)
    assert worker.pass_time(passes, 1, True) == pytest.approx((1.5 + 1.0) / 2)
    assert worker.pass_time(passes, 0, False) == pytest.approx(3.0)
    wall, cpu = speed.measure(repeats=1)
    assert wall > 0.0 and cpu > 0.0

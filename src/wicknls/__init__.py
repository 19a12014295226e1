"""wicknls: the 1D cubic Schrodinger equation and its Wick-ordered variant
on the torus — exact spectral representation, split-step / RK4 evolution,
Gaussian random data, Wick-ordering algebra and weak-continuity experiments.
"""

from .field import (NormSpec, TorusField, analyze, mean_intensity, norm, pairing,
                    project, quartic_integral, spacetime_l4_norm, spacetime_lp_norm,
                    synthesize)
from .wick import (HypercontractivityReport, hermite, hypercontractivity_check,
                   intensity_fluctuation, renormalization_constant,
                   wick_abs_fourth, wick_abs_square, wick_hamiltonian)
from .dynamics import (EquationSpec, IntegrationDivergedError, IntegratorSpec,
                       Trajectory, Variant, conserved, evolve, evolve_batch,
                       galilean_boost, gauge_transform, linear_propagator, nonlinearity,
                       plane_wave_frequency, resonant_split, truncation_gauge)
from .random_data import (RandomDataSpec, expected_mean_intensity,
                          regularity_profile, sample, sample_block,
                          sample_ensemble)
from .experiments import (ExperimentReport, Series, WeakSequenceSpec,
                          apriori_growth_probe, free_flow_l4_norm,
                          integrator_order_study, phase_defect_contrast_run,
                          strichartz_ratio_probe, verdict_thresholds,
                          weak_continuity_run)
from .version import __version__

__all__ = [
    "EquationSpec", "ExperimentReport", "HypercontractivityReport",
    "IntegrationDivergedError", "IntegratorSpec", "NormSpec", "RandomDataSpec",
    "Series", "Trajectory", "TorusField", "Variant", "WeakSequenceSpec",
    "__version__", "analyze", "apriori_growth_probe", "conserved", "evolve",
    "evolve_batch", "expected_mean_intensity", "free_flow_l4_norm",
    "galilean_boost", "gauge_transform", "hermite", "hypercontractivity_check",
    "integrator_order_study", "intensity_fluctuation", "linear_propagator",
    "mean_intensity", "nonlinearity", "norm", "pairing",
    "phase_defect_contrast_run", "plane_wave_frequency", "project",
    "quartic_integral", "regularity_profile", "renormalization_constant",
    "resonant_split", "sample", "sample_block",
    "sample_ensemble", "spacetime_l4_norm", "spacetime_lp_norm",
    "strichartz_ratio_probe",
    "synthesize", "truncation_gauge", "verdict_thresholds",
    "weak_continuity_run", "wick_abs_fourth", "wick_abs_square",
    "wick_hamiltonian",
]

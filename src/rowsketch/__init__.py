"""rowsketch: iterative row sampling for spectral matrix approximation.

A tall matrix can be spectrally approximated by a short reweighted subset
of its own rows.  This package provides the full toolchain: exact and
sketched leverage scores, uniform-sampling estimators with one-sided
guarantees, coherence-reducing reweighting, recursive sketching pipelines,
dense spectral certifiers, and a preconditioned least-squares solver,
all deterministic given a seed.
"""

from .fastlev import (approx_generalized_leverage, build_projector_sketch,
                      gaussian_sketch, kernel_probe)
from .leverage import (PseudoinverseFactor, ScoreVector, cross_leverage,
                       exact_leverage_scores, factor_gram,
                       generalized_leverage_scores, min_norm_witness,
                       read_scores, write_scores)
from .matrix import (MatrixFormatError, SparseRowMatrix, WeightedRowSample,
                     materialize, read_matrix_market, read_sample,
                     scale_rows, write_matrix_market, write_sample)
from .pipelines import (NonConvergenceError, PipelineError, SketchResult,
                        SolveResult, final_refinement, input_sparsity_sketch,
                        normal_equations_cg, precondition_solve,
                        refinement_sampling, repeated_halving)
from .reweight import (Reweighting, ReweightCertificate,
                       compare_leverage_bound, compute_reweighting,
                       gamma_for_target, rank_one_update, read_weights,
                       write_weights)
from .sampling import (SketchConfig, sample, sampling_probabilities,
                       scaled_sample, sherman_morrison_check,
                       undersample_refine, uniform_leverage_estimates,
                       uniform_no_reweight_estimates)
from .verify import MonteCarloResult, SpectralReport, monte_carlo, spectral_check

__version__ = "0.1.0"

__all__ = [
    "MatrixFormatError", "MonteCarloResult", "NonConvergenceError",
    "PipelineError", "PseudoinverseFactor", "Reweighting",
    "ReweightCertificate", "ScoreVector", "SketchConfig", "SketchResult",
    "SolveResult", "SparseRowMatrix", "SpectralReport", "WeightedRowSample",
    "approx_generalized_leverage", "build_projector_sketch",
    "compare_leverage_bound", "compute_reweighting", "cross_leverage",
    "exact_leverage_scores", "factor_gram", "final_refinement",
    "gamma_for_target", "gaussian_sketch", "generalized_leverage_scores",
    "input_sparsity_sketch", "kernel_probe",
    "materialize", "min_norm_witness", "monte_carlo", "normal_equations_cg",
    "precondition_solve", "rank_one_update", "read_matrix_market",
    "read_sample", "read_scores", "read_weights", "refinement_sampling",
    "repeated_halving", "sample", "sampling_probabilities", "scale_rows",
    "scaled_sample", "sherman_morrison_check", "spectral_check",
    "undersample_refine", "uniform_leverage_estimates",
    "uniform_no_reweight_estimates", "write_matrix_market", "write_sample",
    "write_scores", "write_weights",
]

"""discq: discrepancy-guided rounding onto quantization grids, with a
desk-scale lab for the scaling laws and divergence identities behind it."""

__version__ = "0.1.0"

from .grid import (Bracket, InterpState, QuantGrid, bits_per_param, bracket_of,
                   build_block_scaling, explicit_grid, interp_weights, rtn)
from .toymodel import (SampleBatch, ToyArch, ToyModel, forward_next_token,
                       grad_stats, hessian_quadratic_form, kl_term,
                       per_sample_grad, random_model, sample_sequences)
from .lmwalk import (ConstraintSet, WalkConfig, WalkResult, lm_phase, lm_round,
                     vertex_integrality_check, walk_variance_probe)
from .discquant import (DiscQuantConfig, RoundingReport, cstar, finalize,
                        init_x, optimize)
from .speclab import (SpectrumSpec, falpha_scaling_study, generalization_study,
                      jl_spectrum, sample_gradients, schatten1_error)
from .incoherence import (RHT, ModelIncoherence, rht_apply, rht_inverse,
                          transform_layer, untransform_layer)
from .pipeline import quantize_model
from .harness import (ComparisonParams, ExperimentConfig, FirstOrderParams,
                      Report, ScalingParams, emit, pipeline_with_incoherence,
                      run_comparison, run_experiment, run_first_order,
                      run_scaling)

"""Sampler acceleration toolkit: Taylor-extrapolated latent prediction,
weighted sliding-window scheduling, and statistics-aligned feature fusion,
validated against a deterministic toy flow-matching denoiser."""

from .core import EPS, FeatureStats, SeededRng, relative_l2, stats
from .flow_model import (LayerOutputs, MaskPair, SamplerConfig, ToyModel, build_model,
                         euler_step, forward_diffuse, masked_recon_loss, sample_full,
                         velocity_loss)
from .harness import ExperimentConfig, MetricsReport, ablation_sweep, dump_trajectory, \
    load_trajectory, run_experiment
from .norm_fusion import normalize_fuse
from .predictor import (AnchorCache, DiffTable, PredictorConfig, PredictorState, SigmaHistory,
                        finite_differences, is_anchor_step, layer_weight, predict,
                        sample_accelerated, scale_s)
from .windows import WindowPlan, blend_overlap, blend_weights, plan_windows, run_long

__version__ = "0.1.0"

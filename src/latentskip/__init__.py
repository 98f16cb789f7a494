"""Sampler acceleration toolkit: Taylor-extrapolated latent prediction,
weighted sliding-window scheduling, and statistics-aligned feature fusion,
validated against a deterministic toy flow-matching denoiser."""

from .core import EPS, FeatureStats, SeededRng, relative_l2, stats
from .flow_model import (Conditioning, LayerOutputs, MaskPair, SamplerConfig, ToyModel, build_model,
                         forward_diffuse, masked_recon_loss, velocity_loss)
from .harness import ExperimentConfig, MetricsReport, ablation_sweep, dump_trajectory, \
    load_trajectory, run_experiment
from .norm_fusion import image_moments, normalize_fuse, normalize_portrait
from .predictor import PredictorConfig
from .windows import WindowPlan, blend_overlap, blend_weights, run_long, sample_accelerated, sample_full

__version__ = "0.1.0"

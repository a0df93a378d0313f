"""Hierarchical predictive coding network with variational-free-energy
inference and learning, replay, and auto-associative recall."""

from .core import (
    DivergenceError,
    LatentState,
    ModelParams,
    descend_latents,
    free_energy,
    init_latents,
    init_params,
    learning_gradients,
)
from .data import DatasetSplits, RawImageSet, Split, build_splits, load_raw
from .experiments import (
    ExperimentConfig,
    TrainLog,
    TrainResult,
    evaluate_errors,
    preset,
    run_recall_suite,
    train,
)
from .memory import (
    OcclusionMask,
    RecallResult,
    infer_latents,
    masked_mse,
    recall,
    reconstruct,
    replay,
)
from .optim import AdamState, adam_step

__version__ = "0.1.0"

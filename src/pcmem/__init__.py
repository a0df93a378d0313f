"""Hierarchical predictive coding network with variational-free-energy
inference and learning, replay, and auto-associative recall."""

from .core import (
    Activation,
    DivergenceError,
    ErrorState,
    LatentState,
    ModelParams,
    activation_eval,
    compute_errors,
    descend_latents,
    free_energy,
    inference_gradients,
    init_latents,
    init_params,
    learning_gradients,
)
from .data import DatasetSplits, RawImageSet, Split, batches, build_splits, load_raw, parse_idx
from .experiments import (
    ExperimentConfig,
    TrainLog,
    TrainResult,
    convergence_check,
    evaluate_errors,
    preset,
    run_recall_suite,
    train,
)
from .memory import (
    MemoryTaskResult,
    OcclusionMask,
    infer_latents,
    masked_mse,
    recall,
    reconstruct,
    replay,
)
from .optim import AdamState, adam_step

__version__ = "0.1.0"

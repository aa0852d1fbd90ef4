"""Robust classifier training under heavy label noise.

The package implements a loss-reweighting meta-optimizer: training
alternates weighted SGD epochs with a re-weighting step that solves a
total-variation-penalized linear program over per-sample probability
shifts.  Samples whose loss exceeds ``c_min + gamma`` are driven to
weight zero and effectively pruned from the dataset.
"""

from rockrelax.reweight import (
    WeightShift,
    LossPartition,
    ReweightConfig,
    partition_losses,
    solve_reweight,
    blend_weights,
    auto_tune_gamma,
    reweight_objective,
    check_kkt,
    tv_distance,
)
from rockrelax.oracle import oracle_lp, oracle_lp_relaxed
from rockrelax.models import (
    Architecture,
    ModelState,
    LossKind,
    init_params,
    forward,
    loss_per_sample,
    grad_params_weighted,
    grad_input,
    fgsm_perturb,
    save_checkpoint,
    load_checkpoint,
)
from rockrelax.data import (
    ContaminatedDataset,
    ContaminationKernel,
    load_idx,
    write_idx,
    subset_classes,
    inject_ncar,
    inject_kernel,
    make_synthetic_blobs,
    split,
    save_cache,
    load_cache,
    mnist_kernel_path,
)
from rockrelax.trainer import (
    TrainConfig,
    RunRecord,
    evaluate_fgsm_sweep,
    gradient_step,
    reweight_step,
    run,
    weight_histogram,
)

__version__ = "0.1.0"

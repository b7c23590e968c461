"""calprune: train-time calibration with focal/Huber losses and EMA data pruning."""

from .autodiff import Graph, GraphError, grad_check
from .data import (Dataset, generate_gaussian_mixture, load_csv, load_idx_pair,
                   minibatches, mixture_posterior, stratified_split)
from .losses import (AuxSpec, LossSpec, aux_huber_loss, dca_aux_loss, flsd_loss,
                     focal_loss, mdca_aux_loss, nll_loss, total_loss)
from .metrics import (CalibrationReport, binned_ece, build_report, ece_on_subset,
                      refinement_auroc, test_error)
from .mlp import MlpParams, forward_logits, init_mlp, load_checkpoint, predict
from .pruning import PruneSchedule, prune_count, prune_using_ema, update_ema
from .trainer import (RunResult, TrainConfig, TrainingDiverged, evaluate_model,
                      fit_temperature, lr_at_epoch, sgd_state, sgd_update,
                      train_with_pruning)

__version__ = "0.1.0"

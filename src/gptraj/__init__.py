"""Codebook-conditioned GP trajectory prediction, training, and adaptation."""

from .core import (Command, SceneRecord, Trajectory, load_dataset, save_dataset,
                   validate_record)
from .codebook import (Codebook, admissible, init_basis_tokens, sample_and_cluster,
                       triplet_table)
from .psdlinalg import (CholeskyFactor, KernelParams, NotPSD, cholesky_factor,
                        kernel_matrix)
from .gpmodule import GpInference, GpParams, GroupClassifier
from .losses import LossBreakdown, loss_gp_teacher, loss_rec, loss_sup, triplet_term
from .basemodel import BaseModelParams
from .synthdomain import DomainSpec, gen_dataset, gen_scene
from .trainer import (Adam, Checkpoint, Model, ModelSpec, TrainConfig, grad,
                      stage1_pretrain, stage2_fit_gp, stage3_finetune)
from .adapt import (SelectionReport, active_select, adapt_supervised,
                    adapt_unsupervised)
from .evalmetrics import EvalReport, avg_l2, collision, evaluate

__version__ = "0.1.0"

"""fewdet: few-shot set-prediction detection with a learnable background
token and contrastive class separation, on a synthetic episodic benchmark.

The package is organized as a small numpy-backed library:

- :mod:`fewdet.tensor` - float64 tensors with reverse-mode autodiff and a
  finite-difference gradient oracle
- :mod:`fewdet.optim` - Adam over one flat parameter buffer
- :mod:`fewdet.obd` - background-token attention (support and query branches)
- :mod:`fewdet.ood` - learnable class feature space + InfoNCE loss
- :mod:`fewdet.set_head` - Hungarian matching, set loss, detection decoding
- :mod:`fewdet.model` - end-to-end model, training step, ablation variants
- :mod:`fewdet.episodes` - deterministic synthetic episode benchmark + files
- :mod:`fewdet.metrics` - IoU/GIoU, COCO-style mAP, confusion matrices
- :mod:`fewdet.checkpoint` - named-tensor container and checkpoints
- :mod:`fewdet.config` - the YAML run configuration and its checks
- :mod:`fewdet.harness` - train / eval / ablate drivers and run checkpoints
- :mod:`fewdet.gradcheck` - finite-difference audit of every primitive
- :mod:`fewdet.errors` - the exception classes the CLI maps to exit codes
- :mod:`fewdet.cli` - gen / train / eval / ablate / gradcheck verbs
"""

from .episodes import BenchmarkSpec, Episode, generate_episode
from .metrics import EvalReport, giou, iou
from .model import (ModelConfig, ablation_variant, forward, init_model_state,
                    run_inference, train_step)
from .obd import (SupportSequence, background_attention_mass, ofe_query,
                  ofe_support)
from .ood import ClassFeatureSpace, infonce_loss, min_interclass_separation
from .optim import AdamState, adam_step
from .set_head import (DetectionOutput, GroundTruth, Weights,
                       decode_detections, hungarian_match, match_cost, set_loss)
from .tensor import Tensor, finite_diff_gradient, no_grad

__version__ = "0.1.0"

__all__ = [
    "AdamState", "BenchmarkSpec", "ClassFeatureSpace",
    "DetectionOutput", "Episode", "EvalReport", "GroundTruth", "ModelConfig",
    "SupportSequence", "Tensor", "Weights", "ablation_variant", "adam_step",
    "background_attention_mass", "decode_detections", "finite_diff_gradient",
    "forward", "generate_episode", "giou", "hungarian_match", "infonce_loss",
    "init_model_state", "iou", "match_cost", "min_interclass_separation",
    "no_grad", "ofe_query", "ofe_support", "run_inference", "set_loss",
    "train_step",
]

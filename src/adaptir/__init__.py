"""AdaptIR: a three-branch parameter-efficient adapter for frozen image
restoration transformers, with its own autodiff tensor core (FFT ops
included, computed by numpy.fft), data pipeline and training/evaluation
harness."""

from .tensor import Tensor, ShapeError, ContractError, no_grad
from .adapter import AdaptIR, AdaptIRConfig, ConfigError, config_from
from .baselines import LoRALayer, BottleneckAdapter, bottleneck_forward
from .host import (HostConfig, HostModel, PETLMethod, AdapterStack, LoRAStack,
                   BottleneckStack, METHODS, host_forward, freeze, host_checksum)
from .data import DegradationSpec, parse_task, synth_image, degrade, derive_seed
from .metrics import MetricReport, psnr, ssim, rgb_to_y
from .pipeline import (l1_loss, lr_at, TrainConfig, TrainState, adamw_step, pretrain,
                       finetune, evaluate, build_adapter, ablate, gradcheck, save_host,
                       load_host, save_adapter, load_adapter)

__version__ = "0.1.0"

__all__ = [
    "Tensor", "ShapeError", "ContractError", "no_grad",
    "AdaptIR", "AdaptIRConfig", "ConfigError", "config_from",
    "LoRALayer", "BottleneckAdapter", "bottleneck_forward",
    "HostConfig", "HostModel", "PETLMethod", "AdapterStack",
    "LoRAStack", "BottleneckStack", "METHODS", "host_forward", "freeze",
    "host_checksum",
    "DegradationSpec", "parse_task", "synth_image", "degrade", "derive_seed",
    "MetricReport", "psnr", "ssim", "rgb_to_y",
    "l1_loss", "lr_at", "TrainConfig", "TrainState", "adamw_step", "pretrain", "finetune",
    "evaluate", "build_adapter", "ablate", "gradcheck",
    "save_host", "load_host", "save_adapter", "load_adapter",
    "__version__",
]

"""LLM workload models.

The paper's methodology (Sec. IV-D) uses decoder blocks of GPT-2 and
LLaMA-2 as the fundamental evaluation unit, sweeping layer count and
hidden size. This package provides:

* :mod:`repro.models.precision` — numeric formats and their costs,
* :mod:`repro.models.config` — model/training configuration dataclasses
  with the GPT-2 and LLaMA-2 family presets used throughout the paper,
* :mod:`repro.models.costmodel` — parameter/FLOPs/activation estimators,
* :mod:`repro.models.graph_builder` — lowering a config once, as one
  decoder layer x L (:func:`lower_model`), and the full
  :class:`~repro.graph.graph.ComputationGraph` training graph built
  from that lowering.
"""

from repro.models.config import (
    GPT2_PRESETS,
    LLAMA2_PRESETS,
    ModelConfig,
    TrainConfig,
    gpt2_model,
    llama2_model,
)
from repro.models.costmodel import TransformerCostModel
from repro.models.graph_builder import (
    ModelLowering,
    build_training_graph,
    lower_model,
)
from repro.models.precision import Precision, PrecisionPolicy

__all__ = [
    "Precision",
    "PrecisionPolicy",
    "ModelConfig",
    "TrainConfig",
    "gpt2_model",
    "llama2_model",
    "GPT2_PRESETS",
    "LLAMA2_PRESETS",
    "TransformerCostModel",
    "ModelLowering",
    "build_training_graph",
    "lower_model",
]

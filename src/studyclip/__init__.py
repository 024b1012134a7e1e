"""Desk-scale study-level contrastive image-text pretraining."""

__version__ = "0.1.0"

from .losses import (
    CLIP_TABLE,
    EmbeddingBatch,
    LossOutput,
    Pairing,
    Temperature,
    l2_normalize,
    paper_table,
    total_loss,
)

__all__ = [
    "CLIP_TABLE",
    "EmbeddingBatch",
    "LossOutput",
    "Pairing",
    "Temperature",
    "l2_normalize",
    "paper_table",
    "total_loss",
    "__version__",
]

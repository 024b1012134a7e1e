"""Desk-scale study-level contrastive image-text pretraining."""

__version__ = "0.1.0"

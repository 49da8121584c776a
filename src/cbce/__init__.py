"""Phrase-conditioned affordance segmentation at desk scale.

A from-scratch numpy stack: a small reverse-mode autodiff engine, a
multi-level vision/language fusion network with cyclic bilateral
interaction, the five standard mask-quality metrics, a synthetic shape
dataset, and the training/evaluation loop that ties them together.
Everything else is imported from its module (``cbce.train``,
``cbce.model``, ...).
"""

from .gradcheck import grad_check
from .tensor import Tensor, backward

__version__ = "0.1.0"

__all__ = ["Tensor", "backward", "grad_check"]

from .tensor import Tensor, no_grad
from . import ops
from .lstm import bilstm_final, init_lstm
from .init import seeded_init
from .optim import Adam
from .checkpoint import load_model, save_model

__all__ = ["Tensor", "no_grad", "ops", "bilstm_final", "init_lstm", "seeded_init", "Adam",
           "load_model", "save_model"]

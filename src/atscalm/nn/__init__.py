from .tensor import Tensor, no_grad
from . import ops
from .lstm import LstmWeights, bilstm_final, init_lstm, lstm_final
from .init import seeded_init
from .optim import Adam
from .checkpoint import load_checkpoint, load_model, save_checkpoint, save_model

__all__ = [
    "Tensor", "no_grad", "ops", "LstmWeights", "bilstm_final", "init_lstm", "lstm_final",
    "seeded_init", "Adam", "load_checkpoint", "load_model", "save_checkpoint", "save_model",
]

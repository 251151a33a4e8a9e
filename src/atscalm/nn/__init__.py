from .tensor import Tensor, no_grad
from . import ops
from .lstm import LstmWeights, bilstm_final, init_lstm, lstm_final, lstm_param_count
from .init import seeded_init
from .optim import Adam
from .gradcheck import grad_check
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "Tensor", "no_grad", "ops", "LstmWeights", "bilstm_final", "init_lstm", "lstm_final",
    "lstm_param_count", "seeded_init", "Adam", "grad_check", "load_checkpoint",
    "save_checkpoint",
]

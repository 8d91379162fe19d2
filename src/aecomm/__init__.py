"""Link-level simulator for autoencoder-based transmission over AWGN.

A small numpy-backed neural network models the transmitter and receiver,
message representations range from one-hot to m-of-M codebooks, and the
surrounding harness covers adaptive subset selection, a classical
Hamming(7,4)/BPSK baseline, softmax-linearization analysis, and seeded
Monte Carlo sweeps with CSV output.
"""

from .adaptive import (AdaptiveState, probe_mses, run_adaptive, select_vectors,
                       selected_codebook)
from .analysis import (LinearizedReceiver, achievable_rate, build_F,
                       mse_decomposition)
from .channel import ChannelSpec, awgn, sigma2_from_ebn0, snr_db_to_sigma2, spawn_rng
from .codebooks import (Codebook, build_gdr, build_onehot, data_rate,
                        decode_batch, gray_bit_errors, subset_codebook)
from .errors import (CheckpointDimensionError, CheckpointError,
                     CheckpointTruncatedError, CheckpointVersionError,
                     ConfigError, DegenerateInputError, DomainError,
                     ShapeError, SingularityError, TrainingDivergedError,
                     UnknownRecipeError)
from .metrics import MetricRecord, estimate_bler, wald_ci95, write_csv
from .model import (Autoencoder, TrainingConfig, TrainingTrace, build_model,
                    load_checkpoint, save_checkpoint, theoretical_param_count,
                    train)
from .nn import power_normalize, softmax

__version__ = "0.1.0"

__all__ = [
    "AdaptiveState", "probe_mses", "run_adaptive", "select_vectors",
    "selected_codebook",
    "LinearizedReceiver", "achievable_rate", "build_F", "mse_decomposition",
    "ChannelSpec", "awgn", "sigma2_from_ebn0", "snr_db_to_sigma2", "spawn_rng",
    "Codebook", "build_gdr", "build_onehot", "data_rate", "decode_batch",
    "gray_bit_errors", "subset_codebook",
    "CheckpointDimensionError", "CheckpointError", "CheckpointTruncatedError",
    "CheckpointVersionError", "ConfigError", "DegenerateInputError",
    "DomainError", "ShapeError", "SingularityError", "TrainingDivergedError",
    "UnknownRecipeError",
    "MetricRecord", "estimate_bler", "wald_ci95", "write_csv",
    "Autoencoder", "TrainingConfig", "TrainingTrace", "build_model",
    "load_checkpoint", "save_checkpoint", "theoretical_param_count", "train",
    "power_normalize", "softmax",
]

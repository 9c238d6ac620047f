"""Minimal feed-forward classifier with explicit gradients.

The model is an MLP with ReLU hidden layers and a linear output layer.
All parameters live in a single flat float64 vector so the federation
layer can average, checkpoint, and diff models as plain arrays.

Parameter layout (fixed contract): for each layer in order, the weight
matrix of shape (fan_in, fan_out) flattened row-major, followed by the
bias vector of length fan_out.  Layer l maps activations via
``h @ W_l + b_l``.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .rng import NS_INIT, stream

CHECKPOINT_MAGIC = b"FNTD"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class MlpConfig:
    input_dim: int
    hidden_dims: tuple[int, ...]
    num_classes: int

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden dims must be >= 1, got {self.hidden_dims}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))

    def layer_shapes(self) -> list[tuple[int, int]]:
        dims = (self.input_dim, *self.hidden_dims, self.num_classes)
        return [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]

    def param_count(self) -> int:
        return sum(fi * fo + fo for fi, fo in self.layer_shapes())


@functools.cache
def _layout(config: MlpConfig) -> tuple[tuple[slice, tuple[int, int], slice], ...]:
    """(weight slice, weight shape, bias slice) of every layer, computed once per config."""
    layout, off = [], 0
    for fan_in, fan_out in config.layer_shapes():
        end = off + fan_in * fan_out
        layout.append((slice(off, end), (fan_in, fan_out), slice(end, end + fan_out)))
        off = end + fan_out
    return tuple(layout)


def unpack_params(config: MlpConfig, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of (weight, bias) per layer into a flat vector (P,) or a stack (K, P).

    Weights come out as (..., fan_in, fan_out) and biases as (..., fan_out),
    the leading axis being the stack axis when there is one.
    """
    if params.shape[-1:] != (config.param_count(),):
        raise ValueError(
            f"parameter vector has length {params.shape}, config implies {config.param_count()}"
        )
    lead = params.shape[:-1]
    return [(params[..., w].reshape(*lead, *shape), params[..., b])
            for w, shape, b in _layout(config)]


def init_params(config: MlpConfig, seed: int) -> np.ndarray:
    """Fan-in scaled uniform weights on [-1/sqrt(fan_in), 1/sqrt(fan_in)]; zero biases.

    Deterministic: same (config, seed) gives a bit-identical vector.
    """
    rng = stream(seed, NS_INIT)
    params = np.zeros(config.param_count(), dtype=np.float64)
    for i, (w, _b) in enumerate(unpack_params(config, params)):
        bound = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def _check_features(config: MlpConfig, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim < 2 or features.shape[-1] != config.input_dim:
        raise ValueError(
            f"features shape {features.shape} incompatible with input_dim {config.input_dim}"
        )
    return features


def forward(
    config: MlpConfig, params: np.ndarray, features: np.ndarray, hidden: list | None = None
) -> np.ndarray:
    """Logits (..., B, num_classes) of features (..., B, input_dim).

    `params` is one flat vector, or a stack (K, P) of K models that each see
    their own batch of a (K, B, input_dim) stack.  One vector may also score
    a whole stack of batches.  Every product stays one BLAS call per model
    and batch: a stack is never flattened into (K*B, ...) rows, because BLAS
    may round a product of more rows differently, and per-client results
    must not depend on how many clients train together.

    When `hidden` is a list, the post-ReLU output of every hidden layer is
    appended to it; `backward` takes them and recomputes nothing.
    """
    h = _check_features(config, features)
    layers = unpack_params(config, params)
    for w, b in layers[:-1]:
        h = h @ w
        h += b[..., None, :]
        np.maximum(h, 0.0, out=h)
        if hidden is not None:
            hidden.append(h)
    w, b = layers[-1]
    logits = h @ w
    logits += b[..., None, :]
    return logits


def backward(
    config: MlpConfig,
    params: np.ndarray,
    features: np.ndarray,
    hidden: list[np.ndarray],
    dl_dlogits: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient of the mean-over-batch loss w.r.t. the parameters, shaped like `params`.

    `hidden` is the list `forward` filled for the same parameters and
    features.  `dl_dlogits` (..., B, num_classes) holds per-sample logit
    gradients; the 1/B averaging happens here.  With `out`, the gradient is
    written into it and it is returned, so that a training loop can reuse
    one buffer for every step.
    """
    if dl_dlogits.shape != (*features.shape[:-1], config.num_classes):
        raise ValueError(
            f"dl_dlogits shape {dl_dlogits.shape} != {(*features.shape[:-1], config.num_classes)}"
        )
    if len(hidden) != len(config.hidden_dims):
        raise ValueError(f"need {len(config.hidden_dims)} hidden activations, got {len(hidden)}")
    grad = np.empty(params.shape) if out is None else out
    layers = unpack_params(config, params)
    glayers = unpack_params(config, grad)
    inputs = [features, *hidden]
    delta = dl_dlogits / dl_dlogits.shape[-2]
    for li in range(len(layers) - 1, -1, -1):
        gw, gb = glayers[li]
        np.matmul(np.swapaxes(inputs[li], -1, -2), delta, out=gw)
        np.sum(delta, axis=-2, out=gb)
        if li > 0:
            # ReLU derivative: post-activation output > 0 iff pre-activation > 0.
            delta = (delta @ np.swapaxes(layers[li][0], -1, -2)) * (inputs[li] > 0.0)
    return grad


def sgd_momentum_step(
    params: np.ndarray,
    grad: np.ndarray,
    velocity: np.ndarray,
    lr: float,
    momentum: float,
    weight_decay: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One classical momentum-SGD step with coupled L2 weight decay, in place.

    g' = grad + weight_decay * params
    v' = momentum * v + g'
    params' = params - lr * v'

    `params` and `velocity` (float64, any shape, a stack of clients
    included) are updated in place and returned; `grad` is overwritten as
    scratch.  lr = 0 leaves finite parameters unchanged; a NaN or inf in
    `params` or `grad` leaves `params` non-finite, whatever lr, momentum
    and weight_decay are (0 * inf is NaN).
    """
    if not (lr >= 0.0):
        raise ValueError(f"lr must be >= 0, got {lr}")
    if not (0.0 <= momentum < 1.0):
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    if weight_decay < 0.0:
        raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
    if weight_decay != 0.0:
        grad += weight_decay * params
    velocity *= momentum
    velocity += grad
    np.multiply(velocity, lr, out=grad)
    params -= grad
    return params, velocity


def lr_at_round(lr0: float, t: int, decay: float = 0.99) -> float:
    """Geometric decay per round: lr0 * decay**t (default factor 0.99)."""
    if not (lr0 >= 0.0):
        raise ValueError(f"lr0 must be >= 0, got {lr0}")
    if t < 0:
        raise ValueError(f"round index must be >= 0, got {t}")
    return lr0 * decay**t


def save_params(path, params: np.ndarray) -> None:
    """Binary checkpoint: magic 'FNTD', u32 version, u64 length, f64 values (little-endian)."""
    params = np.asarray(params, dtype=np.float64)
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<Q", params.size))
        f.write(params.astype("<f8").tobytes())


def load_params(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r}")
        (version,) = struct.unpack("<I", f.read(4))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (length,) = struct.unpack("<Q", f.read(8))
        data = f.read(length * 8)
        if len(data) != length * 8:
            raise ValueError("truncated checkpoint file")
        return np.frombuffer(data, dtype="<f8").astype(np.float64)

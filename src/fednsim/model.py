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
import math
import numbers
import os
import struct
from dataclasses import dataclass

import numpy as np

from .rng import NS_INIT, stream

CHECKPOINT_MAGIC = b"FNTD"
CHECKPOINT_VERSION = 1
_CHECKPOINT_HEADER = struct.Struct("<4sIQ")  # magic, version, parameter count
_BLOCK = 32768  # columns per cache block of an elementwise pass over a (K, P) stack
# float64 elements one numpy array can hold: its byte count must fit in an intp
MAX_FLOATS = int(np.iinfo(np.intp).max) // 8


def _check_count(name: str, value, low: int | None = 1, high: int | None = None) -> None:
    """The one rule for a count or a seed: an integer (numpy's too), >= `low`
    unless it is None and <= `high` when given.  The ValueError starts with `name`."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")


def _check_real(name: str, value, low, high, *, low_open=False, high_open=False) -> None:
    """The one rule for a real setting: a real number (numpy's too), not NaN, in
    [low, high] with each side open where asked, and finite where `high` is None.
    The ValueError starts with `name`.  Scalar tests only: some callers run it every step."""
    if type(value) is not float and not isinstance(value, numbers.Real):  # floats skip the slow ABC
        raise ValueError(f"{name} must be a real number, got {value!r}")
    below_top = value < math.inf if high is None else value < high if high_open else value <= high
    if not ((low < value if low_open else low <= value) and below_top):  # NaN fails both
        bounds = (f"finite and {'>' if low_open else '>='} {low}" if high is None else
                  f"in {'(' if low_open else '['}{low}, {high}{')' if high_open else ']'}")
        raise ValueError(f"{name} must be {bounds}, got {value}")


def _check_choice(name: str, value, choices: tuple[str, ...]) -> None:
    """The one rule for a named choice: one of the strings `choices`."""
    if not (isinstance(value, str) and value in choices):
        raise ValueError(f"unknown {name} {value!r}, expected one of {choices}")


@dataclass(frozen=True)
class MlpConfig:
    input_dim: int
    hidden_dims: tuple[int, ...]
    num_classes: int

    def __post_init__(self):
        _check_count("input_dim", self.input_dim)
        for h in self.hidden_dims:
            _check_count("hidden dims", h)
        _check_count("num_classes", self.num_classes, 2)
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if (count := self.param_count()) > MAX_FLOATS:
            raise ValueError(f"the model has {count} parameters, more than the {MAX_FLOATS} "
                             "one array can hold")

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
    _check_count("seed", seed, low=None)
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
    config: MlpConfig,
    params: np.ndarray,
    features: np.ndarray,
    hidden: list | None = None,
    *, layers: list | None = None,
) -> np.ndarray:
    """Logits (..., B, num_classes) of features (..., B, input_dim).

    `params` is one flat vector, or a stack (K, P) of K models that each see
    their own batch of a (K, B, input_dim) stack.  One vector may also score
    a whole stack of batches.  Every product stays one BLAS call per model
    and batch: a stack is never flattened into (K*B, ...) rows, because BLAS
    may round a product of more rows differently, and per-client results
    must not depend on how many clients train together.

    When `hidden` is a list, the post-ReLU output of every hidden layer is
    appended to it; `backward` takes them and recomputes nothing.  `layers`
    may hold `unpack_params(config, params)`, made once by the caller.
    """
    h = _check_features(config, features)
    layers = unpack_params(config, params) if layers is None else layers
    for w, b in layers[:-1]:
        h = np.matmul(h, w)
        h += b[..., None, :]
        np.maximum(h, 0.0, out=h)
        if hidden is not None:
            hidden.append(h)
    w, b = layers[-1]
    logits = np.matmul(h, w)
    logits += b[..., None, :]
    return logits


def backward(
    config: MlpConfig,
    params: np.ndarray,
    features: np.ndarray,
    hidden: list[np.ndarray],
    dl_dlogits: np.ndarray,
    out: np.ndarray | None = None,
    *, layers: list | None = None, grad_layers: list | None = None,
) -> np.ndarray:
    """Gradient of the mean-over-batch loss w.r.t. the parameters, shaped like `params`.

    `hidden` is the list `forward` filled for the same parameters and
    features.  `dl_dlogits` (..., B, num_classes) holds per-sample logit
    gradients; the 1/B averaging happens here.  With `out`, the gradient is
    written into it and it is returned, so that a training loop can reuse
    one buffer for every step.  `layers` and `grad_layers` may hold
    `unpack_params` of `params` and of `out`, made once by the caller.
    """
    if dl_dlogits.shape != (*features.shape[:-1], config.num_classes):
        raise ValueError(
            f"dl_dlogits shape {dl_dlogits.shape} != {(*features.shape[:-1], config.num_classes)}"
        )
    if len(hidden) != len(config.hidden_dims):
        raise ValueError(f"need {len(config.hidden_dims)} hidden activations, got {len(hidden)}")
    grad = np.empty(params.shape) if out is None else out
    layers = unpack_params(config, params) if layers is None else layers
    glayers = unpack_params(config, grad) if grad_layers is None else grad_layers
    inputs = [features, *hidden]
    delta = dl_dlogits / dl_dlogits.shape[-2]
    for li in range(len(layers) - 1, -1, -1):
        gw, gb = glayers[li]
        np.matmul(np.swapaxes(inputs[li], -1, -2), delta, out=gw)
        np.sum(delta, axis=-2, out=gb)
        if li > 0:
            # ReLU derivative: post-activation output > 0 iff pre-activation > 0.
            delta = delta @ np.swapaxes(layers[li][0], -1, -2)
            delta *= inputs[li] > 0.0
    return grad


def _check_sgd(lr=0.0, momentum=0.0, weight_decay=0.0, lr_decay=1.0, lr_name="lr") -> None:
    """The one valid range of each SGD setting."""
    _check_real(lr_name, lr, 0, None)
    _check_real("momentum", momentum, 0, 1, high_open=True)
    _check_real("weight_decay", weight_decay, 0, None)
    _check_real("lr_decay", lr_decay, 0, 1, low_open=True)


def sgd_momentum_step(
    params: np.ndarray,
    grad: np.ndarray,
    velocity: np.ndarray,
    lr: float,
    momentum: float,
    weight_decay: float,
    scratch: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One classical momentum-SGD step with coupled L2 weight decay, in place.

    g' = grad + weight_decay * params
    v' = momentum * v + g'
    params' = params - lr * v'

    `params` and `velocity` (float64, a vector or a stack of clients'
    vectors) are updated in place and returned; `grad` is overwritten as
    scratch.  `scratch`, shaped like `params`, receives the weight-decay
    product, which is otherwise allocated per block: the six passes run on
    one block of `_BLOCK` columns, which stays in cache, before the next, and
    each element sees the same operations in the same order.  lr = 0 leaves
    finite parameters unchanged; a NaN or inf in `params` or `grad` leaves
    `params` non-finite, whatever lr, momentum and weight_decay are (0 * inf is NaN).
    """
    _check_sgd(lr, momentum, weight_decay)
    for cols in _column_blocks(params.shape[-1]):
        p, g, v = params[..., cols], grad[..., cols], velocity[..., cols]
        if weight_decay != 0.0:
            g += np.multiply(p, weight_decay, out=None if scratch is None else scratch[..., cols])
        v *= momentum
        v += g
        np.multiply(v, lr, out=g)
        p -= g
    return params, velocity


def _column_blocks(n: int) -> list[slice]:
    """Slices of n columns in blocks of `_BLOCK`, the last one ragged."""
    return [slice(lo, lo + _BLOCK) for lo in range(0, n, _BLOCK)]


def lr_at_round(lr0: float, t: int, decay: float) -> float:
    """Geometric decay per round: lr0 * decay**t."""
    _check_sgd(lr0, lr_decay=decay, lr_name="lr0")
    _check_count("round index", t, 0)
    return lr0 * decay**t


class OutputError(Exception):
    """An output that cannot be written; the message names its path."""


def open_file(path, mode: str = "rb"):
    """`open(path, mode)` to read ("rb") or to create or truncate ("wb"), which
    does not wait on a FIFO with no peer where the OS has O_NONBLOCK: one with
    no writer reads as empty, one with no reader fails."""
    if not hasattr(os, "O_NONBLOCK"):
        return open(path, mode)
    flags = os.O_RDONLY if mode == "rb" else os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    fd = os.open(path, flags | os.O_NONBLOCK, 0o666)
    try:
        os.set_blocking(fd, True)
        return open(fd, mode)
    except OSError:  # a directory
        os.close(fd)
        raise


def write_file(path, *chunks) -> None:
    """Creates or truncates `path` and writes the bytes-like `chunks` to it; an
    OSError (a directory there, no reader on a FIFO or pipe, a full disk) is an
    OutputError naming `path`."""
    try:
        with open_file(path, "wb") as f:
            f.writelines(chunks)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None


def read_file(path, what: str, error, encoding=None):
    """The bytes of the file at `path`, or their text in `encoding`.  What can
    seek is read up to the size `fstat` gives it, so a device (/dev/zero)
    reads as empty, as /dev/null does; a pipe or FIFO to its end.  An OSError
    or UnicodeDecodeError is `error` naming `what` and `path`."""
    try:
        with open_file(path) as f:
            data = f.read(os.fstat(f.fileno()).st_size if f.seekable() else -1)
        return data if encoding is None else data.decode(encoding)
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not in `encoding`
        reason = getattr(exc, "strerror", None) or exc
        raise error(f"cannot read {what} {path}: {reason}") from None


def sized_part(data: bytes, start: int, size: int, path, part: str, error=ValueError):
    """A view of the `size` bytes of `data` from `start`; fewer left is `error` naming
    `path`, `part` and both sizes (Python ints, so any declared size compares)."""
    if size > (left := len(data) - start):
        raise error(f"{path}: truncated {part}: needs {size} bytes, {left} are left")
    return memoryview(data)[start:start + size]


def save_params(path, params: np.ndarray) -> None:
    """Binary checkpoint: magic 'FNTD', u32 version, u64 length, f64 values (little-endian)."""
    params = np.ascontiguousarray(params, dtype="<f8")
    write_file(path, _CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, params.size),
               params)


def load_params(path) -> np.ndarray:
    """The vector `save_params` wrote; an unreadable, bad or short file is a ValueError."""
    data = read_file(path, "checkpoint", ValueError)
    head = sized_part(data, 0, _CHECKPOINT_HEADER.size, path, "checkpoint header")
    magic, version, length = _CHECKPOINT_HEADER.unpack(head)
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    params = sized_part(data, len(head), 8 * length, path, "checkpoint parameters")
    return np.frombuffer(params, dtype="<f8").astype(np.float64)

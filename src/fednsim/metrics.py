"""Measurement machinery: accuracies, forgetting and drift.

Everything here is a pure function over immutable inputs.  Class-wise
accuracy vectors are plain float64 arrays of length C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .model import MlpConfig, forward


@dataclass(frozen=True)
class RoundLog:
    """Per-round record of the global model and the sampled locals."""

    t: int
    global_acc: float
    class_acc: np.ndarray  # length C
    local_in_acc_mean: float
    local_in_acc_std: float
    local_out_acc_mean: float
    local_out_acc_std: float
    weight_div_mean: float
    dist_dist_mean: float
    train_loss: float


def predict(config: MlpConfig, params: np.ndarray, testset: Dataset) -> np.ndarray:
    """Top-1 class of every test sample: one forward of the whole set.

    Every accuracy below is derived from these predictions, so a model is
    scored with one forward however many accuracies are taken from it.
    """
    logits = forward(config, params, testset.features)
    return logits.argmax(axis=-1)  # argmax ties go to the lowest class index


def class_wise_accuracy(pred: np.ndarray, testset: Dataset) -> np.ndarray:
    """Top-1 accuracy per class; every class must appear in the testset."""
    if missing := testset.missing_classes():
        raise ValueError(f"testset has no samples for classes {missing}")
    counts = testset.class_counts()
    correct = np.bincount(testset.labels[pred == testset.labels], minlength=testset.num_classes)
    return correct / counts


def overall_accuracy(pred: np.ndarray, testset: Dataset) -> float:
    return float(np.mean(pred == testset.labels))


def forgetting_measure(history: list[np.ndarray]) -> float:
    """Mean over classes of the peak-minus-final accuracy gap.

    `history` holds class-wise accuracy vectors for rounds 1..T in order;
    the peak is taken over rounds 1..T-1.
    """
    if len(history) < 2:
        raise ValueError(f"need accuracy history for at least 2 rounds, got {len(history)}")
    hist = np.asarray(history, dtype=np.float64)
    gaps = hist[:-1].max(axis=0) - hist[-1]
    return float(gaps.mean())


def accuracy_cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two accuracy vectors; 0.0 if either is all-zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shapes differ: {a.shape} vs {b.shape}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b / (na * nb))


def gradient_diversity(grads: list[np.ndarray]) -> float:
    """Mean squared gradient norm over the squared norm of the mean gradient.

    Equals 1 when all gradients coincide and grows with misalignment;
    always >= 1 by Jensen's inequality.
    """
    g = np.asarray(grads, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] < 1:
        raise ValueError("need a non-empty list of equal-length gradients")
    mean_g = g.mean(axis=0)
    denom = float(mean_g @ mean_g)
    if denom == 0.0:
        raise ValueError("mean gradient is zero; diversity undefined")
    return float(np.mean(np.einsum("ij,ij->i", g, g))) / denom


def weight_divergence(w_a: np.ndarray, w_b: np.ndarray) -> float:
    """L1 distance between two parameter vectors."""
    w_a = np.asarray(w_a, dtype=np.float64)
    w_b = np.asarray(w_b, dtype=np.float64)
    if w_a.shape != w_b.shape:
        raise ValueError(f"shapes differ: {w_a.shape} vs {w_b.shape}")
    diff = w_a - w_b
    return float(np.abs(diff, out=diff).sum())


def normalized_accuracy_vector(acc: np.ndarray) -> np.ndarray:
    """Class-wise accuracies rescaled to sum to 1."""
    acc = np.asarray(acc, dtype=np.float64)
    total = acc.sum()
    if total <= 0.0:
        raise ValueError("cannot normalize an all-zero accuracy vector")
    return acc / total


def distribution_distance(a: np.ndarray, b: np.ndarray) -> float:
    """L1 distance between two distributions over classes."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shapes differ: {a.shape} vs {b.shape}")
    return float(np.abs(a - b).sum())


def masked_accuracy(class_acc: np.ndarray, weights: np.ndarray) -> float:
    """Accuracy under a reweighted label distribution: sum_c w_c * acc_c.

    `class_acc` comes from `class_wise_accuracy`, so every entry is finite;
    the sum runs in class order.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != class_acc.shape:
        raise ValueError(f"weights must have length {class_acc.shape[0]}")
    return float(np.sum(weights * class_acc))

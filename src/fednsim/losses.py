"""Loss functions and their logit gradients.

Each objective is one list of weighted terms, and one evaluator sums a list
over logit rows: for local training's `batch_loss_and_grad` and for the
public single-sample functions, which take 1-D logit vectors and return
(loss, grad_wrt_local_logits).  Every entry point checks tau, mu and labels
once.  Teacher logits are constants: no gradient flows to them.

Distillation terms use KL(teacher || student).  Softmaxes subtract the
row max before exponentiation; teacher probabilities below 1e-15
contribute zero to KL sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_KL_TEACHER_FLOOR = 1e-15


def _rows(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    return z[None, :] if z.ndim == 1 else z


def _log_softmax(z: np.ndarray, tau: float) -> np.ndarray:
    s = z / tau if tau != 1.0 else z  # x / 1.0 == x, so skipping it changes no bit
    s = s - s.max(axis=1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=1, keepdims=True))


def _softmaxes(z: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """The (log-softmax, softmax) of each row of `z` at `tau`."""
    logp = _log_softmax(z, tau)
    return logp, np.exp(logp)


def _check_loss(tau: float = 1.0, mu: float = 0.0) -> None:
    """The one valid range of the temperature and of the proximal weight."""
    if not (0.0 < tau < np.inf):
        raise ValueError(f"tau must be finite and > 0, got {tau}")
    if not (0.0 <= mu < np.inf):
        raise ValueError(f"mu must be finite and >= 0, got {mu}")


def _check_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """The one label range, for the loss kernels and for datasets; returns `labels`."""
    if (labels < 0).any() or (labels >= num_classes).any():
        raise ValueError(f"labels out of range [0, {num_classes})")
    return labels


def _int64_labels(labels, num_classes: int) -> np.ndarray:
    """`labels` as int64, where a label past int64's range is out of the label range too."""
    try:
        return np.asarray(labels, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"labels out of range [0, {num_classes})") from None


def softmax_temp(z, tau: float):
    """Temperature softmax q(c) = exp(z_c/tau) / sum_i exp(z_i/tau)."""
    _check_loss(tau)
    z = np.asarray(z, dtype=np.float64)
    q = _softmaxes(_rows(z), tau)[1]
    return q[0] if z.ndim == 1 else q


def _ce_rows(soft, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cross-entropy per row from the student's tau = 1 `_softmaxes`, which it leaves unchanged."""
    logp, p = soft
    rows = np.arange(len(y))
    loss = -logp[rows, y]
    grad = p.copy()
    grad[rows, y] -= 1.0
    return loss, grad


def _kl_terms(logp_l: np.ndarray, z_g: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """KL(teacher || student) per (row, class) at tau, from the student's
    log-softmax, and the teacher's softmax q_g."""
    logp_g, q_g = _softmaxes(z_g, tau)
    return np.where(q_g >= _KL_TEACHER_FLOOR, q_g * (logp_g - logp_l), 0.0), q_g


def _kl_rows(soft_l, z_g: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """KL(teacher || student) per row at tau, soft_l = _softmaxes(z_l, tau); grad wrt z_l."""
    logp_l, p_l = soft_l
    terms, q_g = _kl_terms(logp_l, z_g, tau)
    loss = terms.sum(axis=1)
    grad = p_l - q_g if tau == 1.0 else (p_l - q_g) / tau  # x / 1.0 == x
    return loss, grad


def _not_true(y: np.ndarray, c: int, *zs: np.ndarray):
    """The mask of the classes other than each label of `y` among `c`, then each
    array of `zs` gathered at them, (n, c - 1)."""
    if c < 2:
        raise ValueError("need at least 2 classes to exclude the true one")
    mask = np.arange(c) != y[:, None]
    return mask, *(z[mask].reshape(len(y), c - 1) for z in zs)


def not_true_softmax(z, y: int, tau: float) -> np.ndarray:
    """Softmax over the classes other than y.

    Returned vector has length C with the true-class slot set to exactly
    0.0; the remaining entries sum to 1.
    """
    _check_loss(tau)
    z = _rows(z)
    n, c = z.shape
    mask, z_nt = _not_true(_check_labels(np.asarray([y]), c), c, z)
    out = np.zeros((n, c))
    out[mask] = _softmaxes(z_nt, tau)[1].ravel()
    return out[0]


def _ntd_rows(
    z_l: np.ndarray, z_g: np.ndarray, y: np.ndarray, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """Not-true distillation: KL(teacher || student) on the reduced softmaxes.

    The gradient at the true-class coordinate is exactly 0.0 because that
    logit never enters the expression.
    """
    n, c = z_l.shape
    mask, nt_l, nt_g = _not_true(y, c, z_l, z_g)
    loss, grad_nt = _kl_rows(_softmaxes(nt_l, tau), nt_g, tau)
    grad = np.zeros((n, c))
    grad[mask] = grad_nt.ravel()
    return loss, grad


def _ntd_mse_rows(z_l: np.ndarray, z_g: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = z_l.shape[1]
    mask, = _not_true(y, c)
    diff = np.where(mask, z_l - z_g, 0.0)
    loss = (diff * diff).sum(axis=1) / (c - 1)
    grad = 2.0 * diff / (c - 1)
    return loss, grad


def fedprox_penalty(w, w_g, mu: float, out: np.ndarray | None = None):
    """(mu/2) * ||w - w_g||^2 and its gradient mu * (w - w_g).

    `w` is a vector shaped like `w_g`, giving one float, or a stack (K, P)
    of vectors, giving one penalty per row.  With `out`, shaped like `w`,
    the gradient is written into it and nothing parameter-sized is
    allocated.  Each row's square norm is its own dot product, as for a
    lone vector, so a row's penalty does not depend on the stack.
    """
    _check_loss(mu=mu)
    w = np.asarray(w, dtype=np.float64)
    w_g = np.asarray(w_g, dtype=np.float64)
    if w_g.ndim != 1 or w.ndim not in (1, 2) or w.shape[-1:] != w_g.shape:
        raise ValueError(f"parameter shapes differ: {w.shape} vs {w_g.shape}")
    diff = np.subtract(w, w_g, out=out)
    if diff.ndim == 1:
        penalty = 0.5 * mu * float(diff @ diff)
    else:
        penalty = 0.5 * mu * np.array([row @ row for row in diff])
    diff *= mu
    return penalty, diff


# The local objectives as data: cfg -> ((weight, term), ...), the terms added in
# the order listed, and only where they count: fedntd with beta = 0 is plain
# cross-entropy, bit for bit.  A term maps (z_l, soft, z_g, y, tau) to per-row
# losses and logit gradients, where `soft` is the student's tau = 1 `_softmaxes`,
# made once for cross-entropy and for a KL at tau = 1.  fedprox's proximal term
# acts on parameters, not logits, so the trainer adds it (`LossConfig.proximal`).
_CE = lambda z_l, soft, z_g, y, tau: _ce_rows(soft, y)
_KL = lambda z_l, soft, z_g, y, tau: _kl_rows(soft if tau == 1.0 else _softmaxes(z_l, tau), z_g, tau)
_NTD = lambda z_l, soft, z_g, y, tau: _ntd_rows(z_l, z_g, y, tau)
_NTD_MSE = lambda z_l, soft, z_g, y, tau: _ntd_mse_rows(z_l, z_g, y)
_OBJECTIVES = {
    "fedavg": lambda c: ((1.0, _CE),),
    "fedprox": lambda c: ((1.0, _CE),),
    "fedntd": lambda c: ((1.0, _CE), (c.beta, _NTD)) if c.beta else ((1.0, _CE),),
    "fedntd_mse": lambda c: ((1.0, _CE), (c.beta, _NTD_MSE)) if c.beta else ((1.0, _CE),),
    "kd": lambda c: ((1.0 - c.beta, _CE), (c.beta * c.tau * c.tau, _KL)),
    "kd_ntd_interp": lambda c: ((1.0, _CE), *(
        (w, term) for w, term in ((1.0 - c.interp_lambda, _KL), (c.interp_lambda, _NTD)) if w
    )),
}
METHODS = tuple(_OBJECTIVES)


@dataclass(frozen=True)
class LossConfig:
    method: str = "fedavg"
    beta: float = 1.0
    tau: float = 1.0
    mu: float = 0.1
    interp_lambda: float = 0.5

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if not (self.beta >= 0.0 and np.isfinite(self.beta)):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        _check_loss(self.tau, self.mu)
        if not (0.0 <= self.interp_lambda <= 1.0):
            raise ValueError(f"interp_lambda must be in [0, 1], got {self.interp_lambda}")

    @property
    def needs_teacher(self) -> bool:
        return any(term is not _CE for _, term in _OBJECTIVES[self.method](self))

    @property
    def proximal(self) -> bool:
        """Whether the trainer adds fedprox_penalty(w, w_global, mu) to the loss."""
        return self.method == "fedprox"


def _sum_terms(method: str, terms, tau: float, z_l, y, z_g) -> tuple[np.ndarray, np.ndarray]:
    """Per-row losses and logit gradients of `terms`, `(weight, term)` pairs, summed over
    logit rows in the order listed, after checking labels, teacher and shapes once."""
    z_l = np.asarray(z_l, dtype=np.float64)
    y = _check_labels(y, z_l.shape[1])
    if any(term is not _CE for _, term in terms):
        if z_g is None:
            raise ValueError(f"method {method!r} requires teacher logits")
        z_g = np.asarray(z_g, dtype=np.float64)
        if z_g.shape != z_l.shape:
            raise ValueError(f"logit shapes differ: {z_l.shape} vs {z_g.shape}")
    soft = None  # the student's tau = 1 `_softmaxes`, for cross-entropy and a KL at tau = 1
    if any(term is _CE or term is _KL and tau == 1.0 for _, term in terms):
        soft = _softmaxes(z_l, 1.0)
    loss = grad = None
    for weight, term in terms:
        term_loss, term_grad = term(z_l, soft, z_g, y, tau)
        if weight != 1.0:  # a weight of 1.0 multiplies nothing: 1.0 * x == x
            term_loss, term_grad = weight * term_loss, weight * term_grad
        if loss is None:
            loss, grad = term_loss, term_grad
        else:
            loss += term_loss
            grad += term_grad
    return loss, grad


def batch_loss_and_grad(
    cfg: LossConfig, z_l: np.ndarray, y: np.ndarray, z_g: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample losses and logit gradients for a batch under `cfg`'s row of _OBJECTIVES."""
    y = _int64_labels(y, np.shape(z_l)[-1])
    return _sum_terms(cfg.method, _OBJECTIVES[cfg.method](cfg), cfg.tau, z_l, y, z_g)


def _one_sample(method: str, terms, tau: float, z_l, y: int, z_g=None) -> tuple[float, np.ndarray]:
    """`terms` summed on one sample's 1-D logits, after checking tau."""
    _check_loss(tau)
    z_g = None if z_g is None else _rows(z_g)
    loss, grad = _sum_terms(method, terms, tau, _rows(z_l), np.asarray([y]), z_g)
    return float(loss[0]), grad[0]


def ce_loss_and_grad(z, y: int) -> tuple[float, np.ndarray]:
    """Cross-entropy against a one-hot label; grad = softmax(z) - onehot(y)."""
    return _one_sample("ce", ((1.0, _CE),), 1.0, z, y)


def kd_loss_and_grad(z_l, z_g, tau: float) -> tuple[float, np.ndarray]:
    """Softened-softmax KL distillation over all classes (teacher held fixed).

    Returns the raw KL; any tau**2 rescaling is the caller's business.
    """
    return _one_sample("kd", ((1.0, _KL),), tau, z_l, 0, z_g)  # KL takes no label; 0 is in range


def ntd_loss_and_grad(z_l, z_g, y: int, tau: float) -> tuple[float, np.ndarray]:
    """Not-true distillation on one sample: KL over the classes other than y."""
    return _one_sample("ntd", ((1.0, _NTD),), tau, z_l, y, z_g)


def ntd_mse_loss_and_grad(z_l, z_g, y: int) -> tuple[float, np.ndarray]:
    """Mean squared logit mismatch over the not-true classes only."""
    return _one_sample("ntd_mse", ((1.0, _NTD_MSE),), 1.0, z_l, y, z_g)


def fedntd_objective(z_l, z_g, y: int, beta: float, tau: float) -> tuple[float, np.ndarray]:
    """Cross-entropy plus beta times the not-true distillation term, on one sample.

    beta == 0 short-circuits to plain cross-entropy, bit for bit.
    """
    cfg = LossConfig("fedntd", beta=beta, tau=tau)
    return _one_sample(cfg.method, _OBJECTIVES[cfg.method](cfg), tau, z_l, y, z_g)


def kd_ntd_interp_objective(
    z_l, z_g, y: int, lam: float, tau: float
) -> tuple[float, np.ndarray]:
    """CE + (1-lam) * full-class KL + lam * not-true KL, on one sample.

    lam = 0 keeps the full-class distillation; lam = 1 keeps only the
    not-true term.
    """
    cfg = LossConfig("kd_ntd_interp", tau=tau, interp_lambda=lam)
    return _one_sample(cfg.method, _OBJECTIVES[cfg.method](cfg), tau, z_l, y, z_g)

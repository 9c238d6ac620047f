"""Standalone numerical verification suite.

Checks, independent of any training run:

* the true/not-true split identities: the KL and MSE distillation
  losses, as (sample, class) term matrices split at the true class, equal
  weighted sums of per-class normalized terms under the in-local and
  out-local distributions (one routine checks both);
* the gradient-diversity curve of mixture gradients p + beta * p_tilde:
  a closed form derived under a uniform global class distribution, its
  monotone decrease in beta, and a lower bound on the decrease rate;
* that the uniform distribution minimizes the expected distance to a
  random distribution drawn from a permutation-symmetric family;
* the smooth-mixture upper bound, which quadratic losses meet with
  equality.

Each check returns a measured discrepancy to compare against a pinned
tolerance; `run_all` assembles the fixed report used by the CLI.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .data import out_local_distribution
from .losses import _check_loss, _kl_terms, _log_softmax
from .metrics import gradient_diversity
from .model import _check_choice, _check_count, _check_real
from .rng import NS_VERIFY, stream

COLUMN_SUM_TOL = 1e-9
INCREASE_TOL = 1e-12  # how far the diversity may rise from one beta of the grid to the next
SLOPE_TOL = 1e-6  # how far the diversity slope may rise above -M/(1+beta)^2


# ---------------------------------------------------------------------------
# Gradient diversity of mixture gradients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiversityInstance:
    """K client label distributions whose per-class column sums are K/C.

    That balance (a uniform global class distribution) is what the closed
    form below assumes; instances are built from cyclic permutations of
    base distributions, which guarantees it.
    """

    dists: np.ndarray  # (K, C), rows on the simplex

    def __post_init__(self):
        d = np.asarray(self.dists, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] < 1 or d.shape[1] < 2:
            raise ValueError("need a (K >= 1, C >= 2) distribution matrix")
        if np.any(d < -1e-12) or np.abs(d.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("rows must lie on the probability simplex")
        k, c = d.shape
        if np.abs(d.sum(axis=0) - k / c).max() > COLUMN_SUM_TOL:
            raise ValueError("per-class column sums must equal K/C (uniform global mix)")
        object.__setattr__(self, "dists", d)

    @property
    def num_clients(self) -> int:
        return self.dists.shape[0]

    @property
    def num_classes(self) -> int:
        return self.dists.shape[1]


def cyclic_instance(bases: list[np.ndarray]) -> DiversityInstance:
    """All C cyclic shifts of each base distribution, stacked."""
    rows = []
    for base in bases:
        base = np.asarray(base, dtype=np.float64)
        rows.extend(np.roll(base, s) for s in range(base.shape[0]))
    return DiversityInstance(np.asarray(rows))


def random_diversity_instance(rng: np.random.Generator) -> DiversityInstance:
    c = int(rng.integers(3, 9))
    blocks = int(rng.integers(1, 4))
    return cyclic_instance([rng.dirichlet(np.ones(c)) for _ in range(blocks)])


def mixture_gradient_diversity(instance: DiversityInstance, beta: float) -> float:
    """Gradient diversity when client k's gradient is p^k + beta * p_tilde^k.

    Class gradients are taken as the canonical orthonormal basis, so each
    client gradient is literally that mixture vector.
    """
    vecs = instance.dists + beta * out_local_distribution(instance.dists)
    return gradient_diversity(list(vecs))


def diversity_closed_form(instance: DiversityInstance, beta: float) -> float:
    """Closed form of the diversity curve under the column-sum invariant.

    1 + C^2/(K (1+beta)^2) * (1 - beta/(C-1))^2 * sum_k Var_c[p^k]
    with Var the population variance of a row over classes.
    """
    k, c = instance.dists.shape
    var_sum = float(np.var(instance.dists, axis=1).sum())
    shrink = 1.0 - beta / (c - 1)
    return 1.0 + (c * c / (k * (1.0 + beta) ** 2)) * shrink * shrink * var_sum


def slope_bound_constant(instance: DiversityInstance) -> float:
    """Constant M in the decrease-rate bound dLambda/dbeta <= -M/(1+beta)^2."""
    k, c = instance.dists.shape
    var_sum = float(np.var(instance.dists, axis=1).sum())
    return (2.0 * c**3 / (k**3 * (c - 1) ** 2)) * var_sum


def beta_grid(num_classes: int) -> np.ndarray:
    """51 evenly spaced beta values on the admissible range [0, C/2 - 1]."""
    return np.linspace(0.0, num_classes / 2.0 - 1.0, 51)


@dataclass
class DiversityReport:
    max_increase: float
    max_slope_excess: float
    max_closed_form_gap: float


def check_diversity_curve(instance: DiversityInstance) -> DiversityReport:
    """Measure the diversity curve's largest rise, its slope's largest excess
    over the rate bound -M/(1+beta)^2, and its largest gap to the closed form,
    on the instance's `beta_grid`.

    The slope is measured by central differences at interior grid points.
    A curve that never increases has `max_increase <= INCREASE_TOL`, and
    one that meets the bound has `max_slope_excess <= SLOPE_TOL`.
    """
    betas = beta_grid(instance.num_classes)
    lams = np.array([mixture_gradient_diversity(instance, b) for b in betas])
    closed = np.array([diversity_closed_form(instance, b) for b in betas])
    gap = float(np.abs(lams - closed).max())

    max_increase = float(np.diff(lams).max())
    m_const = slope_bound_constant(instance)
    # central differences at interior points; a grid of zero width there
    # (every beta is 0 when C = 2) has no slope
    wide = betas[2:] != betas[:-2]
    slopes = (lams[2:] - lams[:-2])[wide] / (betas[2:] - betas[:-2])[wide]
    excess = slopes + m_const / (1.0 + betas[1:-1][wide]) ** 2
    max_excess = float(excess.max()) if excess.size else 0.0
    return DiversityReport(max_increase, max_excess, gap)


# ---------------------------------------------------------------------------
# True / not-true split identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitInstance:
    """Paired local/reference logits with labels covering every class."""

    z_local: np.ndarray  # (N, C)
    z_ref: np.ndarray  # (N, C)
    labels: np.ndarray  # (N,)
    tau: float = 1.0

    def __post_init__(self):
        zl = np.asarray(self.z_local, dtype=np.float64)
        zr = np.asarray(self.z_ref, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        if zl.shape != zr.shape or zl.ndim != 2 or y.shape != (zl.shape[0],):
            raise ValueError("logit matrices must match and labels must be per-row")
        if not (np.isfinite(zl).all() and np.isfinite(zr).all()):
            raise ValueError("logits must be finite")
        _check_loss(self.tau)
        if not np.array_equal(np.unique(y), np.arange(zl.shape[1])):
            raise ValueError("every class must appear among the labels")
        object.__setattr__(self, "z_local", zl)
        object.__setattr__(self, "z_ref", zr)
        object.__setattr__(self, "labels", y)

    @property
    def num_classes(self) -> int:
        return self.z_local.shape[1]


def random_split_instance(rng: np.random.Generator) -> SplitInstance:
    c = int(rng.integers(2, 11))
    n = int(rng.integers(c, 65))
    labels = rng.permutation(np.concatenate([np.arange(c), rng.integers(0, c, n - c)]))
    return SplitInstance(
        z_local=rng.normal(0.0, 3.0, (n, c)),
        z_ref=rng.normal(0.0, 3.0, (n, c)),
        labels=labels,
        tau=float(rng.uniform(0.5, 4.0)),
    )


def _split_discrepancy(terms: np.ndarray, labels: np.ndarray) -> float:
    """Max gap between the direct and the weighted-sum accumulation of a loss.

    `terms` holds the loss's per (sample, class) terms.  Compares the
    true-class part against sum_c p_c E_{i in class c}[term], and the
    not-true part divided by (C-1) against the p_tilde-weighted analogue
    over the samples outside each class.
    """
    n, c = terms.shape
    true_mask = np.arange(c) == labels[:, None]
    p = np.bincount(labels, minlength=c) / n
    p_tilde = out_local_distribution(p)
    weighted_true = sum(p[k] * terms[labels == k, k].mean() for k in range(c))
    weighted_nt = sum(p_tilde[k] * terms[labels != k, k].mean() for k in range(c))
    return max(abs(terms[true_mask].sum() / n - weighted_true),
               abs(terms[~true_mask].sum() / n / (c - 1) - weighted_nt))


def kl_split_discrepancy(instance: SplitInstance) -> float:
    """The split gap of KL(reference || local), from the training loss's KL terms."""
    logp_l = _log_softmax(instance.z_local, instance.tau)
    return _split_discrepancy(_kl_terms(logp_l, instance.z_ref, instance.tau)[0], instance.labels)


def mse_split_discrepancy(instance: SplitInstance) -> float:
    """The split gap of the squared logit differences."""
    return _split_discrepancy((instance.z_local - instance.z_ref) ** 2, instance.labels)


# ---------------------------------------------------------------------------
# Uniform distribution minimizes expected distance over symmetric families
# ---------------------------------------------------------------------------

_GENERIC_BASE = (0.5, 0.25, 0.15, 0.1)


def simplex_grid(num_classes: int, subdivisions: int) -> np.ndarray:
    """All lattice points i/n on the simplex (compositions of n into C parts)."""
    pts = [
        comp
        for comp in itertools.product(range(subdivisions + 1), repeat=num_classes - 1)
        if sum(comp) <= subdivisions
    ]
    grid = np.array([(*comp, subdivisions - sum(comp)) for comp in pts], dtype=np.float64)
    return grid / subdivisions


def symmetric_family(num_classes: int, kind: str) -> np.ndarray:
    """A permutation-invariant finite family of distributions.

    'vertices': the C one-hot corners.  'permutations': all distinct
    permutations of one fixed generic distribution.
    """
    _check_choice("family kind", kind, ("vertices", "permutations"))
    if kind == "vertices":
        return np.eye(num_classes)
    base = np.array(_GENERIC_BASE[:num_classes], dtype=np.float64)
    base = base / base.sum()
    perms = sorted(set(itertools.permutations(base.tolist())))
    return np.array(perms, dtype=np.float64)


@dataclass
class ArgminReport:
    argmin: np.ndarray
    argmin_distance: float  # distance from the tie-broken argmin to uniform
    uniform_excess: float  # G(uniform) - min over grid (<= 0 means attained)
    grid_step: float

    @property
    def is_uniform(self) -> bool:
        return self.argmin_distance <= self.grid_step and self.uniform_excess <= 1e-12


def check_uniform_argmin(num_classes: int, kind: str, subdivisions: int) -> ArgminReport:
    """Grid-minimize G(p) = mean_{p' in family} ||p' - p||_2.

    The subdivision counts used by `run_all` put the uniform point exactly
    on the lattice.  Families whose convex hull contains segments through
    the uniform point make G flat there (two-class families do), so among
    all grid points within 1e-12 of the minimum the one closest to uniform
    is reported.
    """
    grid = simplex_grid(num_classes, subdivisions)
    family = symmetric_family(num_classes, kind)
    # G for every grid point: mean Euclidean distance to the family points
    diffs = grid[:, None, :] - family[None, :, :]
    g = np.sqrt((diffs**2).sum(axis=2)).mean(axis=1)
    uniform = np.full(num_classes, 1.0 / num_classes)
    g_uniform = float(np.sqrt(((family - uniform) ** 2).sum(axis=1)).mean())

    g_min = g.min()
    tied = np.flatnonzero(g <= g_min + 1e-12)
    dists_to_uniform = np.linalg.norm(grid[tied] - uniform, axis=1)
    best = tied[dists_to_uniform.argmin()]
    return ArgminReport(
        argmin=grid[best],
        argmin_distance=float(np.linalg.norm(grid[best] - uniform)),
        uniform_excess=float(g_uniform - g_min),
        grid_step=1.0 / subdivisions,
    )


def expected_distance(p: np.ndarray, family: np.ndarray) -> float:
    p = np.asarray(p, dtype=np.float64)
    return float(np.linalg.norm(family - p, axis=1).mean())


# ---------------------------------------------------------------------------
# Smooth-mixture bound
# ---------------------------------------------------------------------------


def smoothness_violation(lam: float, num_classes: int, trials: int, seed: int) -> float:
    """Max violation of the mixture upper bound on quadratic class losses.

    Class losses (lam/2)||w - w_c||^2 have curvature exactly lam and zero
    optimum value, so the mixture bound
    L(w) <= sum_c p_c L_c(w_c) + (lam/2) sum_c p_c ||w - w_c||^2
    holds with equality; any positive violation is a defect.
    """
    _check_real("lam", lam, 0, None, low_open=True)
    _check_count("num_classes", num_classes, 2)
    _check_count("trials", trials)
    _check_count("seed", seed, low=None)
    rng = stream(seed, NS_VERIFY, 1)
    worst = -np.inf
    for _ in range(trials):
        dim = int(rng.integers(2, 9))
        optima = rng.normal(0.0, 2.0, (num_classes, dim))
        p = rng.dirichlet(np.ones(num_classes))
        w = rng.normal(0.0, 2.0, dim)
        sq = ((w - optima) ** 2).sum(axis=1)
        lhs = float(np.sum(p * 0.5 * lam * sq))
        rhs = 0.0 + 0.5 * lam * float(np.sum(p * sq))  # optimum values are all zero
        worst = max(worst, lhs - rhs)
    return worst


# ---------------------------------------------------------------------------
# Fixed report
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"{status:4s} {self.name:40s} measured={self.measured:.3e} tol={self.tolerance:.1e}{extra}"


def run_all(trials: int, seed: int) -> list[CheckResult]:
    """The full verification report; every entry must pass.  The diversity
    checks draw half as many instances as `trials`, and at least one."""
    _check_count("trials", trials)
    _check_count("seed", seed, low=None)
    results = []

    rng = stream(seed, NS_VERIFY, 0)
    for name, discrepancy in (("kl", kl_split_discrepancy), ("mse", mse_split_discrepancy)):
        worst = max(discrepancy(random_split_instance(rng)) for _ in range(trials))
        results.append(CheckResult(f"{name}_split_identity", worst < 1e-9, worst, 1e-9))

    gap_worst, inc_worst, excess_worst = -np.inf, -np.inf, -np.inf
    for _ in range(max(1, trials // 2)):
        report = check_diversity_curve(random_diversity_instance(rng))
        gap_worst = max(gap_worst, report.max_closed_form_gap)
        inc_worst = max(inc_worst, report.max_increase)
        excess_worst = max(excess_worst, report.max_slope_excess)
    results += [
        CheckResult("diversity_closed_form", gap_worst < 1e-9, gap_worst, 1e-9),
        CheckResult("diversity_nonincreasing", inc_worst <= INCREASE_TOL, inc_worst, INCREASE_TOL),
        CheckResult("diversity_slope_bound", excess_worst <= SLOPE_TOL, excess_worst, SLOPE_TOL),
    ]

    # partial check: per-family minimality for two concrete symmetric families,
    # not the supremum over all symmetric mixtures
    for num_classes, subdivisions in ((2, 50), (3, 51)):
        for kind in ("vertices", "permutations"):
            report = check_uniform_argmin(num_classes, kind, subdivisions)
            results.append(CheckResult(
                f"uniform_argmin_{kind}_c{num_classes}", report.is_uniform, report.argmin_distance,
                report.grid_step, detail=f"uniform_excess={report.uniform_excess:.1e}"))

    viol = smoothness_violation(1.7, 5, trials, seed)
    results.append(CheckResult("smooth_mixture_equality", viol <= 1e-9, viol, 1e-9))
    return results

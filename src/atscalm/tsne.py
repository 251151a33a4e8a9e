"""Exact O(n^2) t-SNE with per-point bandwidth search.

Gaussian input affinities are symmetrized to a joint distribution; the
low-dimensional kernel is Student-t with one degree of freedom. The KL
objective and its analytic gradient are exposed separately so they can be
verified against finite differences. `tsne` caps the perplexity at
(n - 1) / 3 for n points, the bound of the reference Barnes-Hut code, so a
small set runs at the largest perplexity it supports instead of failing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import PipelineError, keyed_rng

MIN_POINTS = 5           # the fewest points `perplexity_affinities` takes
_P_FLOOR = 1e-12
# each point's bisection stops this many nats from its target entropy, or after this many steps
_ENTROPY_TOL, _BISECT_STEPS = 1e-5, 64
# momentum 0.5 for the first 250 iterations, 0.8 after
_MOMENTUM_EARLY, _MOMENTUM_LATE, _MOMENTUM_SWITCH = 0.5, 0.8, 250


@dataclass
class TsneSection:
    perplexity: float = 10.0
    lr: float = 100.0
    iters: int = 300

    def __post_init__(self):
        if self.perplexity < 1:
            raise PipelineError(f"perplexity must be >= 1, got {self.perplexity}")
        if self.lr < 0:
            raise PipelineError(f"lr must be >= 0, got {self.lr}")
        if self.iters < 0:
            raise PipelineError(f"iters must be >= 0, got {self.iters}")


def pairwise_sq_dists(x: np.ndarray) -> np.ndarray:
    s = np.sum(x * x, axis=1)
    d = s[:, None] + s[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d, 0.0)
    return np.maximum(d, 0.0)


def _row_affinity(dists: np.ndarray, beta: float) -> tuple[np.ndarray, float]:
    """Conditional probabilities and Shannon entropy (nats) for one point."""
    p = np.exp(-dists * beta)
    total = p.sum()
    if total <= 0.0:
        return np.zeros_like(p), 0.0
    p = p / total
    nz = p > 0
    h = -np.sum(p[nz] * np.log(p[nz]))
    return p, h


def perplexity_affinities(x: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetrized joint affinities P with per-point entropy log(perplexity).

    The precision of each point's Gaussian is found by bisection on the
    entropy, to _ENTROPY_TOL nats.
    """
    n = x.shape[0]
    if n < MIN_POINTS:
        raise PipelineError(f"t-SNE needs at least {MIN_POINTS} points")
    if not (1.0 <= perplexity < n):
        raise PipelineError(f"perplexity must be in [1, n), got {perplexity} for n={n}")
    sq = pairwise_sq_dists(x)
    target = np.log(perplexity)
    cond = np.zeros((n, n))
    for i in range(n):
        dists = np.delete(sq[i], i)
        beta, lo, hi = 1.0, 0.0, np.inf
        p = np.zeros_like(dists)
        for _ in range(_BISECT_STEPS):
            p, h = _row_affinity(dists, beta)
            if abs(h - target) < _ENTROPY_TOL:
                break
            if h > target:
                lo = beta
                beta = beta * 2.0 if hi == np.inf else (beta + hi) / 2.0
            else:
                hi = beta
                beta = (lo + beta) / 2.0
        cond[i, np.arange(n) != i] = p
    joint = (cond + cond.T) / (2.0 * n)
    return np.maximum(joint, _P_FLOOR)


def joint_q(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Student-t joint distribution Q and the unnormalized kernel."""
    num = 1.0 / (1.0 + pairwise_sq_dists(y))
    np.fill_diagonal(num, 0.0)
    q = num / num.sum()
    return np.maximum(q, _P_FLOOR), num


def kl_divergence(p: np.ndarray, y: np.ndarray) -> float:
    q, _ = joint_q(y)
    mask = ~np.eye(p.shape[0], dtype=bool)
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def kl_grad(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    q, num = joint_q(y)
    pq = (p - q) * num
    return 4.0 * ((np.diag(pq.sum(axis=1)) - pq) @ y)


def tsne(x: np.ndarray, cfg: TsneSection, seed: int) -> tuple[np.ndarray, list[float]]:
    """Gradient descent with momentum on the KL objective from a seeded
    N(0, 1e-4^2) start, at perplexity min(cfg.perplexity, (n - 1) / 3) for
    the n rows of ``x``; returns (Y, KL history). The history holds the cost
    at every iteration including the initial configuration.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    p = perplexity_affinities(x, min(cfg.perplexity, (n - 1) / 3.0))
    y = keyed_rng("tsne", seed).normal(0.0, 1e-4, (n, 2))
    vel = np.zeros_like(y)
    history = [kl_divergence(p, y)]
    for it in range(cfg.iters):
        g = kl_grad(p, y)
        mom = _MOMENTUM_EARLY if it < _MOMENTUM_SWITCH else _MOMENTUM_LATE
        vel = mom * vel - cfg.lr * g
        y = y + vel
        y = y - y.mean(axis=0)
        cost = kl_divergence(p, y)
        if not np.isfinite(cost):
            raise PipelineError(f"t-SNE diverged at iteration {it}; lower the learning rate")
        history.append(cost)
    return y, history

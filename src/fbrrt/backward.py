"""Backward pass: drift-compensated LSMC value regression with softmin weights.

Walking the tree backward in time, each edge contributes a regression target

    y_hat_i = y_{i+1} + (l(t_i, x_i, mu) + z_{i+1}' d_i) dt,
    d_i = sigma^{-1}(t_{i+1}, x_{i+1}) (f(t_i, x_i, mu) - k_i),

where mu is the target policy under the current value estimate and k_i the
drift actually sampled on the edge; the z'd term compensates for sampling
off-policy.  Paths are weighted by the softmin of the path-integral
heuristic rho = run_cost + value estimate, and per-timestep coefficients are
fit by weighted ridge least squares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .basis import (
    SingularRegressionError,
    ValueCoefficients,
    features,
    value_eval,
    value_grad,
    weighted_least_squares,
)
from .problem import ControlProblem
from .tree import BranchTree


class BackwardPassError(RuntimeError):
    def __init__(self, message: str, layer: int):
        super().__init__(f"{message} (layer {layer})")
        self.layer = layer


def _drifts_and_costs(problem: ControlProblem, t, X: np.ndarray, controls: np.ndarray):
    """(B, C) running costs and (B, C, n) drifts of B states at time t under
    C controls, from one call each on the grid x (B, 1, n) by u (1, C, m)
    (see the vectorization convention of `fbrrt.problem`)."""
    B, C = X.shape[0], len(controls)
    Xg, Ug = X[:, None, :], controls[None, :, :]
    ells = np.broadcast_to(problem.running_cost(t, Xg, Ug), (B, C))
    return ells, np.broadcast_to(problem.drift(t, Xg, Ug), (B, C, X.shape[1]))


def _candidate_scores(problem: ControlProblem, t, X: np.ndarray, alpha_next, lower, upper):
    """Score every control candidate at every state in one vectorized sweep.

    `t` is one time and `alpha_next` one coefficient vector for every
    state.  Returns (choice, cands, ells, F): per-state winning candidate
    index, the candidate array, and the (B, C[, n]) running costs and
    drifts evaluated on the state-candidate grid.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    cands = np.asarray(problem.control_candidates)
    if len(cands) == 0:
        raise ValueError("control candidate set is empty")
    grad = value_grad(X, alpha_next, lower, upper)
    ells, F = _drifts_and_costs(problem, t, X, cands)
    # one state dimension at a time; for n < 8 this rounds exactly like np.sum
    dot = F[..., 0] * grad[:, None, 0]
    for k in range(1, X.shape[1]):
        dot += F[..., k] * grad[:, None, k]
    scores = ells + dot
    best = scores.min(axis=1, keepdims=True)
    tie_ell = np.where(scores == best, ells, np.inf)
    choice = np.argmin(tie_ell, axis=1)  # first occurrence = lowest index
    return choice, cands, ells, F


def target_policy_batch(problem: ControlProblem, t: float, X: np.ndarray, alpha_next, lower, upper) -> np.ndarray:
    """argmin_u { l(t,x,u) + f(t,x,u)' dV(x) } over the candidate set, batched.

    Ties break toward the candidate with smallest running cost, then lowest
    candidate index.
    """
    choice, cands, _, _ = _candidate_scores(problem, t, X, alpha_next, lower, upper)
    return cands[choice]


def target_policy(problem: ControlProblem, t: float, x, alpha_next, lower, upper) -> np.ndarray:
    return target_policy_batch(problem, t, np.asarray(x, dtype=float)[None, :], alpha_next, lower, upper)[0]


def softmin_weights(rho: np.ndarray, lam: float) -> np.ndarray:
    """Theta_j = exp(-(rho_j - min rho)/lam) / mean_k exp(-(rho_k - min rho)/lam).

    The min shift only improves exponential conditioning; it cancels in the
    normalization.  mean(Theta) == 1 up to float rounding.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    rho = np.asarray(rho, dtype=float)
    if not np.all(np.isfinite(rho)):
        raise ValueError("heuristic scores must be finite")
    w = np.exp(-(rho - rho.min()) / lam)
    return w / w.mean()


def path_heuristic(run_cost, value_next) -> np.ndarray:
    """rho = accumulated running cost through the node plus its value estimate."""
    return np.asarray(run_cost, dtype=float) + np.asarray(value_next, dtype=float)


def _layer_edge_arrays(tree: BranchTree, i_next: int):
    """Edge arrays for layer i_next: parent states, drifts, child states, run
    costs (the last three are views of the tree's storage)."""
    layer = tree.layer(i_next)
    return tree.layer_states(i_next - 1)[layer.parents], layer.drifts, layer.states, layer.run_costs


def _edge_targets(
    problem: ControlProblem,
    dt: float,
    i: int,
    X_prev: np.ndarray,
    K: np.ndarray,
    X_next: np.ndarray,
    alpha_next,
    lower,
    upper,
):
    """Vectorized drift-compensated targets for all edges into layer i+1.

    Returns (y_hat_i, y_next) with y_next = Phi(x_{i+1}) alpha_{i+1}.
    """
    t = i * dt
    t_next = (i + 1) * dt
    y_next = value_eval(X_next, alpha_next, lower, upper)
    grad_next = value_grad(X_next, alpha_next, lower, upper)
    choice, _, ells, F = _candidate_scores(problem, t, X_prev, alpha_next, lower, upper)
    k = np.arange(len(choice))
    f_mu, ell_mu = F[k, choice], ells[k, choice]
    sigma = problem.diffusion(t_next, X_next[0])
    sigma_inv = problem.diffusion_inverse(t_next, X_next[0])
    Z = grad_next @ sigma  # z = sigma' grad
    D = (f_mu - K) @ sigma_inv.T
    y_hat = y_next + (ell_mu + np.sum(Z * D, axis=1)) * dt
    return y_hat, y_next


def bsde_target(problem: ControlProblem, dt: float, i: int, x_i, k_i, x_next, alpha_next, lower, upper):
    """Single-edge regression target; returns (y_hat_i, y_next)."""
    y_hat, y_next = _edge_targets(
        problem,
        dt,
        i,
        np.asarray(x_i, dtype=float)[None, :],
        np.asarray(k_i, dtype=float)[None, :],
        np.asarray(x_next, dtype=float)[None, :],
        alpha_next,
        lower,
        upper,
    )
    return float(y_hat[0]), float(y_next[0])


@dataclass
class BackwardArtifacts:
    coefficients: ValueCoefficients
    lam: float
    rho: list  # rho[i] aligned with tree layer i node order, i = 1..N
    theta: list  # theta[i] softmin weights used at layer i, i = 2..N (None elsewhere)
    residual_norms: np.ndarray  # (N,) weighted residual norm of each fit
    ess: np.ndarray  # (N,) effective sample size of the weights at each fit
    initial_value_samples: np.ndarray  # per root edge y_hat_0; mean estimates V(0, x0)

    @property
    def initial_value(self) -> float:
        return float(np.mean(self.initial_value_samples))


def backward_pass(tree: BranchTree, lam: float, ridge: Optional[float] = None) -> BackwardArtifacts:
    """Fit alpha_N..alpha_1 along the tree; pure function of (tree, lam).

    The terminal layer is fit with uniform weights (no heuristic exists
    before the first value estimate); interior fits weight paths by the
    softmin of rho at the child layer.
    """
    problem, grid = tree.problem, tree.grid
    N = grid.steps
    lower, upper = problem.roi_lower, problem.roi_upper
    rho: list = [None] * (N + 1)
    theta: list = [None] * (N + 1)
    if ridge is None:
        ridge = 1e-8 * tree.layer_size(N)
    alphas = []
    residuals = np.zeros(N)
    ess = np.zeros(N)

    def fit(layer_index, phi, targets, weights):
        try:
            alpha = weighted_least_squares(phi, targets, weights, ridge)
        except (SingularRegressionError, np.linalg.LinAlgError) as exc:
            raise BackwardPassError(str(exc), layer=layer_index) from exc
        resid = targets - phi @ alpha
        return alpha, float(np.sqrt(np.sum(weights * resid**2))), float(np.sum(weights) ** 2 / np.sum(weights**2))

    X_N = tree.layer_states(N)
    y_N = problem.terminal_cost(X_N)
    alpha, residuals[N - 1], ess[N - 1] = fit(N, features(X_N, lower, upper), y_N, np.ones(len(y_N)))
    alphas.append(alpha)
    alpha_next = alpha

    for i in range(N - 1, 0, -1):
        X_prev, K, X_next, run_costs = _layer_edge_arrays(tree, i + 1)
        y_hat, y_next = _edge_targets(problem, grid.dt, i, X_prev, K, X_next, alpha_next, lower, upper)
        rho[i + 1] = path_heuristic(run_costs, y_next)
        theta[i + 1] = softmin_weights(rho[i + 1], lam)
        alpha, residuals[i - 1], ess[i - 1] = fit(i, features(X_prev, lower, upper), y_hat, theta[i + 1])
        alphas.append(alpha)
        alpha_next = alpha

    coeffs = ValueCoefficients(alphas=np.array(alphas[::-1]), lower=lower, upper=upper)

    # layer-1 heuristic (for pruning) and the initial-value estimator
    X_prev, K, X_next, run_costs = _layer_edge_arrays(tree, 1)
    y0_hat, y_1 = _edge_targets(problem, grid.dt, 0, X_prev, K, X_next, coeffs.alpha(1), lower, upper)
    rho[1] = path_heuristic(run_costs, y_1)

    return BackwardArtifacts(
        coefficients=coeffs,
        lam=float(lam),
        rho=rho,
        theta=theta,
        residual_norms=residuals,
        ess=ess,
        initial_value_samples=y0_hat,
    )


def default_lambda_grid(tree: BranchTree, multipliers=(0.1, 0.3, 1.0, 3.0, 10.0)) -> np.ndarray:
    """Candidate lambdas scaled by the spread of terminal path scores.

    Uses run_cost + g(x_N) as a value-free stand-in for the heuristic, whose
    interquartile range sets the problem-dependent scale.
    """
    N = tree.grid.steps
    X_N = tree.layer_states(N)
    proxy = tree.layer(N).run_costs + tree.problem.terminal_cost(X_N)
    q75, q25 = np.percentile(proxy, [75, 25])
    scale = q75 - q25
    if scale <= 0:
        scale = max(1.0, float(np.abs(proxy).mean()))
    return np.asarray(multipliers) * scale


def lambda_search(
    tree: BranchTree,
    lambdas,
    rollout_count: int,
    seed: int,
    ridge: Optional[float] = None,
) -> BackwardArtifacts:
    """Run backward_pass per lambda; keep the one whose policy rolls out
    cheapest under a shared evaluation seed.  Ties go to the smaller lambda;
    candidates whose regression fails are skipped.
    """
    from .solver import rollout_policy  # deferred: solver imports this module

    lambdas = sorted(float(l) for l in np.atleast_1d(lambdas))
    if not lambdas:
        raise ValueError("lambda grid is empty")
    best: Optional[BackwardArtifacts] = None
    best_cost = np.inf
    failures = []
    for lam in lambdas:
        try:
            artifacts = backward_pass(tree, lam, ridge=ridge)
        except BackwardPassError as exc:
            failures.append((lam, exc))
            continue
        report = rollout_policy(
            tree.problem,
            tree.grid,
            artifacts.coefficients,
            tree.problem.initial_state,
            rollout_count,
            np.random.default_rng(seed),
        )
        cost = float(np.mean(report.costs))
        if cost < best_cost:
            best, best_cost = artifacts, cost
    if best is None:
        raise BackwardPassError(f"every lambda candidate failed: {failures}", layer=-1)
    return best

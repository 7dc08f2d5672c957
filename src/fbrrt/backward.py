"""Backward pass: regress-later LSMC value regression with softmin weights.

Walking the tree backward in time, each edge contributes a regression target

    y_hat_i = V_{i+1}(x_i + f(t_i, x_i, mu) dt) + c' alpha_{i+1} + l(t_i, x_i, mu) dt,

where mu is the target policy under the current value estimate V_{i+1} =
Phi alpha_{i+1}, and c = E[Phi(m + sigma w)] - Phi(m), w ~ N(0, dt I), is
the noise's shift of the feature means, the same at every m
(`basis.noise_feature_shift`).  y_hat_i is the mean, over the edge's
noise, of V_{i+1} at the state the target dynamics reach from x_i:
"regression later" (Glasserman & Yu, 2004), exact for the degree-2 basis
and a constant sigma.  Neither the drift k_i sampled on the edge nor the
child state enters it, so the sampling drift needs no compensation, and
no selection on outcomes, by pruning or by the weights, biases a target.
Paths are weighted by the softmin of the path-integral heuristic rho =
run_cost + V_{i+1}(x_{i+1}), and per-timestep coefficients are fit by
weighted ridge least squares.

Several temperatures lambda are fit in lockstep: one walk down the tree
computes what no lambda changes (the edge arrays, the features, the drift
and cost grid on the parents, the terminal fit) once per layer, and the
policy and targets of every lambda in one pass over an (L, p) stack of
their coefficients; only the weights and the fit run per lambda.  The
lambda search then rolls every fitted policy out in one stacked loop on
shared noise; `rollout_policies` is that loop, and a single policy's
rollout is the case of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import (
    SingularRegressionError,
    ValueCoefficients,
    features,
    noise_feature_shift,
    value_grad,
    weighted_least_squares,
)
from .problem import ControlProblem, TimeGrid
from .tree import BranchTree


class BackwardPassError(RuntimeError):
    def __init__(self, message: str, layer: int):
        super().__init__(f"{message} (layer {layer})")
        self.layer = layer


def _control_candidates(problem: ControlProblem) -> np.ndarray:
    cands = np.asarray(problem.control_candidates)
    if len(cands) == 0:
        raise ValueError("control candidate set is empty")
    return cands


def _drifts_and_costs(problem: ControlProblem, t, X: np.ndarray, controls: np.ndarray):
    """(B, C) running costs and (B, C, n) drifts of B states at time t under
    C controls, from one call each on the grid x (B, 1, n) by u (1, C, m)
    (see the vectorization convention of `fbrrt.problem`)."""
    B, C = X.shape[0], len(controls)
    Xg, Ug = X[:, None, :], controls[None, :, :]
    ells, F = problem.running_cost(t, Xg, Ug), problem.drift(t, Xg, Ug)
    ells = ells if np.shape(ells) == (B, C) else np.broadcast_to(ells, (B, C))
    return ells, F if np.shape(F) == (B, C, X.shape[1]) else np.broadcast_to(F, (B, C, X.shape[1]))


def _best_candidates(ells: np.ndarray, F: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Per-row index of the lowest score l + f' grad on a state x control
    grid of running costs `ells` (B, C) and drifts `F` (B, C, n); ties go to
    the smallest running cost, then the lowest index.  `grad` is (B, n), or
    an (L, B, n) stack of gradients scored on the same grid, giving (L, B)."""
    # one state dimension at a time; for n < 8 this rounds exactly like np.sum
    dot = F[..., 0] * grad[..., None, 0]
    for k in range(1, F.shape[2]):
        dot += F[..., k] * grad[..., None, k]
    scores = ells + dot
    first = scores.argmin(axis=-1)
    # each row's entry at `first`, gathered flat; argmin stops at a NaN, so a NaN best means
    # a NaN row; otherwise each row matches its best once, and a larger count means a tie
    best = np.take(scores, first + np.arange(0, scores.size, scores.shape[-1]).reshape(first.shape))[..., None]
    if not np.isnan(best).any() and np.count_nonzero(scores == best) == first.size:
        return first
    tie_ell = np.where(scores == best, ells, np.inf)
    return np.argmin(tie_ell, axis=-1)  # first occurrence = lowest index


def _candidate_scores(problem: ControlProblem, t, X: np.ndarray, alpha_next, lower, upper):
    """The target policy argmin_u { l(t,x,u) + f(t,x,u)' dV(x) } over the
    candidate set, scored at every state in one vectorized sweep.

    `t` is one time and `alpha_next` one coefficient vector for every
    state.  Returns (choice, cands, ells, F): per-state winning candidate
    index (ties go to the smallest running cost, then the lowest index),
    the candidate array, and the (B, C[, n]) running costs and drifts
    evaluated on the state-candidate grid.
    """
    cands = _control_candidates(problem)
    grad = value_grad(X, alpha_next, lower, upper)
    ells, F = _drifts_and_costs(problem, t, X, cands)
    return _best_candidates(ells, F, grad), cands, ells, F


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


class _EdgeDesign:
    """What every coefficient vector shares on the edges into layer i+1:
    the parent states X_prev, the child features phi_next, the drift and
    cost grid of every candidate on the parents, and the noise's shift c
    of the feature means, the same on every layer."""

    def __init__(self, problem: ControlProblem, dt: float, i: int, X_prev, phi_next, lower, upper, shift):
        self.dt, self.X_prev, self.phi_next = dt, X_prev, phi_next
        self.lower, self.upper, self.shift = lower, upper, shift
        self.ells, self.F = _drifts_and_costs(problem, i * dt, X_prev, _control_candidates(problem))

    def targets(self, alphas):
        """(y_hat_i, y_next), each (L, B), of every edge under each row
        alpha_{i+1} of the (L, p) stack `alphas`; row l equals the targets
        of alphas[l] alone."""
        # one product per row: a stacked product could round differently
        y_next = np.stack([self.phi_next @ alpha for alpha in alphas])
        grad = value_grad(self.X_prev, alphas[:, None, :], self.lower, self.upper)
        choice = _best_candidates(self.ells, self.F, grad)
        k = np.arange(choice.shape[1])
        f_mu, ell_mu = self.F[k, choice], self.ells[k, choice]
        X_mean = self.X_prev + f_mu * self.dt  # (L, B, n) next states without the noise
        phi_mean = features(X_mean.reshape(-1, X_mean.shape[-1]), self.lower, self.upper).reshape(*choice.shape, -1)
        y_mean = np.stack([phi @ alpha + self.shift @ alpha for phi, alpha in zip(phi_mean, alphas)])
        return y_mean + ell_mu * self.dt, y_next


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
    """Vectorized regress-later targets for all edges into layer i+1.

    Returns (y_hat_i, y_next) with y_next = Phi(x_{i+1}) alpha_{i+1}.
    y_hat_i no longer depends on the sampled drifts K (nor on X_next): it
    is a function of the parent states alone.
    """
    shift = noise_feature_shift(problem.sigma @ problem.sigma.T * dt, lower, upper)
    design = _EdgeDesign(problem, dt, i, X_prev, features(X_next, lower, upper), lower, upper, shift)
    y_hat, y_next = design.targets(np.asarray(alpha_next, dtype=float)[None, :])
    return y_hat[0], y_next[0]


@dataclass
class BackwardArtifacts:
    coefficients: ValueCoefficients
    lam: float
    rho: list  # rho[i] aligned with tree layer i node order, i = 1..N
    residual_norms: np.ndarray  # (N,) weighted residual norm of each fit
    ess: np.ndarray  # (N,) effective sample size of the weights at each fit
    initial_value_samples: np.ndarray  # per root edge y_hat_0; mean estimates V(0, x0)

    @property
    def initial_value(self) -> float:
        return float(np.mean(self.initial_value_samples))


def _weighted_fit(layer: int, phi, targets, weights, ridge: float):
    """(alpha, weighted residual norm, effective sample size) of one fit."""
    try:
        alpha = weighted_least_squares(phi, targets, weights, ridge)
    except (SingularRegressionError, np.linalg.LinAlgError) as exc:
        raise BackwardPassError(str(exc), layer=layer) from exc
    resid = targets - phi @ alpha
    return alpha, float(np.sqrt(np.sum(weights * resid**2))), float(np.sum(weights) ** 2 / np.sum(weights**2))


class _LambdaFit:
    """One lambda's share of a lockstep backward pass."""

    def __init__(self, lam: float, steps: int):
        self.lam, self.alphas = lam, []  # alpha_N, alpha_{N-1}, ...
        self.rho = [None] * (steps + 1)
        self.residuals, self.ess = np.zeros(steps), np.zeros(steps)
        self.initial_value_samples: Optional[np.ndarray] = None
        self.error: Optional[Exception] = None  # what stopped this lambda

    def add(self, layer: int, fit) -> None:
        alpha, self.residuals[layer - 1], self.ess[layer - 1] = fit
        self.alphas.append(alpha)

    def result(self, lower, upper):
        if self.error is not None:
            return self.error
        try:
            coeffs = ValueCoefficients(alphas=np.array(self.alphas[::-1]), lower=lower, upper=upper)
        except ValueError as exc:
            return exc
        return BackwardArtifacts(
            coefficients=coeffs,
            lam=self.lam,
            rho=self.rho,
            residual_norms=self.residuals,
            ess=self.ess,
            initial_value_samples=self.initial_value_samples,
        )


def backward_pass(tree: BranchTree, lam, ridge: Optional[float] = None):
    """Fit alpha_N..alpha_1 along the tree; pure function of (tree, lam).

    The terminal layer is fit with uniform weights (no heuristic exists
    before the first value estimate); interior fits weight paths by the
    softmin of rho at the child layer.

    `lam` is one lambda, and then the result is one BackwardArtifacts (a
    failed fit raises BackwardPassError), or a sequence of lambdas, fit in
    lockstep: the result is then a list in the order given, holding per
    lambda its BackwardArtifacts or the BackwardPassError that stopped it.
    Each entry equals what a pass with that lambda alone gives.  A
    ValueError (a bad lambda, non-finite scores or coefficients) raises
    either way, the first in lambda order.
    """
    single = np.ndim(lam) == 0
    problem, grid = tree.problem, tree.grid
    N = grid.steps
    lower, upper = problem.roi_lower, problem.roi_upper
    if ridge is None:
        ridge = 1e-8 * tree.layer_size(N)
    fits = [_LambdaFit(float(value), N) for value in np.atleast_1d(lam)]
    shift = noise_feature_shift(problem.sigma @ problem.sigma.T * grid.dt, lower, upper)

    X_N = tree.layer_states(N)
    phi_next = features(X_N, lower, upper)
    y_N = problem.terminal_cost(X_N)
    try:
        terminal = _weighted_fit(N, phi_next, y_N, np.ones(len(y_N)), ridge)
    except BackwardPassError as exc:
        for f in fits:
            f.error = exc
    else:
        for f in fits:
            f.add(N, terminal)

    # layers N-1..1 fit alpha_i; the root edges (i = 0) give the layer-1
    # heuristic (for pruning) and the initial-value estimator
    for i in range(N - 1, -1, -1):
        live = [f for f in fits if f.error is None]
        if not live:
            break
        X_prev, _, _, run_costs = _layer_edge_arrays(tree, i + 1)
        design = _EdgeDesign(problem, grid.dt, i, X_prev, phi_next, lower, upper, shift)
        if i > 0:
            phi_next = features(tree.layer_states(i), lower, upper)
            phi_prev = phi_next[tree.layer(i + 1).parents]
        # lambdas that hold the same alpha_{i+1} (all of them at layer N-1,
        # where it is alpha_N) share one row of the stacked targets
        alphas = {id(f.alphas[-1]): f.alphas[-1] for f in live}
        row = {key: r for r, key in enumerate(alphas)}
        y_hats, y_nexts = design.targets(np.array(list(alphas.values())))
        for f in live:
            r = row[id(f.alphas[-1])]
            y_hat = y_hats[r]
            f.rho[i + 1] = path_heuristic(run_costs, y_nexts[r])
            if i == 0:
                f.initial_value_samples = y_hat
                continue
            try:
                f.add(i, _weighted_fit(i, phi_prev, y_hat, softmin_weights(f.rho[i + 1], f.lam), ridge))
            except (BackwardPassError, ValueError) as exc:
                f.error = exc

    results = [f.result(lower, upper) for f in fits]
    raised = [r for r in results if isinstance(r, ValueError) or (single and isinstance(r, Exception))]
    if raised:
        raise raised[0]
    return results[0] if single else results


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


@dataclass
class RolloutReport:
    costs: np.ndarray  # (count,) realized S = sum l dt + g(x_N)
    terminal_states: np.ndarray  # (count, n)
    control_counts: np.ndarray  # (N, C) candidate-index histogram per step

    @property
    def mean_cost(self) -> float:
        return float(np.mean(self.costs))

    @property
    def std_cost(self) -> float:
        return float(np.std(self.costs))


def rollout_policies(
    problem: ControlProblem,
    grid: TimeGrid,
    coefficients: list,
    x0,
    count: int,
    rng: np.random.Generator,
) -> list:
    """Simulate `count` chains under each target policy
    u_i = mu(x_i; alpha_{i+1}) of `coefficients`, all on the same noise.

    The L policies' chains are stacked L x count.  Each step scores every
    candidate at every state with one drift and cost grid and takes one
    (count, n) noise block that every policy's chains share, so each report
    equals the one a rollout of that policy alone gets from the same
    generator state.
    """
    N, n, L = grid.steps, problem.state_dim, len(coefficients)
    for coeffs in coefficients:
        if coeffs.steps < N:
            raise ValueError(f"coefficients cover {coeffs.steps} steps, grid needs {N}")
    cands = _control_candidates(problem)
    X = np.tile(np.asarray(x0, dtype=float), (L * count, 1))
    costs = np.zeros(L * count)
    control_counts = np.zeros((L, N, len(cands)), dtype=int)
    sqrt_dt = np.sqrt(grid.dt)
    rows = np.arange(L * count)
    blocks = [slice(b * count, (b + 1) * count) for b in range(L)]
    # (L, 1, .) stacks: block b's states take policy b's coefficients and box
    alphas = np.stack([c.alphas[:N] for c in coefficients])[:, None]
    lower = np.stack([c.lower for c in coefficients])[:, None]
    upper = np.stack([c.upper for c in coefficients])[:, None]
    for i in range(N):
        t = i * grid.dt
        ells, F = _drifts_and_costs(problem, t, X, cands)
        grad = value_grad(X.reshape(L, count, n), alphas[:, :, i], lower, upper).reshape(-1, n)
        choice = _best_candidates(ells, F, grad)
        for b, block in enumerate(blocks):
            control_counts[b, i] = np.bincount(choice[block], minlength=len(cands))
        costs += ells[rows, choice] * grid.dt
        W = rng.normal(size=(count, n)) * sqrt_dt
        X = ((X + F[rows, choice] * grid.dt).reshape(L, count, n) + problem.apply_diffusion(W)).reshape(-1, n)
    costs += problem.terminal_cost(X)
    return [RolloutReport(costs[block], X[block], control_counts[b]) for b, block in enumerate(blocks)]


def lambda_search(
    tree: BranchTree,
    lambdas,
    rollout_count: int,
    seed: int,
    ridge: Optional[float] = None,
) -> BackwardArtifacts:
    """Fit every lambda in one lockstep backward_pass, roll the fitted
    policies out together under a shared evaluation seed, and keep the one
    with the cheapest mean cost.  Ties go to the smaller lambda; candidates
    whose regression fails, or whose mean cost is NaN, are skipped.
    """
    lambdas = sorted(float(l) for l in np.atleast_1d(lambdas))
    if not lambdas:
        raise ValueError("lambda grid is empty")
    fitted = backward_pass(tree, lambdas, ridge=ridge)
    failures = [(lam, a) for lam, a in zip(lambdas, fitted) if isinstance(a, BackwardPassError)]
    survivors = [a for a in fitted if isinstance(a, BackwardArtifacts)]
    best: Optional[BackwardArtifacts] = None
    best_cost = np.inf
    if survivors:
        problem = tree.problem
        reports = rollout_policies(
            problem,
            tree.grid,
            [a.coefficients for a in survivors],
            problem.initial_state,
            rollout_count,
            np.random.default_rng(seed),
        )
        for artifacts, report in zip(survivors, reports):
            if report.mean_cost < best_cost:
                best, best_cost = artifacts, report.mean_cost
    if best is None:
        raise BackwardPassError(f"every lambda candidate failed: {failures}", layer=-1)
    return best

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
computes what no lambda changes (the parents of the layer's edges, the
features, the drift and cost grid on those parents, the terminal fit)
once per layer, and the policy and targets of every lambda in one pass
over an (L, p) stack of their coefficients.  A target depends on the
parent state alone, so with two or more coefficient vectors each
distinct parent is scored once, and its policy's mean-state features are
gathered to the edges for the value products.  The fits run on stacks
too: (L, B) softmin weights, an (L, B + p, p) sqrt-weighted design with
its ridge rows, and the residual norms and effective sample sizes; only
the lstsq solve and its rank check run per lambda, and every lambda
rounds as it does alone.  The lambda search then rolls every fitted
policy out in one stacked loop on shared noise; `rollout_policies` is
that loop, and a single policy's rollout is the case of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import (
    SingularRegressionError,
    ValueCoefficients,
    check_ridge,
    features,
    noise_feature_shift,
    solve_weighted_design,
    value_grad,
    weighted_design,
    weighted_least_squares,  # noqa: F401 - perfbench/tracer.py wraps the fit by this name
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


def softmin_weights(rho: np.ndarray, lam) -> np.ndarray:
    """Theta_j = exp(-(rho_j - min rho)/lam) / mean_k exp(-(rho_k - min rho)/lam).

    Along the last axis: rho (B,) with one lambda, or an (L, B) stack with
    an (L, 1) column of lambdas, whose row l rounds as
    softmin_weights(rho[l], lam[l]) alone.  The min shift only improves
    exponential conditioning; it cancels in the normalization.
    mean(Theta) == 1 up to float rounding.
    """
    if not np.min(lam) > 0:  # also refuses NaN
        raise ValueError("lambda must be positive")
    rho = np.asarray(rho, dtype=float)
    if not np.all(np.isfinite(rho)):
        raise ValueError("heuristic scores must be finite")
    w = np.exp(-(rho - rho.min(axis=-1, keepdims=True)) / lam)
    return w / w.mean(axis=-1, keepdims=True)


def path_heuristic(run_cost, value_next) -> np.ndarray:
    """rho = accumulated running cost through the node plus its value estimate."""
    return np.asarray(run_cost, dtype=float) + np.asarray(value_next, dtype=float)


def _layer_edge_arrays(tree: BranchTree, i_next: int):
    """Edge arrays for layer i_next: parent states, drifts, child states, run
    costs (the last three are views of the tree's storage).  `backward_pass`
    reads the layer itself; this stays for the drift-invariance refit of
    `tests/test_acceptance.py`, which imports it."""
    layer = tree.layer(i_next)
    return tree.layer_states(i_next - 1)[layer.parents], layer.drifts, layer.states, layer.run_costs


def _distinct_parents(X: np.ndarray, parents: np.ndarray):
    """(states, inverse) of the edges from layer states X by `parents`: the
    states of the distinct parents in position order, and each edge's row
    among them; when no two edges share a parent, the edges' own parent
    states and None."""
    seen = np.zeros(len(X), dtype=bool)
    seen[parents] = True
    if np.count_nonzero(seen) == len(parents):
        return X[parents], None
    return X[seen], np.cumsum(seen)[parents] - 1


class _EdgeDesign:
    """What every coefficient vector shares on the edges into layer i+1:
    the parent states X_prev, the child features phi_next, the drift and
    cost grid of every candidate on the parents, and the noise's shift c
    of the feature means, the same on every layer.

    A target depends on the parent state alone, so X_prev may hold each
    distinct parent once, with `inverse` giving each edge's row of X_prev
    (see `_distinct_parents`); None means one row per edge."""

    def __init__(self, problem: ControlProblem, dt: float, i: int, X_prev, phi_next, lower, upper, shift, inverse=None):
        self.dt, self.X_prev, self.phi_next, self.inverse = dt, X_prev, phi_next, inverse
        self.lower, self.upper, self.shift = lower, upper, shift
        self.ells, self.F = _drifts_and_costs(problem, i * dt, X_prev, _control_candidates(problem))

    def targets(self, alphas):
        """(y_hat_i, y_next), each (L, B) over the B edges, under each row
        alpha_{i+1} of the (L, p) stack `alphas`; row l equals the targets
        of alphas[l] alone."""
        # np.matmul on the (L, p, 1) stack takes one matrix-vector product
        # per row, which rounds as phi @ alpha alone; alphas @ phi.T could not
        y_next = (self.phi_next @ alphas[:, :, None])[..., 0]
        grad = value_grad(self.X_prev, alphas[:, None, :], self.lower, self.upper)
        choice = _best_candidates(self.ells, self.F, grad)
        k = np.arange(choice.shape[1])
        f_mu, ell_mu = self.F[k, choice], self.ells[k, choice]
        X_mean = self.X_prev + f_mu * self.dt  # next states without the noise, per row of X_prev
        phi_mean = features(X_mean.reshape(-1, X_mean.shape[-1]), self.lower, self.upper).reshape(*choice.shape, -1)
        ell_dt = ell_mu * self.dt
        if self.inverse is not None:
            # the products run on every edge's row: BLAS may round a row of
            # phi @ alpha by its place in the matrix, and a one-row product
            # is a dot product, which rounds unlike a matrix-vector product
            phi_mean, ell_dt = phi_mean[:, self.inverse], ell_dt[:, self.inverse]
        # shift @ alpha is a dot product per row: the product alphas @ shift rounds unlike it
        shift = np.array([self.shift @ alpha for alpha in alphas])[:, None]
        return (phi_mean @ alphas[:, :, None])[..., 0] + shift + ell_dt, y_next


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
    is a function of the parent states alone, scored once per edge here.
    `backward_pass` builds `_EdgeDesign` itself; this stays for the
    drift-invariance refit of `tests/test_acceptance.py`, which imports it
    with this signature.
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


def _stacked_softmin_weights(rho: np.ndarray, lams: list):
    """(weights, errors): row l of the (L, B) weights is
    softmin_weights(rho[l], lams[l]) and errors[l] None, or, where that
    raises, ones (which keep the residuals and ESS of the stack finite)
    and its ValueError."""
    try:
        return softmin_weights(rho, np.array([[lam] for lam in lams])), [None] * len(lams)
    except ValueError:
        pass
    weights, errors = np.ones_like(rho), [None] * len(lams)
    for l, lam in enumerate(lams):
        try:
            weights[l] = softmin_weights(rho[l], lam)
        except ValueError as exc:
            errors[l] = exc
    return weights, errors


def _weighted_fits(layer: int, phi, targets, weights, errors: list, ridge: float):
    """Fit row l of the (L, B) stacks `targets` and `weights` on the shared
    features `phi`, as weighted_least_squares(phi, targets[l], weights[l],
    ridge) does, unless errors[l] already stops it; the weights of the
    other rows are nonnegative with a positive entry.  Returns the (L, p)
    coefficients, the (L,) weighted residual norms and effective sample
    sizes, and the errors, where a failed solve adds a BackwardPassError
    naming `layer`.  Rows with an error hold junk.

    The design, the residuals and the reductions run once on the stacks;
    only the lstsq solve and its rank check run per row.  Every row rounds
    as its fit alone: the products are elementwise, phi @ alpha is one
    matrix-vector product per row, and a reduction over the contiguous
    last axis sums each row as it sums a vector."""
    A, b = weighted_design(phi, targets, weights, ridge)
    alphas = np.zeros((len(targets), phi.shape[1]))
    errors = list(errors)
    for l, error in enumerate(errors):
        if error is None:
            try:
                alphas[l] = solve_weighted_design(A[l], b[l], ridge)
            except (SingularRegressionError, np.linalg.LinAlgError) as exc:
                errors[l] = BackwardPassError(str(exc), layer=layer)
    resid = targets - (phi @ alphas[:, :, None])[..., 0]
    residuals = np.sqrt(np.sum(weights * resid**2, axis=1))
    # float_power squares as a scalar's ** 2 does (libm pow); an array's ** 2 rounds as x * x
    ess = np.float_power(np.sum(weights, axis=1), 2) / np.sum(weights**2, axis=1)
    return alphas, residuals, ess, errors


class _LambdaFit:
    """One lambda's share of a lockstep backward pass."""

    def __init__(self, lam: float, steps: int):
        self.lam, self.alphas = lam, []  # alpha_N, alpha_{N-1}, ...
        self.rho = [None] * (steps + 1)
        self.residuals, self.ess = np.zeros(steps), np.zeros(steps)
        self.initial_value_samples: Optional[np.ndarray] = None
        self.error: Optional[Exception] = None  # what stopped this lambda

    def add(self, layer: int, alpha, residual, ess, error) -> None:
        if error is not None:
            self.error = error
            return
        self.alphas.append(alpha)
        self.residuals[layer - 1], self.ess[layer - 1] = residual, ess

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
    ValueError (a bad lambda or ridge, non-finite scores or coefficients)
    raises either way, the first in lambda order.
    """
    single = np.ndim(lam) == 0
    problem, grid = tree.problem, tree.grid
    N = grid.steps
    lower, upper = problem.roi_lower, problem.roi_upper
    if ridge is None:
        ridge = 1e-8 * tree.layer_size(N)
    check_ridge(ridge)
    fits = [_LambdaFit(float(value), N) for value in np.atleast_1d(lam)]
    shift = noise_feature_shift(problem.sigma @ problem.sigma.T * grid.dt, lower, upper)

    X_N = tree.layer_states(N)
    phi_next = features(X_N, lower, upper)
    y_N = np.asarray(problem.terminal_cost(X_N), dtype=float)
    terminal = [fit[0] for fit in _weighted_fits(N, phi_next, y_N[None], np.ones((1, len(y_N))), [None], ridge)]
    for f in fits:
        f.add(N, *terminal)

    # layers N-1..1 fit alpha_i; the root edges (i = 0) give the layer-1
    # heuristic (for pruning) and the initial-value estimator
    for i in range(N - 1, -1, -1):
        live = [f for f in fits if f.error is None]
        if not live:
            break
        # lambdas that hold the same alpha_{i+1} (all of them at layer N-1,
        # where it is alpha_N) share one row of the stacked targets
        alphas = {id(f.alphas[-1]): f.alphas[-1] for f in live}
        layer, X = tree.layer(i + 1), tree.layer_states(i)
        # scoring only the distinct parents pays for finding them with two or
        # more coefficient vectors (timed on lq-lsearch lockstep passes), but
        # not with one (timed on single-lambda di-tree passes)
        X_prev, inverse = _distinct_parents(X, layer.parents) if len(alphas) > 1 else (X[layer.parents], None)
        design = _EdgeDesign(problem, grid.dt, i, X_prev, phi_next, lower, upper, shift, inverse)
        if i > 0:
            phi_next = features(X, lower, upper)
            phi_prev = phi_next[layer.parents]
        y_hats, y_nexts = design.targets(np.array(list(alphas.values())))
        if len(alphas) < len(live):
            row = {key: r for r, key in enumerate(alphas)}
            rows = [row[id(f.alphas[-1])] for f in live]
            y_hats, y_nexts = y_hats[rows], y_nexts[rows]
        rho = path_heuristic(layer.run_costs, y_nexts)
        # with several lambdas each keeps a copy of its row: a view would keep
        # the rows of every lambda alive along with the one the search keeps
        for f, rho_f in zip(live, rho):
            f.rho[i + 1] = rho_f if len(live) == 1 else rho_f.copy()
        if i == 0:
            for f, y_hat in zip(live, y_hats):
                f.initial_value_samples = y_hat if len(live) == 1 else y_hat.copy()
            break
        weights, errors = _stacked_softmin_weights(rho, [f.lam for f in live])
        for f, *fit in zip(live, *_weighted_fits(i, phi_prev, y_hats, weights, errors, ridge)):
            f.add(i, *fit)

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
    block_offsets = len(cands) * (rows // count)  # block b's choices count in bins b C .. b C + C - 1
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
        control_counts[:, i] = np.bincount(choice + block_offsets, minlength=L * len(cands)).reshape(L, -1)
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

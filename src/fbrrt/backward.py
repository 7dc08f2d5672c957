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

Several temperatures lambda are fit in lockstep, one being the case L = 1
of the same code.  What no layer changes is worked out once per pass (the
feature box, the candidate controls, the noise shift c), and each layer
step scores the policy and targets of the live lambdas' alpha_{i+1} in
one pass over their (L, p) stack; with two or more rows, each distinct
parent is scored once and its mean-state features are gathered to the
edges.  The fits run on (L, B) stacks too: softmin weights, an
(L, B + p, p) sqrt-weighted design with its ridge rows, and the residual
norms and effective sample sizes; only the lstsq solve and its rank check
run per lambda, and every lambda rounds as it does alone.  The lambda
search rolls every fitted policy out in one stacked loop on shared noise
(`rollout_policies`), evaluating each step's drift and cost grid once per
distinct chain state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import (
    FeatureBox,
    SingularRegressionError,
    ValueCoefficients,
    check_ridge,
    first_axis_last,
    last_axis_first,
    features,  # noqa: F401 - perfbench/tracer.py wraps the feature map by this name
    noise_feature_shift,
    solve_weighted_design,
    value_grad,  # noqa: F401 - forward.sampling_step calls it here, where perfbench/tracer.py wraps it
    weighted_design,
    weighted_least_squares,  # noqa: F401 - perfbench/tracer.py wraps the fit by this name
)
from .problem import ControlProblem, TimeGrid
from .tree import BranchTree


class BackwardPassError(RuntimeError):
    def __init__(self, message: str, layer: int):
        super().__init__(f"{message} (layer {layer})")
        self.layer = layer


def _drifts_and_costs(problem: ControlProblem, t, X: np.ndarray, controls: np.ndarray):
    """(B, C) running costs and (B, C, n) drifts of B states at time t under
    C controls, from one call each on the grid x (B, 1, n) by u (1, C, m)
    (see the vectorization convention of `fbrrt.problem`)."""
    Xg, Ug = X[:, None, :], controls[None, :, :]
    B, C = len(X), len(controls)
    return _full(problem.running_cost(t, Xg, Ug), (B, C)), _full(problem.drift(t, Xg, Ug), (B, C, X.shape[1]))


def _full(values, shape: tuple) -> np.ndarray:
    """`values` copied out to `shape` (cheaper than np.broadcast_to, and contiguous)."""
    if np.shape(values) == shape:
        return values
    out = np.empty(shape)
    out[...] = values
    return out


def _policy_scores(ells: np.ndarray, F: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The scores l + f' grad on a state x control grid of running costs
    `ells` (B, C) and drifts `F` (B, C, n): (B, C) for gradients `grad`
    (B, n), or (L, B, C) for an (L, B, n) stack of them on the same grid."""
    # one state dimension at a time; for n < 8 this rounds exactly like np.sum
    scores = F[..., 0] * grad[..., None, 0]
    for k in range(1, F.shape[2]):
        scores += F[..., k] * grad[..., None, k]
    scores += ells  # addition commutes: this rounds as ells + (f' grad)
    return scores


def _best_candidates(scores: np.ndarray, ells: np.ndarray) -> np.ndarray:
    """Per-row index of the lowest of the `scores` (..., C) of
    `_policy_scores` on the running costs `ells`; ties go to the smallest
    running cost, then the lowest index."""
    first = scores.argmin(axis=-1)
    # each row's entry at `first`, gathered flat (a min over the short last axis
    # costs more); argmin stops at a NaN, so a NaN best means a NaN row; otherwise
    # each row matches its best once, and a larger count means a tie
    best = scores.take(first + np.arange(0, scores.size, scores.shape[-1]).reshape(first.shape))[..., None]
    if not np.isnan(best).any() and np.count_nonzero(scores == best) == first.size:
        return first
    tie_ell = np.where(scores == best, ells, np.inf)
    return np.argmin(tie_ell, axis=-1)  # first occurrence = lowest index


def _check_finite(ells: np.ndarray, F: np.ndarray) -> None:
    """Refuse (ValueError) a non-finite drift in F, then a non-finite running
    cost in ells: a NaN score picks a wrong candidate, a NaN cost a NaN lambda."""
    if not np.isfinite(F).all():
        raise ValueError("drift must be finite")
    if not np.isfinite(ells).all():
        raise ValueError("running cost must be finite")


def _own_rows(X: np.ndarray, blocks: int):
    """Flat indices of the rows of blocks 1.. of X (blocks * B, n) whose
    state bits differ from the same row of block 0, or None when they are
    more than half of those rows.  Bits, not values: -0.0 == 0.0, but a
    problem callable may read the sign of a zero."""
    bits = X.view(np.uint64).reshape(blocks, -1, X.shape[1])
    unequal = bits[1:] != bits[0]
    differ = unequal[..., 0]
    for k in range(1, X.shape[1]):  # a third of the time of .any(axis=-1) at n = 2
        differ |= unequal[..., k]
    own = np.flatnonzero(differ)
    return None if 2 * len(own) > differ.size else own + bits.shape[1]


def _candidate_scores(problem: ControlProblem, t, X: np.ndarray, cands: np.ndarray, grad: np.ndarray, blocks: int = 1):
    """The target policy argmin_u { l(t,x,u) + f(t,x,u)' dV(x) } over the
    candidates `cands` (C, m) at the states X (B, n) of time t, under the
    value gradients `grad` (B, n) or an (L, B, n) stack of them: one drift
    and cost grid, checked by `_check_finite`, scores them all.  Under one
    gradient per row the grid is checked only where a score is not finite:
    a non-finite grid entry makes every score it enters non-finite, so one
    check of the (smaller) scores passes a finite grid, and a faulty one is
    refused as `_check_finite` refuses it.

    With `blocks` = L > 1, X (L * B, n) holds L blocks of B states, one
    gradient per row in `grad` (L * B, n), as the rollouts stack policies
    on shared noise.  A row whose state has the bits of the same row of
    block 0 has that row's grid entries, so the grid holds block 0 and the
    other ("own") rows only, and every block is scored on block 0's rows as
    an (L, B, n) stack, the own rows then on theirs; when more than half
    the rows of blocks 1.. are own rows, the grid holds every row.  Each
    row of the grid has the bits of the full grid's rows it stands for, so
    a non-finite entry is refused as the full grid refuses it.

    Returns (choice, cands, ells, F): each row's winning candidate index
    (ties go to the smallest running cost, then the lowest index), the
    candidates, and the chosen rows' running costs (B,) and drifts (B, n),
    or (L, B) and (L, B, n)."""
    own = _own_rows(X, blocks) if blocks > 1 else None
    if own is None:
        ells, F = _drifts_and_costs(problem, t, X, cands)
        scores = _policy_scores(ells, F, grad)
        # under one gradient per row the scores are smaller than the grid, under a stack larger
        if scores.ndim > 2 or not np.isfinite(scores).all():
            _check_finite(ells, F)
        choice = _best_candidates(scores, ells)
        starts = np.arange(0, ells.size, len(cands))  # each grid row's first entry, flattened
    else:
        B = len(X) // blocks
        ells, F = _drifts_and_costs(problem, t, np.concatenate([X[:B], X[own]]), cands)
        _check_finite(ells, F)  # the stacked scores are larger than the grid
        choice = _best_candidates(_policy_scores(ells[:B], F[:B], grad.reshape(blocks, B, -1)), ells[:B]).reshape(-1)
        choice[own] = _best_candidates(_policy_scores(ells[B:], F[B:], grad[own]), ells[B:])
        starts = np.tile(np.arange(0, B * len(cands), len(cands)), blocks)  # each row's grid row, flattened
        starts[own] = np.arange(B * len(cands), ells.size, len(cands))
    chosen = choice + starts  # each choice's entry of the flattened grid
    return choice, cands, ells.take(chosen), F.reshape(-1, F.shape[2]).take(chosen, axis=0)


def softmin_weights(rho: np.ndarray, lam) -> np.ndarray:
    """Theta_j = exp(-(rho_j - min rho)/lam) / mean_k exp(-(rho_k - min rho)/lam).

    Along the last axis: rho (B,) with one lambda, or an (L, B) stack with
    an (L, 1) column of lambdas, whose row l rounds as
    softmin_weights(rho[l], lam[l]) alone.  The min shift only improves
    exponential conditioning; it cancels in the normalization.
    mean(Theta) == 1 up to float rounding.
    """
    if not np.minimum.reduce(lam, axis=None) > 0:  # also refuses NaN
        raise ValueError("lambda must be positive")
    rho = np.asarray(rho, dtype=float)
    if not np.isfinite(rho).all():
        raise ValueError("heuristic scores must be finite")
    # min - rho is -(rho - min) exactly, and exp(-0.0) == exp(0.0)
    w = np.minimum.reduce(rho, axis=-1, keepdims=True) - rho
    w /= lam
    np.exp(w, out=w)
    w /= np.add.reduce(w, axis=-1, keepdims=True) / w.shape[-1]  # the mean, as np.mean sums and divides
    return w


def path_heuristic(run_cost, value_next) -> np.ndarray:
    """rho = accumulated running cost through the node plus its value estimate."""
    return np.asarray(run_cost, dtype=float) + np.asarray(value_next, dtype=float)


def _layer_edge_arrays(tree: BranchTree, i_next: int):
    """What the backward pass reads of the edges into layer i_next: the
    states of layer i_next - 1 (M, n), and each edge's parent position in
    them and run cost through its child (M_next,); views of the tree's
    storage."""
    return (tree.layer_states(i_next - 1), *tree.layer_edges(i_next))


def _distinct_parents(parents: np.ndarray, width: int):
    """(positions, inverse) of edges whose parents sit at `parents` of a
    layer `width` wide: the distinct parent positions in order, and each
    edge's row among them; when no two edges share a parent, `parents`
    itself and None."""
    seen = np.zeros(width, dtype=bool)
    seen[parents] = True
    if np.count_nonzero(seen) == len(parents):
        return parents, None
    return np.flatnonzero(seen), np.cumsum(seen)[parents] - 1


def _matvecs(phi: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """(K, B) rows phi @ alphas[k], or phi[k] @ alphas[k] for a (K, B, p)
    stack: np.matmul on the (K, p, 1) stack takes one matrix-vector product
    per row, which rounds as phi @ alpha alone (alphas @ phi.T could not)."""
    return (phi @ alphas[:, :, None])[..., 0]


class _Targets:
    """The regress-later targets of a backward pass's layers, with what no
    layer changes worked out once: the feature box, the candidate controls
    and the noise's shift c of the feature means."""

    def __init__(self, problem: ControlProblem, dt: float, box: FeatureBox):
        self.problem, self.dt, self.box = problem, dt, box
        self.cands = problem.control_candidates
        self.shift = noise_feature_shift(problem.sigma @ problem.sigma.T * dt, box.lower, box.upper)

    def __call__(self, i: int, X_prev: np.ndarray, z_prev: np.ndarray, alphas: np.ndarray, inverse=None) -> np.ndarray:
        """y_hat_i (K, E) on the E edges from layer i under each row
        alpha_{i+1} of the (K, p) stack `alphas`; row k equals the targets
        of alphas[k] alone.  z_prev (n, B) holds the box coordinates of the
        parent states X_prev (B, n), one row per dimension.  A target
        depends on the parent state alone, so X_prev may hold each distinct
        parent once, with `inverse` giving each edge's row of X_prev (see
        `_distinct_parents`); None means one row per edge.  A non-finite
        drift or running cost on the parents' candidate grid raises
        BackwardPassError naming layer i."""
        grad = first_axis_last(self.box.grad_from(z_prev[:, None], alphas.T[:, :, None]))
        try:
            choice, _, ells, F = _candidate_scores(self.problem, i * self.dt, X_prev, self.cands, grad)
        except ValueError as fault:
            raise BackwardPassError(f"{fault} on the policy grid", layer=i) from fault
        X_mean = X_prev + F * self.dt  # next states without the noise
        phi_mean = self.box.features(X_mean.reshape(-1, self.box.n)).reshape(*choice.shape, -1)
        ell_dt = ells * self.dt
        if inverse is not None:
            # the products run on every edge's row: BLAS may round a row of
            # phi @ alpha by its place in the matrix, and a one-row product
            # is a dot product, which rounds unlike a matrix-vector product
            phi_mean, ell_dt = phi_mean[:, inverse], ell_dt[:, inverse]
        y_hat = _matvecs(phi_mean, alphas)
        for row, alpha in zip(y_hat, alphas):
            row += self.shift @ alpha  # a dot product: alphas @ shift rounds unlike it
        y_hat += ell_dt
        return y_hat


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


def _stacked_softmin_weights(rho: np.ndarray, lams: np.ndarray):
    """(weights, errors): row l of the (L, B) weights is
    softmin_weights(rho[l], lams[l, 0]) of the (L, 1) column `lams` and
    errors[l] None, or, where that raises, ones (which keep the residuals
    and ESS of the stack finite) and its ValueError."""
    try:
        return softmin_weights(rho, lams), [None] * len(lams)
    except ValueError:
        pass
    weights, errors = np.ones_like(rho), [None] * len(lams)
    for l, lam in enumerate(lams[:, 0]):
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
    as its fit alone: the products are elementwise or `_matvecs`, and a
    reduction over the contiguous last axis sums each row as it sums a
    vector."""
    A, b = weighted_design(phi, targets, weights, ridge)
    alphas = np.zeros((len(targets), phi.shape[1]))
    errors = list(errors)
    for l, error in enumerate(errors):
        if error is None:
            try:
                alphas[l] = solve_weighted_design(A[l], b[l], ridge)
            except (SingularRegressionError, np.linalg.LinAlgError) as exc:
                errors[l] = BackwardPassError(str(exc), layer=layer)
    # in place, as weights * resid**2 and weights**2 round (an array's ** 2 rounds as x * x),
    # and summed by np.add.reduce, which ndarray.sum calls
    resid = targets - _matvecs(phi, alphas)
    resid *= resid
    resid *= weights
    residuals = np.sqrt(np.add.reduce(resid, axis=1))
    # float_power squares as a scalar's ** 2 does (libm pow)
    ess = np.float_power(np.add.reduce(weights, axis=1), 2) / np.add.reduce(np.square(weights), axis=1)
    return alphas, residuals, ess, errors


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
    if ridge is None:
        ridge = 1e-8 * tree.layer_size(N)
    check_ridge(ridge)
    lams = [float(value) for value in np.atleast_1d(lam)]
    L = len(lams)
    box = FeatureBox(problem.roi_lower, problem.roi_upper)
    targets = _Targets(problem, grid.dt, box)
    # per lambda: alpha_i in row i - 1, the residual norm and ESS of that fit
    alphas, residuals, ess = np.zeros((L, N, box.p)), np.zeros((L, N)), np.zeros((L, N))
    rho, initial = [[None] * (N + 1) for _ in lams], [None] * L

    X = tree.layer_states(N)
    phi_next = box.features(X)
    y_N = np.asarray(problem.terminal_cost(X), dtype=float)
    terminal = _weighted_fits(N, phi_next, y_N[None], np.ones((1, len(y_N))), [None], ridge)
    (alpha_N,), (residual_N,), (ess_N,), (error,) = terminal
    alphas[:, N - 1], residuals[:, N - 1], ess[:, N - 1], errors = alpha_N, residual_N, ess_N, [error] * L
    # the live lambdas' rows of the stacks, and their (L, 1) lambda column
    live = [] if error is not None else list(range(L))
    rows, lam_col = slice(None), np.array(lams)[:, None]

    # layers N-1..1 fit alpha_i; the root edges (i = 0) give the layer-1
    # heuristic (for pruning) and the initial-value estimator
    for i in range(N - 1, -1, -1):
        if not live:
            break
        # every lambda holds the terminal fit at layer N-1: one row scores them all
        A = alphas[:1, i] if i == N - 1 else alphas[rows, i]
        X, parents, run_costs = _layer_edge_arrays(tree, i + 1)
        phi_rows = box.feature_rows(X)  # feature-major: rows 1..n are the box coordinates z
        # scoring only the distinct parents pays for finding them with two or
        # more coefficient vectors (timed on lq-lsearch lockstep passes), but
        # not with one (timed on single-lambda di-tree passes)
        positions, inverse = _distinct_parents(parents, len(X)) if len(A) > 1 else (parents, None)
        z_prev = phi_rows[1 : 1 + box.n].take(positions, axis=1)
        try:
            y_hats = targets(i, X[positions], z_prev, A, inverse)
        except BackwardPassError as exc:
            errors = [exc if l in live else error for l, error in enumerate(errors)]
            break
        y_nexts = _matvecs(phi_next, A)
        if len(A) < len(live):
            y_hats, y_nexts = y_hats[[0] * len(live)], y_nexts[[0] * len(live)]
        rho_live = path_heuristic(run_costs, y_nexts)
        # with several lambdas each keeps a copy of its row: a view would keep
        # the rows of every lambda alive along with the one the search keeps
        for l, rho_l in zip(live, rho_live):
            rho[l][i + 1] = rho_l if len(live) == 1 else rho_l.copy()
        if i == 0:
            for l, y_hat in zip(live, y_hats):
                initial[l] = y_hat if len(live) == 1 else y_hat.copy()
            break
        phi_next = phi_rows.T.copy()
        weights, fit_errors = _stacked_softmin_weights(rho_live, lam_col)
        fit = _weighted_fits(i, phi_next[parents], y_hats, weights, fit_errors, ridge)
        alphas[rows, i - 1], residuals[rows, i - 1], ess[rows, i - 1], fit_errors = fit
        if any(error is not None for error in fit_errors):
            for l, error in zip(live, fit_errors):
                errors[l] = error
            live = [l for l in live if errors[l] is None]
            rows, lam_col = live, lam_col[[error is None for error in fit_errors]]

    results = list(errors)
    for l in (l for l, error in enumerate(errors) if error is None):
        try:
            coeffs = ValueCoefficients(alphas=alphas[l], lower=box.lower, upper=box.upper)
        except ValueError as exc:
            results[l] = exc
        else:
            results[l] = BackwardArtifacts(coeffs, lams[l], rho[l], residuals[l], ess[l], initial[l])
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
    proxy = tree.layer_edges(N)[1] + tree.problem.terminal_cost(X_N)
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

    On common noise, chain j of policy l stays bit for bit on chain j of
    policy 0 until their choices first differ, so the grid is evaluated
    only on policy 0's chains and on the rows whose state bits differ from
    them (bits, not values: -0.0 and 0.0 are different states), and it
    falls back to every row when those are more than half the rows of
    policies 1..L-1 (`_candidate_scores`).  On the lambda search of the
    shipped LQ problem about 98% of the rows sit on policy 0's chain.
    """
    N, n, L = grid.steps, problem.state_dim, len(coefficients)
    if not L:
        raise ValueError("coefficients must hold at least one policy")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if np.shape(x0) != (n,):
        raise ValueError(f"x0 must have shape ({n},), got {np.shape(x0)}")
    for coeffs in coefficients:
        if coeffs.steps < N:
            raise ValueError(f"coefficients cover {coeffs.steps} steps, grid needs {N}")
    cands = problem.control_candidates
    X = np.tile(np.asarray(x0, dtype=float), (L * count, 1))
    costs = np.zeros(L * count)
    control_counts = np.zeros((L, N, len(cands)), dtype=int)
    sqrt_dt = np.sqrt(grid.dt)
    block_offsets = len(cands) * (np.arange(L * count) // count)  # block b's choices count in bins b C .. b C + C - 1
    # block b's states take policy b's coefficients and box: (L, 1, .) boxes,
    # and the coefficients of step i as alphas[..., i], one (L, 1) row per index
    alphas = last_axis_first(np.stack([c.alphas[:N] for c in coefficients]))[:, :, None]
    lower, upper = (np.stack([getattr(c, side) for c in coefficients])[:, None] for side in ("lower", "upper"))
    box = FeatureBox(lower, upper)
    for i in range(N):
        grad = box.grad_from(last_axis_first(box.z(X.reshape(L, count, n))), alphas[..., i])
        try:
            choice, _, ells, f_mu = _candidate_scores(problem, i * grid.dt, X, cands, grad.reshape(n, -1).T, L)
        except ValueError as fault:
            raise ValueError(f"{fault} on the rollouts' policy grid at step {i}") from fault
        control_counts[:, i] = np.bincount(choice + block_offsets, minlength=L * len(cands)).reshape(L, -1)
        costs += ells * grid.dt
        W = rng.normal(size=(count, n)) * sqrt_dt
        X = ((X + f_mu * grid.dt).reshape(L, count, n) + problem.apply_diffusion(W)).reshape(-1, n)
    costs += problem.terminal_cost(X)
    return [RolloutReport(*block) for block in zip(costs.reshape(L, count), X.reshape(L, count, n), control_counts)]


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

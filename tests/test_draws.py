"""The bulk replay of numpy's scalar draw order (`numpy_draws`) against
numpy's scalar calls.

Every test compares `replay` with `replay_scalar` value for value and the
generator states with ``==``.
"""

import numpy as np
import pytest

import numpy_draws as draws


def assert_replays_alike(make_rng, widths, n, eps_rrt, eps_opt, n_controls, chunk=draws.CHUNK):
    model, scalar = make_rng(), make_rng()
    got = draws.replay(model, widths, n, eps_rrt, eps_opt, n_controls, chunk=chunk)
    want = draws.replay_scalar(scalar, widths, n, eps_rrt, eps_opt, n_controls)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert model.bit_generator.state == scalar.bit_generator.state
    return got


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("eps_opt", [None, 0.6])
@pytest.mark.parametrize("chunk", [1, 7, draws.CHUNK])
def test_replay_matches_scalar_calls(n, eps_opt, chunk):
    # widths from 1 up, as the root layer and pruned layers give them
    widths = [1 + (7 * e) % 300 for e in range(600)]
    assert_replays_alike(lambda: np.random.default_rng(100 + n), widths, n, 0.7, eps_opt, 3, chunk)


@pytest.mark.parametrize("eps_rrt, eps_opt", [(0.0, 0.0), (1.0, 1.0), (0.3, 1.0 - 2.0**-53)])
def test_replay_coin_edges(eps_rrt, eps_opt):
    assert_replays_alike(lambda: np.random.default_rng(5), [4] * 200, 2, eps_rrt, eps_opt, 5)


def test_replay_of_nothing_leaves_the_generator_alone():
    rng = np.random.default_rng(0)
    rng.integers(5)
    before = rng.bit_generator.state
    pos, control, target, noise = draws.replay(rng, [], 2, 0.7, 0.7, 3)
    assert rng.bit_generator.state == before and pos.shape == (0,) and noise.shape == (0, 2)

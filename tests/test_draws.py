"""The bulk replay of the forward pass's draws against numpy's scalar calls.

Random streams almost never reach Lemire's rejection or the ziggurat's
slow paths, so the rare-branch tests force a chosen 64-bit word into the
stream at a chosen position and check that the branch was taken.  Every
test compares `replay` with `replay_scalar` value for value and the
generator states with ``==``.
"""

import copy
import math

import numpy as np
import pytest

from fbrrt import draws

INC = np.random.PCG64(0).state["state"]["inc"]
MAX_RABS = (1 << 52) - 1


def forced(word, at, has_uint32=0, uinteger=0):
    """A Generator on PCG64 whose word number `at` (from 0) is `word`."""
    state = draws._advance(draws._state_before(word, INC), INC, -at % (1 << 128))
    bits = np.random.PCG64()
    bits.state = draws._pcg64_state(state, INC, has_uint32, uinteger)
    return np.random.Generator(bits)


def normal_word(idx, rabs, negative=False):
    return rabs << 9 | int(negative) << 8 | idx


def words_used_by_normal(word):
    """How many words numpy's standard_normal takes when `word` comes next."""
    return draws._normal_at(np.random.default_rng(0), draws._state_before(word, INC), INC)[1]


def assert_replays_alike(make_rng, widths, n, eps_rrt, eps_opt, n_controls, chunk=draws.CHUNK):
    model, scalar = make_rng(), make_rng()
    got = draws.replay(model, widths, n, eps_rrt, eps_opt, n_controls, chunk=chunk)
    want = draws.replay_scalar(scalar, widths, n, eps_rrt, eps_opt, n_controls)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert model.bit_generator.state == scalar.bit_generator.state
    return got


def test_forced_word_lands_where_asked():
    for at in (0, 1, 17):
        assert forced(0xDEADBEEF12345678, at).bit_generator.random_raw(at + 1)[-1] == 0xDEADBEEF12345678


def test_advance_matches_stepping():
    bits = np.random.PCG64(3)
    start = bits.state["state"]
    bits.random_raw(1234)
    assert draws._advance(start["state"], start["inc"], 1234) == bits.state["state"]["state"]


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


@pytest.mark.parametrize("eps", [0.3, 0.7])
@pytest.mark.parametrize("step", [-1, 0])
def test_coin_at_its_threshold(eps, step):
    # word 0 is the RRT coin; random() = (w >> 11) 2**-53 crosses eps
    # between these two words (0.3 * 2**53 is not an integer, 0.7 * 2**53 is)
    word = (math.ceil(eps * 2.0**53) + step) << 11 | 0x7FF
    pos, *_ = assert_replays_alike(lambda: forced(word, 0), [5], 1, eps, None, 3)
    assert (pos[0] < 0) == (step < 0)


def test_replay_of_nothing_leaves_the_generator_alone():
    rng = np.random.default_rng(0)
    rng.integers(5)
    before = rng.bit_generator.state
    pos, control, target, noise = draws.replay(rng, [], 2, 0.7, 0.7, 3)
    assert rng.bit_generator.state == before and pos.shape == (0,) and noise.shape == (0, 2)


def test_lemire_rejection_for_a_layer_width():
    # word 0 is the RRT coin (eps_rrt = 0: a uniform pick); word 1 feeds
    # integers(1000), whose threshold is 2**32 % 1000 = 296: both halves 0
    # are rejected, and the low half of word 2 is drawn
    assert ((1 << 32) - 1000) % 1000 == 296
    pos, *_ = assert_replays_alike(lambda: forced(0, 1), [1000], 1, 0.0, None, 3)
    assert 0 <= pos[0] < 1000


def test_lemire_rejection_for_a_control_count():
    # a width-1 layer draws no position, so word 1 feeds integers(3)
    # (threshold 1): its low half 0 is rejected, its high half 5 accepted
    _, control, *_ = assert_replays_alike(lambda: forced(5 << 32, 1), [1], 1, 0.0, None, 3)
    assert control[0] == (5 * 3) >> 32


@pytest.mark.parametrize("uinteger", [123456789, 0])
def test_replay_entered_with_a_buffered_half(uinteger):
    # integers(1000) takes the buffered half first; 0 is rejected
    state = np.random.PCG64(7).state
    for widths in ([1000, 1000, 1000], [1, 1]):

        def make_rng():
            bits = np.random.PCG64()
            bits.state = {**state, "has_uint32": 1, "uinteger": uinteger}
            return np.random.Generator(bits)

        assert_replays_alike(make_rng, widths, 2, 0.0, None, 3)


def test_ziggurat_tables():
    zig = draws._ziggurat()
    assert zig.ki[1] == 0 and np.all(zig.ki[2:] > 0) and np.all(zig.ki < 1 << 52)
    assert np.all(zig.wi > 0)


# Word 0 is the RRT coin (a uniform pick of a width-1 layer, no draw), word 1
# feeds integers(3), and word 2 is the normal.
@pytest.mark.parametrize(
    "idx, rabs, used",
    [
        pytest.param(5, None, 2, id="wedge-accept"),
        pytest.param(5, MAX_RABS, 3, id="wedge-reject"),
        pytest.param(0, MAX_RABS, 3, id="tail"),
        pytest.param(1, 777, 2, id="ki-zero"),
        pytest.param(200, 12345, 1, id="fast"),
    ],
)
@pytest.mark.parametrize("negative", [False, True])
def test_ziggurat_slow_paths(idx, rabs, used, negative):
    zig = draws._ziggurat()
    word = normal_word(idx, int(zig.ki[idx]) if rabs is None else rabs, negative)
    assert words_used_by_normal(word) == used
    *_, noise = assert_replays_alike(lambda: forced(word, 2), [1, 1], 1, 0.0, None, 3)
    if used == 1:
        assert noise[0, 0] == (-12345 if negative else 12345) * zig.wi[200]


@pytest.mark.parametrize("at", [5, 6])
def test_slow_normal_crossing_a_chunk_boundary(at):
    # chunk=1 holds just the 8 words an expansion may take (n = 2): the
    # coin, the target (words 1-2), the exploit coin (eps_opt = 0: explore),
    # integers(3) on word 4 and the normals on words 5 and 6.  A tail normal
    # there runs past word 7, the last one held.
    word = normal_word(0, MAX_RABS)
    assert words_used_by_normal(word) == 3
    assert_replays_alike(lambda: forced(word, at), [5, 5, 5], 2, 1.0, 0.0, 3, chunk=1)


def test_replay_requires_pcg64():
    with pytest.raises(TypeError, match="PCG64"):
        draws.replay(np.random.Generator(np.random.MT19937(0)), [3], 2, 0.7, None, 3)


def test_self_check_rejects_a_numpy_that_draws_otherwise():
    zig = copy.copy(draws._ziggurat())
    zig.wi = zig.wi * (1 + 2.0**-40)
    zig.wi_list = zig.wi.tolist()
    with pytest.raises(RuntimeError, match="does not draw as"):
        draws._self_check(zig)

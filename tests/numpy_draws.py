"""A model of numpy's scalar draw order, replayed in bulk from PCG64 words.

Nothing in `fbrrt` uses it: the forward pass draws each variable with one
bulk `Generator` call (`forward._draw_expansions`).  `tests/test_draws.py`
checks it against numpy's scalar calls.  Per expansion, it returns what
these scalar calls return (`replay_scalar` spells them out):

    coin = eps_rrt > rng.random()
    target: rng.random(out=row of n)      if coin
    position: rng.integers(width)         otherwise
    exploit = eps_opt > rng.random()      only when a policy exists
    control: rng.integers(controls)       unless exploit
    noise: rng.standard_normal(out=row of n)

`replay` returns the same numbers and leaves `rng` in the same state, byte
for byte, but takes the generator's raw 64-bit words in bulk, a chunk at a
time (`random_raw` on a copy of its bit generator).  It flags every word
vectorised: a yes of the RRT coin, a yes of the exploit coin, the first of
n fast-path normals.  The walk over the expansions reads those flags and
turns a word into a Python int only for a bounded integer or a slow
normal; the targets and the fast normals are decoded vectorised.  It
models numpy's samplers exactly:

- `random()` is ``(w >> 11) * 2**-53``, so the coin ``eps > random()`` is
  the integer test ``(w >> 11) < ceil(eps * 2**53)``.
- `integers(k)` takes a 32-bit half: the high half PCG64 buffered from an
  earlier word if it holds one, else the low half of a new word, whose high
  half it then buffers.  Lemire's multiply-and-reject (threshold
  ``(2**32 - k) % k``) scales it to [0, k).  ``k == 1`` draws nothing.
- `standard_normal()` is a 256-layer ziggurat.  Byte 0 of the word picks
  the layer idx, bit 8 the sign, and bits 9-60 an integer rabs; the value
  is ``rabs * wi[idx]``, accepted when ``rabs < ki[idx]``.  Otherwise (a
  wedge or the tail, about one word in a hundred) numpy's own
  `standard_normal` runs from the state before that word, and the walk
  skips the words it used.

`wi` and `ki` are read off the installed numpy on first use by forcing the
next word of a PCG64 state, and a short schedule replayed both ways checks
the model; RuntimeError if numpy disagrees.  Only a PCG64 bit generator
(numpy's default) can be replayed; any other raises TypeError.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
_INV_MULT = pow(_MULT, -1, 1 << 128)
_MASK128 = (1 << 128) - 1
_MASK64 = (1 << 64) - 1
_MASK53 = (1 << 53) - 1
_MASK52 = (1 << 52) - 1
_MASK32 = (1 << 32) - 1

# Words held at a time.
CHUNK = 2048


# A jump of 2**j steps maps a state s to mult s + plus inc (mod 2**128),
# with (mult, plus) = _JUMPS[j]: mult = MULT**(2**j) and plus the sum of
# MULT**i over i < 2**j.
_JUMPS = [(_MULT, 1)]
for _ in range(127):
    _JUMPS.append((_JUMPS[-1][0] ** 2 & _MASK128, _JUMPS[-1][1] * (_JUMPS[-1][0] + 1) & _MASK128))


def _advance(state: int, inc: int, delta: int) -> int:
    """The LCG state `delta` (< 2**128) steps after `state`."""
    j = 0
    while delta:
        if delta & 1:
            mult, plus = _JUMPS[j]
            state = (mult * state + plus * inc) & _MASK128
        delta >>= 1
        j += 1
    return state


def _state_before(word: int, inc: int = 1) -> int:
    """An LCG state whose next output is `word`: the step lands on the state
    ``word`` itself, whose XSL-RR output (rotation 0, high half 0) is
    `word`.  The state after that word is ``word``."""
    return (word - inc) * _INV_MULT & _MASK128


def _pcg64_state(state: int, inc: int, has_uint32: int = 0, uinteger: int = 0) -> dict:
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }


def _normal_at(generator: np.random.Generator, state: int, inc: int) -> tuple[float, int]:
    """numpy's standard_normal() on a PCG64 `generator` set to LCG `state`,
    and how many words it used."""
    generator.bit_generator.state = _pcg64_state(state, inc)
    x = generator.standard_normal()
    after, used = generator.bit_generator.state["state"]["state"], 0
    while state != after:
        state = (state * _MULT + inc) & _MASK128
        used += 1
        if used > 1 << 16:
            raise RuntimeError("standard_normal used more than 65536 words")
    return x, used


class _Ziggurat:
    """numpy's ziggurat tables, read off the installed numpy."""

    def __init__(self):
        generator = np.random.Generator(np.random.PCG64(0))

        def normal(word):  # the normal when `word` comes next, and the words it used
            return _normal_at(generator, _state_before(word), 1)

        self.wi, self.ki = np.empty(256), np.empty(256, dtype=np.int64)
        for idx in range(256):
            # rabs = 1 returns wi[idx] itself: on the fast path, or in layer 1
            # (ki = 0) from a wedge that accepts it
            x, used = normal(1 << 9 | idx)
            if used > (2 if idx else 1):
                raise RuntimeError(f"numpy's ziggurat rejected rabs = 1 in layer {idx}")
            self.wi[idx] = x
        for idx in range(256):
            # ki[i] = floor(2**52 x[i-1] / x[i]) for the layer edges x[i] = 2**52 wi[i]
            guess = int(2.0**52 * self.wi[idx - 1] / self.wi[idx]) if idx > 1 else 0
            self.ki[idx] = _threshold(lambda rabs: normal(rabs << 9 | idx)[1] == 1, guess)
        self.wi_list, self.ki_list = self.wi.tolist(), self.ki.tolist()


def _threshold(fast, guess: int) -> int:
    """The least rabs that misses a layer's fast path (`fast(rabs)` is
    false), found by bisection inside [guess - 1, guess + 1] when that
    brackets it (it does for every layer > 1), else over all 52 bits."""
    lo, hi = guess - 1, guess + 1
    if lo < 0 or not fast(lo):
        lo = -1
    if hi > _MASK52 or fast(hi):
        hi = 1 << 52
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fast(mid) else (lo, mid)
    return hi


_ZIGGURAT: Optional[_Ziggurat] = None


def _ziggurat() -> _Ziggurat:
    global _ZIGGURAT
    if _ZIGGURAT is None:
        zig = _Ziggurat()
        _self_check(zig)
        _ZIGGURAT = zig
    return _ZIGGURAT


def _fast_normals(words: np.ndarray, wi: np.ndarray) -> np.ndarray:
    """The fast-path value of every word: +-rabs * wi[idx]."""
    x = (words >> 9 & _MASK52).astype(float) * wi[words & 0xFF]
    np.negative(x, out=x, where=(words >> 8 & 1).astype(bool))
    return x


def _fast_runs(words: np.ndarray, n: int, ki: np.ndarray) -> bytes:
    """Whether the n words from each position on all take the fast path."""
    run = (words >> 9 & _MASK52) < ki[words & 0xFF]
    fast = run.copy()
    for d in range(1, n):
        run[:-d] &= fast[d:]
        run[-d:] = False
    return run.tobytes()


def replay(
    rng: np.random.Generator,
    widths: Sequence[int],
    state_dim: int,
    eps_rrt: float,
    eps_opt: Optional[float],
    n_controls: int,
    chunk: int = CHUNK,
):
    """The draws of one expansion per entry of `widths` (the width of the
    layer it picks a node from), as `replay_scalar` draws them; `eps_opt` is
    None when there is no policy to exploit.

    Returns (pos, control, target, noise): the uniformly picked position
    (-1 for an RRT pick), the exploration control (-1 to exploit), the RRT
    target in the unit box (zero rows for uniform picks) and the n standard
    normals of each expansion.  The walk holds about `chunk` words at a
    time.
    """
    return _replay(rng, widths, state_dim, eps_rrt, eps_opt, n_controls, _ziggurat(), chunk)


def _replay(rng, widths, n, eps_rrt, eps_opt, n_controls, zig, chunk):
    bits = getattr(rng, "bit_generator", None)
    if not isinstance(bits, np.random.PCG64):
        raise TypeError(f"the forward pass replays PCG64 words, not those of {type(bits).__name__}")
    E = len(widths)
    pos, control = [-1] * E, [-1] * E
    target, noise = np.zeros((E, n)), np.empty((E, n))
    # the targets and fast normals read from `tail`: expansions and positions
    tgt_e, tgt_p, nrm_e, nrm_p = [], [], [], []
    start = bits.state
    s0, inc = start["state"]["state"], start["state"]["inc"]
    has32, buf = start["has_uint32"], start["uinteger"]
    source = np.random.PCG64()
    source.state = start
    # the words from `base` on, as int64 (the masks below read their bits as
    # numpy's uint64), and a byte per word: is it an RRT coin's or an exploit
    # coin's yes, and do n fast normals start at it
    tail, rrt, opt, runs = np.empty(0, dtype=np.int64), b"", b"", b""
    base = p = 0
    limit = -1  # the last p from which `need` words are held
    ki, wi = zig.ki_list, zig.wi_list
    scratch = np.random.Generator(np.random.PCG64(0))  # runs the ziggurat's slow path
    exploit = eps_opt is not None
    rrt_below, opt_below = (math.ceil(eps * 2.0**53) for eps in (eps_rrt, eps_opt if exploit else 0.0))
    need = 2 * n + 4  # the most words an expansion takes without a rejection or a slow normal

    def decode():
        """Write the targets and fast normals read from `tail` since the last window."""
        offsets = np.arange(n)
        if tgt_e:
            target[tgt_e] = (tail[np.add.outer(tgt_p, offsets)] >> 11 & _MASK53) * 2.0**-53
        if nrm_e:
            noise[nrm_e] = _fast_normals(tail[np.add.outer(nrm_p, offsets)], zig.wi)
        for records in (tgt_e, tgt_p, nrm_e, nrm_p):
            records.clear()

    def window(count):
        """Drop the words before p and hold at least `count` from p on."""
        nonlocal tail, rrt, opt, runs, base, p, limit
        decode()
        if p > len(tail):  # a slow normal used words not drawn yet
            source.random_raw(p - len(tail))
        base, tail, p = base + p, tail[p:], 0
        tail = np.concatenate([tail, source.random_raw(max(chunk, count - len(tail))).view(np.int64)])
        coin = tail >> 11 & _MASK53
        rrt, opt = (coin < rrt_below).tobytes(), (coin < opt_below).tobytes()
        runs, limit = _fast_runs(tail, n, zig.ki), len(tail) - need

    def half():
        """A 32-bit half: the one PCG64 buffered if it holds one, else the
        low half of a new word, whose high half it buffers."""
        nonlocal has32, buf, p
        if has32:
            has32 = False
            return buf
        if p >= len(tail):
            window(1)
        word, p = int(tail[p]) & _MASK64, p + 1
        has32, buf = True, word >> 32
        return word & _MASK32

    def integer(k):
        """rng.integers(k): Lemire's multiply-and-reject on 32-bit halves."""
        if k == 1:
            return 0
        m = half() * k
        if m & _MASK32 < k:
            threshold = ((1 << 32) - k) % k
            while m & _MASK32 < threshold:
                m = half() * k
        return m >> 32

    def slow_normals():
        """The n normals from p on, one word at a time."""
        nonlocal p
        values = []
        for _ in range(n):
            if p >= len(tail):
                window(n)
            word = int(tail[p]) & _MASK64
            idx, rabs = word & 0xFF, word >> 9 & _MASK52
            if rabs < ki[idx]:
                x = rabs * wi[idx]
                values.append(-x if word >> 8 & 1 else x)
                p += 1
            else:
                x, used = _normal_at(scratch, _advance(s0, inc, base + p), inc)
                values.append(x)
                p += used
        return values

    for e, k in enumerate(widths):
        if p > limit:
            window(need)
        if rrt[p]:
            tgt_e.append(e)
            tgt_p.append(p + 1)
            p += 1 + n
        else:
            p += 1
            pos[e] = integer(k)
        if exploit:
            p += 1
            if not opt[p - 1]:
                control[e] = integer(n_controls)
        else:
            control[e] = integer(n_controls)
        if runs[p]:
            nrm_e.append(e)
            nrm_p.append(p)
            p += n
        else:
            noise[e] = slow_normals()
    decode()
    if E:
        bits.state = _pcg64_state(_advance(s0, inc, base + p), inc, int(has32), buf)
    return np.array(pos, dtype=np.intp), np.array(control, dtype=np.intp), target, noise


def replay_scalar(rng, widths, state_dim, eps_rrt, eps_opt, n_controls):
    """`replay` by one scalar Generator call per draw: the reference the
    model is checked against."""
    E = len(widths)
    pos, control = np.full(E, -1, dtype=np.intp), np.full(E, -1, dtype=np.intp)
    target, noise = np.zeros((E, state_dim)), np.empty((E, state_dim))
    for e, k in enumerate(widths):
        if eps_rrt > rng.random():
            rng.random(out=target[e])
        else:
            pos[e] = rng.integers(k)
        if eps_opt is None or not eps_opt > rng.random():
            control[e] = rng.integers(n_controls)
        rng.standard_normal(out=noise[e])
    return pos, control, target, noise


# The self-check's schedule: widths from 1 up, a generator that starts with a
# buffered 32-bit half, and a chunk small enough to cross chunk boundaries;
# at this seed its 2 x 240 normals include slow ones.
_CHECK_SEED, _CHECK_EXPANSIONS, _CHECK_CHUNK = 20240917, 240, 64


def _self_check(zig: _Ziggurat) -> None:
    widths = [1 + e % 37 for e in range(_CHECK_EXPANSIONS)]
    for n, eps_opt in ((2, 0.6), (1, None)):
        model, scalar = (np.random.default_rng(_CHECK_SEED) for _ in range(2))
        for rng in (model, scalar):
            rng.integers(5)
        got = _replay(model, widths, n, 0.5, eps_opt, 3, zig, _CHECK_CHUNK)
        want = replay_scalar(scalar, widths, n, 0.5, eps_opt, 3)
        if model.bit_generator.state != scalar.bit_generator.state or not all(
            np.array_equal(a, b) for a, b in zip(got, want)
        ):
            raise RuntimeError(
                f"numpy {np.__version__}'s Generator does not draw as the PCG64 replay models it"
            )

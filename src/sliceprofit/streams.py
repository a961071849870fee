"""numpy's seeded random streams as array code: many streams
``PCG64(SeedSequence(entropy))`` stepped at once, and the draws a
``Generator`` makes from their raw words.

Each numpy behaviour copied here, and where numpy keeps it:

- the SeedSequence hash: the entropy words mixed into a pool of four
  32-bit words (numpy/random/bit_generator.pyx, ``SeedSequence``);
- ``SeedSequence.generate_state(4, np.uint64)``: eight words drawn from
  the pool, paired low word first (``_seed_words``);
- PCG64 seeding from those four words: the increment and the two LCG
  steps around the added state (numpy/random/src/pcg64/pcg64.h,
  ``pcg64_set_seed``);
- PCG64's output: one 128-bit LCG step, then the XSL-RR fold
  (``_stream_words``);
- ``Generator.random()``: a word's top 53 bits times 2^-53 (``_doubles``,
  ``_below``);
- ``Generator.integers(bound)`` below 2^32: Lemire's rule on one 32-bit
  half of a word (``_bounded``); numpy takes a word's low half first and
  keeps the high half for its next bounded draw.

NEP 19 asks numpy to keep the streams of its bit generators and of
SeedSequence stable, and a change to them is treated as a bug; it makes no
such promise for the ``Generator`` methods, whose algorithms may change
between releases. So the first four items are numpy's to keep, and the
last two, ``random()`` and ``integers()``, are not frozen. The one tie of
the seeding and the raw words to numpy is
``tests/test_multiplex.py::TestStreams::test_numpy_seeding_contract``,
which compares the seed words, the seeded state and the raw words with
numpy's own. ``TestStreams::test_decoded_draws_match_the_generator_loop``
checks the decoders against a Generator.
"""

from __future__ import annotations

import math

import numpy as np

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1


def _entropy_words(n: int) -> list:
    """n as SeedSequence reads an entropy int: 32-bit words, least
    significant first, [0] for 0."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constant before each of count SeedSequence hash steps and
    after the last: init·mult^k mod 2^32."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _seed_words(seed: int, gens, count: int) -> np.ndarray:
    """SeedSequence([seed, g, j]).generate_state(4, np.uint64) for every g
    in gens and j < count, g-major, as a (4, len(gens)·count) array: the
    seed sequence hashes the entropy words into a pool of four 32-bit words
    and draws eight words from the pool. Each hash step takes the next
    constant of a fixed sequence, so the steps of one source word run at
    once over the pool words, and over every (g, j). g and j must be one
    word each, below 2^32."""
    key = _entropy_words(seed)
    columns = len(gens) * count
    # the seed's words, g's, j's, and zero words up to the pool's four
    entropy = np.zeros((max(len(key) + 2, 4), columns), dtype=np.uint32)
    entropy[:len(key)] = np.array(key, dtype=np.uint32)[:, None]
    entropy[len(key)] = np.repeat(np.asarray(gens, dtype=np.uint32), count)
    entropy[len(key) + 1] = np.tile(np.arange(count, dtype=np.uint32), len(gens))
    const = _hash_consts(_INIT_A, _MULT_A, 4 * len(entropy))
    used = 0

    def hashmix(values, n):
        nonlocal used
        values = (values ^ const[used:used + n]) * const[used + 1:used + n + 1]
        used += n
        return values ^ values >> 16

    def mix(x, y):
        out = x * _MIX_L - y * _MIX_R
        return out ^ out >> 16

    pool = hashmix(entropy[:4], 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 3))
    for word in entropy[4:]:
        pool = mix(pool, hashmix(word, 4))
    const = _hash_consts(_INIT_B, _MULT_B, 8)
    state = (pool[[0, 1, 2, 3] * 2] ^ const[:-1]) * const[1:]
    state = (state ^ state >> 16).astype(np.uint64)
    return state[0::2] | state[1::2] << 32


# the 64-bit halves of PCG64's multiplier, and the 32-bit halves of its low one
_MUL_HI, _MUL_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (1 << 64) - 1)
_MUL_L0, _MUL_L1 = np.uint64(_PCG_MULT & _MASK32), np.uint64(_PCG_MULT >> 32 & _MASK32)


def _lcg_step(hi, lo, inc_hi, inc_lo) -> tuple:
    """PCG64's LCG step, state·mult + inc mod 2^128, over uint64 arrays of
    the 64-bit halves of states and increments. uint64 products wrap mod
    2^64, which gives the low half of lo·mult_lo and both cross terms; the
    high half of lo·mult_lo is summed from the 32-bit limbs' products, each
    exact in 64 bits."""
    l0, l1 = lo & _MASK32, lo >> 32
    p01, p10 = l0 * _MUL_L1, l1 * _MUL_L0
    mid = (l0 * _MUL_L0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = l1 * _MUL_L1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    new_lo = lo * _MUL_LO + inc_lo
    new_hi = carry + hi * _MUL_LO + lo * _MUL_HI + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def _stream_words(seed: int, gens, count: int, n: int) -> tuple:
    """The first n raw 64-bit words of every stream (seed, g, j), numpy's
    PCG64(SeedSequence([seed, g, j])).random_raw(n), for g in gens and
    j < count, g-major: (len(gens)·count, n). Also returns each stream's
    state as seeded, before its first word, as a (4, len(gens)·count)
    uint64 array of the 64-bit halves (state hi, state lo, increment hi,
    increment lo), which _seek takes.

    PCG64 seeded from words w0..w3 has increment (w2·2^64 + w3)·2 + 1 and
    the state of two LCG steps from 0 with w0·2^64 + w1 added between. A
    raw word steps the LCG, then folds the state by XSL-RR: the halves'
    xor rotated right by the state's top six bits. Every stream steps at
    once, as arrays."""
    w0, w1, w2, w3 = _seed_words(seed, gens, count)
    inc_hi, inc_lo = w2 << 1 | w3 >> 63, w3 << 1 | 1
    lo = inc_lo + w1
    hi, lo = _lcg_step(inc_hi + w0 + (lo < w1), lo, inc_hi, inc_lo)
    seeded = np.stack([hi, lo, inc_hi, inc_lo])
    words = np.empty((len(lo), n), dtype=np.uint64)
    for k in range(n):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        folded, rot = hi ^ lo, hi >> 58
        words[:, k] = folded >> rot | folded << (64 - rot & 63)
    return words, seeded


def _seek(rng, seeded, skip: int = 0) -> np.random.Generator:
    """rng, a Generator on PCG64, set to one stream's seeded state (four
    ints, as _stream_words returns them) and moved past its first skip raw
    words."""
    hi, lo, inc_hi, inc_lo = seeded
    rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                               "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}}
    rng.bit_generator.advance(skip)
    return rng


def _doubles(words) -> np.ndarray:
    """Generator.random() of each raw word: its top 53 bits times 2^-53."""
    return (words >> 11).astype(float) * 2.0 ** -53


def _below(words, rate) -> np.ndarray:
    """Generator.random() < rate of each raw word, as an exact integer
    test for any real rate: k·2^-53 < rate iff k < ceil(rate·2^53)."""
    return words >> 11 < math.ceil(rate * 2 ** 53)


def _bounded(words, bound: int) -> tuple:
    """Generator.integers(bound) of each word's low 32 bits by numpy's
    Lemire rule, and whether the rule would reject it and draw again. A
    power-of-two bound is never rejected."""
    scaled = (words & _MASK32) * bound
    return (scaled >> 32).astype(np.int64), scaled & _MASK32 < (1 << 32) % bound

"""numpy.random.default_rng(seed).random(n), bit for bit, in Python integers.

numpy's default generator is PCG64 (a 128-bit LCG with the XSL-RR output)
seeded through SeedSequence.  sphere_samples draws only three doubles from
it, so this copy of both spares every `sample` process the import of
numpy.random (about 9 ms and 2.4 MB).  The constants are numpy's.
"""

from __future__ import annotations

import operator

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # SeedSequence entropy hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # SeedSequence output hash
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # SeedSequence's pool, in 32-bit words
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed) -> list[int]:
    """SeedSequence(seed).generate_state(8) as 32-bit words: ValueError for
    a negative seed and TypeError for a non-integer one, as numpy gives."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        entropy.append(seed & _M32)

    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    const, state = _INIT_B, []
    for i in range(8):
        value = pool[i % _POOL] ^ const
        const = const * _MULT_B & _M32
        value = value * const & _M32
        state.append(value ^ value >> 16)
    return state


def uniform_doubles(seed, n: int) -> list[float]:
    """The first n doubles of numpy.random.default_rng(seed).random()."""
    w = _seed_state(seed)
    # the four uint64 of generate_state(4, uint64): little-endian word pairs
    s0, s1, i0, i1 = (w[2 * k] | w[2 * k + 1] << 32 for k in range(4))
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    # srandom from state 0: a step (to inc), the seed added, a step
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128
    out = []
    for _ in range(n):
        state = (state * _PCG_MULT + inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        out.append((((x >> rot | x << (64 - rot)) & _M64) >> 11) * 2.0**-53)
    return out

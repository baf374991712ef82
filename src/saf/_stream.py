"""numpy's ``default_rng(seed)`` stream, for the draws the layout search makes.

``Stream(seed)`` gives the numbers of ``np.random.default_rng(seed)`` for
``random()``, ``integers`` and ``permutation``, without importing
``numpy.random``, whose package init loads every bit generator and OpenSSL:

- seeding: ``SeedSequence(seed).generate_state(4, np.uint64)`` feeds PCG64
  (XSL-RR 128/64) through PCG's ``srandom`` steps;
- ``random()``: the top 53 bits of one 64-bit output, times 2**-53;
- 32-bit draws: the low half of a 64-bit output, then its buffered high half;
- ``integers``: Lemire's multiply-and-reject on 32-bit draws, no draw when the
  range holds one value;
- ``permutation``: Fisher-Yates from the top, each index by masked rejection
  on 32-bit draws.

NEP 19 freezes only the legacy ``RandomState`` streams, so computing this one
here also keeps a seeded design's bytes from depending on the installed
numpy's Generator.
"""

from __future__ import annotations

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# SeedSequence's hash constants and pool size.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG's default 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)``, as Python ints."""
    if seed < 0:  # as SeedSequence refuses it
        raise ValueError("seed must be >= 0")
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
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    halves = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _M32
        value = value * const & _M32
        halves.append(value ^ value >> 16)
    return [halves[i] | halves[i + 1] << 32 for i in range(0, len(halves), 2)]


class Stream:
    """The draws of ``np.random.default_rng(seed)`` that the layout search makes."""

    def __init__(self, seed: int):
        words = _seed_words(seed)
        self._inc = ((words[2] << 64 | words[3]) << 1 | 1) & _M128
        # srandom: from state 0, step, add the seed, step.
        self._state = ((self._inc + (words[0] << 64 | words[1])) * _PCG_MULT + self._inc) & _M128
        self._high = None  # the unused high half of the last 64-bit draw split for 32 bits

    def _next64(self) -> int:
        self._state = (self._state * _PCG_MULT + self._inc) & _M128
        word = (self._state >> 64 ^ self._state) & _M64
        rotation = self._state >> 122
        return (word >> rotation | word << (64 - rotation)) & _M64

    def _next32(self) -> int:
        if self._high is not None:
            high, self._high = self._high, None
            return high
        word = self._next64()
        self._high = word >> 32
        return word & _M32

    def random(self) -> float:
        """A float in [0, 1)."""
        return (self._next64() >> 11) * 2.0 ** -53

    def integers(self, low: int, high: int | None = None) -> int:
        """An int in [low, high), or in [0, low) when ``high`` is omitted."""
        if high is None:
            low, high = 0, low
        count = high - low
        if count < 1:
            raise ValueError(f"empty range [{low}, {high})")
        if count == 1:
            return low
        if count > _M32:
            raise ValueError(f"range of {count} values exceeds 2**32 - 1")
        threshold = (1 << 32) % count
        product = self._next32() * count
        while product & _M32 < threshold:
            product = self._next32() * count
        return low + (product >> 32)

    def permutation(self, n: int) -> list[int]:
        """A random ordering of range(n)."""
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            items[i], items[j] = items[j], items[i]
        return items

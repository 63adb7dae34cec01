"""Deterministic 64-bit pseudo-random generator (SplitMix64).

SplitMix64 is a tiny, well-documented mixing generator: state advances by the
odd constant 0x9E3779B97F4A7C15 and each output is finalized with two
xor-shift-multiply rounds.  It is trivially portable across languages, which
is what makes sampled configurations reproducible from a single integer seed.

Sweeps over (type, sample-index) pairs derive one independent stream per pair
with :func:`derive_seed`, so a single base seed controls a whole run.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_SPAN = 1 << 64


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        """The next 64-bit output: the state advanced by the odd constant,
        then finalized by two xor-shift-multiply rounds."""
        self.state = z = (self.state + _GAMMA) & _MASK
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection on the top range.

        A candidate joins k 64-bit outputs, high word first, for the least k
        with 2^(64k) >= bound: one for every bound up to 2^64, so that stream
        does not depend on how wider bounds are drawn.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound <= _SPAN:
            limit = _SPAN - _SPAN % bound
            v = self.next_u64()
            while v >= limit:
                v = self.next_u64()
            return v % bound
        words = ((bound - 1).bit_length() + 63) // 64
        span = 1 << 64 * words
        limit = span - span % bound
        while True:
            v = self.next_u64()
            for _ in range(words - 1):
                v = v << 64 | self.next_u64()
            if v < limit:
                return v % bound

    def below_n(self, bound: int, n: int) -> list:
        """``n`` successive draws of ``below(bound)`` in one call.

        For a bound up to 2^64 each candidate is one 64-bit output, rejected
        on the top range as ``below`` rejects it, and the first n accepted
        are kept in order, so the stream is the one n calls of ``below``
        consume.  A wider bound draws through ``below``.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound > _SPAN:
            return [self.below(bound) for _ in range(n)]
        limit = _SPAN - _SPAN % bound
        nxt = self.next_u64
        got = []
        while len(got) < n:
            v = nxt()
            if v < limit:
                got.append(v % bound)
        return got

    def int_in(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        return lo + self.below(hi - lo + 1)


def derive_seed(base: int, *indices: int) -> int:
    """Split one base seed into an independent stream per index tuple: each
    index takes the first output of a generator seeded by the value so far
    xor the index."""
    z = base & _MASK
    for ix in indices:
        z = SplitMix64(z ^ (ix & _MASK)).next_u64()
    return z

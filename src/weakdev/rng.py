"""Deterministic random streams for reproducible simulation.

Two generators cooperate here.  SplitMix64 derives seeds: every Monte Carlo
replication gets its own 64-bit seed from the base seed and its replication
index alone, so fan-out order and worker count cannot change any stream.
Its one mixer, mix64, and its one derivation, derive_seed, each take python
ints or uint64 arrays and agree bit for bit between the two.
xoshiro256++ produces the draws; the vectorised variant advances one
independent stream per replication in lockstep, which keeps the inner loops
in numpy while preserving bit-for-bit reproducibility.

Uniform doubles use the 53-bit mantissa method: (u64 >> 11) * 2^-53, giving
values in [0, 1).
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

# Weyl increment of SplitMix64 (odd, 2^64 / golden ratio).
GOLDEN_GAMMA = 0x9E3779B97F4A7C15

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

_U = np.uint64


def mix64(z):
    """SplitMix64 finalizer, wrapping at 64 bits: an int gives an int, an
    array (or list) of uint64 gives an array of the same shape."""
    if isinstance(z, int):
        z &= MASK64
        z = ((z ^ (z >> 30)) * _M1) & MASK64
        z = ((z ^ (z >> 27)) * _M2) & MASK64
        return z ^ (z >> 31)
    z = np.asarray(z, dtype=np.uint64)
    z = (z ^ (z >> _U(30))) * _U(_M1)
    z = (z ^ (z >> _U(27))) * _U(_M2)
    return z ^ (z >> _U(31))


def derive_seed(base_seed, index):
    """Child seed mix64(base ^ (index * gamma)), wrapping at 64 bits.

    It depends only on (base, index), never on the order in which siblings
    are derived. Two ints give an int; otherwise base and index broadcast
    like numpy arrays of uint64, and an int operand is first taken mod 2^64.
    """
    if isinstance(base_seed, int) and isinstance(index, int):
        return mix64(base_seed ^ (index * GOLDEN_GAMMA))
    base, idx = (np.asarray(v & MASK64 if isinstance(v, int) else v, dtype=np.uint64)
                 for v in (base_seed, index))
    return mix64(base ^ idx * _U(GOLDEN_GAMMA))


def replication_seeds(base_seed: int, lo: int, hi: int) -> np.ndarray:
    """Seeds for replication indices lo..hi-1."""
    return derive_seed(base_seed, np.arange(lo, hi, dtype=np.uint64))


class VectorXoshiro:
    """xoshiro256++ advancing R independent streams in lockstep.

    Each stream's 256-bit state is expanded from its seed by four SplitMix64
    steps, per the generator authors' seeding recommendation.  An all-zero
    state is unreachable for practical purposes after that expansion.
    """

    def __init__(self, seeds: np.ndarray | list[int]):
        sm = np.atleast_1d(np.asarray(seeds, dtype=np.uint64))
        # the i-th SplitMix64 step from state `seed` mixes seed + i * gamma
        steps = (sm + _U(i * GOLDEN_GAMMA & MASK64) for i in range(1, 5))
        self.s0, self.s1, self.s2, self.s3 = map(mix64, steps)
        self._scratch = np.empty_like(sm)

    @property
    def n_streams(self) -> int:
        return self.s0.shape[0]

    def next_u64(self) -> np.ndarray:
        """One u64 per stream, in a fresh array the caller may keep or overwrite.

        The state advances in place; the only temporaries are the returned
        array and one scratch array owned by the generator.
        """
        s0, s1, s2, s3, t = self.s0, self.s1, self.s2, self.s3, self._scratch
        out = s0 + s3
        np.left_shift(out, _SH23, out=t)  # out = rotl(s0 + s3, 23) + s0
        out >>= _SH41
        out |= t
        out += s0
        np.left_shift(s1, _SH17, out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, _SH45, out=t)  # s3 = rotl(s3, 45)
        s3 >>= _SH19
        s3 |= t
        return out

    def next_uniform(self) -> np.ndarray:
        """One double in [0, 1) per stream, in a fresh array."""
        u = self.next_u64()
        u >>= _SH11
        out = u.astype(np.float64)
        out *= 2.0**-53
        return out


_SH11, _SH17, _SH19, _SH23, _SH41, _SH45 = (_U(k) for k in (11, 17, 19, 23, 41, 45))

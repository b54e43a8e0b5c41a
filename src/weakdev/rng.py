"""Deterministic random streams for reproducible simulation.

Two generators cooperate here.  SplitMix64 derives seeds: every Monte Carlo
replication gets its own 64-bit seed from the base seed and its replication
index alone, so fan-out order and worker count cannot change any stream.
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


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a python int, wrapping at 64 bits."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorised SplitMix64 finalizer; matches mix64 bit-for-bit."""
    z = np.asarray(z, dtype=np.uint64).copy()
    z = (z ^ (z >> _U(30))) * _U(_M1)
    z = (z ^ (z >> _U(27))) * _U(_M2)
    return z ^ (z >> _U(31))


def derive_seed(base_seed: int, index: int) -> int:
    """Child seed for a given index.

    rep_seed = mix64(base ^ (index * gamma)); depends only on (base, index),
    never on the order in which siblings are derived.
    """
    return mix64((base_seed ^ ((index * GOLDEN_GAMMA) & MASK64)) & MASK64)


def derive_seed_array(base_seed: int, indices: np.ndarray) -> np.ndarray:
    """Vectorised derive_seed over an array of indices."""
    idx = np.asarray(indices, dtype=np.uint64)
    return mix64_array(_U(base_seed & MASK64) ^ (idx * _U(GOLDEN_GAMMA)))


def replication_seeds(base_seed: int, lo: int, hi: int) -> np.ndarray:
    """Seeds for replication indices lo..hi-1."""
    return derive_seed_array(base_seed, np.arange(lo, hi, dtype=np.uint64))


def derive_child_array(seeds: np.ndarray, index: int) -> np.ndarray:
    """One fixed-index child per seed; matches derive_seed elementwise."""
    base = np.asarray(seeds, dtype=np.uint64)
    return mix64_array(base ^ _U((index * GOLDEN_GAMMA) & MASK64))


class VectorXoshiro:
    """xoshiro256++ advancing R independent streams in lockstep.

    Each stream's 256-bit state is expanded from its seed by four SplitMix64
    steps, per the generator authors' seeding recommendation.  An all-zero
    state is unreachable for practical purposes after that expansion.
    """

    def __init__(self, seeds: np.ndarray | list[int]):
        sm = np.atleast_1d(np.asarray(seeds, dtype=np.uint64)).copy()
        state = []
        for _ in range(4):
            sm = sm + _U(GOLDEN_GAMMA)
            state.append(mix64_array(sm))
        self.s0, self.s1, self.s2, self.s3 = state
        self._scratch = np.empty_like(sm)

    @property
    def n_streams(self) -> int:
        return self.s0.shape[0]

    def head(self, k: int) -> "VectorXoshiro":
        """The first k streams, sharing this generator's state: a draw from
        either advances those streams for both."""
        view = object.__new__(VectorXoshiro)
        view.s0, view.s1, view.s2, view.s3 = self.s0[:k], self.s1[:k], self.s2[:k], self.s3[:k]
        view._scratch = self._scratch[:k]
        return view

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

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from weakdev.rng import (
    GOLDEN_GAMMA,
    MASK64,
    VectorXoshiro,
    derive_seed,
    mix64,
    replication_seeds,
)

U64 = st.integers(min_value=0, max_value=MASK64)


def test_mix64_matches_splitmix64_reference():
    # first three outputs of the reference SplitMix64 stream from state 0
    s, expected = 0, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    for want in expected:
        s = (s + GOLDEN_GAMMA) & MASK64
        assert mix64(s) == want


@given(U64)
def test_mix64_array_matches_scalar(z):
    assert int(mix64(np.array([z], dtype=np.uint64))[0]) == mix64(z)


@given(U64, st.integers(min_value=0, max_value=2**32))
def test_derive_seed_array_matches_scalar(base, idx):
    arr = derive_seed(base, np.array([idx], dtype=np.uint64))
    assert int(arr[0]) == derive_seed(base, idx)


@given(st.lists(U64, min_size=1, max_size=8), st.integers(min_value=0, max_value=100))
def test_derive_child_array_matches_scalar(seeds, lane):
    arr = derive_seed(np.array(seeds, dtype=np.uint64), lane)
    assert [int(v) for v in arr] == [derive_seed(s, lane) for s in seeds]


@given(U64, st.lists(U64, min_size=1, max_size=6),
       st.lists(st.integers(min_value=0, max_value=2**66), min_size=1, max_size=4))
@example(base=5, seeds=[0, MASK64], indices=[2**64 + 3, 1])
def test_int_and_array_forms_agree(base, seeds, indices):
    assert [int(v) for v in mix64(np.array(seeds, dtype=np.uint64))] == [mix64(s) for s in seeds]
    want = [[derive_seed(s, i) for s in seeds] for i in indices]
    # a 2-D broadcast: one row per index, one column per seed; an index
    # past 2^64 wraps alike in the int form and in a uint64 array
    wrapped = np.array([[i & MASK64] for i in indices], dtype=np.uint64)
    grid = derive_seed(np.array(seeds, dtype=np.uint64), wrapped)
    assert grid.shape == (len(indices), len(seeds))
    assert grid.tolist() == want
    assert [derive_seed(seeds, i).tolist() for i in indices] == want
    assert derive_seed(base, wrapped[:, 0]).tolist() == [derive_seed(base, i) for i in indices]


def test_replication_seeds_are_index_keyed():
    # any window of indices yields the same seeds: fan-out order cannot matter
    full = replication_seeds(99, 0, 100)
    assert np.array_equal(full[37:], replication_seeds(99, 37, 100))
    assert np.array_equal(full[:5], replication_seeds(99, 0, 5))


def _scalar_xoshiro(seed):
    """Independent pure-int xoshiro256++ with the 4-step SplitMix64 seeding."""
    state = []
    s = seed
    for _ in range(4):
        s = (s + 0x9E3779B97F4A7C15) & MASK64
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        state.append(z ^ (z >> 31))
    s0, s1, s2, s3 = state

    def rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & MASK64

    while True:
        out = (rotl((s0 + s3) & MASK64, 23) + s0) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = rotl(s3, 45)
        yield out


def test_vector_xoshiro_matches_scalar_reference():
    seeds = [0, 1, 42, 2**63, MASK64]
    gen = VectorXoshiro(seeds)
    refs = [_scalar_xoshiro(s) for s in seeds]
    for _ in range(50):
        got = gen.next_u64()
        assert [int(v) for v in got] == [next(r) for r in refs]


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 2048), U64)
@example(2048, 0)
def test_vector_xoshiro_matches_scalar_reference_at_any_lane_count(lanes, base):
    seeds = replication_seeds(base, 0, lanes)
    gen = VectorXoshiro(seeds)
    got = np.stack([gen.next_u64() for _ in range(200)], axis=1)
    for row, seed in zip(got.tolist(), seeds.tolist()):
        ref = _scalar_xoshiro(seed)
        assert row == [next(ref) for _ in range(200)]


def test_draws_are_fresh_arrays_the_caller_may_overwrite():
    seeds = replication_seeds(17, 0, 33)
    gen, twin = VectorXoshiro(seeds), VectorXoshiro(seeds)
    prev = None
    for draw in ["next_u64", "next_uniform"] * 40:
        got, want = getattr(gen, draw)(), getattr(twin, draw)()
        assert np.array_equal(got, want) and got.flags.writeable
        owned = [v for v in vars(gen).values() if isinstance(v, np.ndarray)]
        assert not any(np.shares_memory(got, v) for v in owned)
        assert prev is None or not np.shares_memory(got, prev)
        got[:] = got.dtype.type(1)  # must not reach the state or a later draw
        prev = got


def test_streams_are_independent_of_batch_composition():
    a = VectorXoshiro([3, 9])
    b3, b9 = VectorXoshiro([3]), VectorXoshiro([9])
    for _ in range(10):
        pair = a.next_u64()
        assert int(pair[0]) == int(b3.next_u64()[0])
        assert int(pair[1]) == int(b9.next_u64()[0])


def test_uniforms_use_53_bit_mantissa_rule():
    g1, g2 = VectorXoshiro([7, 8]), VectorXoshiro([7, 8])
    for _ in range(20):
        u = g1.next_uniform()
        raw = g2.next_u64()
        assert np.array_equal(u, (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53)
        assert np.all((u >= 0.0) & (u < 1.0))


def test_uniform_moments():
    g = VectorXoshiro(replication_seeds(0, 0, 200_000))
    u = g.next_uniform()
    # mean 1/2 and variance 1/12, each within 4 standard errors
    assert abs(u.mean() - 0.5) < 4.0 * np.sqrt(1.0 / 12.0 / u.size)
    assert abs(u.var() - 1.0 / 12.0) < 4.0 * 0.075 / np.sqrt(u.size)


def test_derive_seed_wraps_large_indices():
    assert derive_seed(5, 2**64 + 3) == derive_seed(5, 3)

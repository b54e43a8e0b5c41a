import csv
import math
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from weakdev import processes
from weakdev.cli import main
from weakdev.coefficients import GeometricWeights, PolynomialWeights, WeightSequence
from weakdev.errors import DomainError, ValidationError
from weakdev.processes import (
    BernoulliShiftGeometric,
    CoupledBlock,
    DoublingMap,
    IidUniform,
    InfiniteMemoryChain,
    LipschitzKernelChain,
    ObservableF,
    MODELS,
    _coupled_pairs,
    analytic_sigma_profile,
    coupled_distance_sums,
    doubling_sigma_sq,
    observable_for,
    observable_prefix_sums,
    observable_sums,
    simulate,
    simulate_batch,
    simulate_coupled_block,
    stationary_init_batch,
)
from weakdev.rng import VectorXoshiro, derive_child_array, replication_seeds

_MODELS = [
    IidUniform(),
    DoublingMap(),
    LipschitzKernelChain(kappa=0.5),
    BernoulliShiftGeometric(theta=0.5, truncation=12),
    InfiniteMemoryChain(weights=GeometricWeights(0.5, 0.5), truncation=8),
]


def _seeds(base: int, count: int) -> np.ndarray:
    return replication_seeds(base, 0, count)


def _name(model) -> str:
    return model.name


# ---------------------------------------------------------------------------
# reference paths under explicit innovations


def doubling_init_from_bits(bits64: int) -> float:
    """Stationary initial state from 64 explicit past coin flips.

    Bit j of bits64 is xi_{-j}; all zeros gives 0.0, all ones 1 - 2^-64
    (which rounds to 1.0 in binary64).
    """
    if not 0 <= bits64 < 1 << 64:
        raise DomainError("bits64 must fit in 64 bits")
    return float(bits64) * 2.0**-64


def doubling_path(x0: float, bits) -> np.ndarray:
    """Forward doubling-map recursion from x0 under explicit innovations."""
    bits = np.asarray(bits, dtype=np.float64)
    out = np.empty(bits.size)
    x = x0
    for t, b in enumerate(bits):
        x = 0.5 * (x + b)
        out[t] = x
    return out


def kernel_chain_path(kappa: float, x0: float, uniforms) -> np.ndarray:
    us = np.asarray(uniforms, dtype=np.float64)
    out = np.empty(us.size)
    x = x0
    for t, u in enumerate(us):
        x = kappa * x + (1.0 - kappa) * u
        out[t] = x
    return out


# ---------------------------------------------------------------------------
# model parameter validation


def test_kernel_chain_validation():
    with pytest.raises(DomainError):
        LipschitzKernelChain(kappa=0.0)
    with pytest.raises(DomainError):
        LipschitzKernelChain(kappa=1.0)
    assert LipschitzKernelChain(kappa=0.5).burn_in == 52


def test_shift_validation():
    with pytest.raises(DomainError):
        BernoulliShiftGeometric(theta=0.0)
    with pytest.raises(DomainError):
        BernoulliShiftGeometric(theta=1.0)
    with pytest.raises(DomainError):
        BernoulliShiftGeometric(theta=0.5, truncation=0)
    assert BernoulliShiftGeometric(theta=0.5).window == 40
    assert BernoulliShiftGeometric(theta=0.5, truncation=7).window == 7


def test_infinite_memory_validation():
    with pytest.raises(ValidationError) as ei:
        InfiniteMemoryChain(weights=GeometricWeights(1.0, 0.6))
    assert ei.value.field == "weights"
    with pytest.raises(DomainError):
        InfiniteMemoryChain(weights=GeometricWeights(0.5, 0.5), truncation=0)
    m = InfiniteMemoryChain(weights=GeometricWeights(0.5, 0.5))
    assert m.window == 39  # tail 2^-p crosses 2^-40 at p = 40
    assert m.burn_in == 39 * 40


def test_infinite_memory_default_truncation_resolved_when_built():
    # polynomial(0.5, 2) leaves a tail above 2^-40 past 1e7 terms: refused at once
    with pytest.raises(ValidationError) as ei:
        InfiniteMemoryChain(weights=PolynomialWeights(0.5, 2.0))
    assert ei.value.field == "truncation" and "truncation" in str(ei.value)
    m = InfiniteMemoryChain(weights=PolynomialWeights(0.5, 2.0), truncation=12)
    assert m.window == 12


def test_window_and_burn_in_computed_once(monkeypatch):
    real = WeightSequence.suggest_truncation
    calls = []

    def counting(self, tol):
        calls.append(tol)
        return real(self, tol)

    monkeypatch.setattr(WeightSequence, "suggest_truncation", counting)
    w = PolynomialWeights(0.25, 3.0)
    m = InfiniteMemoryChain(weights=w)
    assert m.burn_in == m.burn_in and m.window == m.window
    assert len(calls) == 1
    # the cached values leave equality and hashing to the fields
    assert m == InfiniteMemoryChain(weights=w) and hash(m) == hash(InfiniteMemoryChain(weights=w))
    s = BernoulliShiftGeometric(theta=0.5)
    assert s.window == 40 and s == BernoulliShiftGeometric(theta=0.5)
    assert hash(s) == hash(BernoulliShiftGeometric(theta=0.5))


def test_model_names_and_describe():
    names = ["iid-uniform", "doubling-map", "kernel-chain", "bernoulli-shift", "infinite-memory"]
    assert [m.name for m in _MODELS] == names
    assert list(MODELS) == names and [MODELS[m.name] for m in _MODELS] == [type(m) for m in _MODELS]
    d = LipschitzKernelChain(kappa=0.9).describe()
    assert d["model"] == "kernel-chain" and d["kappa"] == 0.9
    assert d["init_bias"] == pytest.approx(0.9 ** d["burn_in"])
    d = BernoulliShiftGeometric(theta=0.3).describe()
    assert set(d) == {"model", "theta", "window", "truncation_tail"}
    assert d["truncation_tail"] <= 2.0**-40
    m = InfiniteMemoryChain(weights=GeometricWeights(0.5, 0.5), truncation=10)
    d = m.describe()
    assert set(d) == {"model", "window", "burn_in", "truncation_tail", "init_bias"}
    assert IidUniform().describe() == {"model": "iid-uniform"}


# ---------------------------------------------------------------------------
# determinism and range


@pytest.mark.parametrize("model", _MODELS, ids=_name)
def test_simulate_deterministic_and_in_range(model):
    a = simulate(model, 200, 42)
    b = simulate(model, 200, 42)
    assert np.array_equal(a, b)
    assert np.all(a >= 0.0) and np.all(a <= 1.0)
    assert not np.array_equal(a, simulate(model, 200, 43))


@pytest.mark.parametrize("model", _MODELS, ids=_name)
def test_batch_matches_single(model):
    seeds = np.array([7, 99, 123456], dtype=np.uint64)
    batch = simulate_batch(model, 50, seeds)
    for i, s in enumerate(seeds):
        assert np.array_equal(batch[i], simulate(model, 50, int(s)))


def test_simulate_rejects_bad_n():
    with pytest.raises(DomainError):
        simulate(DoublingMap(), 0, 1)


# ---------------------------------------------------------------------------
# explicit-innovation path helpers


def test_doubling_init_from_bits():
    assert doubling_init_from_bits(0) == 0.0
    # 1 - 2^-64 rounds up to 1.0 in binary64
    assert doubling_init_from_bits(2**64 - 1) == 1.0
    assert doubling_init_from_bits(1 << 63) == 0.5
    with pytest.raises(DomainError):
        doubling_init_from_bits(-1)
    with pytest.raises(DomainError):
        doubling_init_from_bits(1 << 64)


def test_doubling_path_halves_exactly():
    path = doubling_path(1.0, np.zeros(20))
    assert np.array_equal(path, 0.5 ** np.arange(1, 21))
    ones = doubling_path(0.0, np.ones(5))
    assert ones[-1] == 1.0 - 2.0**-5


def test_doubling_simulate_replay():
    # reconstruct the first 64 steps from the raw generator words: one u64
    # initializes the state, the next provides innovations low bit first
    seed = 12345
    gen = VectorXoshiro(np.array([seed], dtype=np.uint64))
    x0 = float(gen.next_u64().astype(np.float64)[0] * 2.0**-64)
    assert x0 == stationary_init_batch(DoublingMap(), np.array([seed], dtype=np.uint64))[0]
    word = int(gen.next_u64()[0])
    bits = [(word >> t) & 1 for t in range(64)]
    assert np.array_equal(doubling_path(x0, bits), simulate(DoublingMap(), 64, seed))


def test_kernel_chain_replay():
    kappa, seed, n = 0.5, 9876, 10
    model = LipschitzKernelChain(kappa=kappa)
    gen = VectorXoshiro(np.array([seed], dtype=np.uint64))
    us = np.array([gen.next_uniform()[0] for _ in range(model.burn_in + n)])
    burn = kernel_chain_path(kappa, 0.5, us[: model.burn_in])
    want = kernel_chain_path(kappa, burn[-1], us[model.burn_in :])
    assert np.array_equal(want, simulate(model, n, seed))


def test_kernel_chain_path_recursion():
    out = kernel_chain_path(0.25, 0.8, [0.0, 1.0])
    assert out[0] == 0.25 * 0.8
    assert out[1] == 0.25 * out[0] + 0.75


# ---------------------------------------------------------------------------
# stationarity


@pytest.mark.parametrize(
    "model", [IidUniform(), DoublingMap()], ids=["iid-uniform", "doubling-map"]
)
def test_stationary_init_uniform(model):
    draws = stationary_init_batch(model, _seeds(2024, 1_000_000))
    stat = stats.kstest(draws, "uniform").statistic
    assert stat < 0.002  # ~ 1.95 / sqrt(n) at the 0.1% level


def test_doubling_marginals_stay_uniform():
    cols = simulate_batch(DoublingMap(), 64, _seeds(31, 100_000))[:, [0, 31, 63]]
    for c in range(3):
        assert stats.kstest(cols[:, c], "uniform").pvalue > 1e-3


@pytest.mark.parametrize("r", [1, 3, 6])
def test_doubling_autocovariance(r):
    # Cov(X_t, X_{t+r}) = 2^-r / 12 under the stationary law
    cols = simulate_batch(DoublingMap(), 1 + r, _seeds(500 + r, 100_000))[:, [0, r]]
    x, y = cols[:, 0] - np.mean(cols[:, 0]), cols[:, 1] - np.mean(cols[:, 1])
    prods = x * y
    se = np.std(prods, ddof=1) / math.sqrt(prods.size)
    assert abs(np.mean(prods) - 2.0**-r / 12.0) < 4.0 * se


@pytest.mark.parametrize(
    "model",
    [
        BernoulliShiftGeometric(theta=0.5, truncation=12),
        InfiniteMemoryChain(weights=GeometricWeights(0.5, 0.5), truncation=6),
    ],
    ids=["bernoulli-shift", "infinite-memory"],
)
def test_stationary_mean_matches_draws(model):
    draws = stationary_init_batch(model, _seeds(88, 50_000))
    se = np.std(draws, ddof=1) / math.sqrt(draws.size)
    assert abs(np.mean(draws) - model.stationary_mean()) < 4.0 * se


def test_stationary_mean_formulas():
    assert IidUniform().stationary_mean() == 0.5
    assert DoublingMap().stationary_mean() == 0.5
    assert LipschitzKernelChain(kappa=0.3).stationary_mean() == 0.5
    m = BernoulliShiftGeometric(theta=0.5, truncation=4)
    assert m.stationary_mean() == 0.5 * (1.0 - 0.5**4)
    im = InfiniteMemoryChain(weights=GeometricWeights(0.5, 0.5), truncation=3)
    a_J = sum(0.5 * 0.5**j for j in (1, 2, 3))
    assert im.stationary_mean() == pytest.approx(0.5 * 0.5 / (1.0 - a_J), abs=1e-15)


# ---------------------------------------------------------------------------
# coupled blocks


def _coupled_pairs_two_generators(model, j, r, seeds):
    """The coupled pair as two side-by-side runs: the oracle for the stacked run."""
    gen_o = VectorXoshiro(derive_child_array(seeds, processes._LANE_ORIGINAL))
    gen_s = VectorXoshiro(derive_child_array(seeds, processes._LANE_STARRED))
    xo, step_o = model.start(gen_o)
    xs, step_s = model.start(gen_s)
    innov_o = model.innovations(gen_o)
    innov_s = model.innovations(gen_s)
    for t in range(1, 2 * r + j):
        io = innov_o()
        xo = step_o(xo, io)
        xs = step_s(xs, innov_s() if t <= j else io)
        if t > j:
            yield xo, xs


def test_model_fixtures_cover_every_registered_class():
    assert {type(m) for m in _MODELS} == set(MODELS.values())


@pytest.mark.parametrize("model", _MODELS, ids=_name)
@settings(max_examples=15, deadline=None)
@given(
    j=st.integers(1, 130),
    rs=st.lists(st.integers(1, 20), min_size=1, max_size=4).flatmap(
        lambda rs: st.permutations(rs + rs[:1])),
    reps=st.integers(1, 5),
    base=st.integers(0, 2**63 - 1),
)
@example(j=63, rs=[1, 2, 1], reps=3, base=1)
@example(j=64, rs=[20, 3, 20], reps=2, base=2)
@example(j=128, rs=[1, 1], reps=1, base=3)
def test_stacked_coupled_run_equals_two_generators(model, j, rs, reps, base):
    # one stacked 2R-lane run must give every coupled sum and block of the
    # two side-by-side runs bit for bit; j runs past 128 so the doubling
    # map's 64-bit innovation words straddle the split on both sides
    seeds = _seeds(base, reps)
    got = coupled_distance_sums(model, j, rs, seeds)
    for col, r in zip(got.T, rs):
        dist = [np.abs(xo - xs) for xo, xs in _coupled_pairs_two_generators(model, j, r, seeds)]
        ref = np.zeros(reps)
        for d in dist[r - 1:]:  # i = r+j .. 2r+j-1
            ref += d
        assert np.array_equal(col, ref)
    r, seed = rs[0], seeds[:1]
    block = simulate_coupled_block(model, j, r, int(seed[0]))
    pairs = list(_coupled_pairs_two_generators(model, j, r, seed))[r - 1:]
    assert np.array_equal(block.original, [xo[0] for xo, _ in pairs])
    assert np.array_equal(block.starred, [xs[0] for _, xs in pairs])


@pytest.mark.parametrize("model", _MODELS, ids=_name)
def test_innovations_are_fresh_writable_arrays(model):
    # the stacked coupled run overwrites the starred lanes of each innovation
    # array, so no array may alias the generator, an earlier draw or a later one
    gen, twin = VectorXoshiro(_seeds(5, 16)), VectorXoshiro(_seeds(5, 16))
    innov, twin_innov = model.innovations(gen), model.innovations(twin)
    prev = None
    for _ in range(130):  # past two of the doubling map's 64-bit words
        u = innov()
        assert u.flags.writeable and u.shape == (16,)
        owned = [v for v in vars(gen).values() if isinstance(v, np.ndarray)]
        assert not any(np.shares_memory(u, v) for v in owned)
        assert prev is None or not np.shares_memory(u, prev)
        assert np.array_equal(u, twin_innov())
        u[:] = -1.0
        prev = u


@pytest.mark.parametrize("j", [1, 5])
def test_doubling_coupling_bound(j):
    # after the restart both paths share innovations, so the distance is
    # exactly |X_j - X*_j| 2^-(i-j); the block sum stays below 2^(1-r)
    rs = np.arange(1, 9)
    sums = coupled_distance_sums(DoublingMap(), j, rs, _seeds(7000 + j, 2000))
    assert np.all(sums <= 2.0 ** (1 - rs))


def test_kernel_coupling_bound():
    kappa, j = 0.6, 3
    model = LipschitzKernelChain(kappa=kappa)
    sums = coupled_distance_sums(model, j, [2, 5], _seeds(911, 1000))
    for r, col in zip((2, 5), sums.T):
        cap = sum(kappa**m for m in range(r, 2 * r))
        assert np.all(col <= cap * (1.0 + 1e-12))


@pytest.mark.parametrize("model", _MODELS, ids=_name)
def test_share_presplit_collapses_distance(model, monkeypatch):
    # drawing the starred run from the original's own child stream shares the
    # start and the pre-split innovations too; then the two runs must agree at
    # every time, so each start() owns its window and history state
    monkeypatch.setattr(processes, "_LANE_STARRED", processes._LANE_ORIGINAL)
    sums = coupled_distance_sums(model, 4, [3, 1, 5], _seeds(64, 100))
    assert np.all(sums == 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60), st.integers(1, 30), st.integers(0, 2**63 - 1))
def test_iid_coupled_paths_share_post_split_innovations(j, r, base):
    # X_t = U_t for iid draws, so X*_t = X_t at every t > j exactly when the
    # starred run reuses the original's innovations after the split
    assert np.all(coupled_distance_sums(IidUniform(), j, [r], _seeds(base, 8)) == 0.0)


def test_coupled_block_arguments():
    with pytest.raises(DomainError):
        coupled_distance_sums(DoublingMap(), 0, [3], _seeds(1, 4))
    with pytest.raises(DomainError):
        coupled_distance_sums(DoublingMap(), 1, [0], _seeds(1, 4))
    with pytest.raises(DomainError):
        coupled_distance_sums(DoublingMap(), 1, [2, 0], _seeds(1, 4))
    with pytest.raises(DomainError):
        coupled_distance_sums(DoublingMap(), 1, [], _seeds(1, 4))
    with pytest.raises(DomainError):
        simulate_coupled_block(DoublingMap(), 1, 0, 1)
    with pytest.raises(DomainError):
        simulate_coupled_block(DoublingMap(), 0, 10, 1)


def test_simulate_coupled_block_matches_batch():
    block = simulate_coupled_block(DoublingMap(), 2, 4, 314)
    assert block.original.size == 4 and block.starred.size == 4
    sums = coupled_distance_sums(DoublingMap(), 2, [4], np.array([314], dtype=np.uint64))
    assert np.sum(np.abs(block.original - block.starred)) == pytest.approx(float(sums[0, 0]), abs=1e-15)


def test_coupled_block_sums_marginals_agree():
    # the starred restart is stationary too, so block sums from both runs
    # should be indistinguishable in distribution
    # the pairs run from i = j+1; the block i = r+j .. 2r+j-1 is the last r
    pairs = list(_coupled_pairs(DoublingMap(), 5, 10, _seeds(2718, 10_000)))[9:]
    so, ss = (sum(p[side] for p in pairs) for side in (0, 1))
    assert stats.ks_2samp(so, ss).pvalue > 1e-3
    assert np.all(np.abs(so - ss) <= 10 * 2.0**-9)


# ---------------------------------------------------------------------------
# observables


def test_centered_identity_values():
    f = ObservableF(kind="centered-identity", mu=0.5)
    assert f.values(np.array([0.75]))[0] == 0.25
    x = np.linspace(-3, 3, 101)
    vals = f.values(x)
    assert np.all(vals >= -0.5) and np.all(vals <= 0.5)


def test_centered_cosine_values():
    f = ObservableF(
        kind="centered-cosine", mu=0.0, omega=2, lipschitz_constant=0.5, sup_bound=1.0 / (8 * math.pi)
    )
    w = 4.0 * math.pi
    x = np.linspace(0, 1, 101)
    assert np.allclose(f.values(x), np.cos(w * x) / (2.0 * w))
    assert np.all(np.abs(f.values(x)) <= 1.0 / (8.0 * math.pi) + 1e-15)


def test_observable_validation():
    with pytest.raises(ValidationError):
        ObservableF(kind="weird", mu=0.0)
    with pytest.raises(DomainError):
        ObservableF(kind="centered-cosine", mu=0.0, omega=0)
    with pytest.raises(ValidationError):
        ObservableF(kind="centered-identity", mu=0.0, lipschitz_constant=1.5)
    with pytest.raises(ValidationError):
        ObservableF(kind="centered-identity", mu=0.0, sup_bound=0.7)
    with pytest.raises(ValidationError):
        observable_for(DoublingMap(), "nope")
    for model in (DoublingMap(), LipschitzKernelChain(kappa=0.5)):
        for omega in (0, -2):
            with pytest.raises(DomainError) as ei:
                observable_for(model, "centered-cosine", omega)
            assert ei.value.field == "omega"


@pytest.mark.parametrize("model", _MODELS, ids=_name)
def test_observable_for_identity_centering(model):
    f = observable_for(model, "centered-identity")
    assert f.mu == model.stationary_mean()
    draws = stationary_init_batch(model, _seeds(3, 200_000))
    vals = f.values(draws)
    se = np.std(vals, ddof=1) / math.sqrt(vals.size)
    assert abs(np.mean(vals)) < 4.0 * se


def test_observable_for_cosine_uniform_marginal():
    assert observable_for(IidUniform(), "centered-cosine").mu == 0.0
    assert observable_for(DoublingMap(), "centered-cosine", omega=3).mu == 0.0


def test_observable_for_cosine_estimated_centering():
    model = LipschitzKernelChain(kappa=0.5)
    f1 = observable_for(model, "centered-cosine", seed=11)
    f2 = observable_for(model, "centered-cosine", seed=11)
    assert f1.mu == f2.mu  # deterministic given the seed
    draws = stationary_init_batch(model, _seeds(404, 200_000))
    vals = f1.values(draws)
    se_eval = np.std(vals, ddof=1) / math.sqrt(vals.size)
    se_centering = np.std(vals, ddof=1) / math.sqrt(200_000)
    assert abs(np.mean(vals)) < 4.0 * math.hypot(se_eval, se_centering)


def test_observable_sums_match_paths():
    model = BernoulliShiftGeometric(theta=0.4, truncation=10)
    f = observable_for(model, "centered-identity")
    seeds = _seeds(17, 8)
    sums = observable_sums(model, f, 40, seeds)
    paths = simulate_batch(model, 40, seeds)
    assert np.allclose(sums, f.values(paths).sum(axis=1), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(_MODELS),
    st.sampled_from(["centered-identity", "centered-cosine"]),
    st.lists(st.integers(1, 40), min_size=1, max_size=5).map(lambda ks: ks + ks[:1]),
    st.integers(1, 5),
    st.integers(0, 2**63 - 1),
)
def test_observable_prefix_sums_read_one_run(model, kind, ks, reps, seed):
    # one run out to max(ks) serves every k; each column is that run's
    # running sum at k, equal bit for bit to the run for k alone and to a
    # time-ordered sum over the path
    f = observable_for(model, kind, centering_reps=256)
    seeds = _seeds(seed, reps)
    runs = []
    real = processes._states

    def counting(model, n, seeds):
        runs.append(n)
        return real(model, n, seeds)

    with mock.patch.object(processes, "_states", counting):
        shared = observable_prefix_sums(model, f, ks, seeds)
    assert runs == [max(ks)]
    assert shared.shape == (reps, len(ks))
    values = f.values(simulate_batch(model, max(ks), seeds))
    for col, k in zip(shared.T, ks):
        assert np.array_equal(col, observable_sums(model, f, k, seeds))
        ref = np.zeros(reps)
        for t in range(k):
            ref += values[:, t]
        assert np.array_equal(col, ref)


def test_observable_prefix_sums_arguments():
    f = observable_for(IidUniform(), "centered-identity")
    for ks in ([], [0], [3, 0]):
        with pytest.raises(DomainError):
            observable_prefix_sums(IidUniform(), f, ks, _seeds(1, 4))
    with pytest.raises(DomainError):
        observable_sums(IidUniform(), f, 0, _seeds(1, 4))


# ---------------------------------------------------------------------------
# variance oracles


def test_doubling_sigma_sq_brute_force():
    # sigma_k^2 = (1/k) [ k/12 + 2 sum_{r<k} (k-r) 2^-r / 12 ]
    for k in (1, 2, 5, 16, 64):
        brute = (k / 12.0 + 2.0 * sum((k - r) * 2.0**-r / 12.0 for r in range(1, k))) / k
        assert doubling_sigma_sq(k) == pytest.approx(brute, rel=1e-14)
    assert doubling_sigma_sq(5) == pytest.approx(0.18541666666666667, abs=1e-16)


def test_doubling_sigma_sq_monotone_to_quarter():
    ks = np.arange(1, 2001, dtype=np.float64)
    vals = doubling_sigma_sq(ks)
    assert np.all(np.diff(vals) > 0.0)
    assert vals[0] == pytest.approx(1.0 / 12.0, abs=1e-16)
    # sigma_k^2 = 1/4 - 1/(3k) + o(1/k) from below
    assert 0.25 - 1.0 / (3.0 * 2000.0) - 1e-6 < vals[-1] < 0.25
    with pytest.raises(DomainError):
        doubling_sigma_sq(0)


def test_analytic_sigma_profile_cases():
    ident = observable_for(DoublingMap(), "centered-identity")
    prof = analytic_sigma_profile(DoublingMap(), ident, 12)
    assert prof is not None and prof.source == "analytic"
    assert prof.sigma_at(5) == pytest.approx(doubling_sigma_sq(5), abs=1e-16)

    flat = analytic_sigma_profile(IidUniform(), observable_for(IidUniform(), "centered-identity"), 6)
    assert flat is not None and np.all(flat.sigma_sq == 1.0 / 12.0)

    cos = observable_for(DoublingMap(), "centered-cosine")
    assert analytic_sigma_profile(DoublingMap(), cos, 6) is None
    km = LipschitzKernelChain(kappa=0.5)
    assert analytic_sigma_profile(km, observable_for(km, "centered-identity"), 6) is None


# ---------------------------------------------------------------------------
# CSV export, through the commands that write it


def _cli_rows(tmp_path, args: list[str]) -> list[list[str]]:
    path = tmp_path / "out.csv"
    res = CliRunner().invoke(main, [a.replace("{out}", str(path)) for a in args])
    assert res.exit_code == 0, res.output
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_write_trajectory_csv(tmp_path):
    rows = _cli_rows(tmp_path, ["simulate", "--model", "doubling-map", "--n", "10",
                                "--seed", "3", "--out", "{out}"])
    assert rows[0] == ["t", "x"]
    assert [int(r[0]) for r in rows[1:]] == list(range(1, 11))
    assert np.array_equal(np.array([float(r[1]) for r in rows[1:]]), simulate(DoublingMap(), 10, 3))


def test_write_coupled_block_csv(tmp_path):
    rows = _cli_rows(tmp_path, ["estimate-coupling", "--model", "doubling-map", "--r-grid", "4",
                                "--j-grid", "3", "--reps", "2", "--seed", "55",
                                "--block-out", "{out}"])
    block = simulate_coupled_block(DoublingMap(), 3, 4, 55)
    assert rows[0] == ["i", "x", "x_star", "dist"]
    assert [int(r[0]) for r in rows[1:]] == [7, 8, 9, 10]
    for off, row in enumerate(rows[1:]):
        assert float(row[1]) == block.original[off]
        assert float(row[2]) == block.starred[off]
        assert float(row[3]) == abs(block.original[off] - block.starred[off])

import cmath
import csv
import json
import math
import tracemalloc
from fractions import Fraction
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from weakdev import processes
from weakdev.cli import main
from weakdev.coefficients import (
    TRUNCATION_TAIL,
    GeometricWeights,
    PolynomialWeights,
    WeightSequence,
)
from weakdev.errors import DomainError, ValidationError
from weakdev.estimation import coupling_seeds, estimate_coupling_delta, estimate_sigma_profile
from weakdev.processes import (
    BernoulliShiftGeometric,
    CoupledBlock,
    DoublingMap,
    IidUniform,
    InfiniteMemoryChain,
    LipschitzKernelChain,
    ObservableF,
    MODELS,
    ProcessModel,
    _differences,
    analytic_sigma_profile,
    coupled_distance_sums,
    observable_for,
    observable_prefix_sums,
    observable_sums,
    second_order,
    simulate,
    simulate_batch,
    simulate_coupled_block,
    stationary_init_batch,
)
from weakdev.rng import VectorXoshiro, derive_seed, replication_seeds

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


def doubling_sigma_sq(k) -> np.ndarray | float:
    """Exact per-term variance of the centered doubling map.

    Cov(X_0, X_r) = 2^-r / 12 gives
    sigma_k^2 = (1/12) (1 + (2/k)(k - 2 + 2^{1-k})).
    """
    karr = np.asarray(k, dtype=np.float64)
    if np.any(karr < 1):
        raise DomainError("need k >= 1")
    val = (1.0 + (2.0 / karr) * (karr - 2.0 + np.power(2.0, 1.0 - karr))) / 12.0
    return val if isinstance(k, np.ndarray) else float(val)


def kernel_chain_path(kappa: float, x0: float, uniforms) -> np.ndarray:
    us = np.asarray(uniforms, dtype=np.float64)
    out = np.empty(us.size)
    x = x0
    for t, u in enumerate(us):
        x = kappa * x + (1.0 - kappa) * u
        out[t] = x
    return out


def bernoulli_shift_path(theta: float, window: int, uniforms) -> np.ndarray:
    """X_t = theta X_{t-1} + (1 - theta) U_t - (1 - theta) theta^M U_{t-M},
    from rest (zero state and zero window), over a window of explicit draws."""
    drop = (1.0 - theta) * theta**window
    win = [0.0] * window  # U_{t-M}, ..., U_{t-1}
    out = np.empty(len(uniforms))
    x = 0.0
    for t, u in enumerate(uniforms):
        x = min(max(theta * x + (1.0 - theta) * u - drop * win[0], 0.0), 1.0)
        win = win[1:] + [u]
        out[t] = x
    return out


def infinite_memory_path(weights: WeightSequence, truncation: int, uniforms) -> np.ndarray:
    """X_t = c0 xi_t + sum_{j <= J} a_j X_{t-j}, c0 = 1 - sum_j a_j, from rest."""
    a = [weights.term(j) for j in range(1, truncation + 1)]
    c0 = 1.0 - weights.total
    hist = [0.0] * truncation  # X_{t-1}, ..., X_{t-J}
    out = np.empty(len(uniforms))
    for t, u in enumerate(uniforms):
        x = c0 * u
        for a_j, h in zip(a, hist):
            x += a_j * h
        x = min(x, 1.0)
        hist = [x] + hist[:-1]
        out[t] = x
    return out


def exact_psi(model, length: int) -> tuple[list[Fraction], list[Fraction]]:
    """psi_0..psi_{length-1} of the model's float coefficients and their tails
    Psi_i = sum_{l >= i} psi_l, in exact rationals."""
    a = [Fraction(c) for c in model.ar]
    b = {0: Fraction(model.b0)}
    for lag, c in model.ma:
        b[lag] = b.get(lag, 0) + Fraction(c)
    tail = sum(b.values()) / (1 - sum(a))
    psi, tails = [], []
    for i in range(length):
        psi.append(b.get(i, 0) + sum(a[j - 1] * psi[i - j] for j in range(1, min(i, len(a)) + 1)))
        tails.append(tail)
        tail -= psi[-1]
    return psi, tails


# ---------------------------------------------------------------------------
# model parameter validation


def test_kernel_chain_validation():
    with pytest.raises(DomainError):
        LipschitzKernelChain(kappa=0.0)
    with pytest.raises(DomainError):
        LipschitzKernelChain(kappa=1.0)
    assert LipschitzKernelChain(kappa=0.5).burn_in == 40  # 0.5^40 = 2^-40


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
    assert m.burn_in == 95


def test_infinite_memory_default_truncation_resolved_when_built():
    # polynomial(0.5, 2) leaves a tail above 2^-40 past 1e7 terms: refused at once
    with pytest.raises(ValidationError) as ei:
        InfiniteMemoryChain(weights=PolynomialWeights(0.5, 2.0))
    assert ei.value.field == "truncation" and "truncation" in str(ei.value)
    m = InfiniteMemoryChain(weights=PolynomialWeights(0.5, 2.0), truncation=12)
    assert m.window == 12


def test_window_and_burn_in_computed_once(monkeypatch):
    real_psi, real_term = ProcessModel.psi, WeightSequence.term
    calls = []

    def counting_psi(self):
        calls.append("psi")
        return real_psi(self)

    def counting_term(self, j):
        calls.append("term")
        return real_term(self, j)

    monkeypatch.setattr(ProcessModel, "psi", counting_psi)
    monkeypatch.setattr(WeightSequence, "term", counting_term)
    w = PolynomialWeights(0.25, 3.0)
    m = InfiniteMemoryChain(weights=w, truncation=12)
    assert m.burn_in == m.burn_in and m.window == m.window and m.ar == m.ar
    assert calls.count("psi") == 1 and calls.count("term") == 12
    # the cached values leave equality and hashing to the fields
    twin = InfiniteMemoryChain(weights=w, truncation=12)
    assert m == twin and hash(m) == hash(twin)
    s = BernoulliShiftGeometric(theta=0.5)
    assert s.window == 40 and s == BernoulliShiftGeometric(theta=0.5)
    assert hash(s) == hash(BernoulliShiftGeometric(theta=0.5))


def test_model_names_and_describe():
    names = ["iid-uniform", "doubling-map", "kernel-chain", "bernoulli-shift", "infinite-memory"]
    assert [m.name for m in _MODELS] == names
    assert list(MODELS) == names and [MODELS[m.name] for m in _MODELS] == [type(m) for m in _MODELS]
    # the fields, then the burn-in and its psi tail: 0.9^263 > 2^-40 >= 0.9^264
    d = LipschitzKernelChain(kappa=0.9).describe()
    assert d == {"model": "kernel-chain", "kappa": 0.9, "burn_in": 264,
                 "truncation_tail": pytest.approx(0.9**264, rel=1e-13)}
    # a truncated shift starts exactly once its window is drawn: the tail is 0
    d = BernoulliShiftGeometric(theta=0.3).describe()
    assert d == {"model": "bernoulli-shift", "theta": 0.3, "truncation": None, "burn_in": 24,
                 "truncation_tail": pytest.approx(0.0, abs=1e-20)}
    d = InfiniteMemoryChain(weights=GeometricWeights(0.5, 0.5), truncation=10).describe()
    assert d == {"model": "infinite-memory", "weights": {"c": 0.5, "ratio": 0.5},
                 "truncation": 10, "burn_in": 94,
                 "truncation_tail": pytest.approx(6.954864994400253e-13, rel=1e-13)}
    assert IidUniform().describe() == {"model": "iid-uniform", "burn_in": 1,
                                       "truncation_tail": 0.0}
    assert DoublingMap().describe() == {"model": "doubling-map", "burn_in": 64,
                                        "truncation_tail": 2.0**-64}


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
    for n in (0, -1):
        with pytest.raises(DomainError):
            simulate(DoublingMap(), n, 1)
    # refused before the (1, n) result is allocated
    with pytest.raises(DomainError, match=rf"need 1 <= n <= 2\^32 steps, got {2**32 + 1}$"):
        simulate(DoublingMap(), 2**32 + 1, 1)


def test_simulate_batch_keeps_one_float_per_lane_step():
    # the (R, n) result is filled in place, so no step's state outlives its column
    model, n, seeds = DoublingMap(), 20000, _seeds(3, 1)
    tracemalloc.start()
    try:
        simulate_batch(model, n, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * n, peak / n


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


def test_doubling_run_equals_the_halving_recurrence():
    # the doubling map steps through the shared stepper, 0.5 b + 0.5 x; halving
    # is exact, so that rounds once to the same double as x = 0.5 (x + b), the
    # recurrence it replaced, here the oracle over the run's own draws (the
    # exact start, then the bits) on 64 lanes and across 47 innovation words
    n, seeds = 3000, _seeds(2800, 64)
    got = simulate_batch(DoublingMap(), n, seeds)
    gen = VectorXoshiro(seeds)
    x = gen.next_u64().astype(np.float64) * 2.0**-64
    bits = processes._bits(gen)
    ref = np.empty_like(got)
    for t in range(n):
        x = 0.5 * (x + bits())
        ref[:, t] = x
    assert np.array_equal(got, ref)


def test_kernel_chain_replay():
    # from rest: burn_in draws, then the path, all through one recursion
    kappa, seed, n = 0.5, 9876, 10
    model = LipschitzKernelChain(kappa=kappa)
    gen = VectorXoshiro(np.array([seed], dtype=np.uint64))
    us = np.array([gen.next_uniform()[0] for _ in range(model.burn_in + n)])
    want = kernel_chain_path(kappa, 0.0, us)[model.burn_in:]
    assert np.array_equal(want, simulate(model, n, seed))


def test_kernel_chain_path_recursion():
    out = kernel_chain_path(0.25, 0.8, [0.0, 1.0])
    assert out[0] == 0.25 * 0.8
    assert out[1] == 0.25 * out[0] + 0.75


# each linear model with its former recursion, from rest, as an oracle
_LINEAR = {
    "kernel-chain": (LipschitzKernelChain(kappa=0.7), lambda us: kernel_chain_path(0.7, 0.0, us)),
    "bernoulli-shift": (BernoulliShiftGeometric(theta=0.5),
                        lambda us: bernoulli_shift_path(0.5, 40, us)),
    "bernoulli-shift-truncated": (BernoulliShiftGeometric(theta=0.4, truncation=9),
                                  lambda us: bernoulli_shift_path(0.4, 9, us)),
    "infinite-memory-geometric": (InfiniteMemoryChain(weights=GeometricWeights(0.5, 0.5)),
                                  lambda us: infinite_memory_path(GeometricWeights(0.5, 0.5),
                                                                  39, us)),
    "infinite-memory-polynomial": (
        InfiniteMemoryChain(weights=PolynomialWeights(0.25, 3.0), truncation=12),
        lambda us: infinite_memory_path(PolynomialWeights(0.25, 3.0), 12, us)),
}


@pytest.mark.parametrize("model, path", _LINEAR.values(), ids=_LINEAR)
def test_engine_agrees_with_each_models_own_recursion_and_psi(model, path):
    # fed the draws of simulate, the models' former recursions (from rest)
    # and the direct sum X_t = sum_{i < burn_in + t} psi_i xi_{t-i} give the
    # engine's path within 1e-12
    n, seeds = 60, _seeds(31, 4)
    I = model.burn_in
    gen = VectorXoshiro(seeds)
    draws = np.stack([gen.next_uniform() for _ in range(I + n)], axis=1)
    got = simulate_batch(model, n, seeds)
    init = stationary_init_batch(model, seeds)
    psi = np.array([p for p, _ in islice(model.psi(), I + n)])
    for lane, us in enumerate(draws):
        ref = path(us)
        assert np.max(np.abs(ref[I:] - got[lane])) <= 1e-12
        assert abs(ref[I - 1] - init[lane]) <= 1e-12
        direct = [psi[:I + t] @ us[I + t - 1::-1] for t in range(1, n + 1)]
        assert np.max(np.abs(direct - got[lane])) <= 1e-12


@pytest.mark.parametrize("model", [m for m, _ in _LINEAR.values()], ids=_LINEAR)
def test_burn_in_is_the_fewest_draws_meeting_the_tail_rule(model):
    # burn_in is the smallest I, at least the longest lag, whose exact psi
    # tail is at most 2^-40; psi() and its tails match the exact rationals
    I = model.burn_in
    reach = max([len(model.ar), *(lag for lag, _ in model.ma)])
    psi, tails = exact_psi(model, I + 1)
    assert I >= reach and tails[I] <= TRUNCATION_TAIL
    assert I == reach or tails[I - 1] > TRUNCATION_TAIL
    got = list(islice(model.psi(), I + 1))
    assert max(abs(p - float(e)) for (p, _), e in zip(got, psi)) <= 1e-15
    assert max(abs(t - float(e)) for (_, t), e in zip(got, tails)) <= 1e-15
    assert model.describe()["truncation_tail"] == got[I][1]


def test_burn_in_values():
    assert LipschitzKernelChain(kappa=0.7).burn_in == 78  # 0.7^77 > 2^-40 >= 0.7^78
    for shift in (BernoulliShiftGeometric(theta=0.5), BernoulliShiftGeometric(theta=0.3),
                  BernoulliShiftGeometric(theta=0.4, truncation=9)):
        assert shift.burn_in == shift.window  # M: the start draws the whole window
    # closed forms: (1 - kappa) kappa^i, and (1 - theta) theta^i below M
    psi = [p for p, _ in islice(LipschitzKernelChain(kappa=0.7).psi(), 30)]
    assert psi == pytest.approx([0.3 * 0.7**i for i in range(30)], rel=1e-13)
    psi = [p for p, _ in islice(BernoulliShiftGeometric(theta=0.4, truncation=9).psi(), 12)]
    assert psi == pytest.approx([0.6 * 0.4**i for i in range(9)] + [0.0] * 3, rel=1e-13, abs=1e-17)
    assert [p for p, _ in islice(DoublingMap().psi(), 5)] == [2.0 ** -(i + 1) for i in range(5)]


def test_unaffordable_burn_in_is_refused_up_front(tmp_path):
    # the default polynomial(0.25, 3) truncation leaves 370,728 AR taps: the
    # model builds and profiles, but any simulation is refused, not attempted
    m = InfiniteMemoryChain(weights=PolynomialWeights(0.25, 3.0))
    assert m.window == 370_728
    with pytest.raises(ValidationError) as ei:
        m.burn_in
    assert ei.value.field == "truncation"
    with pytest.raises(ValidationError):
        simulate(m, 10, 1)
    with pytest.raises(ValidationError) as ei:
        LipschitzKernelChain(kappa=1.0 - 1e-9).burn_in
    assert "kernel-chain" in str(ei.value)
    flags = ["--model", "infinite-memory", "--weight-family", "polynomial", "--weight-c", "0.25",
             "--weight-power", "3"]
    out = tmp_path / "out.csv"
    res = CliRunner().invoke(main, ["profile", *flags, "--n", "20", "--out", str(out)])
    assert res.exit_code == 0, res.output
    res = CliRunner().invoke(main, ["simulate", *flags, "--n", "20", "--out", str(out)])
    assert res.exit_code == 1 and "Traceback" not in res.output
    assert res.output.startswith("Error: infinite-memory: psi needs over")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"variant": "infinite-memory",
                  "weights": {"family": "polynomial", "c": 0.25, "power": 3.0}},
        "n": 20, "x_grid": [1.0], "theorem": "thm2", "reps": 10, "base_seed": 1,
        "out": str(tmp_path / "report.csv")}))
    res = CliRunner().invoke(main, ["verify", "--config", str(config)])
    assert res.exit_code == 1 and "Traceback" not in res.output
    assert res.output.startswith("Error: infinite-memory: psi needs over")
    assert len(res.output.strip().splitlines()) == 1


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


def _coupled_pairs_two_generators(model, r, seeds, presplit=0):
    """The coupled pair as two side-by-side stepped runs, yielding (X_i, X*_i)
    for i = 1 .. 2r-1 after the split: the oracle that the difference run
    must follow within rounding. presplit = j > 0 first steps each run j
    times on its own innovations, the split-after-j construction that the
    split at the start must match in law."""
    gen_o = VectorXoshiro(derive_seed(seeds, processes._LANE_ORIGINAL))
    gen_s = VectorXoshiro(derive_seed(seeds, processes._LANE_STARRED))
    step_o = model.stepper(*model.start(gen_o))
    step_s = model.stepper(*model.start(gen_s))
    innov_o = model.law.draw(gen_o)
    innov_s = model.law.draw(gen_s)
    for t in range(1, 2 * r + presplit):
        io = innov_o()
        xo = step_o(io)
        xs = step_s(innov_s() if t <= presplit else io)
        if t > presplit:
            yield xo, xs


def _differences_two_generators(model, r, seeds):
    """D_i = X_i - X*_i for i = 1 .. 2r-1 from two separate starts: the
    difference of their histories run through the recursion's taps, ar in
    lag order, then ma, with every post-split innovation difference zero."""
    hists = [model.start(VectorXoshiro(derive_seed(seeds, lane)))
             for lane in (processes._LANE_ORIGINAL, processes._LANE_STARRED)]
    (xo, uo), (xs, us) = hists
    ds = [a - b for a, b in zip(xo, xs)]  # ds[j] = D_{i-1-j}
    du = [a - b for a, b in zip(uo, us)]  # du[l] = xi_{-l} - xi*_{-l}
    for i in range(1, 2 * r):
        terms = [a * ds[j] for j, a in enumerate(model.ar) if a != 0.0]
        terms += [c * du[lag - i] for lag, c in model.ma if lag >= i]
        d = terms[0] if terms else np.zeros(len(seeds))
        for t in terms[1:]:
            d += t
        ds = [d, *ds][:len(model.ar)]
        yield d


def test_model_fixtures_cover_every_registered_class():
    assert {type(m) for m in _MODELS} == set(MODELS.values())


@pytest.mark.parametrize("model", _MODELS, ids=_name)
@settings(max_examples=15, deadline=None)
@given(
    rs=st.lists(st.integers(1, 70), min_size=1, max_size=4).flatmap(
        lambda rs: st.permutations(rs + rs[:1])),
    reps=st.integers(1, 5),
    base=st.integers(0, 2**63 - 1),
)
@example(rs=[1, 2, 1], reps=3, base=1)
@example(rs=[33, 3, 33], reps=2, base=2)
@example(rs=[70, 1, 70], reps=1, base=3)
def test_stacked_coupled_run_equals_two_generators(model, rs, reps, base):
    # the difference run from one stacked 2R-lane start must give every
    # coupled sum and block of two separate starts bit for bit; r runs to
    # 70, so the 2r - 1 steps after the split would cross the doubling
    # map's 64-bit innovation words
    seeds = _seeds(base, reps)
    got = coupled_distance_sums(model, rs, seeds)
    for col, r in zip(got.T, rs):
        ref = np.zeros(reps)
        for d in list(_differences_two_generators(model, r, seeds))[r - 1:]:  # i = r .. 2r-1
            ref += np.abs(d)
        assert np.array_equal(col, ref)
    r, seed = rs[0], seeds[:1]
    block = simulate_coupled_block(model, r, int(seed[0]))
    ds = np.array([d[0] for d in _differences_two_generators(model, r, seed)][r - 1:])
    xo = np.array([xo[0] for xo, _ in _coupled_pairs_two_generators(model, r, seed)][r - 1:])
    assert np.array_equal(block.original, xo)
    assert np.array_equal(block.starred, xo - ds)
    assert np.array_equal(block.distance, np.abs(ds))


# the difference run and the stepped pair round differently. Every step of
# the stepped pair sums at most p + w + 1 products of coefficients with
# values in [-1, 1] (p = len(ar), w = the largest ma lag), so each of X_i,
# X*_i and D_i picks up at most 2 (p + w + 1) C u per step, C = |b0| +
# sum |a_j| + sum |b_l| and u = 2^-53, and an earlier error is carried
# through the ar taps, which contract by A = sum |a_j| < 1; a clip that
# binds in floating point moves a state by no more than its rounding error,
# since the exact state lies in [0, 1]. So |D_i - (X_i - X*_i)| <=
# 6 (p + w + 1) C u / (1 - A) at every i, and a block sum of r terms moves
# by r times that.
def _difference_rounding_bound(model, r):
    a = sum(map(abs, model.ar))
    width = max((lag for lag, _ in model.ma), default=0)
    c = abs(model.b0) + a + sum(abs(b) for _, b in model.ma)
    return r * 6 * (len(model.ar) + width + 1) * c * 2.0**-53 / (1.0 - a)


@pytest.mark.parametrize("model", _MODELS, ids=_name)
@pytest.mark.parametrize("base", [3, 31])
def test_difference_run_follows_the_stepped_pair(model, base):
    # the stepped two-generator pair stays the oracle: every block sum of the
    # difference run lies within the rounding bound of its stepped sum; iid
    # draws have no taps, so their differences are exact zeros; the doubling
    # map halves exactly, so D_i = 2^-i (X_0 - X*_0) to the bit
    rs, reps = [1, 2, 5, 9, 40, 70], 64
    seeds = _seeds(base, reps)
    got = coupled_distance_sums(model, rs, seeds)
    stepped = [np.abs(xo - xs) for xo, xs in _coupled_pairs_two_generators(model, max(rs), seeds)]
    for col, r in zip(got.T, rs):
        ref = np.zeros(reps)
        for d in stepped[r - 1:2 * r - 1]:
            ref += d
        assert np.max(np.abs(col - ref)) <= _difference_rounding_bound(model, r)
    ds = list(_differences(model, max(rs), seeds))
    if isinstance(model, IidUniform):
        assert all(np.all(d == 0.0) for d in ds)
    if isinstance(model, DoublingMap):
        x0, xs0 = (stationary_init_batch(model, derive_seed(seeds, lane))
                   for lane in (processes._LANE_ORIGINAL, processes._LANE_STARRED))
        for i, d in enumerate(ds, start=1):
            assert np.array_equal(d, 2.0**-i * (x0 - xs0))


@pytest.mark.parametrize("model", _MODELS, ids=_name)
def test_split_at_the_start_matches_the_split_after_j_in_law(model):
    # every model starts stationary, so a pair split after j = 100 steps on
    # its own innovations has the law of one split at its start; compare
    # the block r = 4 of each, over independent seeds
    r, j, reps = 4, 100, 4000
    after = list(_coupled_pairs_two_generators(model, r, _seeds(4100, reps), presplit=j))
    start = list(_coupled_pairs_two_generators(model, r, _seeds(4200, reps)))
    for side in (lambda xo, xs: np.abs(xo - xs), lambda xo, xs: xs):
        sums = [sum(side(xo, xs) for xo, xs in pairs[r - 1:]) for pairs in (after, start)]
        assert stats.ks_2samp(*sums).pvalue > 1e-3


@pytest.mark.parametrize("model", _MODELS, ids=_name)
def test_innovations_are_fresh_writable_arrays(model):
    # a step keeps each innovation array in its history, so no array may
    # alias the generator, an earlier draw or a later one
    gen, twin = VectorXoshiro(_seeds(5, 16)), VectorXoshiro(_seeds(5, 16))
    innov, twin_innov = model.law.draw(gen), model.law.draw(twin)
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


@pytest.mark.parametrize("base", [1, 5])
def test_doubling_coupling_bound(base):
    # both paths share innovations from the split on, so the distance is
    # exactly |X_0 - X*_0| 2^-i; the block sum stays below 2^(1-r)
    rs = np.arange(1, 9)
    sums = coupled_distance_sums(DoublingMap(), rs, _seeds(7000 + base, 2000))
    assert np.all(sums <= 2.0 ** (1 - rs))


def test_kernel_coupling_bound():
    kappa = 0.6
    model = LipschitzKernelChain(kappa=kappa)
    sums = coupled_distance_sums(model, [2, 5], _seeds(911, 1000))
    for r, col in zip((2, 5), sums.T):
        cap = sum(kappa**m for m in range(r, 2 * r))
        assert np.all(col <= cap * (1.0 + 1e-12))


@pytest.mark.parametrize("model", _MODELS, ids=_name)
def test_share_presplit_collapses_distance(model, monkeypatch):
    # drawing the starred run from the original's own child stream shares the
    # start too; then the two runs must agree at every time, so each start()
    # owns its window and history state
    monkeypatch.setattr(processes, "_LANE_STARRED", processes._LANE_ORIGINAL)
    sums = coupled_distance_sums(model, [3, 1, 5], _seeds(64, 100))
    assert np.all(sums == 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2**63 - 1))
def test_iid_coupled_paths_share_post_split_innovations(r, base):
    # X_t = U_t for iid draws, so X*_t = X_t at every t after the split
    # exactly when the starred run reuses the original's innovations
    assert np.all(coupled_distance_sums(IidUniform(), [r], _seeds(base, 8)) == 0.0)


def test_coupled_block_arguments(tmp_path):
    with pytest.raises(DomainError):
        coupled_distance_sums(DoublingMap(), [0], _seeds(1, 4))
    with pytest.raises(DomainError):
        coupled_distance_sums(DoublingMap(), [2, 0], _seeds(1, 4))
    with pytest.raises(DomainError):
        coupled_distance_sums(DoublingMap(), [], _seeds(1, 4))
    with pytest.raises(DomainError):
        simulate_coupled_block(DoublingMap(), 0, 1)
    # a run of 2r - 1 = 2^32 + 1 steps is refused
    too_long = rf"need block length r >= 1 and 2r - 1 <= 2\^32 steps, got {2**31 + 1}$"
    with pytest.raises(DomainError, match=too_long):
        coupled_distance_sums(DoublingMap(), [2, 2**31 + 1], _seeds(1, 4))
    # the split j keys the estimator's seeds alone, and it refuses j < 1
    for js, bad in (([0], 0), ([2, -1], -1), ([3, 0, -2], 0)):
        with pytest.raises(DomainError, match=f"need split j >= 1, got {bad}$"):
            estimate_coupling_delta(DoublingMap(), [3], js, reps=4, seed=1)
    out = tmp_path / "coup.csv"
    res = CliRunner().invoke(main, ["estimate-coupling", "--model", "doubling-map", "--r-grid",
                                    "1", "--j-grid", "2,0", "--reps", "3", "--out", str(out)])
    assert res.exit_code == 1 and res.output == "Error: need split j >= 1, got 0\n"
    assert not out.exists()
    # derive_seed keys by j mod 2^64, so a j past it would read a smaller j's pairs
    res = CliRunner().invoke(main, ["estimate-coupling", "--model", "doubling-map", "--r-grid",
                                    "1", "--j-grid", f"1,{2**64 + 1}", "--reps", "3"])
    assert res.exit_code == 1
    assert res.output == f"Error: need split j <= 2^64 - 1, got {2**64 + 1}\n"


def test_simulate_coupled_block_matches_batch():
    block = simulate_coupled_block(DoublingMap(), 4, 314)
    assert block.original.size == 4 and block.starred.size == 4
    sums = coupled_distance_sums(DoublingMap(), [4], np.array([314], dtype=np.uint64))
    assert np.sum(np.abs(block.original - block.starred)) == pytest.approx(float(sums[0, 0]), abs=1e-15)


def test_coupled_block_sums_marginals_agree():
    # the starred start is stationary too, so block sums from both runs
    # should be indistinguishable in distribution
    # the pairs run from i = 1; the block i = r .. 2r-1 is the last r
    model, r, seeds = DoublingMap(), 10, _seeds(2718, 10_000)
    xo = simulate_batch(model, 2 * r - 1, derive_seed(seeds, processes._LANE_ORIGINAL))[:, r - 1:]
    ds = np.array(list(_differences(model, r, seeds))[r - 1:]).T
    so, ss = xo.sum(axis=1), (xo - ds).sum(axis=1)
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
    f = ObservableF(kind="centered-cosine", mu=0.0, omega=2)
    w = 4.0 * math.pi
    x = np.linspace(0, 1, 101)
    assert np.allclose(f.values(x), np.cos(w * x) / (2.0 * w))
    assert np.all(np.abs(f.values(x)) <= 1.0 / (8.0 * math.pi) + 1e-15)


def test_observable_validation():
    with pytest.raises(ValidationError):
        ObservableF(kind="weird", mu=0.0)
    with pytest.raises(DomainError):
        ObservableF(kind="centered-cosine", mu=0.0, omega=0)
    # |f| reaches 1/(4 pi) + 10 > 1/2
    with pytest.raises(ValidationError, match="1/2") as ei:
        ObservableF(kind="centered-cosine", mu=10.0)
    assert ei.value.field == "mu"
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
    # the exact mu = Re prod_i phi(w psi_i) / (2 w), against the same product
    # in complex arithmetic with no cycle reduction, over psi to 200 terms
    model = LipschitzKernelChain(kappa=0.5)
    f = observable_for(model, "centered-cosine")
    w = 2.0 * math.pi
    prod = 1.0
    for p in exact_psi(model, 200)[0]:
        t = w * float(p)
        prod *= (cmath.exp(1j * t) - 1.0) / (1j * t)
    assert f.mu == pytest.approx(prod.real / (2.0 * w), rel=1e-12)
    assert f.mu != 0.0
    draws = stationary_init_batch(model, _seeds(404, 200_000))
    vals = f.values(draws)
    assert abs(np.mean(vals)) < 4.0 * np.std(vals, ddof=1) / math.sqrt(vals.size)


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
    st.lists(st.integers(1, 150), min_size=1, max_size=5).map(lambda ks: ks + ks[:1]),
    st.integers(1, 5),
    st.integers(0, 2**63 - 1),
)
@example(DoublingMap(), "centered-identity", [128, 1, 63, 64, 65, 129, 1], 3, 5)
@example(DoublingMap(), "centered-identity", [64, 128, 1, 64], 2, 9)
def test_observable_prefix_sums_read_one_run(model, kind, ks, reps, seed):
    # every column equals the run for that k alone bit for bit. The per-step
    # path reads one run out to max(ks): each column is its running sum at k,
    # a time-ordered sum over the path. The doubling map's centered identity
    # is summed in closed form without a run, within 1e-12 of that sum.
    closed = isinstance(model, DoublingMap) and kind == "centered-identity"
    f = observable_for(model, kind)
    seeds = _seeds(seed, reps)
    runs = []
    real = processes._states

    def counting(model, n, seeds):
        runs.append(n)
        return real(model, n, seeds)

    with mock.patch.object(processes, "_states", counting):
        shared = observable_prefix_sums(model, f, ks, seeds)
    assert runs == ([] if closed else [max(ks)])
    assert shared.shape == (reps, len(ks))
    values = f.values(simulate_batch(model, max(ks), seeds))
    for col, k in zip(shared.T, ks):
        assert np.array_equal(col, observable_sums(model, f, k, seeds))
        ref = np.zeros(reps)
        for t in range(k):
            ref += values[:, t]
        if closed:
            assert np.max(np.abs(col - ref)) <= 1e-12
        else:
            assert np.array_equal(col, ref)


def test_doubling_identity_sums_match_exact_rational_sums():
    # the closed form against S_k summed exactly over the same draws: X_0 =
    # fl(u0) 2^-64 as start makes it and X_t = (X_{t-1} + b_t) / 2, with b_t
    # bit t-1 of the word stream w_1, w_2, ... In units of 2^-(64+K), X_t is
    # a multiple of 2^(K-t), so every halving up to t = K is exact.
    model = DoublingMap()
    f = observable_for(model, "centered-identity")
    ks = [1, 2, 63, 64, 65, 127, 128, 129, 1000]
    K, reps = max(ks), 200
    seeds = _seeds(2026, reps)
    closed = observable_prefix_sums(model, f, ks, seeds)
    stepped = np.cumsum(f.values(simulate_batch(model, K, seeds)), axis=1)[:, [k - 1 for k in ks]]
    gen = VectorXoshiro(seeds)
    u0 = gen.next_u64()
    words = [gen.next_u64() for _ in range(-(-K // 64))]
    scale = 2 ** (64 + K)
    closed_err, stepped_err = [], []
    for lane in range(reps):
        bits = sum(int(w[lane]) << (64 * q) for q, w in enumerate(words))
        x = int(float(u0[lane])) << K
        total, c = 0, 0
        for t in range(1, K + 1):
            x = (x + ((bits >> (t - 1)) & 1) * scale) >> 1
            total += x - scale // 2
            if t == ks[c]:
                exact = Fraction(total, scale)
                closed_err.append(abs(Fraction(closed[lane, c]) - exact))
                stepped_err.append(abs(Fraction(stepped[lane, c]) - exact))
                c += 1
    assert max(closed_err) <= 1e-14
    assert max(closed_err) <= max(stepped_err)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 1000])
def test_closed_form_draws_what_the_per_step_run_draws(n):
    # u0, then one word per 64 steps, however many ends share the call
    model, seeds = DoublingMap(), _seeds(6, 2)
    draws = []
    real = VectorXoshiro.next_u64

    def counting(gen):
        out = real(gen)
        draws.append(out.copy())
        return out

    with mock.patch.object(VectorXoshiro, "next_u64", counting):
        observable_prefix_sums(model, observable_for(model, "centered-identity"),
                               [1, n, 64, n], seeds)
        closed, draws[:] = draws[:], []
        observable_sums(model, ObservableF(kind="centered-identity", mu=0.375), max(n, 64),
                        seeds)
    assert len(closed) == len(draws) == 1 + -(-max(n, 64) // 64)
    assert all(np.array_equal(c, d) for c, d in zip(closed, draws))


def test_observable_prefix_sums_arguments():
    f = observable_for(IidUniform(), "centered-identity")
    for ks in ([], [0], [3, 0]):
        with pytest.raises(DomainError):
            observable_prefix_sums(IidUniform(), f, ks, _seeds(1, 4))
    with pytest.raises(DomainError):
        observable_sums(IidUniform(), f, 0, _seeds(1, 4))
    # a run past 2^32 steps is refused, also where a closed form would walk it
    too_long = rf"need sum lengths 1 <= k <= 2\^32 steps, got \[3, {2**64 + 1}\]$"
    for model in (IidUniform(), DoublingMap()):
        g = observable_for(model, "centered-identity")
        with pytest.raises(DomainError, match=too_long):
            observable_prefix_sums(model, g, [3, 2**64 + 1], _seeds(1, 4))
    res = CliRunner().invoke(main, ["estimate-variance", "--model", "doubling-map", "--k-grid",
                                    str(2**64 + 1), "--reps", "2"])
    assert res.exit_code == 1
    assert res.output == f"Error: need sum lengths 1 <= k <= 2^32 steps, got [{2**64 + 1}]\n"


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
    assert prof.source == "analytic"
    assert prof.sigma_at(5) == pytest.approx(doubling_sigma_sq(5), abs=1e-16)

    flat = analytic_sigma_profile(IidUniform(), observable_for(IidUniform(), "centered-identity"), 6)
    assert np.all(flat.sigma_sq == 1.0 / 12.0)

    # the doubling map's cosine covariances vanish, so sigma_k^2 = Var f = 1/(8 w^2)
    cos = analytic_sigma_profile(DoublingMap(), observable_for(DoublingMap(), "centered-cosine"), 6)
    assert np.all(cos.sigma_sq == cos.sigma_sq[0])
    assert cos.sigma_sq[0] == pytest.approx(1.0 / (32.0 * math.pi**2), rel=1e-15)

    # AR(1): Cov_r = g0 kappa^r with g0 = (1 - kappa) / (12 (1 + kappa)), so
    # sigma_k^2 = g0 [(1 + kappa)/(1 - kappa) - 2 kappa (1 - kappa^k) / (k (1 - kappa)^2)]
    kappa = 0.5
    km = LipschitzKernelChain(kappa=kappa)
    prof = analytic_sigma_profile(km, observable_for(km, "centered-identity"), 60)
    ks = np.arange(1, 61)
    g0 = (1.0 - kappa) / (12.0 * (1.0 + kappa))
    closed = g0 * ((1.0 + kappa) / (1.0 - kappa)
                   - 2.0 * kappa * (1.0 - kappa**ks) / (ks * (1.0 - kappa) ** 2))
    assert np.allclose(prof.sigma_sq, closed, rtol=1e-12, atol=0.0)


# fixed before the run: |exact - estimate| <= 4.5 standard errors
_Z_BOUND = 4.5


@pytest.mark.parametrize("kind, omega", [("centered-identity", 1), ("centered-cosine", 1),
                                         ("centered-cosine", 3)])
@pytest.mark.parametrize("model", _MODELS, ids=_name)
def test_second_order_is_exact(model, kind, omega):
    # mu and sigma_k^2 from psi and the innovation law, against Monte Carlo at
    # fixed seeds, and against brute force where an exact oracle exists
    f = observable_for(model, kind, omega)
    mu, sigma_sq = second_order(model, kind, omega, 1000)
    assert mu == f.mu
    g = f.values(stationary_init_batch(model, _seeds(606, 1 << 16))) + f.mu
    assert abs(np.mean(g) - mu) <= _Z_BOUND * np.std(g, ddof=1) / math.sqrt(g.size)
    for est in estimate_sigma_profile(model, f, [1, 10, 100], reps=4096, seed=707):
        assert abs(sigma_sq[est.k - 1] - est.sigma_sq_hat) <= _Z_BOUND * est.std_error
    if kind == "centered-identity":
        # sigma_k^2 = (1/k) sum_{s,t<k} Cov_{|s-t|}, Cov_r = Var xi sum_i psi_i psi_{i+r}
        psi = [float(p) for p in exact_psi(model, 300)[0]]
        cov = [model.law.variance * math.fsum(a * b for a, b in zip(psi, psi[r:]))
               for r in range(100)]
        for k in (1, 10, 100):
            brute = math.fsum(cov[abs(s - t)] for s in range(k) for t in range(k)) / k
            assert sigma_sq[k - 1] == pytest.approx(brute, rel=1e-12)
    if isinstance(model, DoublingMap) and kind == "centered-identity":
        ks = np.arange(1.0, 1001.0)
        assert np.allclose(sigma_sq, doubling_sigma_sq(ks), rtol=1e-12, atol=0.0)
    elif isinstance(model, DoublingMap):
        assert np.all(sigma_sq == sigma_sq[0])  # every Cov_r, r >= 1, is exactly 0


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
    # replication 0 of j = 3, over its block i = r .. 2r - 1
    block = simulate_coupled_block(DoublingMap(), 4, coupling_seeds(55, 3, 0, 1)[0])
    assert rows[0] == ["i", "x", "x_star", "dist"]
    assert [int(r[0]) for r in rows[1:]] == [4, 5, 6, 7]
    for off, row in enumerate(rows[1:]):
        assert float(row[1]) == block.original[off]
        assert float(row[2]) == block.starred[off]
        assert float(row[3]) == block.distance[off]

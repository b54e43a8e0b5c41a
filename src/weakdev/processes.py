"""Example processes on [0, 1]: simulators, coupled block pairs, exact moments.

Every model is driven by the package RNG (one xoshiro256++ stream per
replication), so a (model, n, seed) triple fixes the trajectory bit for bit.
Each model is a linear recursion declared by its coefficients and its
innovation law, run by one step, ProcessModel.stepper: for the start, which
is from rest and draws burn_in presample innovations (enough that the psi
tail, a bound on the start's distance from the stationary state, is at most
2^-40), for the per-step run and for the coupled difference run; a run
continues a start's history (xs, us) as model.stepper(*history). The
doubling map alone starts exactly, drawing that history. psi and the law
give every moment exactly (second_order), and linf_profile gives the linf
profile each simulator satisfies (by a generator in coefficients).

Observable sums take one of two paths. Where a model has a closed form for
sum_{t<=k} f(X_t) in its draws (exact_prefix_sums: today the doubling map's
centered identity, a popcount plus one 64-bit window per k), the sum is
computed from the same draws without stepping, nearer the exact rational
sum than a float recurrence gets. Every other (model, f) pair steps the
run and sums f(X_t) in time order.

Coupled blocks realise the almost-sure coupling behind the linf profiles.
Every model starts stationary (the doubling map exactly, the others within
the psi tail at burn_in), so the law of a pair split at time j does not
depend on j, and a pair is split at its start: the original and the starred
trajectory start on their own child streams, and from the first step on the
starred one shares every innovation of the original. So the starred block is
independent of the original's time-0 state and everything before it, while
keeping the original block's distribution. One stacked start of 2R lanes
serves both: the original on lanes :R, the starred on lanes R:. After it
the pair is run as its difference D_i = X_i - X*_i alone, by the stepper
unclipped on a zero innovation (_differences states when that is exact).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from collections.abc import Callable
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import count, islice, takewhile
from operator import mul

import numpy as np

from .bounds import DependenceProfile, VarianceProfile, variance_profile
from .coefficients import (TRUNCATION_TAIL, GeometricWeights, WeightSequence, _check_n,
                           bernoulli_shift_linf_profile, doubling_map_profile,
                           infinite_memory_profile, markov_contraction_profile)
from .errors import DomainError, ValidationError
from .rng import VectorXoshiro, derive_seed

_U = np.uint64
_ONE = _U(1)
_BIT_POSITIONS = tuple(_U(pos) for pos in range(64))

# lanes for deriving child streams from a replication seed
_LANE_ORIGINAL = 1
_LANE_STARRED = 2

# multiply-adds the psi derivation may spend before it refuses a model
_PSI_BUDGET = 10**6

# second_order cuts psi at the first L with Psi_L below this
_CUT_TAIL = 2.0**-60

# the most steps one run may take; a longer one is refused before it draws
_MAX_STEPS = 2**32


# ---------------------------------------------------------------------------
# models


@dataclass(frozen=True)
class InnovationLaw:
    """The law of a model's iid innovations xi_t in [0, 1]. Each call of the
    source draw(gen) returns a fresh, writable array of one draw per lane;
    phi(s) = E exp(2 pi i s xi), s in cycles."""

    mean: float
    variance: float
    draw: Callable[[VectorXoshiro], Callable[[], np.ndarray]]
    phi: Callable[[np.ndarray], np.ndarray]


def _half_turns(s: np.ndarray) -> np.ndarray:
    """exp(i pi s), with s reduced exactly by its nearest multiple of 1/2, so
    that every multiple of 1/2 gives exact zeros and ones."""
    q = np.rint(2.0 * s)
    turn = np.array([1.0, 1.0j, -1.0, -1.0j])[np.mod(q, 4.0).astype(np.intp)]
    return turn * np.exp(1j * math.pi * (s - 0.5 * q))


def _uniform_phi(s: np.ndarray) -> np.ndarray:
    """(e^{2 pi i s} - 1) / (2 pi i s) = exp(i pi s) sin(pi s) / (pi s)."""
    h = _half_turns(s)
    return h * np.divide(h.imag, math.pi * s, out=np.ones_like(s), where=s != 0.0)


def _bit_phi(s: np.ndarray) -> np.ndarray:
    """(1 + e^{2 pi i s}) / 2 = exp(i pi s) cos(pi s)."""
    h = _half_turns(s)
    return h * h.real


def _bits(gen: VectorXoshiro):
    """Fair bits, 64 per u64 draw, low bit first within each draw."""
    words = (gen.next_u64() for _ in count())  # each drawn when its first bit is read
    return (((w >> p) & _ONE).astype(np.float64) for w in words for p in _BIT_POSITIONS).__next__


UNIFORM = InnovationLaw(0.5, 1.0 / 12.0, lambda gen: gen.next_uniform, _uniform_phi)
BIT = InnovationLaw(0.5, 0.25, _bits, _bit_phi)


class ProcessModel:
    """A seeded process on [0, 1]; subclasses are frozen config dataclasses.

    A model declares b0, ar = (a_1..a_p), ma = ((l, b_l), ...) and the law of
    its innovations xi_t in [0, 1] (UNIFORM or BIT), for the recursion
    X_t = clip(b0 xi_t + sum_j a_j X_{t-j} + sum_l b_l xi_{t-l}, 0, 1).
    stepper builds the one step(u) that runs it: the start's burn-in, the
    per-step run and the coupled difference run. start(gen) returns the
    history (xs, us) at time 0, X_0 first, and every run continues it as
    self.stepper(*history); an exact start returns the history it draws.
    The history belongs to the run, so the model stays a hashable value.
    """

    name: str  # CLI and config variant
    law = UNIFORM
    b0 = 1.0
    ar: tuple[float, ...] = ()
    ma: tuple[tuple[int, float], ...] = ()

    def psi(self):
        """Yield (psi_i, Psi_i) for i = 0, 1, ..., where X_t = sum_i psi_i xi_{t-i}
        when no clip binds and Psi_i = sum_{l >= i} psi_l.

        psi = B(z) / A(z) by power-series division: psi_i = b_i + sum_j a_j
        psi_{i-j}. The tails follow Psi_i = sum_{l >= i} b_l + sum_j a_j
        Psi_{max(i-j, 0)} from Psi_0 = B(1) / A(1), so no tail is a difference
        of sums near 1. Past _PSI_BUDGET multiply-adds the model is refused,
        since its burn-in would cost as much per lane.
        """
        a, ma = self.ar, self.ma
        psis = deque([0.0] * len(a), maxlen=len(a))  # psis[j] = psi_{i-1-j}
        # Psi_0 = sum_i psi_i = E X / E xi at i <= 0
        tails = deque([self.stationary_mean() / self.law.mean] * len(a), maxlen=len(a))
        for i in count():
            if (i + 1) * (len(a) + 1) > _PSI_BUDGET:
                raise ValidationError(f"{self.name}: psi needs over {_PSI_BUDGET} multiply-adds "
                                      "to reach its burn-in", field="truncation")
            b0 = self.b0 if i == 0 else 0.0
            psi_i = b0 + sum(c for lag, c in ma if lag == i) + sum(map(mul, a, psis))
            tail_i = b0 + sum(c for lag, c in ma if lag >= i) + sum(map(mul, a, tails))
            psis.appendleft(psi_i)
            tails.appendleft(tail_i)
            yield psi_i, tail_i

    @cached_property
    def burn_in(self) -> int:
        """Presample innovations the start draws: the fewest I, at least the
        recursion's longest lag, with Psi_I <= TRUNCATION_TAIL. From rest,
        Psi_I bounds |X_0 - X_0^stationary|."""
        reach = max([len(self.ar), *(lag for lag, _ in self.ma)])
        return next(i for i, (_, tail) in enumerate(self.psi())
                    if i >= reach and tail <= TRUNCATION_TAIL)

    def stepper(self, xs: deque, us: deque, clip: bool = True):
        """step(u), which maps the innovation xi_t = u to the state X_t and then
        records both in xs and us: the last max(p, 1) states and the last
        max-lag innovations, newest first (xs[j] = X_{t-1-j}, us[l] = xi_{t-1-l}).

        With clip, a bound is applied only where it can bind: 0 when a
        coefficient is negative, 1 when the positive ones' float sum in step
        order exceeds 1. Otherwise, by monotone rounding, X_t stays in [0, 1]
        unclipped.
        """
        b0 = self.b0
        taps = [(a, xs, j) for j, a in enumerate(self.ar) if a != 0.0]
        taps += [(c, us, lag - 1) for lag, c in self.ma]
        coefs = [b0, *(c for c, _, _ in taps)]
        floor = clip and min(coefs) < 0.0
        cap = clip and sum(max(c, 0.0) for c in coefs) > 1.0

        def step(u):
            x = b0 * u
            for c, hist, j in taps:
                x += c * hist[j]
            if floor:
                np.maximum(x, 0.0, out=x)
            if cap:
                np.minimum(x, 1.0, out=x)
            xs.appendleft(x)
            us.appendleft(u)
            return x

        return step

    def start(self, gen: VectorXoshiro):
        """The history (xs, us) at time 0, so xs[0] = X_0: from rest (zero
        history), burn_in innovations through the stepper."""
        rest, depth = np.zeros(gen.n_streams), max(len(self.ar), 1)
        width = max((lag for lag, _ in self.ma), default=0)
        xs, us = deque([rest] * depth, maxlen=depth), deque([rest] * width, maxlen=width)
        step, innov = self.stepper(xs, us), self.law.draw(gen)
        for _ in range(self.burn_in):
            step(innov())
        return xs, us

    def stationary_mean(self) -> float:
        """E X_t = E xi sum_i psi_i = E xi B(1) / A(1)."""
        return self.law.mean * ((self.b0 + sum(c for _, c in self.ma)) / (1.0 - sum(self.ar)))

    def describe(self) -> dict:
        """Run-report metadata: the fields, the burn-in and its psi tail, which
        bounds the start's distance from the stationary state."""
        return {"model": self.name, **asdict(self), "burn_in": self.burn_in,
                "truncation_tail": next(islice(self.psi(), self.burn_in, None))[1]}

    def exact_prefix_sums(self, f: "ObservableF", ends: list[int],
                          seeds: np.ndarray) -> np.ndarray | None:
        """sum_{t<=k} f(X_t) without stepping, one row per k in the sorted,
        distinct ends and one column per seed, where the sum is a closed form
        in the run's draws; None sends observable_prefix_sums to the per-step
        run. Each row must depend on its own k alone."""
        return None

    def linf_profile(self, n: int) -> DependenceProfile:
        """The linf profile delta'_1..delta'_n the simulator provably satisfies."""
        raise ValidationError(f"no dependence profile for model {type(self).__name__}",
                              field="model")


@dataclass(frozen=True)
class IidUniform(ProcessModel):
    """Independent Uniform[0, 1] draws."""

    name = "iid-uniform"

    def linf_profile(self, n):
        return DependenceProfile(delta=np.zeros(_check_n(n)), kind="linf")


@dataclass(frozen=True)
class DoublingMap(ProcessModel):
    """X_t = (X_{t-1} + xi_t) / 2 with fair coin innovations.

    Stationary law is Uniform[0, 1]; the time-reversed binary expansion makes
    the exact stationary initial state a single 64-bit draw.
    """

    name = "doubling-map"
    law = BIT
    b0 = 0.5
    ar = (0.5,)
    burn_in = 64  # start reads 64 presample bits in one draw

    def start(self, gen):
        x = gen.next_u64().astype(np.float64) * 2.0**-64
        return deque([x], maxlen=1), deque(maxlen=0)

    def linf_profile(self, n):
        return doubling_map_profile(n)

    def exact_prefix_sums(self, f, ends, seeds):
        """The centered identity (mu = 1/2, where no clip binds), summed in
        closed form.

        X_t - X_{t-1}/2 = b_t/2 telescopes to sum_{t<=k} X_t = N_k + X_0 - X_k,
        with N_k the number of ones among b_1..b_k, so S_k = (N_k - k/2) +
        (X_0 - X_k). X_k = 0.b_k b_{k-1}...b_1 followed by the bits of u0,
        whose leading 64 bits are the window of the word stream u0, w_1, w_2,
        ... that ends at bit k. The draws are the per-step run's: u0, then
        one word per 64 steps.
        """
        if f.kind != "centered-identity" or f.mu != 0.5:
            return None
        gen = VectorXoshiro(seeds)
        lo = gen.next_u64()  # w_q, the word that holds bit k; w_0 = u0
        x0 = lo.astype(np.float64)
        x0 *= 2.0**-64
        hi = gen.next_u64()  # w_{q+1}, drawn only while a later end reaches it
        ones = np.zeros(len(seeds), dtype=np.int64)  # the ones in w_1..w_q
        win = np.empty_like(lo)
        out = np.empty((len(ends), len(seeds)))
        q = 0
        for row, k in zip(out, ends):
            while q < k // 64:
                ones += np.bitwise_count(hi)
                lo, q = hi, q + 1
                hi = gen.next_u64() if ends[-1] > 64 * q else None
            p = k - 64 * q
            centered = ones - 0.5 * k  # N_k - k/2, exact
            if p:  # bits k..k+63 of the stream: the top of w_q, the bottom of w_{q+1}
                np.right_shift(lo, _U(p), out=win)
                win |= hi << _U(64 - p)
                centered += np.bitwise_count(hi & _U((1 << p) - 1))
            np.multiply(win if p else lo, 2.0**-64, out=row)  # X_k
            np.subtract(x0, row, out=row)
            row += centered
        return out


@dataclass(frozen=True)
class LipschitzKernelChain(ProcessModel):
    """X_t = kappa X_{t-1} + (1 - kappa) U_t, U_t iid Uniform[0, 1]."""

    kappa: float
    name = "kernel-chain"
    b0 = property(lambda self: 1.0 - self.kappa)
    ar = property(lambda self: (self.kappa,))

    def __post_init__(self):
        if not 0.0 < self.kappa < 1.0:
            raise DomainError(f"need 0 < kappa < 1, got {self.kappa}", field="kappa")

    def linf_profile(self, n):
        return markov_contraction_profile(self.kappa, n)


@dataclass(frozen=True)
class BernoulliShiftGeometric(ProcessModel):
    """X_t = (1 - theta) sum_{i < M} theta^i U_{t-i}, truncated at M terms:
    X_t = theta X_{t-1} + (1 - theta) U_t - (1 - theta) theta^M U_{t-M}."""

    theta: float
    truncation: int | None = None
    name = "bernoulli-shift"
    b0 = property(lambda self: 1.0 - self.theta)
    ar = property(lambda self: (self.theta,))
    ma = property(lambda self: ((self.window, -(1.0 - self.theta) * self.theta**self.window),))

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise DomainError(f"need 0 < theta < 1, got {self.theta}", field="theta")
        if self.truncation is not None and self.truncation < 1:
            raise DomainError(f"need truncation >= 1, got {self.truncation}",
                              field="truncation")

    @cached_property
    def window(self) -> int:
        """Effective truncation M: neglected weight theta^M <= 2^-40 by default."""
        if self.truncation is not None:
            return self.truncation
        return math.ceil(40.0 * math.log(2.0) / math.log(1.0 / self.theta))

    def linf_profile(self, n):
        # lag-i innovation weight (1-theta) theta^i gives block tails
        # r delta'_r = theta^r / (1-theta)
        th = self.theta
        return bernoulli_shift_linf_profile(
            th / (1.0 - th), GeometricWeights((1.0 - th) / th, th), n
        )


@dataclass(frozen=True)
class InfiniteMemoryChain(ProcessModel):
    """X_t = c0 xi_t + sum_{j <= J} a_j X_{t-j} with c0 = 1 - sum_j a_j.

    The weights must be summable below 1; J is the effective truncation.
    """

    weights: WeightSequence
    truncation: int | None = None
    name = "infinite-memory"
    b0 = property(lambda self: 1.0 - self.weights.total)
    ar = cached_property(lambda self: tuple(map(self.weights.term, range(1, self.window + 1))))

    def __post_init__(self):
        if self.weights.total >= 1.0:
            raise ValidationError(
                f"need sum of weights < 1, got {self.weights.total}", field="weights"
            )
        if self.truncation is not None and self.truncation < 1:
            raise DomainError(f"need truncation >= 1, got {self.truncation}",
                              field="truncation")
        if self.truncation is None:
            self.window  # resolve the default now, so a config without one fails when built

    @cached_property
    def window(self) -> int:
        if self.truncation is not None:
            return self.truncation
        return self.weights.suggest_truncation(TRUNCATION_TAIL)

    def linf_profile(self, n):
        return infinite_memory_profile(self.weights, n)


MODELS = {
    cls.name: cls
    for cls in (IidUniform, DoublingMap, LipschitzKernelChain, BernoulliShiftGeometric,
                InfiniteMemoryChain)
}


# ---------------------------------------------------------------------------
# simulation engine


def _states(model: ProcessModel, n: int, seeds: np.ndarray):
    """X_1..X_n over one stream per seed, n refused before the start draws."""
    if not 1 <= n <= _MAX_STEPS:
        raise DomainError(f"need 1 <= n <= 2^32 steps, got {n}")
    gen = VectorXoshiro(seeds)
    step, innov = model.stepper(*model.start(gen)), model.law.draw(gen)
    return (step(innov()) for _ in range(n))


def stationary_init_batch(model: ProcessModel, seeds: np.ndarray) -> np.ndarray:
    """Time-0 state for each replication seed."""
    return model.start(VectorXoshiro(seeds))[0][0]


def simulate_batch(model: ProcessModel, n: int, seeds: np.ndarray) -> np.ndarray:
    """(R, n) trajectories, one row per seed, filled one column per step."""
    states = _states(model, n, seeds)  # refuses a bad n before the allocation
    out = np.empty((len(seeds), n))
    for t, x in enumerate(states):
        out[:, t] = x
    return out


def simulate(model: ProcessModel, n: int, seed: int) -> np.ndarray:
    """Trajectory X_1..X_n for one seed."""
    return simulate_batch(model, n, np.array([seed], dtype=np.uint64))[0]


def observable_prefix_sums(model: ProcessModel, f: "ObservableF", ks, seeds: np.ndarray) -> np.ndarray:
    """sum_{t<=k} f(X_t), one row per seed and one column per k in ks.

    Every column equals the call for that k alone bit for bit. Where
    model.exact_prefix_sums has a closed form for f, each column is that
    form at its own k, with no run stepped. Otherwise one run out to max(ks)
    serves every k: the running sum is read off as the run passes each k,
    so every column is summed in time order, and no path is stored.
    """
    ks = [int(k) for k in ks]
    if not ks or min(ks) < 1 or max(ks) > _MAX_STEPS:
        raise DomainError(f"need sum lengths 1 <= k <= 2^32 steps, got {ks}")
    ends = sorted(set(ks))
    out = model.exact_prefix_sums(f, ends, seeds)
    if out is None:
        out = np.empty((len(ends), len(seeds)))
        acc = np.zeros(len(seeds))
        c = 0
        for t, x in enumerate(_states(model, ends[-1], seeds), start=1):
            acc += f.values(x)
            if t == ends[c]:
                out[c] = acc
                c += 1
    return out[[ends.index(k) for k in ks]].T


def observable_sums(model: ProcessModel, f: "ObservableF", n: int, seeds: np.ndarray) -> np.ndarray:
    """S(f) = sum_{t<=n} f(X_t) per replication, streamed without storing paths."""
    return observable_prefix_sums(model, f, [n], seeds)[:, 0]


# ---------------------------------------------------------------------------
# coupled blocks


@dataclass(frozen=True, eq=False)
class CoupledBlock:
    """Original and starred values over block i = r .. 2r-1 after the split,
    and their distances |X_i - X*_i|."""

    r: int
    original: np.ndarray
    starred: np.ndarray
    distance: np.ndarray


def _differences(model: ProcessModel, r: int, seeds: np.ndarray):
    """Yield D_i = X_i - X*_i for i = 1 .. 2r-1 after the split, one lane per seed.

    That covers every block i = r' .. 2r'-1 with r' <= r. One stacked start
    of 2R lanes serves the pair: lanes :R start the original on its child
    stream, lanes R: the starred run on its own. After the split both share
    every innovation. Every model is a linear recursion in which no clip
    binds in exact arithmetic, so the shared innovations cancel: D_i =
    sum_j a_j D_{i-j} + sum_l b_l (xi_{i-l} - xi*_{i-l}), in which only the
    presample differences, i - l <= 0, are not zero. So D is the model's own
    stepper, run unclipped on a zero innovation from the difference of the
    two starts' histories. A model added later must meet that condition too:
    a binding clip or a nonlinear step would leave the shared innovations in
    D, and the pair would have to be stepped.
    """
    if not 1 <= 2 * r - 1 <= _MAX_STEPS:
        raise DomainError(f"need block length r >= 1 and 2r - 1 <= 2^32 steps, got {r}")
    R = len(seeds)
    gen = VectorXoshiro(derive_seed(seeds, [[_LANE_ORIGINAL], [_LANE_STARRED]]).ravel())
    # the history is this run's own: each difference is taken in place, in its
    # original half, and a start's deques are full, so extend replaces each item
    hist = model.start(gen)
    for h in hist:
        h.extend([np.subtract(v[:R], v[R:], out=v[:R]) for v in h])
    step, zero = model.stepper(*hist, clip=False), np.zeros(R)
    for _ in range(2 * r - 1):
        yield step(zero)


def coupled_distance_sums(model: ProcessModel, rs, seeds: np.ndarray) -> np.ndarray:
    """sum_{i=r}^{2r-1} |X_i - X*_i| after the split, one row per seed and one
    column per r in rs.

    One difference run out to 2 max(rs) - 1 serves every r. Each column is
    summed in time order as the run goes, so it equals the single-r sum bit
    for bit, and no path is stored.
    """
    rs = [int(r) for r in rs]
    if not rs or min(rs) < 1:
        raise DomainError(f"need block lengths r >= 1, got {rs}")
    ends = sorted(set(rs))
    acc = np.zeros((len(ends), len(seeds)))
    for i, d in enumerate(_differences(model, ends[-1], seeds), start=1):
        # i lies in block r exactly when (i + 1) / 2 <= r <= i
        acc[bisect_left(ends, (i + 2) // 2):bisect_right(ends, i)] += np.abs(d)
    return acc[[ends.index(r) for r in rs]].T


def simulate_coupled_block(model: ProcessModel, r: int, seed: int) -> CoupledBlock:
    """One coupled block pair for one seed. The original is stepped on its own
    child stream, the stream of the original half of the coupled run, and the
    starred values are X_i - D_i."""
    seeds = np.array([seed], dtype=_U)
    d = np.array([d[0] for d in _differences(model, r, seeds)][r - 1:])
    x = simulate_batch(model, 2 * r - 1, derive_seed(seeds, _LANE_ORIGINAL))[0, r - 1:]
    return CoupledBlock(r=r, original=x, starred=x - d, distance=np.abs(d))


# ---------------------------------------------------------------------------
# observables


OBSERVABLES = ("centered-identity", "centered-cosine")


@dataclass(frozen=True)
class ObservableF:
    """Centered observable with |f| <= 1/2 and Lipschitz constant <= 1: the
    identity clipped to [-1/2, 1/2] about mu, or cos(w x) / (2 w) - mu with
    w = 2 pi omega, of Lipschitz constant 1/2 and |f| <= 1/(4 pi omega) + |mu|."""

    kind: str
    mu: float
    omega: int = 1

    def __post_init__(self):
        if self.kind not in OBSERVABLES:
            raise ValidationError(f"unknown observable kind {self.kind!r}", field="kind")
        if self.kind == "centered-identity":
            return
        if self.omega < 1:
            raise DomainError(f"need omega >= 1, got {self.omega}", field="omega")
        # positive form, so a NaN mu fails it too
        if not 1.0 / (4.0 * math.pi * self.omega) + abs(self.mu) <= 0.5:
            raise ValidationError(f"cosine observable needs 1/(4 pi omega) + |mu| <= 1/2, "
                                  f"got omega={self.omega}, mu={self.mu}", field="mu")

    def values(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "centered-identity":
            return np.clip(x - self.mu, -0.5, 0.5)
        w = 2.0 * math.pi * self.omega
        return np.cos(w * x) / (2.0 * w) - self.mu


def observable_for(model: ProcessModel, kind: str, omega: int = 1) -> ObservableF:
    """Observable centered under the model's stationary law: the identity by
    stationary_mean(), the cosine by the exact mu of second_order."""
    if kind not in OBSERVABLES:
        raise ValidationError(f"unknown observable kind {kind!r}", field="kind")
    if kind == "centered-identity":
        return ObservableF(kind, model.stationary_mean())
    if omega < 1:
        raise DomainError(f"need omega >= 1, got {omega}", field="omega")
    return ObservableF(kind, second_order(model, kind, omega, 1)[0], omega)


# ---------------------------------------------------------------------------
# exact second-order theory


def second_order(model: ProcessModel, kind: str, omega: int, n: int) -> tuple[float, np.ndarray]:
    """mu = E g(X_0) and sigma_1^2..sigma_n^2 of f = g - mu, exactly from psi and
    the innovation law: g(x) = x, or cos(w x) / (2 w) with w = 2 pi omega.

    The joint law of (X_0, X_r) is a product over the iid innovations, of
    characteristic function phi: E e^{i(u X_0 + v X_r)} =
    prod_{i<r} phi(v psi_i) prod_{m>=0} phi(u psi_m + v psi_{m+r}). The
    identity has mu = stationary_mean() and Cov_r = Var xi sum_i psi_i psi_{i+r};
    the cosine mu = Re prod_i phi(w psi_i) / (2 w) and Cov_r =
    Re(E e^{iw(X_0 + X_r)} + E e^{iw(X_0 - X_r)}) / (8 w^2) - mu^2. Then
    sigma_k^2 = Cov_0 + 2 sum_{r<k} (1 - r/k) Cov_r, by two cumulative sums.

    psi is cut at the first L with Psi_L < _CUT_TAIL (Cov_r = 0 for r >= L).
    As psi_i >= 0 and xi lies in [0, 1], the cut moves X_t by at most Psi_L,
    and each g is 1-Lipschitz with a range of length <= 1, so the error is at
    most Psi_L in mu and in each Cov_r, and k Psi_L in sigma_k^2 (below 1e-15
    at k = 1000). psi() refuses a cut over _PSI_BUDGET multiply-adds.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    psi = np.array([p for p, _ in takewhile(lambda pt: pt[1] >= _CUT_TAIL, model.psi())])
    lags = min(n, psi.size)
    if kind == "centered-identity":
        mu = model.stationary_mean()
        cov = model.law.variance * np.correlate(np.append(psi, np.zeros(lags - 1)), psi, "valid")
    else:
        phi, s, w = model.law.phi, omega * psi, 2.0 * math.pi * omega  # s: w psi in cycles
        mu = np.prod(phi(s)).real / (2.0 * w) + 0.0  # + 0.0 turns -0.0 into 0.0
        joint = 0.0  # E e^{iw(X_0 + X_r)} + E e^{iw(X_0 - X_r)}
        for v in (1.0, -1.0):  # one phi call per lag r keeps its memory O(L)
            lead = np.cumprod(np.append(1.0, phi(v * s[:lags - 1])))  # prod_{i<r} phi(v s_i)
            joint = joint + lead * [np.prod(phi(s + v * np.append(s[r:], np.zeros(r))))
                                    for r in range(lags)]
        cov = joint.real / (8.0 * w * w) - mu * mu
    ks = np.arange(1, n + 1)
    last = np.minimum(ks - 1, lags - 1)  # the largest lag below k with Cov_r kept
    # sums of Cov_r and of r Cov_r over 1 <= r <= last
    c1, c2 = np.cumsum(cov) - cov[0], np.cumsum(np.arange(lags) * cov)
    return float(mu), cov[0] + 2.0 * (c1[last] - c2[last] / ks)


def analytic_sigma_profile(model: ProcessModel, f: ObservableF, n: int) -> VarianceProfile:
    """The exact sigma_1^2..sigma_n^2 of f as observable_for builds it (f.mu does
    not enter: no clip binds, and a variance is shift-invariant)."""
    return variance_profile(second_order(model, f.kind, f.omega, n)[1], source="analytic")

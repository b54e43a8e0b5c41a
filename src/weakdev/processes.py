"""Example processes on [0, 1], their simulators, and coupled block pairs.

Every model is driven by the package RNG (one xoshiro256++ stream per
replication), so a (model, n, seed) triple fixes the trajectory bit for bit.
Initial states are drawn from the stationary law where it is exact (iid,
doubling map) and by documented burn-in or windowing elsewhere; truncation
and burn-in depths are chosen so the neglected mass is at most 2^-40.

Coupled blocks realise the almost-sure coupling behind the linf profiles:
the starred trajectory shares every innovation after the split time j and
uses fresh innovations (and a fresh initial state) up to j, so the starred
block is independent of the first j coordinates while keeping the original
block's distribution. One stacked run of 2R lanes steps both trajectories:
the original on lanes :R, the starred on lanes R:, whose innovations are
overwritten with the original's after j. The starred streams' own later
draws are discarded unread, and every step is elementwise over lanes, so
no coupled sum can depend on them.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bounds import VarianceProfile, variance_profile
from .coefficients import TRUNCATION_TAIL, WeightSequence
from .errors import DomainError, ValidationError
from .rng import VectorXoshiro, derive_child_array, derive_seed, replication_seeds

_U = np.uint64
_ONE = _U(1)
_BIT_POSITIONS = tuple(_U(pos) for pos in range(64))

# lanes for deriving child streams from a replication seed
_LANE_ORIGINAL = 1
_LANE_STARRED = 2


# ---------------------------------------------------------------------------
# models


class ProcessModel:
    """A seeded process on [0, 1]; subclasses are frozen config dataclasses.

    start(gen) draws the time-0 state on gen's parallel streams and returns
    it with step(x, innov), which maps the state at t-1 and the innovation
    at t to the state at t. Any further state (a window, a history) lives in
    step's closure, so the model itself stays an immutable, hashable value.
    """

    name: str  # CLI and config variant
    uniform_marginal = False  # stationary marginal is exactly Uniform[0, 1]

    def innovations(self, gen: VectorXoshiro):
        """Per-step innovation source: one array per call.

        Each call returns a fresh, writable array that shares no memory with
        the generator or an earlier call, so a caller may overwrite lanes of
        it (the coupled run copies the original's innovations into the
        starred lanes) before passing it to step.
        """
        return gen.next_uniform

    def start(self, gen: VectorXoshiro):
        raise NotImplementedError

    def stationary_mean(self) -> float:
        """E X_t under the (truncated) stationary law."""
        return 0.5

    def describe(self) -> dict:
        """Run-report metadata: parameters plus truncation error bounds."""
        return {"model": self.name}

    def analytic_sigma_sq(self, ks: np.ndarray) -> np.ndarray | None:
        """Closed-form sigma_k^2 of the centered identity at ks, if known."""
        return None


@dataclass(frozen=True)
class IidUniform(ProcessModel):
    """Independent Uniform[0, 1] draws."""

    name = "iid-uniform"
    uniform_marginal = True

    def start(self, gen):
        return gen.next_uniform(), lambda x, u: u

    def analytic_sigma_sq(self, ks):
        return np.full(ks.size, 1.0 / 12.0)


@dataclass(frozen=True)
class DoublingMap(ProcessModel):
    """X_t = (X_{t-1} + xi_t) / 2 with fair coin innovations.

    Stationary law is Uniform[0, 1]; the time-reversed binary expansion makes
    the exact stationary initial state a single 64-bit draw.
    """

    name = "doubling-map"
    uniform_marginal = True

    def innovations(self, gen):
        """Fair bits, 64 per u64 draw, low bit first within each draw."""

        def bits():
            while True:
                word = gen.next_u64()
                for pos in _BIT_POSITIONS:
                    yield ((word >> pos) & _ONE).astype(np.float64)

        return bits().__next__

    def start(self, gen):
        return gen.next_u64().astype(np.float64) * 2.0**-64, lambda x, b: 0.5 * (x + b)

    def analytic_sigma_sq(self, ks):
        return doubling_sigma_sq(ks)


@dataclass(frozen=True)
class LipschitzKernelChain(ProcessModel):
    """X_t = kappa X_{t-1} + (1 - kappa) U_t, U_t iid Uniform[0, 1]."""

    kappa: float
    name = "kernel-chain"

    def __post_init__(self):
        if not 0.0 < self.kappa < 1.0:
            raise DomainError(f"need 0 < kappa < 1, got {self.kappa}", field="kappa")

    @property
    def burn_in(self) -> int:
        """Steps until the start bias contracts below 2^-52."""
        return math.ceil(52.0 * math.log(2.0) / math.log(1.0 / self.kappa))

    def start(self, gen):
        k, c = self.kappa, 1.0 - self.kappa

        def step(x, u):
            return k * x + c * u

        x = np.full(gen.n_streams, 0.5)
        for _ in range(self.burn_in):
            x = step(x, gen.next_uniform())
        return x, step

    def describe(self):
        return {"model": self.name, "kappa": self.kappa, "burn_in": self.burn_in,
                "init_bias": self.kappa**self.burn_in}


@dataclass(frozen=True)
class BernoulliShiftGeometric(ProcessModel):
    """X_t = (1 - theta) sum_{i < M} theta^i U_{t-i}, truncated at M terms."""

    theta: float
    truncation: int | None = None
    name = "bernoulli-shift"

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

    def start(self, gen):
        M, th = self.window, self.theta
        # window drawn in chronological order: U_{1-M}, ..., U_0
        win = deque(gen.next_uniform() for _ in range(M))
        weights = (1.0 - th) * th ** np.arange(M, dtype=np.float64)
        x = np.zeros(gen.n_streams)
        for i, u in enumerate(reversed(win)):  # U_{-i} carries theta^i
            x = x + weights[i] * u
        drop = (1.0 - th) * th**M

        def step(x, u):
            oldest = win.popleft()
            win.append(u)
            return np.clip(th * x + (1.0 - th) * u - drop * oldest, 0.0, 1.0)

        return x, step

    def stationary_mean(self):
        return 0.5 * (1.0 - self.theta**self.window)

    def describe(self):
        return {"model": self.name, "theta": self.theta, "window": self.window,
                "truncation_tail": self.theta**self.window}


@dataclass(frozen=True)
class InfiniteMemoryChain(ProcessModel):
    """X_t = c0 xi_t + sum_{j <= J} a_j X_{t-j} with c0 = 1 - sum_j a_j.

    The weights must be summable below 1; J is the effective truncation.
    """

    weights: WeightSequence
    truncation: int | None = None
    name = "infinite-memory"

    def __post_init__(self):
        if self.weights.total >= 1.0:
            raise ValidationError(
                f"need sum of weights < 1, got {self.weights.total}", field="weights"
            )
        if self.truncation is not None and self.truncation < 1:
            raise DomainError(f"need truncation >= 1, got {self.truncation}",
                              field="truncation")
        if self.truncation is None:
            # resolve the default now, so a config without one fails when built
            try:
                self.window
            except ValidationError as exc:
                raise ValidationError(
                    f"no default truncation for these weights ({exc}); "
                    "set truncation explicitly", field="truncation"
                ) from exc

    @cached_property
    def window(self) -> int:
        if self.truncation is not None:
            return self.truncation
        return self.weights.suggest_truncation(TRUNCATION_TAIL)

    @cached_property
    def burn_in(self) -> int:
        """Window multiples until the start bias contracts below 2^-40."""
        a = self.weights.total
        if a == 0.0:
            return self.window
        return self.window * max(1, math.ceil(40.0 * math.log(2.0) / math.log(1.0 / a)))

    def start(self, gen):
        J = self.window
        hist = deque(np.full(gen.n_streams, 0.5) for _ in range(J))  # hist[0] = X_{t-1}
        a = [self.weights.term(i) for i in range(1, J + 1)]
        c0 = 1.0 - self.weights.total

        def step(_x, u):
            x = c0 * u
            for a_j, h in zip(a, hist):
                if a_j != 0.0:
                    x = x + a_j * h
            hist.pop()
            hist.appendleft(x)
            return np.minimum(x, 1.0)

        x = hist[0]
        for _ in range(self.burn_in):
            x = step(x, gen.next_uniform())
        return x, step

    def stationary_mean(self):
        a_J = self.weights.total - self.weights.tail_sum(self.window + 1)
        return 0.5 * (1.0 - self.weights.total) / (1.0 - a_J)

    def describe(self):
        a = self.weights.total
        return {"model": self.name, "window": self.window, "burn_in": self.burn_in,
                "truncation_tail": self.weights.tail_sum(self.window + 1),
                "init_bias": a ** (self.burn_in / self.window) if a > 0 else 0.0}


MODELS = {
    cls.name: cls
    for cls in (IidUniform, DoublingMap, LipschitzKernelChain, BernoulliShiftGeometric,
                InfiniteMemoryChain)
}


# ---------------------------------------------------------------------------
# simulation engine


def _states(model: ProcessModel, n: int, seeds: np.ndarray):
    """Yield X_1..X_n over one stream per seed."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    gen = VectorXoshiro(seeds)
    x, step = model.start(gen)
    innov = model.innovations(gen)
    for _ in range(n):
        x = step(x, innov())
        yield x


def stationary_init_batch(model: ProcessModel, seeds: np.ndarray) -> np.ndarray:
    """Time-0 state for each replication seed."""
    return model.start(VectorXoshiro(seeds))[0]


def simulate_batch(model: ProcessModel, n: int, seeds: np.ndarray) -> np.ndarray:
    """(R, n) trajectories, one row per seed."""
    return np.stack(list(_states(model, n, seeds)), axis=1)


def simulate(model: ProcessModel, n: int, seed: int) -> np.ndarray:
    """Trajectory X_1..X_n for one seed."""
    return simulate_batch(model, n, np.array([seed], dtype=np.uint64))[0]


def observable_prefix_sums(model: ProcessModel, f: "ObservableF", ks, seeds: np.ndarray) -> np.ndarray:
    """sum_{t<=k} f(X_t), one row per seed and one column per k in ks.

    One run out to max(ks) serves every k: the running sum is read off as
    the run passes each k, so every column is summed in time order and
    equals the run for that k alone bit for bit, and no path is stored.
    """
    ks = [int(k) for k in ks]
    if not ks or min(ks) < 1:
        raise DomainError(f"need sum lengths k >= 1, got {ks}")
    ends = sorted(set(ks))
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
    """Original and starred values over block i = r+j .. 2r+j-1."""

    j: int
    r: int
    original: np.ndarray
    starred: np.ndarray


def _coupled_pairs(model: ProcessModel, j: int, r: int, seeds: np.ndarray):
    """Yield (X_i, X*_i) for i = j+1 .. 2r+j-1, one lane per seed.

    That covers every block i = r'+j .. 2r'+j-1 with r' <= r. One stacked
    run of 2R lanes serves the pair: lanes :R are the original on its child
    stream, lanes R: the starred run, which starts afresh on its own child
    stream and, from time j+1 on, has its innovations overwritten with the
    original's. Each lane is an independent stream and every step is
    elementwise over lanes, so each half equals a run of its own bit for
    bit; the starred streams keep drawing after the split, but those draws
    are overwritten before any step reads them.
    """
    if j < 1:
        raise DomainError(f"need split j >= 1, got {j}")
    if r < 1:
        raise DomainError(f"need block length r >= 1, got {r}")
    R = len(seeds)
    gen = VectorXoshiro(np.concatenate([derive_child_array(seeds, _LANE_ORIGINAL),
                                        derive_child_array(seeds, _LANE_STARRED)]))
    x, step = model.start(gen)
    innov = model.innovations(gen)
    for _ in range(j):
        x = step(x, innov())
    for _ in range(2 * r - 1):
        u = innov()
        u[R:] = u[:R]
        x = step(x, u)
        yield x[:R], x[R:]


def coupled_distance_sums(model: ProcessModel, j: int, rs, seeds: np.ndarray) -> np.ndarray:
    """sum_{i=r+j}^{2r+j-1} |X_i - X*_i|, one row per seed and one column per r in rs.

    One coupled run out to 2 max(rs) + j - 1 serves every r. Each column is
    summed in time order as the run steps, so it equals the single-r sum bit
    for bit, and no path is stored.
    """
    rs = [int(r) for r in rs]
    if not rs or min(rs) < 1:
        raise DomainError(f"need block lengths r >= 1, got {rs}")
    ends = sorted(set(rs))
    acc = np.zeros((len(ends), len(seeds)))
    for m, (xo, xs) in enumerate(_coupled_pairs(model, j, ends[-1], seeds), start=1):
        # i = j + m lies in block r exactly when (m + 1) / 2 <= r <= m
        acc[bisect_left(ends, (m + 2) // 2):bisect_right(ends, m)] += np.abs(xo - xs)
    return acc[[ends.index(r) for r in rs]].T


def simulate_coupled_block(model: ProcessModel, j: int, r: int, seed: int) -> CoupledBlock:
    """One coupled block pair for one seed."""
    pairs = np.array(
        [(xo[0], xs[0]) for xo, xs in _coupled_pairs(model, j, r, np.array([seed], dtype=_U))]
    )
    return CoupledBlock(j=j, r=r, original=pairs[r - 1:, 0], starred=pairs[r - 1:, 1])


# ---------------------------------------------------------------------------
# observables


@dataclass(frozen=True)
class ObservableF:
    """Centered observable with |f| <= 1/2 and Lipschitz constant <= 1."""

    kind: str
    mu: float
    omega: int = 1
    lipschitz_constant: float = 1.0
    sup_bound: float = 0.5

    def __post_init__(self):
        if self.kind not in ("centered-identity", "centered-cosine"):
            raise ValidationError(f"unknown observable kind {self.kind!r}", field="kind")
        if self.kind == "centered-cosine" and self.omega < 1:
            raise DomainError(f"need omega >= 1, got {self.omega}", field="omega")
        if self.lipschitz_constant > 1.0 + 1e-12 or self.sup_bound > 0.5 + 1e-12:
            raise ValidationError("observable must satisfy |f| <= 1/2 and Lip(f) <= 1")

    def values(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "centered-identity":
            return np.clip(x - self.mu, -0.5, 0.5)
        w = 2.0 * math.pi * self.omega
        return np.cos(w * x) / (2.0 * w) - self.mu


def observable_for(
    model: ProcessModel,
    kind: str,
    omega: int = 1,
    *,
    centering_reps: int = 200_000,
    seed: int = 0,
) -> ObservableF:
    """Observable centered under the model's stationary law.

    The centering constant is analytic whenever the stationary marginal is
    known (all models for the identity; uniform-marginal models for the
    cosine) and is otherwise estimated from centering_reps stationary draws.
    """
    if kind == "centered-identity":
        return ObservableF(kind=kind, mu=model.stationary_mean(), lipschitz_constant=1.0)
    if kind != "centered-cosine":
        raise ValidationError(f"unknown observable kind {kind!r}", field="kind")
    if omega < 1:
        raise DomainError(f"need omega >= 1, got {omega}", field="omega")
    if model.uniform_marginal:
        mu = 0.0  # integral of cos(2 pi w u) over [0, 1] vanishes
    else:
        draws = stationary_init_batch(
            model, replication_seeds(derive_seed(seed, 97), 0, centering_reps)
        )
        w = 2.0 * math.pi * omega
        mu = float(np.mean(np.cos(w * draws) / (2.0 * w)))
    amp = 1.0 / (4.0 * math.pi * omega)
    return ObservableF(
        kind=kind, mu=mu, omega=omega, lipschitz_constant=0.5, sup_bound=amp + abs(mu)
    )


# ---------------------------------------------------------------------------
# analytic variance oracles


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


def analytic_sigma_profile(model: ProcessModel, f: ObservableF, n: int) -> VarianceProfile | None:
    """Closed-form variance profile where one exists, else None."""
    if f.kind != "centered-identity":
        return None
    sigma_sq = model.analytic_sigma_sq(np.arange(1, n + 1))
    return None if sigma_sq is None else variance_profile(sigma_sq, source="analytic")

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
block's distribution.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bounds import VarianceProfile, variance_profile
from .coefficients import TRUNCATION_TAIL, WeightSequence
from .errors import DomainError, ValidationError
from .rng import VectorXoshiro, derive_child_array, derive_seed, replication_seeds

_U = np.uint64

# lanes for deriving child streams from a replication seed
_LANE_ORIGINAL = 1
_LANE_STARRED = 2


# ---------------------------------------------------------------------------
# models


@dataclass(frozen=True)
class IidUniform:
    """Independent Uniform[0, 1] draws."""


@dataclass(frozen=True)
class DoublingMap:
    """X_t = (X_{t-1} + xi_t) / 2 with fair coin innovations.

    Stationary law is Uniform[0, 1]; the time-reversed binary expansion makes
    the exact stationary initial state a single 64-bit draw.
    """


@dataclass(frozen=True)
class LipschitzKernelChain:
    """X_t = kappa X_{t-1} + (1 - kappa) U_t, U_t iid Uniform[0, 1]."""

    kappa: float

    def __post_init__(self):
        if not 0.0 < self.kappa < 1.0:
            raise DomainError(f"need 0 < kappa < 1, got {self.kappa}")

    @property
    def burn_in(self) -> int:
        """Steps until the start bias contracts below 2^-52."""
        return math.ceil(52.0 * math.log(2.0) / math.log(1.0 / self.kappa))


@dataclass(frozen=True)
class BernoulliShiftGeometric:
    """X_t = (1 - theta) sum_{i < M} theta^i U_{t-i}, truncated at M terms."""

    theta: float
    truncation: int | None = None

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise DomainError(f"need 0 < theta < 1, got {self.theta}")
        if self.truncation is not None and self.truncation < 1:
            raise DomainError(f"need truncation >= 1, got {self.truncation}")

    @cached_property
    def window(self) -> int:
        """Effective truncation M: neglected weight theta^M <= 2^-40 by default."""
        if self.truncation is not None:
            return self.truncation
        return math.ceil(40.0 * math.log(2.0) / math.log(1.0 / self.theta))


@dataclass(frozen=True)
class InfiniteMemoryChain:
    """X_t = c0 xi_t + sum_{j <= J} a_j X_{t-j} with c0 = 1 - sum_j a_j.

    The weights must be summable below 1; J is the effective truncation.
    """

    weights: WeightSequence
    truncation: int | None = None

    def __post_init__(self):
        if self.weights.total >= 1.0:
            raise ValidationError(
                f"need sum of weights < 1, got {self.weights.total}", field="weights"
            )
        if self.truncation is not None and self.truncation < 1:
            raise DomainError(f"need truncation >= 1, got {self.truncation}")

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


ProcessModel = IidUniform | DoublingMap | LipschitzKernelChain | BernoulliShiftGeometric | InfiniteMemoryChain


def model_name(model: ProcessModel) -> str:
    return {
        IidUniform: "iid-uniform",
        DoublingMap: "doubling-map",
        LipschitzKernelChain: "kernel-chain",
        BernoulliShiftGeometric: "bernoulli-shift",
        InfiniteMemoryChain: "infinite-memory",
    }[type(model)]


def describe(model: ProcessModel) -> dict:
    """Run-report metadata: parameters plus truncation error bounds."""
    info: dict = {"model": model_name(model)}
    if isinstance(model, LipschitzKernelChain):
        info.update(kappa=model.kappa, burn_in=model.burn_in, init_bias=model.kappa**model.burn_in)
    elif isinstance(model, BernoulliShiftGeometric):
        info.update(theta=model.theta, window=model.window, truncation_tail=model.theta**model.window)
    elif isinstance(model, InfiniteMemoryChain):
        a = model.weights.total
        bias = a ** (model.burn_in / model.window) if a > 0 else 0.0
        info.update(
            window=model.window,
            burn_in=model.burn_in,
            truncation_tail=model.weights.tail_sum(model.window + 1),
            init_bias=bias,
        )
    return info


# ---------------------------------------------------------------------------
# simulation engine


class _BitStream:
    """Fair bits, 64 per u64 draw, low bit first within each block."""

    def __init__(self, gen: VectorXoshiro):
        self.gen = gen
        self.buf: np.ndarray | None = None
        self.pos = 64

    def __call__(self) -> np.ndarray:
        if self.pos == 64:
            self.buf = self.gen.next_u64()
            self.pos = 0
        bit = ((self.buf >> _U(self.pos)) & _U(1)).astype(np.float64)
        self.pos += 1
        return bit


def _innovation_source(model: ProcessModel, gen: VectorXoshiro):
    if isinstance(model, DoublingMap):
        return _BitStream(gen)
    return gen.next_uniform


class _Session:
    """Mutable simulation state for one model over R parallel streams."""

    def __init__(self, model: ProcessModel, gen: VectorXoshiro):
        self.model = model
        R = gen.n_streams
        if isinstance(model, IidUniform):
            self.x = gen.next_uniform()
        elif isinstance(model, DoublingMap):
            self.x = gen.next_u64().astype(np.float64) * 2.0**-64
        elif isinstance(model, LipschitzKernelChain):
            x = np.full(R, 0.5)
            k = model.kappa
            for _ in range(model.burn_in):
                x = k * x + (1.0 - k) * gen.next_uniform()
            self.x = x
        elif isinstance(model, BernoulliShiftGeometric):
            M = model.window
            th = model.theta
            # window drawn in chronological order: U_{1-M}, ..., U_0
            self.win = deque(gen.next_uniform() for _ in range(M))
            weights = (1.0 - th) * th ** np.arange(M, dtype=np.float64)
            x = np.zeros(R)
            for i, u in enumerate(reversed(self.win)):  # U_{-i} carries theta^i
                x = x + weights[i] * u
            self.x = x
            self._drop = (1.0 - th) * th**M
        elif isinstance(model, InfiniteMemoryChain):
            J = model.window
            self.hist = deque(np.full(R, 0.5) for _ in range(J))  # hist[0] = X_{t-1}
            self.a = np.array([model.weights.term(i) for i in range(1, J + 1)])
            self.c0 = 1.0 - model.weights.total
            self.x = self.hist[0]
            for _ in range(model.burn_in):
                self.step(gen.next_uniform())
        else:  # pragma: no cover
            raise TypeError(f"unknown model {model!r}")

    def copy_state_from(self, other: "_Session") -> None:
        self.x = other.x.copy()
        if hasattr(other, "win"):
            self.win = deque(u.copy() for u in other.win)
        if hasattr(other, "hist"):
            self.hist = deque(h.copy() for h in other.hist)

    def step(self, innov: np.ndarray) -> np.ndarray:
        m = self.model
        if isinstance(m, IidUniform):
            self.x = innov
        elif isinstance(m, DoublingMap):
            self.x = 0.5 * (self.x + innov)
        elif isinstance(m, LipschitzKernelChain):
            self.x = m.kappa * self.x + (1.0 - m.kappa) * innov
        elif isinstance(m, BernoulliShiftGeometric):
            oldest = self.win.popleft()
            self.win.append(innov)
            x = m.theta * self.x + (1.0 - m.theta) * innov - self._drop * oldest
            self.x = np.clip(x, 0.0, 1.0)
        else:
            x = self.c0 * innov
            for a_j, h in zip(self.a, self.hist):
                if a_j != 0.0:
                    x = x + a_j * h
            self.hist.pop()
            self.hist.appendleft(x)
            self.x = np.minimum(x, 1.0)
        return self.x


def stationary_init_batch(model: ProcessModel, seeds: np.ndarray) -> np.ndarray:
    """Time-0 state for each replication seed."""
    return _Session(model, VectorXoshiro(seeds)).x.copy()


def stationary_init(model: ProcessModel, seed: int) -> float:
    return float(stationary_init_batch(model, np.array([seed], dtype=np.uint64))[0])


def simulate_batch(
    model: ProcessModel, n: int, seeds: np.ndarray, keep_times: list[int] | None = None
) -> np.ndarray:
    """(R, n) trajectories, or (R, len(keep_times)) selected columns."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    gen = VectorXoshiro(seeds)
    sess = _Session(model, gen)
    innov = _innovation_source(model, gen)
    R = gen.n_streams
    if keep_times is None:
        out = np.empty((R, n))
        for t in range(1, n + 1):
            out[:, t - 1] = sess.step(innov())
        return out
    wanted = {t: i for i, t in enumerate(keep_times)}
    out = np.empty((R, len(keep_times)))
    for t in range(1, n + 1):
        x = sess.step(innov())
        if t in wanted:
            out[:, wanted[t]] = x
    return out


def simulate(model: ProcessModel, n: int, seed: int) -> np.ndarray:
    """Trajectory X_1..X_n for one seed."""
    return simulate_batch(model, n, np.array([seed], dtype=np.uint64))[0]


def observable_sums(model: ProcessModel, f: "ObservableF", n: int, seeds: np.ndarray) -> np.ndarray:
    """S(f) = sum_{t<=n} f(X_t) per replication, streamed without storing paths."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    gen = VectorXoshiro(seeds)
    sess = _Session(model, gen)
    innov = _innovation_source(model, gen)
    acc = np.zeros(gen.n_streams)
    for _ in range(n):
        acc += f.values(sess.step(innov()))
    return acc


# ---------------------------------------------------------------------------
# coupled blocks


@dataclass(frozen=True, eq=False)
class CoupledBlock:
    """Original and starred values over block i = r+j .. 2r+j-1."""

    j: int
    r: int
    original: np.ndarray
    starred: np.ndarray

    @property
    def distance_sum(self) -> float:
        return float(np.sum(np.abs(self.original - self.starred)))


def coupled_distance_sums(
    model: ProcessModel,
    j: int,
    r: int,
    seeds: np.ndarray,
    share_presplit: bool = False,
) -> np.ndarray:
    """sum_{i=r+j}^{2r+j-1} |X_i - X*_i| per replication.

    share_presplit is a test hook: the starred run reuses the original's
    initial state and pre-split innovations, forcing identical paths.
    """
    _check_block(j, r)
    horizon = 2 * r + j - 1
    gen_o = VectorXoshiro(derive_child_array(seeds, _LANE_ORIGINAL))
    gen_s = VectorXoshiro(derive_child_array(seeds, _LANE_STARRED))
    sess_o = _Session(model, gen_o)
    sess_s = _Session(model, gen_s)
    if share_presplit:
        sess_s.copy_state_from(sess_o)
    innov_o = _innovation_source(model, gen_o)
    innov_s = _innovation_source(model, gen_s)
    acc = np.zeros(gen_o.n_streams)
    for t in range(1, horizon + 1):
        io = innov_o()
        if t <= j and not share_presplit:
            ist = innov_s()
        else:
            ist = io
        xo = sess_o.step(io)
        xs = sess_s.step(ist)
        if t >= r + j:
            acc += np.abs(xo - xs)
    return acc


def coupled_block_sums(
    model: ProcessModel, j: int, r: int, seeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-replication block sums (sum X_i, sum X*_i) over i = r+j .. 2r+j-1.

    Both runs follow the same construction as coupled_distance_sums; the two
    returned samples should share a distribution when the starred restart
    forgets its fresh start by time r+j.
    """
    _check_block(j, r)
    horizon = 2 * r + j - 1
    gen_o = VectorXoshiro(derive_child_array(seeds, _LANE_ORIGINAL))
    gen_s = VectorXoshiro(derive_child_array(seeds, _LANE_STARRED))
    sess_o = _Session(model, gen_o)
    sess_s = _Session(model, gen_s)
    innov_o = _innovation_source(model, gen_o)
    innov_s = _innovation_source(model, gen_s)
    sum_o = np.zeros(gen_o.n_streams)
    sum_s = np.zeros(gen_o.n_streams)
    for t in range(1, horizon + 1):
        io = innov_o()
        ist = innov_s() if t <= j else io
        xo = sess_o.step(io)
        xs = sess_s.step(ist)
        if t >= r + j:
            sum_o += xo
            sum_s += xs
    return sum_o, sum_s


def simulate_coupled_block(
    model: ProcessModel, j: int, r: int, seed: int, horizon: int | None = None
) -> CoupledBlock:
    """One coupled block pair; the block must fit inside the horizon."""
    _check_block(j, r)
    needed = 2 * r + j - 1
    if horizon is not None and needed > horizon:
        raise DomainError(f"block needs horizon {needed}, only {horizon} available")
    seeds = np.array([seed], dtype=np.uint64)
    gen_o = VectorXoshiro(derive_child_array(seeds, _LANE_ORIGINAL))
    gen_s = VectorXoshiro(derive_child_array(seeds, _LANE_STARRED))
    sess_o = _Session(model, gen_o)
    sess_s = _Session(model, gen_s)
    innov_o = _innovation_source(model, gen_o)
    innov_s = _innovation_source(model, gen_s)
    orig = np.empty(r)
    star = np.empty(r)
    for t in range(1, needed + 1):
        io = innov_o()
        ist = innov_s() if t <= j else io
        xo = sess_o.step(io)
        xs = sess_s.step(ist)
        if t >= r + j:
            orig[t - r - j] = xo[0]
            star[t - r - j] = xs[0]
    return CoupledBlock(j=j, r=r, original=orig, starred=star)


def _check_block(j: int, r: int) -> None:
    if j < 1:
        raise DomainError(f"need split j >= 1, got {j}")
    if r < 1:
        raise DomainError(f"need block length r >= 1, got {r}")


# ---------------------------------------------------------------------------
# pure path helpers (test hooks with explicit innovations)


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
            raise DomainError(f"need omega >= 1, got {self.omega}")
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
        return ObservableF(kind=kind, mu=stationary_mean(model), lipschitz_constant=1.0)
    if kind != "centered-cosine":
        raise ValidationError(f"unknown observable kind {kind!r}", field="kind")
    if isinstance(model, (IidUniform, DoublingMap)):
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


def eval_observable(f: ObservableF, trajectory: np.ndarray) -> np.ndarray:
    """Pointwise f over a trajectory, values in [-1/2, 1/2]."""
    return f.values(trajectory)


def stationary_mean(model: ProcessModel) -> float:
    """E X_t under the (truncated) stationary law."""
    if isinstance(model, (IidUniform, DoublingMap, LipschitzKernelChain)):
        return 0.5
    if isinstance(model, BernoulliShiftGeometric):
        return 0.5 * (1.0 - model.theta**model.window)
    a_J = model.weights.total - model.weights.tail_sum(model.window + 1)
    c0 = 1.0 - model.weights.total
    return 0.5 * c0 / (1.0 - a_J)


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
    ks = np.arange(1, n + 1)
    if isinstance(model, IidUniform):
        return variance_profile(np.full(n, 1.0 / 12.0), source="analytic")
    if isinstance(model, DoublingMap):
        return variance_profile(doubling_sigma_sq(ks.astype(np.float64)), source="analytic")
    return None


# ---------------------------------------------------------------------------
# CSV export


def write_trajectory_csv(trajectory: np.ndarray, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", "x"])
        for t, x in enumerate(np.asarray(trajectory), start=1):
            w.writerow([t, repr(float(x))])


def write_coupled_block_csv(block: CoupledBlock, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["i", "x", "x_star", "dist"])
        for off in range(block.r):
            i = block.r + block.j + off
            xo = float(block.original[off])
            xs = float(block.starred[off])
            w.writerow([i, repr(xo), repr(xs), repr(abs(xo - xs))])

"""Monte Carlo estimators with exact-binomial uncertainty.

All estimators run replications in fixed-size chunks, serially by default
(threads=1) or over a thread pool of the requested size. Each replication's
stream is derived from (base seed, replication index) alone and every chunk
writes a disjoint slice of one replication-ordered array; reductions then
run over that array in a single deterministic pass. Results are therefore
bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from .errors import DomainError
from .processes import (
    ObservableF,
    ProcessModel,
    coupled_distance_sums,
    observable_prefix_sums,
    observable_sums,
    stationary_init_batch,  # not called here; perfbench/layers.py rebinds this name
)
from .rng import derive_seed, replication_seeds

DEFAULT_ALPHA = 0.01

_CHUNK = 16384

# variance runs read derive_seed(seed, 1), the lane of sigma_1^2, for every k
_LANE_SIGMA = 1


@dataclass(frozen=True)
class TailEstimate:
    """Exceedance frequency of S(f) over a threshold, with exact CI."""

    threshold: float
    x: float
    hits: int
    reps: int
    p_hat: float
    ci_low: float
    ci_high: float
    alpha: float


@dataclass(frozen=True)
class SigmaEstimate:
    """Block-sum variance over k, from independent length-k replicas."""

    k: int
    sigma_sq_hat: float
    std_error: float
    reps: int


@dataclass(frozen=True)
class CouplingEstimate:
    """Largest observed coupled-block distance sum at one (r, j)."""

    r: int
    j: int
    max_sum: float
    witness: float  # max_sum / r, an empirical lower witness for delta'_r
    reps: int


def clopper_pearson(hits: int, reps: int, alpha: float = DEFAULT_ALPHA) -> tuple[float, float]:
    """Exact two-sided binomial interval at confidence 1 - alpha."""
    if not 0 <= hits <= reps:
        raise DomainError(f"need 0 <= hits <= reps, got {hits}/{reps}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"need 0 < alpha < 1, got {alpha}")
    # beta quantiles; scipy.special spares importing scipy.stats
    lo = 0.0 if hits == 0 else float(betaincinv(hits, reps - hits + 1, alpha / 2.0))
    hi = 1.0 if hits == reps else float(betaincinv(hits + 1, reps - hits, 1.0 - alpha / 2.0))
    return lo, hi


def _per_rep_values(fn, reps: int, seed: int, threads: int, width: int = 0) -> np.ndarray:
    """Assemble fn(seeds of chunk) for replications 0..reps-1, in order.

    fn must map a seed array to one float per seed, or to one row of width
    floats per seed when width > 0. Chunks cover disjoint index ranges, so
    scheduling cannot reorder or change anything.
    """
    out = np.empty((reps, width) if width else reps)
    spans = [(lo, min(lo + _CHUNK, reps)) for lo in range(0, reps, _CHUNK)]

    def fill(span):
        lo, hi = span
        out[lo:hi] = fn(replication_seeds(seed, lo, hi))

    if threads <= 1 or len(spans) == 1:
        for span in spans:
            fill(span)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, spans))
    return out


def per_rep_sums(
    model: ProcessModel,
    f: ObservableF,
    n: int,
    reps: int,
    seed: int,
    threads: int = 1,
) -> np.ndarray:
    """S(f) = sum_{t<=n} f(X_t) for each replication, in replication order."""
    if reps < 1:
        raise DomainError(f"need reps >= 1, got {reps}")
    return _per_rep_values(lambda s: observable_sums(model, f, n, s), reps, seed, threads)


def tail_from_sums(
    sums: np.ndarray, threshold: float, *, x: float = math.nan, alpha: float = DEFAULT_ALPHA
) -> TailEstimate:
    """Exceedance estimate over an already-simulated S(f) sample."""
    reps = int(sums.size)
    hits = int(np.count_nonzero(sums >= threshold))
    lo, hi = clopper_pearson(hits, reps, alpha)
    return TailEstimate(
        threshold=float(threshold),
        x=float(x),
        hits=hits,
        reps=reps,
        p_hat=hits / reps,
        ci_low=lo,
        ci_high=hi,
        alpha=alpha,
    )


def estimate_sigma_profile(
    model: ProcessModel,
    f: ObservableF,
    k_list,
    reps: int,
    seed: int,
    threads: int = 1,
) -> list[SigmaEstimate]:
    """sigma_k^2 = Var(block sum)/k from reps independent length-k replicas.

    One run per replication out to max(k_list) serves every k: the block sum
    at k is that run's running sum at time k, read on the seed lane
    derive_seed(seed, 1) whatever the grid. So an estimate does not depend on
    which other block lengths were requested alongside, and estimates at
    different k share their replications.
    """
    if reps < 2:
        raise DomainError(f"need reps >= 2, got {reps}")
    ks = [int(k) for k in k_list]
    if not ks:
        return []
    block_sums = _per_rep_values(
        lambda s: observable_prefix_sums(model, f, ks, s),
        reps,
        derive_seed(seed, _LANE_SIGMA),
        threads,
        len(ks),
    )
    out = []
    for c, k in enumerate(ks):
        sums = block_sums[:, c].copy()  # contiguous, so reduced as a lone k's sums would be
        s2 = float(np.var(sums, ddof=1))
        centered = sums - sums.mean()
        m4 = float(np.mean(centered**4))
        var_s2 = max(0.0, (m4 - s2 * s2 * (reps - 3) / (reps - 1)) / reps)
        out.append(
            SigmaEstimate(k=k, sigma_sq_hat=s2 / k, std_error=math.sqrt(var_s2) / k, reps=reps)
        )
    return out


def estimate_coupling_delta(
    model: ProcessModel,
    r_list,
    j_list,
    reps: int,
    seed: int,
    threads: int = 1,
) -> list[CouplingEstimate]:
    """Per-(r, j) maxima of coupled-block distance sums over reps pairs.

    The max over replications of distance_sum / r witnesses delta'_r from
    below; profiles must dominate it. Seeds are keyed by the value of j:
    every r of one j reads its block from the same coupled run, so each
    estimate is still a maximum over reps independent pairs and does not
    depend on which other r or j were requested alongside.
    """
    if reps < 1:
        raise DomainError(f"need reps >= 1, got {reps}")
    rs, js = [int(r) for r in r_list], [int(j) for j in j_list]
    maxima = {
        j: _per_rep_values(
            lambda s, j=j: coupled_distance_sums(model, j, rs, s),
            reps,
            derive_seed(seed, j),
            threads,
            len(rs),
        ).max(axis=0)
        for j in dict.fromkeys(js)
    }
    out = []
    for c, r in enumerate(rs):
        for j in js:
            m = float(maxima[j][c])
            out.append(CouplingEstimate(r=r, j=j, max_sum=m, witness=m / r, reps=reps))
    return out

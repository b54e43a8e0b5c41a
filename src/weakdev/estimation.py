"""Monte Carlo estimators with exact-binomial uncertainty.

All estimators run replications in chunks of at most _CHUNK through one
mapper (_map_chunks), serially by default (threads=1) or over a thread pool
of the requested size. Each replication's stream is derived from (base
seed, replication index) alone. Tail and variance chunks write disjoint
slices of one replication-ordered array, reduced afterwards in a single
deterministic pass; coupling chunks reduce to maxima, which do not depend on
how rows are grouped. Results are therefore bit-identical for any worker
count.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice, starmap

import numpy as np

from .bounds import _check_n
from .errors import ValidationError
from .processes import (
    ObservableF,
    ProcessModel,
    coupled_distance_sums,
    observable_prefix_sums,
    observable_sums,
    stationary_init_batch,  # not called here; perfbench/layers.py rebinds this name
)
from .rng import MASK64, derive_seed, replication_seeds

DEFAULT_ALPHA = 0.01

_CHUNK = 16384

# the most replications one estimate may run (processes caps a run's steps
# alike); more are refused before a seed is derived or an array allocated
_MAX_REPS = 2**32

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
        raise ValidationError(f"need 0 <= hits <= reps, got {hits}/{reps}")
    _check_n(hits, "hits", least=0)
    _check_n(reps, "reps", least=0)
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"need 0 < alpha < 1, got {alpha}")
    # beta quantiles; scipy.special spares importing scipy.stats, and importing
    # it only here keeps scipy out of every command's start-up
    from scipy.special import betaincinv
    lo = 0.0 if hits == 0 else float(betaincinv(hits, reps - hits + 1, alpha / 2.0))
    hi = 1.0 if hits == reps else float(betaincinv(hits + 1, reps - hits, 1.0 - alpha / 2.0))
    return lo, hi


def _map_chunks(fn, total: int, threads: int):
    """Yield fn(lo, hi) for each chunk lo..hi-1 of 0..total-1, in chunk order.

    Chunks hold at most _CHUNK indices, cover disjoint ranges and are made
    lazily; threads > 1 runs at most that many at once on a pool, the next
    one started before a result is yielded. Whatever fn computes depends on
    its own range alone, so scheduling cannot reorder or change anything.
    """
    spans = ((lo, min(lo + _CHUNK, total)) for lo in range(0, total, _CHUNK))
    if threads <= 1 or total <= _CHUNK:
        yield from starmap(fn, spans)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = (pool.submit(fn, *span) for span in spans)
        running = deque(islice(futures, threads))
        while running:
            result = running.popleft().result()
            running.extend(islice(futures, 1))
            yield result


def _per_rep_values(fn, reps: int, seed: int, threads: int, width: int = 0) -> np.ndarray:
    """Assemble fn(seeds of chunk) for replications 0..reps-1, in order.

    fn must map a seed array to one float per seed, or to one row of width
    floats per seed when width > 0. Each chunk of _map_chunks writes its own
    slice of one replication-ordered array.
    """
    out = np.empty((reps, width) if width else reps)

    def fill(lo, hi):
        out[lo:hi] = fn(replication_seeds(seed, lo, hi))

    deque(_map_chunks(fill, reps, threads), maxlen=0)
    return out


def check_reps(reps: int, least: int = 1) -> None:
    """Refuse a replication count outside least..2^32, on field reps."""
    if not least <= reps <= _MAX_REPS:
        raise ValidationError(f"need {least} <= reps <= 2^32, got {reps}", field="reps")


def per_rep_sums(
    model: ProcessModel,
    f: ObservableF,
    n: int,
    reps: int,
    seed: int,
    threads: int = 1,
) -> np.ndarray:
    """S(f) = sum_{t<=n} f(X_t) for each replication, in replication order."""
    check_reps(reps)
    return _per_rep_values(lambda s: observable_sums(model, f, n, s), reps, seed, threads)


def tail_from_sums(
    sums: np.ndarray, threshold: float, *, x: float = math.nan, alpha: float = DEFAULT_ALPHA
) -> TailEstimate:
    """Exceedance estimate over an already-simulated S(f) sample."""
    reps = int(sums.size)
    if not reps:
        raise ValidationError("need a non-empty sample of sums", field="sums")
    if not np.isfinite(sums).all():  # a NaN sum would count as a miss, an infinite one as a hit
        i = int(np.argmin(np.isfinite(sums)))  # the first replication whose sum is not finite
        raise ValidationError(f"need a finite sum, got {sums[i]}", field=f"sums[{i}]")
    if math.isnan(threshold):  # no sum is >= NaN, so every row would read as a pass
        raise ValidationError("need a threshold that is not NaN", field="threshold")
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
    check_reps(reps, least=2)
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


def coupling_seeds(seed: int, j: int, lo: int, hi: int) -> np.ndarray:
    """Seeds of replications lo..hi-1 of the coupled pairs that split j reads."""
    return replication_seeds(derive_seed(seed, j), lo, hi)


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
    below; profiles must dominate it. Every model starts stationary, so a
    pair split at j has the same law for every j and processes splits each
    pair at its start; j keys the seeds alone, replication i of j reading
    coupling_seeds(seed, j, i, i + 1), so rows at different j are
    independent replicates. The pairs of every distinct j are numbered by
    one flat index q * reps + i, replication i of the q-th distinct j, and
    cut into chunks of at most _CHUNK, one coupled run per chunk, whose rows
    fold into per-j running maxima; so memory does not grow with reps. Each
    lane is its own stream, every step is elementwise and a maximum does not
    depend on how rows are grouped, so each estimate is still a maximum over
    reps independent pairs, bit for bit the one its j alone gives, whichever
    other r or j were requested alongside.
    """
    rs, js = [int(r) for r in r_list], [int(j) for j in j_list]
    if not js:
        raise ValidationError("need split j >= 1, got no j", field="j_list")
    for j in js:
        if j < 1:
            raise ValidationError(f"need split j >= 1, got {j}", field="j_list")
        if j > MASK64:  # derive_seed keys by j mod 2^64
            raise ValidationError(f"need split j <= 2^64 - 1, got {j}", field="j_list")
    if not rs or min(rs) < 1:
        raise ValidationError(f"need block lengths r >= 1, got {rs}", field="r_list")
    keys = list(dict.fromkeys(js))  # a repeated j reads the same pairs
    if not 1 <= reps <= _MAX_REPS // len(keys):  # 2^32 pairs over every distinct j
        raise ValidationError(f"need 1 <= reps <= 2^32 / {len(keys)} distinct j, got {reps}",
                              field="reps")
    lanes = derive_seed(seed, np.array(keys, dtype=np.uint64))  # derive_seed(seed, j) per key

    def chunk_maxima(lo, hi):
        q, i = np.divmod(np.arange(lo, hi), reps)  # flat index q * reps + i
        sums = coupled_distance_sums(model, rs, derive_seed(lanes[q], i))
        firsts = np.flatnonzero(np.diff(q, prepend=-1))  # each key's first row
        return q[firsts], np.maximum.reduceat(sums, firsts, axis=0)

    maxima = np.full((len(keys), len(rs)), -np.inf)
    for part, part_max in _map_chunks(chunk_maxima, len(keys) * reps, threads):
        maxima[part] = np.maximum(maxima[part], part_max)
    out = []
    for c, r in enumerate(rs):
        for j in js:
            m = float(maxima[keys.index(j), c])
            out.append(CouplingEstimate(r=r, j=j, max_sum=m, witness=m / r, reps=reps))
    return out

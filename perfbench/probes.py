"""Layer probes: single public calls timed at the workload's own sizes.

They run after the traced rounds, with tracing off, and give throughputs
that the span tree cannot: the raw u64 rate, each model's step rate
(observable_sums minus stationary_init_batch on the same seeds), the
observable's evaluation rate, the thread pool's speedup on doubling-thm2's
input, and the Clopper-Pearson call rate.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from weakdev.estimation import clopper_pearson, per_rep_sums
from weakdev.harness import build_model
from weakdev.processes import observable_for, observable_sums, stationary_init_batch
from weakdev.rng import VectorXoshiro

from workloads import MODELS, init_steps

PROBE_STEPS = 512
U64_STREAMS = 16384
# Stop repeating a probe once it has taken this long.
PROBE_BUDGET_S = 0.3


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _repeat(fn, *args, budget=PROBE_BUDGET_S, max_repeats=5) -> float:
    """Median time of fn(*args) over as many repeats as fit in the budget."""
    times = []
    while len(times) < max_repeats and sum(times) < budget:
        times.append(_timed(fn, *args))
    return statistics.median(times)


def _seeds(seed: int, count: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2**63, size=count, dtype=np.uint64)


def run(wl, seed: int) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    R = min(wl.chunk, 4096)
    seeds = _seeds(seed, R)

    gen = VectorXoshiro(_seeds(seed + 1, U64_STREAMS))
    calls = 64

    def draw():
        for _ in range(calls):
            gen.next_u64()

    out["rng.u64_per_s"] = (U64_STREAMS * calls / _repeat(draw), "u64/s")

    init_work, init_time = 0, 0.0
    for label in ("iid-uniform", "doubling-map", "kernel-chain", "bernoulli-shift",
                  "infinite-memory-geometric"):
        model = build_model(MODELS[label])
        f = observable_for(model, "centered-identity")
        t_init = _repeat(stationary_init_batch, model, seeds)
        t_sums = _repeat(observable_sums, model, f, PROBE_STEPS, seeds)
        name = label.removesuffix("-geometric")
        out[f"processes.step_lane_steps_per_s.{name}"] = (
            R * PROBE_STEPS / max(t_sums - t_init, 1e-9),
            "lane-steps/s",
        )
        if label in wl.sim_labels:
            init_work += R * max(1, init_steps(model))
            init_time += t_init
    out["processes.init_lane_steps_per_s"] = (init_work / init_time, "lane-steps/s")

    f = observable_for(build_model(MODELS["doubling-map"]), "centered-identity")
    xs = np.random.default_rng(seed + 2).random(R)
    evals = 200

    def values():
        for _ in range(evals):
            f.values(xs)

    out["processes.observable_values_per_s"] = (R * evals / _repeat(values), "values/s")

    # the thread pool on doubling-thm2's input: n=1000, 32768 replications
    doubling = build_model(MODELS["doubling-map"])
    pool = max(1, min(2, os.cpu_count() or 1))
    t1 = min(_timed(per_rep_sums, doubling, f, 1000, 32768, seed, 1) for _ in range(2))
    t2 = min(_timed(per_rep_sums, doubling, f, 1000, 32768, seed, pool) for _ in range(2))
    out["estimation.pool_speedup"] = (t1 / t2, "ratio")

    reps = getattr(wl, "reps", 1000)

    def intervals():
        for hits in range(50):
            clopper_pearson(hits, reps)

    out["estimation.clopper_pearson_per_s"] = (50 / _repeat(intervals), "calls/s")
    return out

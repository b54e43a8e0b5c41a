"""Empirical coupling certificates against the stated dependence profiles.

Every model starts stationary, so a coupled pair's law does not depend on
its split j, and each pair is split at its start; each j tested keys an
independent batch of seeds. One coupled run steps the seeds of every j side
by side: each lane is its own stream and every step is elementwise, so each
pair's sums are bit for bit those of a run over its own j's seeds. Per block
length r, over the pairs of every j:

* certificate: the largest observed coupled-block distance sum must stay
  below the pathwise contraction cap (no tolerance; a violation is a bug);
* profile column: the analytic r * delta'_r next to the sample mean, for
  scale. The analytic value describes the best coupling the theory allows,
  not the plain shared-innovation construction simulated here, so the mean
  may sit on either side of it; only the certificate is a claim.
"""

import argparse

import numpy as np

from weakdev.estimation import coupling_seeds
from weakdev.processes import DoublingMap, LipschitzKernelChain, coupled_distance_sums


def sweep(name, model, pathwise_cap, r_max, j_list, reps, seed) -> None:
    print(f"# {name}")
    rs = range(1, r_max + 1)
    profile = model.linf_profile(r_max)
    # one coupled run over every j's seeds serves every r; rows are pairs over all j
    seeds = np.concatenate([coupling_seeds(seed, j, 0, reps) for j in j_list])
    sums = coupled_distance_sums(model, rs, seeds)
    for r, col in zip(rs, sums.T):
        cap = pathwise_cap(r)
        mean = float(col.mean())
        prof = r * profile.at(r)
        cert = "ok" if col.max() <= cap else "VIOLATED"
        print(
            f"  r={r:2d}: max {col.max():.3e} <= cap {cap:.3e} {cert} | "
            f"mean {mean:.3e} (r delta'_r = {prof:.3e})"
        )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--r-max", type=int, default=12)
    ap.add_argument("--reps", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    j_list = [1, 20, 100]
    sweep(
        "doubling map",
        DoublingMap(),
        lambda r: 2.0 ** (1 - r),
        args.r_max,
        j_list,
        args.reps,
        args.seed,
    )
    kappa = 0.7
    sweep(
        f"kernel chain (kappa={kappa})",
        LipschitzKernelChain(kappa=kappa),
        lambda r: sum(kappa**m for m in range(r, 2 * r)),
        args.r_max,
        j_list,
        args.reps,
        args.seed + 1,
    )


if __name__ == "__main__":
    main()

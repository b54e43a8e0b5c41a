"""Verify both blockwise deviation bounds on the doubling map.

Runs the full harness at n = 1000 over a small x grid and writes one CSV
report per theorem under --outdir (default: ./reports in the working
directory). The iid-formula rows in each report are reference curves only.
"""

import argparse
import pathlib

from weakdev.harness import emit_report, parse_config, run_verification


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--reps", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=20260815)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--outdir", type=pathlib.Path, default=pathlib.Path("reports"))
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    for theorem in ("thm1", "thm2"):
        cfg = parse_config(
            {
                "model": "doubling-map",
                "n": args.n,
                "x_grid": [0.5, 1.0, 2.0],
                "theorem": theorem,
                "reps": args.reps,
                "base_seed": args.seed,
            }
        )
        rows = run_verification(cfg, threads=args.threads)
        out = args.outdir / f"doubling_{theorem}.csv"
        emit_report(rows, out)
        print(f"# {theorem} -> {out}")
        for r in rows:
            if r.verdict == "skipped":
                print(f"  {r.theorem} x={r.x:g}: skipped")
                continue
            note = " (reference)" if r.theorem == "iid_eq1_ref" else ""
            print(
                f"  {r.theorem} x={r.x:g}: k={r.k_selected} thr={r.threshold:.4f} "
                f"p_hat={r.p_hat:.4g} ci_high={r.ci_high:.4g} "
                f"target={r.bound_value:.4g} {r.verdict}{note}"
            )


if __name__ == "__main__":
    main()

"""Command-line interface.

Subcommands mirror the library layers: pure formula evaluation (bounds),
profile emission, simulation, MC estimation, end-to-end verification, and
block-size asymptotics. All flags are long-form; x-grids accept either a
comma list (0.5,1,2) or an inclusive range (start:stop:step). The model flags
are worked out from the dataclass fields of MODELS and WEIGHTS, each typed by
its declared type's harness.FIELD_TYPES entry.

This is the one module that writes files: the library returns values, and
every CSV table goes through write_csv (write_profile_csv writes the same
dialect in one pass). An output path in a missing directory is a usage error
naming its option (exit code 2), raised before any computation; a path that
still cannot be written is an OSError naming it, which a command reports as
a one-line error with exit code 1.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
import os
import sys
from dataclasses import astuple, fields

import click

from .bounds import DependenceProfile
from .coefficients import WEIGHTS
from .errors import ValidationError
from .estimation import coupling_seeds, estimate_coupling_delta, estimate_sigma_profile
from .harness import (
    FIELD_TYPES,
    THEOREMS,
    ReportRow,
    build_model,
    dependence_profile_for,
    load_config,
    ratio_spread,
    run_blocksize_asymptotics,
    run_verification,
)
from .processes import MODELS, OBSERVABLES, observable_for, simulate, simulate_coupled_block


# the most points a start:stop:step range may expand to
_MAX_GRID = 10**6


def parse_x_grid(text: str) -> list[float]:
    """Comma list or start:stop:step range, inclusive of stop."""
    if ":" not in text:
        xs = _parse_list(text, "x-grid")
        for x in xs:
            if not math.isfinite(x):
                raise click.BadParameter(f"need x finite, got {x}")
        return xs
    try:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("range form is start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError("range ends must be finite")
        if not step > 0.0:
            raise ValueError("step must be positive")
        if stop < start:
            raise ValueError("stop must be at least start")
        span = (stop - start) / step * (1.0 + 1e-12)
        if span >= _MAX_GRID:
            raise ValueError(f"range has more than {_MAX_GRID} points")
        return [start + i * step for i in range(int(math.floor(span)) + 1)]
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from exc


def _parse_list(text: str, what: str, kind=float) -> list:
    """Comma list of kind(entry); blank entries are skipped."""
    try:
        vals = [kind(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise click.BadParameter(f"bad {what}: {exc}") from exc
    if not vals:
        raise click.BadParameter(f"empty {what}")
    return vals


_THREADS = click.option("--threads", type=click.IntRange(min=1), default=1,
                        help="worker threads for the replications (default: 1)")
_SEED = click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=0,
                     help="base seed, 0 to 2^64-1 (default: 0)")


def _out_dir_exists(out, hint=None):
    """out, refused as a usage error naming hint (exit 2) when its directory
    is missing, so a command fails before it computes what it cannot write."""
    if out is not None and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        raise click.BadParameter(f"the directory of {out} does not exist", param_hint=hint)
    return out


def _out_option(*decls, **kwargs):
    """An output-path option, checked by _out_dir_exists as it is parsed."""
    return click.option(*decls, type=click.Path(),
                        callback=lambda _ctx, _param, out: _out_dir_exists(out), **kwargs)


def _echo(message: str, err: bool = False) -> None:
    """click.echo to the current sys.stdout (sys.stderr when err). Left to pick
    the stream itself, click caches a wrapper per stream whose value keeps the
    stream alive, so every in-process call under a redirected stdout would
    retain that buffer and its text."""
    click.echo(message, file=sys.stderr if err else sys.stdout)


def _given(**values) -> dict:
    return {k: v for k, v in values.items() if v is not None}


def _declaring(registry: dict, field: str) -> str:
    """The names of the registry's classes that declare field."""
    return ", ".join(name for name, cls in registry.items() if field in cls.__dataclass_fields__)


def _refuse_stray_flags(model: str, doc: dict, weights: dict) -> None:
    """A usage error naming the first given flag that sets no field of the
    model, or of its weight family."""
    declared = MODELS[model].__dataclass_fields__
    owner = f"model {model!r}"
    stray = [(f"--{k}", k, MODELS) for k in doc if k != "variant" and k not in declared]
    if weights and "weights" not in declared:
        flag = "--weight-family" if "family" in weights else f"--weight-{next(iter(weights))}"
        stray.append((flag, "weights", MODELS))
    family = weights.get("family")
    if not stray and family is not None:
        owner = f"weight family {family!r}"
        stray = [(f"--weight-{k}", k, WEIGHTS) for k in weights
                 if k != "family" and k not in WEIGHTS[family].__dataclass_fields__]
    if stray:
        flag, field, registry = stray[0]
        raise click.UsageError(f"{flag} is not a flag of {owner}: it sets field {field!r} "
                               f"of {_declaring(registry, field)}")


def _model_options(cmd):
    """Add --model and a --<field> flag per model field, the weights set by
    --weight-family and --weight-<field>; the command receives the model as m."""
    model_fields = {f.name: f.type for cls in MODELS.values() for f in fields(cls)}
    weight_fields = {f.name: f.type for cls in WEIGHTS.values() for f in fields(cls)}
    del model_fields["weights"]

    @functools.wraps(cmd)
    def with_model(model, weight_family, **kwargs):
        doc = _given(variant=model, **{k: kwargs.pop(k) for k in model_fields})
        weights = _given(family=weight_family,
                         **{k: kwargs.pop(f"weight_{k}") for k in weight_fields})
        _refuse_stray_flags(model, doc, weights)
        if weights:  # build_model refuses them on a model without weights
            doc["weights"] = weights
        try:
            m = build_model(doc)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
        return cmd(m=m, **kwargs)

    def field_flag(registry, prefix, field, declared):
        return click.option(f"--{prefix}{field}", type=FIELD_TYPES[declared].flag, default=None,
                            help=f"field of {_declaring(registry, field)}")

    opts = [
        click.option("--model", required=True, type=click.Choice(list(MODELS))),
        *(field_flag(MODELS, "", *item) for item in model_fields.items()),
        click.option("--weight-family", type=click.Choice(list(WEIGHTS)), default=None,
                     help=f"weight family of {_declaring(MODELS, 'weights')}"),
        *(field_flag(WEIGHTS, "weight-", *item) for item in weight_fields.items()),
    ]
    for opt in reversed(opts):
        with_model = opt(with_model)
    return with_model


def _friendly_errors(fn):
    """Surface library rejections, unwritable outputs and sizes no process can
    allocate as clean CLI errors, not tracebacks."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except click.ClickException:
            raise
        except (ValueError, OSError, MemoryError) as exc:
            raise click.ClickException(str(exc) or type(exc).__name__) from exc

    return wrapper


# ---------------------------------------------------------------------------
# CSV output: a header row, "\n" line ends, minimal quoting, floats by their
# round-trip repr and an empty cell for None; rows carry raw values


@contextlib.contextmanager
def _opened(out):
    """out opened for writing, or stdout when out is None; a failure to open
    or write names the path."""
    if out is None:
        yield sys.stdout
        return
    try:
        with open(out, "w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise OSError(f"cannot write {out}: {exc}") from exc


def write_csv(header: list[str], rows, out) -> None:
    """One CSV table to the path out, or to stdout when out is None."""
    with _opened(out) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


_REPORT_HEADER = [f.name for f in fields(ReportRow)]
_ESTIMATE_HEADER = ["model", "f", "k_or_n", "statistic", "estimate", "se_or_ci_low", "ci_high",
                    "reps", "seed"]


def emit_report(rows: list[ReportRow], out) -> None:
    """A verification report: one line per ReportRow, its fields in order."""
    write_csv(_REPORT_HEADER, map(astuple, rows), out)


def write_estimates_csv(rows: list[list], out) -> None:
    write_csv(_ESTIMATE_HEADER, rows, out)


def write_profile_csv(profile: DependenceProfile, out) -> None:
    """Columns r, delta, kind, in one pass; the bytes csv.writer would give
    (delta by repr, so it reads back exactly)."""
    rows = "".join(f"{r},{d!r},{profile.kind}\n" for r, d in enumerate(profile.delta.tolist(), 1))
    with _opened(out) as fh:
        fh.write("r,delta,kind\n" + rows)


@click.group()
def main():
    """Deviation bounds for sums of weakly dependent sequences."""


@main.command("bounds")
@click.option("--theorem", required=True, type=click.Choice(list(THEOREMS)))
@click.option("--n", required=True, type=int)
@click.option("--x-grid", "xs", required=True,
              callback=lambda _ctx, _param, text: parse_x_grid(text))
@click.option("--sigma-sq", type=float, default=None, help="variance entering the threshold")
@click.option("--k", type=int, default=None, help="block size k* or k*'")
@click.option("--phi", default=None, help="comma list phi_1..phi_{n-1} (hoeffding)")
@_out_option("--out", default=None)
@_friendly_errors
def bounds_cmd(theorem, n, xs, sigma_sq, k, phi, out):
    """Evaluate a threshold formula over an x-grid (no simulation)."""
    entry = THEOREMS[theorem]
    given = _given(sigma_sq=sigma_sq, k=k, phi=phi)
    flag = lambda name: "--" + name.replace("_", "-")
    if any(name not in given for name in entry.reads):
        raise click.UsageError(f"{theorem} needs {' and '.join(map(flag, entry.reads))}")
    stray = [name for name in given if name not in entry.reads]
    if stray:
        raise click.UsageError(f"{flag(stray[0])} is not a flag of theorem {theorem!r}")
    if phi is not None:
        given["phi"] = _parse_list(phi, "phi")
    inputs = [given[name] for name in entry.reads]
    rows = [[theorem, x, entry.threshold(n, *inputs, x), math.exp(-x)] for x in xs]
    write_csv(["theorem", "x", "threshold", "bound_value"], rows, out)


@main.command("profile")
@_model_options
@click.option("--n", required=True, type=int)
@_out_option("--out", required=True)
@_friendly_errors
def profile_cmd(m, n, out):
    """Emit the dependence profile a model satisfies, as CSV (r, delta, kind)."""
    prof = dependence_profile_for(m, n)
    write_profile_csv(prof, out)
    _echo(f"{m.name}: wrote {prof.n} lags ({prof.kind}) to {out}")


@main.command("simulate")
@_model_options
@click.option("--n", required=True, type=int)
@_SEED
@_out_option("--out", required=True)
@_friendly_errors
def simulate_cmd(m, n, seed, out):
    """Simulate one trajectory and write it as CSV (t, x)."""
    write_csv(["t", "x"], enumerate(simulate(m, n, seed).tolist(), 1), out)
    _echo(f"{m.name}: wrote {n} steps to {out}")


@main.command("estimate-variance")
@_model_options
@click.option("--observable", type=click.Choice(OBSERVABLES), default="centered-identity")
@click.option("--omega", type=click.IntRange(min=1), default=None)
@click.option("--k-grid", required=True, help="comma list of block lengths")
@click.option("--reps", type=int, default=10000)
@_SEED
@_THREADS
@_out_option("--out", default=None)
@_friendly_errors
def estimate_variance_cmd(m, observable, omega, k_grid, reps, seed, threads, out):
    """Estimate sigma_k^2 over a grid of block lengths."""
    if omega is not None and observable == "centered-identity":
        raise click.BadParameter("sets nothing for the identity", param_hint="--omega")
    f = observable_for(m, observable, omega or 1)
    ks = _parse_list(k_grid, "k-grid", int)
    ests = estimate_sigma_profile(m, f, ks, reps, seed, threads)
    _echo("\n".join(f"k={e.k} sigma_sq={e.sigma_sq_hat:.6g} se={e.std_error:.3g} reps={e.reps}"
                     for e in ests))
    if out is not None:
        write_estimates_csv([[m.name, observable, e.k, "sigma_sq", e.sigma_sq_hat, e.std_error,
                              None, e.reps, seed] for e in ests], out)
        _echo(f"wrote {out}")


@main.command("estimate-coupling")
@_model_options
@click.option("--r-grid", required=True, help="comma list of block half-lengths")
@click.option("--j-grid", required=True,
              help="comma list of split indices j >= 1; each keys its own pairs' seeds")
@click.option("--reps", type=int, default=10000)
@_SEED
@_THREADS
@_out_option("--out", default=None)
@_out_option("--block-out", default=None,
              help="also export the first r's block of replication 0 of the first j as CSV")
@_friendly_errors
def estimate_coupling_cmd(m, r_grid, j_grid, reps, seed, threads, out, block_out):
    """Empirical coupled-block distance maxima over (r, j) grids."""
    rs = _parse_list(r_grid, "r-grid", int)
    js = _parse_list(j_grid, "j-grid", int)
    ests = estimate_coupling_delta(m, rs, js, reps, seed, threads)
    _echo("\n".join(f"r={e.r} j={e.j} max_sum={e.max_sum:.6g} witness={e.witness:.6g} "
                     f"reps={e.reps}" for e in ests))
    if out is not None:
        write_estimates_csv([[m.name, None, f"r={e.r},j={e.j}", "coupling_max_sum", e.max_sum,
                              e.witness, None, e.reps, seed] for e in ests], out)
        _echo(f"wrote {out}")
    if block_out is not None:  # a pair the first j's estimate maximizes over
        block = simulate_coupled_block(m, rs[0], coupling_seeds(seed, js[0], 0, 1)[0])
        cols = (block.original.tolist(), block.starred.tolist(), block.distance.tolist())
        write_csv(["i", "x", "x_star", "dist"], zip(range(block.r, 2 * block.r), *cols), block_out)
        _echo(f"wrote coupled block r={rs[0]} j={js[0]} to {block_out}")


@main.command("verify")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None, help="override the config's out path")
@_THREADS
@click.pass_context
@_friendly_errors
def verify_cmd(ctx, config_path, out, threads):
    """Run an end-to-end bound verification from a JSON config."""
    cfg = load_config(config_path)
    out = out or cfg.out
    if out is None:
        raise click.UsageError("no output path: set 'out' in the config or pass --out")
    _out_dir_exists(out, "out")
    rows = run_verification(cfg, threads)
    emit_report(rows, out)
    for row in rows:
        note = "" if row.theorem in THEOREMS else " (reference curve, not a claimed bound)"
        if row.verdict == "skipped":
            _echo(f"{row.theorem} x={row.x:g}: skipped (no admissible block size)")
        else:
            _echo(
                f"{row.theorem} x={row.x:g}: threshold={row.threshold:.6g} "
                f"p_hat={row.p_hat:.3g} ci_high={row.ci_high:.3g} "
                f"bound={row.bound_value:.6g} {row.verdict}{note}"
            )
    _echo(f"wrote {out}")
    # reference rows are informational; only claimed bounds decide the exit code
    if any(row.verdict == "fail" and row.theorem in THEOREMS for row in rows):
        ctx.exit(1)


@main.command("asymptotics")
@click.option("--family", required=True, type=click.Choice(["geometric", "polynomial"]))
@click.option("--c", type=float, default=1.0)
@click.option("--decay", type=float, required=True,
              help="geometric ratio in (0,1), or polynomial exponent > 1")
@click.option("--targets", required=True, help="comma list of decreasing positive targets v")
@_out_option("--out", default=None)
@_friendly_errors
def asymptotics_cmd(family, c, decay, targets, out):
    """Block-size growth k*(v) and its stabilized ratio across targets."""
    vs = _parse_list(targets, "targets")
    try:
        rows = run_blocksize_asymptotics(family, vs, c=c, decay=decay)
    except ValidationError as exc:
        raise click.BadParameter(str(exc), param_hint=f"--{exc.field}") from exc
    write_csv(["target", "k_star", "ratio"], map(astuple, rows), out)
    _echo(f"ratio spread (max/min): {ratio_spread(rows):.4f}", err=(out is None))


if __name__ == "__main__":
    main()

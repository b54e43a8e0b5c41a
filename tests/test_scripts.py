"""Smoke runs of the example scripts and of the benchmark's trace targets,
each in its own interpreter, and a check of the model flags the benchmark
passes."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from weakdev.cli import _model_options, main

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("coupling_check.py", ["--r-max", "3", "--reps", "50"]),
        ("verify_doubling.py", ["--n", "50", "--reps", "200", "--outdir", "{tmp}"]),
        ("blocksize_asymptotics.py", []),
    ],
)
def test_script_runs_clean(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *(a.format(tmp=tmp_path) for a in args)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout and "VIOLATED" not in res.stdout


_RESOLVE_TRACE_TARGETS = """
import layers
missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
           for owner, attr, *_ in layers.targets() if not hasattr(owner, attr)]
missing += [f"{pool.__name__}.ThreadPoolExecutor"
            for pool in layers.POOLS if not hasattr(pool, "ThreadPoolExecutor")]
assert not missing, f"trace targets that no longer exist: {missing}"
"""


def test_benchmark_trace_targets_resolve():
    # the traced benchmark (perfbench/run.py --trace 1) rebinds each of these
    # names; one that a refactor of src/ removed would fail only there
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    res = subprocess.run(
        [sys.executable, "-c", _RESOLVE_TRACE_TARGETS],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert res.returncode == 0, res.stderr


def test_every_library_refusal_is_a_validation_error():
    # one refusal type: errors.py declares ValidationError and its config
    # subclass alone, and only the CLI raises anything else (click's errors)
    src = ROOT / "src" / "weakdev"
    errors = ast.parse((src / "errors.py").read_text())
    assert [n.name for n in errors.body if isinstance(n, ast.ClassDef)] == [
        "ValidationError", "ConfigError"]
    others = []
    for path in sorted(src.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                call = node.exc
                name = getattr(getattr(call, "func", None), "id", None)
                if name not in ("ValidationError", "ConfigError"):
                    others.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not others, others


_BENCHMARK_MODEL_FLAGS = """
import json
import workloads
print(json.dumps({label: workloads.model_flags(label) for label in workloads.MODELS}))
"""


def test_model_flags_are_the_declared_fields_and_serve_the_benchmark(tmp_path):
    # the model flags are worked out from the dataclass fields, so a renamed
    # field renames its flag; the benchmark's flags must still build its models
    params = click.command()(_model_options(lambda m: None)).params
    assert [(p.opts, p.type.name, p.default) for p in params if p.name != "model"] == [
        (["--kappa"], "float", None),
        (["--theta"], "float", None),
        (["--truncation"], "integer", None),
        (["--weight-family"], "choice", None),
        (["--weight-c"], "float", None),
        (["--weight-ratio"], "float", None),
        (["--weight-power"], "float", None),
    ]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    res = subprocess.run(
        [sys.executable, "-c", _BENCHMARK_MODEL_FLAGS],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    for label, flags in json.loads(res.stdout).items():
        out = tmp_path / f"{label}.csv"
        res = CliRunner().invoke(main, ["profile", *flags, "--n", "8", "--out", str(out)])
        assert res.exit_code == 0, (label, res.output)


_ONE_ROUND_PER_WORKLOAD = """
import json, sys
from pathlib import Path
import workloads
out = {}
for spec in json.loads(Path(sys.argv[1]).read_text())["workloads"]:
    workdir = Path(spec["name"])
    workdir.mkdir()
    wl = workloads.make(spec["name"], workdir, 1)
    wl.prepare()
    wl.build()
    rnd = wl.run_round(0, lambda rnd, fn, *args: fn(*args))
    out[spec["name"]] = [rnd.problems, rnd.attempted, rnd.failed]
print(json.dumps(out))
"""


def test_one_round_of_each_gated_workload_runs_correct(tmp_path):
    # a change to src/ that breaks a benchmark workload would otherwise show
    # only when the benchmark runs; coupling's failed third is the doubling
    # map's profile lying below the coupling its simulator realizes
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    res = subprocess.run(
        [sys.executable, "-c", _ONE_ROUND_PER_WORKLOAD, str(ROOT / "BENCHMARK.json")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    for name, (problems, attempted, failed) in json.loads(res.stdout).items():
        assert not problems and attempted > 0, (name, problems)
        assert failed == (attempted / 3 if name == "coupling" else 0), (name, attempted, failed)

"""Golden digests of every file and table the command line writes.

Each entry is the first 16 hex digits of the sha256 of one command's output
at a small size: the file named by an output flag, or stdout where the
command prints its CSV table. Any change to the CSV dialect (header, quoting,
line ends, float formatting, empty cells) or to the values behind a file
shows up as a digest mismatch. Regenerate only when an output change is
intended and argued for: running this file as a script prints the current
tables to paste over GOLDEN and VERIFY_GOLDEN.
"""

import ast
import contextlib
import gc
import hashlib
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner

import weakdev.cli as cli
import weakdev.harness as harness
from weakdev.cli import main
from weakdev.estimation import estimate_coupling_delta, estimate_sigma_profile
from weakdev.processes import MODELS, observable_for

DOUBLING = ["--model", "doubling-map"]
GEOMETRIC = ["--model", "infinite-memory", "--weight-family", "geometric",
             "--weight-c", "0.5", "--weight-ratio", "0.5"]
COUPLING = ["--r-grid", "1,2,5", "--j-grid", "1,3", "--reps", "200", "--seed", "4"]

# label -> (arguments, output flag or None for stdout); "{out}" is the file
COMMANDS = {
    "bounds.stdout": (
        ["bounds", "--theorem", "thm2", "--n", "100", "--x-grid", "0.5:3:0.5",
         "--sigma-sq", "0.1", "--k", "4"], None),
    "bounds.out": (
        ["bounds", "--theorem", "hoeffding", "--n", "5", "--x-grid", "0.25,1,7",
         "--phi", "0.5,0.25,0.125,0.0625", "--out", "{out}"], "--out"),
    "profile": (
        ["profile", "--model", "infinite-memory", "--weight-family", "polynomial",
         "--weight-c", "0.25", "--weight-power", "3", "--n", "300", "--out", "{out}"], "--out"),
    "simulate": (
        ["simulate", "--model", "bernoulli-shift", "--theta", "0.3", "--n", "40",
         "--seed", "9", "--out", "{out}"], "--out"),
    "estimate-variance": (
        ["estimate-variance", "--model", "kernel-chain", "--kappa", "0.6",
         "--observable", "centered-cosine", "--omega", "2", "--k-grid", "1,2,4,8",
         "--reps", "300", "--seed", "5", "--out", "{out}"], "--out"),
    "estimate-coupling.doubling.out": (
        ["estimate-coupling", *DOUBLING, *COUPLING, "--out", "{out}"], "--out"),
    "estimate-coupling.doubling.block-out": (
        ["estimate-coupling", *DOUBLING, *COUPLING, "--block-out", "{out}"], "--block-out"),
    "estimate-coupling.geometric.out": (
        ["estimate-coupling", *GEOMETRIC, *COUPLING, "--out", "{out}"], "--out"),
    "estimate-coupling.geometric.block-out": (
        ["estimate-coupling", *GEOMETRIC, *COUPLING, "--block-out", "{out}"], "--block-out"),
    "asymptotics.stdout": (
        ["asymptotics", "--family", "geometric", "--decay", "0.5",
         "--targets", "0.1,0.01,0.001"], None),
    "asymptotics.out": (
        ["asymptotics", "--family", "polynomial", "--c", "2", "--decay", "3",
         "--targets", "0.1,0.01,0.001", "--out", "{out}"], "--out"),
}

GOLDEN = {
    "bounds.stdout": "1cbb48683d24dc61",
    "bounds.out": "dac072df486a3468",
    "profile": "111027cdfd06266a",
    "simulate": "0abd7a0b9d9306b7",
    "estimate-variance": "e31316da0cb77766",
    "estimate-coupling.doubling.out": "b339c0b9ae249f5c",
    "estimate-coupling.doubling.block-out": "1a4e216b0f094795",
    "estimate-coupling.geometric.out": "acdef2dc60693933",
    "estimate-coupling.geometric.block-out": "961fe4f3ffc1ecc7",
    "asymptotics.stdout": "78d47efdbe9428c5",
    "asymptotics.out": "b3184a4a70288f2d",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _command_digest(workdir: Path, label: str) -> str:
    args, flag = COMMANDS[label]
    out = workdir / "out.csv"
    res = CliRunner().invoke(main, [a.replace("{out}", str(out)) for a in args])
    assert res.exit_code == 0, res.output
    return _digest(out.read_bytes() if flag else res.stdout_bytes)


@pytest.mark.parametrize("label", COMMANDS)
def test_command_output_matches_golden_digest(tmp_path, label):
    assert _command_digest(tmp_path, label) == GOLDEN[label]


def test_estimate_commands_print_one_line_per_estimate(tmp_path):
    # stdout is one line per estimate, in the order the library returns them,
    # then the line naming the file written
    out = tmp_path / "est.csv"
    kernel = MODELS["kernel-chain"](kappa=0.6)
    ests = estimate_sigma_profile(kernel, observable_for(kernel, "centered-cosine", 2),
                                  [1, 2, 4, 8], 300, 5)
    want = "".join(f"k={e.k} sigma_sq={e.sigma_sq_hat:.6g} se={e.std_error:.3g} reps={e.reps}\n"
                   for e in ests)
    args, _ = COMMANDS["estimate-variance"]
    res = CliRunner().invoke(main, [a.replace("{out}", str(out)) for a in args])
    assert res.exit_code == 0 and res.stdout == want + f"wrote {out}\n"
    ests = estimate_coupling_delta(MODELS["doubling-map"](), [1, 2, 5], [1, 3], 200, 4)
    want = "".join(f"r={e.r} j={e.j} max_sum={e.max_sum:.6g} witness={e.witness:.6g} "
                   f"reps={e.reps}\n" for e in ests)
    args, _ = COMMANDS["estimate-coupling.doubling.out"]
    res = CliRunner().invoke(main, [a.replace("{out}", str(out)) for a in args])
    assert res.exit_code == 0 and res.stdout == want + f"wrote {out}\n"


# theorem -> (exit code, report digest); x = 6 fails at every theorem, since
# 300 replications cannot certify a tail probability below e^-6
VERIFY_GOLDEN = {
    "iid_eq1": (1, "af2ab7e7dc3afbf1"),
    "thm1": (1, "1f5c49bbd0296432"),
    "thm2": (1, "4d198aaaf8efbf21"),
    "hoeffding": (1, "2ce180e936b68c0a"),
}


def _verify_digest(workdir: Path, theorem: str) -> tuple[int, str]:
    """(exit code, report digest) of one verify run."""
    report = workdir / "report.csv"
    config = workdir / "config.json"
    config.write_text(json.dumps({
        "model": {"variant": "kernel-chain", "kappa": 0.6},
        "observable": {"id": "centered-cosine", "omega": 2},
        "n": 64,
        "x_grid": [0.5, 1.0, 2.0, 6.0],
        "theorem": theorem,
        "reps": 300,
        "base_seed": 11,
        "out": str(report),
    }))
    res = CliRunner().invoke(main, ["verify", "--config", str(config)])
    assert res.exit_code in (0, 1), res.output
    return res.exit_code, _digest(report.read_bytes())


@pytest.mark.parametrize("theorem", VERIFY_GOLDEN)
def test_verify_report_matches_golden_digest(tmp_path, theorem):
    assert _verify_digest(tmp_path, theorem) == VERIFY_GOLDEN[theorem]


def test_in_process_calls_retain_no_stdout(tmp_path):
    # click.echo left to pick its own stream caches a wrapper per stdout object
    # that keeps the object alive, so each call under a redirected stdout
    # would retain its buffer and text (about 0.5 KiB a call here)
    args = ["profile", "--model", "doubling-map", "--n", "8", "--out", str(tmp_path / "p.csv")]

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            main(args, prog_name="weakdev", standalone_mode=False)

    call()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(200):
            call()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 32 * 1024


def _verify_config(tmp_path, **extra) -> Path:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": "doubling-map", "n": 16, "x_grid": [1.0],
                                  "theorem": "thm2", "reps": 50, "base_seed": 3, **extra}))
    return config


# every function a command computes its output with, by the module it is called
# through (`bounds` calls its threshold through the table in harness)
COMPUTE = {
    cli: ("dependence_profile_for", "simulate", "estimate_sigma_profile",
          "estimate_coupling_delta", "simulate_coupled_block", "run_blocksize_asymptotics"),
    harness: ("hoeffding_threshold", "thm2_threshold"),
}


@pytest.mark.parametrize("label", [label for label, (_args, flag) in COMMANDS.items() if flag])
def test_unwritable_output_is_a_one_line_error(tmp_path, monkeypatch, label):
    # a missing directory is refused as a usage error naming the option,
    # before any computation; a path that is a directory fails when written
    def no_run(*_args, **_kwargs):
        raise AssertionError("computed an output that cannot be written")

    args, flag = COMMANDS[label]
    missing = tmp_path / "missing" / "out.csv"
    with monkeypatch.context() as patched:
        for module, names in COMPUTE.items():
            for name in names:
                patched.setattr(module, name, no_run)
        res = CliRunner().invoke(main, [a.replace("{out}", str(missing)) for a in args])
    assert res.exit_code == 2, res.output
    assert f"Invalid value for '{flag}': the directory of {missing} does not exist" in res.output
    res = CliRunner().invoke(main, [a.replace("{out}", str(tmp_path)) for a in args])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit), res.exception
    assert f"Error: cannot write {tmp_path}: " in res.output and "Traceback" not in res.output


def test_a_memory_error_without_a_message_is_a_one_line_error(monkeypatch):
    def no_memory(*_args):
        raise MemoryError()

    monkeypatch.setattr(cli, "estimate_coupling_delta", no_memory)
    res = CliRunner().invoke(main, ["estimate-coupling", "--model", "doubling-map",
                                    "--r-grid", "1", "--j-grid", "1", "--reps", "2"])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.exception
    assert res.output == "Error: MemoryError\n"


def test_verify_refuses_an_out_in_a_missing_directory_before_it_simulates(tmp_path, monkeypatch):
    def no_run(*_args):
        raise AssertionError("simulated a run whose report cannot be written")

    monkeypatch.setattr(cli, "run_verification", no_run)
    out = str(tmp_path / "missing" / "report.csv")
    for extra, flags in (({"out": out}, []), ({}, ["--out", out])):
        config = _verify_config(tmp_path, **extra)
        res = CliRunner().invoke(main, ["verify", "--config", str(config), *flags])
        assert res.exit_code == 2, res.output
        assert "Invalid value for out" in res.output and "Traceback" not in res.output


def test_verify_reports_an_unwritable_out_as_a_one_line_error(tmp_path):
    # the directory exists, so the run goes ahead; writing a directory fails
    res = CliRunner().invoke(main, ["verify", "--config", str(_verify_config(tmp_path)),
                                    "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert f"Error: cannot write {tmp_path}: " in res.output and "Traceback" not in res.output


# ---------------------------------------------------------------------------
# layering: the library computes, cli writes every file

SRC = Path(__file__).resolve().parents[1] / "src" / "weakdev"


def _writes_files(tree: ast.AST) -> list[str]:
    """Lines that import csv, open a file with a write, append or create mode
    (open(path, mode) or path.open(mode)), or call write_text/write_bytes."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
            found.append(f"{node.lineno}: import csv")
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            found.append(f"{node.lineno}: from csv import")
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in ("write_text", "write_bytes"):
                found.append(f"{node.lineno}: {name}")
            elif name == "open":
                at = 1 if isinstance(node.func, ast.Name) else 0
                modes = node.args[at:at + 1] + [k.value for k in node.keywords if k.arg == "mode"]
                if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                       for m in modes):
                    found.append(f"{node.lineno}: open for writing")
    return found


def test_writes_files_finds_each_way_of_writing():
    code = """
import csv
from csv import writer
open(p)
open(p, "r")
open(p, "w", newline="")
open(p, mode="a")
path.open()
path.open("wb")
path.write_text(s)
"""
    lines = sorted(int(found.split(":")[0]) for found in _writes_files(ast.parse(code)))
    assert lines == [2, 3, 6, 7, 9, 10]


def test_only_cli_writes_files():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    writers = {p.name: _writes_files(ast.parse(p.read_text())) for p in modules}
    assert writers.pop("cli.py"), "cli.py writes every CSV"
    assert {name: lines for name, lines in writers.items() if lines} == {}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for label in COMMANDS:
            print(f'    "{label}": "{_command_digest(Path(tmp), label)}",')
        print("}")
        print("VERIFY_GOLDEN = {")
        for theorem in VERIFY_GOLDEN:
            code, digest = _verify_digest(Path(tmp), theorem)
            print(f'    "{theorem}": ({code}, "{digest}"),')
        print("}")

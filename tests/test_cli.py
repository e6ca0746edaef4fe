"""End-to-end CLI behavior through main(argv); one test runs `ldm sample`
in a subprocess to check what its chain workers leave behind."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ldmlang import cli, sampler
from ldmlang.cli import main
from ldmlang.datatable import read_table

ROOT = pathlib.Path(__file__).resolve().parent.parent

AR1 = """ProgramName: Tiny
Indices: t 0 19
a ~ N(0, 1)
sigma ~ HalfNormal(1)
y[0] ~ N(0, 1)
y[t] ~ N(a*y[t-1], sigma)
"""


@pytest.fixture()
def model_file(tmp_path):
    p = tmp_path / "tiny.ldm"
    p.write_text(AR1)
    return str(p)


@pytest.fixture()
def data_file(tmp_path):
    rng = np.random.default_rng(0)
    y = rng.normal(size=20)
    y[4] = np.nan
    lines = ["t,y"] + [f"{t},{'' if np.isnan(v) else repr(float(v))}"
                       for t, v in enumerate(y)]
    p = tmp_path / "data.csv"
    p.write_text("\n".join(lines) + "\n")
    return str(p)


def test_check_ok(model_file, capsys):
    assert main(["check", model_file]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "Tiny" in out


def test_check_reports_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.ldm"
    bad.write_text("ProgramName: Bad\nx ~ N(qq, 1)\n")
    assert main(["check", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "UndefinedVariable" in err


def test_check_syntax_error(tmp_path, capsys):
    bad = tmp_path / "bad.ldm"
    bad.write_text("x ~ N(0, 1)\n")
    assert main(["check", str(bad)]) == 1
    assert "ProgramName" in capsys.readouterr().err


def test_graph_writes_dot(model_file, tmp_path, capsys):
    out = tmp_path / "g.dot"
    assert main(["graph", model_file, "-o", str(out)]) == 0
    assert "digraph" in out.read_text()
    # without -o the DOT goes to stdout
    assert main(["graph", model_file]) == 0
    assert "cluster_cur" in capsys.readouterr().out


def test_simulate_writes_table_and_manifest(model_file, tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert main(["simulate", model_file, "--draws", "7", "--seed", "3",
                 "-o", str(out)]) == 0
    table = read_table(str(out), ("draw", "t"))
    assert table.n_rows == 7 * 20
    assert set(table.columns) == {"a", "sigma", "y"}
    man = json.loads((tmp_path / "sim.manifest.json").read_text())
    assert man["command"] == "simulate"
    assert man["seed"] == 3
    assert man["output"] == str(out)


def test_manifest_times_the_compile_phases(model_file, data_file, tmp_path):
    phases = {"validate", "graph", "bind", "lower"}
    sim = tmp_path / "sim.csv"
    assert main(["simulate", model_file, "--draws", "2", "-o", str(sim)]) == 0
    out = tmp_path / "draws.csv"
    assert main(sample_args(model_file, data_file, str(out))) == 0
    for path, extra in ((sim, {"compile", "simulate", "write"}),
                        (out, {"compile", "compile_gradient", "sample",
                               "write"})):
        times = json.loads(pathlib.Path(cli._manifest_path(str(path)))
                           .read_text())["wall_clock_seconds"]
        assert set(times) == phases | extra
        assert all(t >= 0.0 for t in times.values())
        assert sum(times[p] for p in phases) <= times["compile"]


def test_simulate_without_lookup_input_is_a_clean_error(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    model = str(ROOT / "models" / "multilevel_b.ldm")
    assert main(["simulate", model, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: input 'actor' has no value")
    assert "Traceback" not in err
    assert not out.exists()


def test_simulate_is_reproducible_from_its_seed(tmp_path, capsys):
    model = str(ROOT / "models" / "dbn.ldm")

    def simulate(seed, name):
        out = tmp_path / name
        assert main(["simulate", model, "--draws", "3", "--seed", str(seed),
                     "-o", str(out)]) == 0
        return out.read_bytes()

    first = simulate(5, "a.csv")
    assert simulate(5, "b.csv") == first
    assert simulate(6, "c.csv") != first


# SHA-256 of `ldm simulate MODEL --draws 5 --seed 1`. These models have no
# replicate axis, or only scalar variables, so every block of the prior walk
# is one cell and the draws come from the RNG stream in the order of a walk
# over single cells.
SIMULATE_SHA256 = {
    "ar1": "0905f3a3f7a87072f394b4430213f1fc47514dbbca8b755cad12570cc0254fe1",
    "ar2": "a6b76303422ce01ad1dce49f592509393d1f8e6d9581d6cdbb3ac4aa7a28c417",
    "zero_inflated":
        "fa92baff5c46e5a633e141dd717b9f1755a8a9585e4b553132358afb538f3591",
    "linear_regression":
        "149abbc9f1d7367983b7ad8417ea98abc5a5b6ebc2e8f226fde04ecf7ea0ad0e",
}


@pytest.mark.parametrize("name", sorted(SIMULATE_SHA256))
def test_simulate_output_is_pinned(name, tmp_path, capsys):
    out = tmp_path / "sim.csv"
    args = ["simulate", str(ROOT / "models" / f"{name}.ldm"), "--draws", "5",
            "--seed", "1", "-o", str(out)]
    if name == "linear_regression":
        x = tmp_path / "x.csv"
        x.write_text("x\n1.7\n")
        args += ["--data", str(x)]
    assert main(args) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIMULATE_SHA256[name]


def test_simulate_overflow_is_one_line_not_a_runtime_warning(tmp_path,
                                                            capsys):
    # a ~ N(0, 10) makes most AR(1) prior paths explosive over 300 steps
    out = tmp_path / "sim.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", str(ROOT / "models" / "ar1.ldm"),
                     "--draws", "30", "--seed", "5", "-o", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: non-finite prior draws")
    counts = json.loads((tmp_path / "sim.manifest.json").read_text())[
        "nonfinite_cells"]
    assert list(counts) == ["y"]
    assert f"y {counts['y']} of {30 * 300}" in err[0]
    # inf and empty (NaN) cells read back
    y = read_table(str(out), ("draw", "t")).column("y")
    assert counts["y"] == np.count_nonzero(~np.isfinite(y)) > 0


def test_sample_needs_data(model_file, capsys):
    assert main(["sample", model_file]) == 1
    err = capsys.readouterr().err
    assert "ldm simulate" in err


def test_sample_needs_observed_vars(model_file, tmp_path, capsys):
    other = tmp_path / "other.csv"
    other.write_text("t,z\n0,1.0\n")
    assert main(["sample", model_file, "--data", str(other)]) == 1
    assert "no observed variables" in capsys.readouterr().err


def test_sample_rejects_infinite_cells(model_file, data_file, tmp_path,
                                       capsys):
    lines = open(data_file).read().splitlines()
    lines[2] = "1,inf"
    bad = tmp_path / "inf.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = str(tmp_path / "draws.csv")
    assert main(sample_args(model_file, str(bad), out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "y[1]" in err
    assert not os.path.exists(out)


def sample_args(model_file, data_file, out, seed=7):
    return ["sample", model_file, "--data", data_file, "-o", out,
            "--warmup", "150", "--samples", "100", "--chains", "2",
            "--seed", str(seed)]


def test_sample_end_to_end(model_file, data_file, tmp_path, capsys):
    out = tmp_path / "draws.csv"
    assert main(sample_args(model_file, data_file, str(out))) == 0
    header = out.read_text().splitlines()[0].split(",")
    # y[0] is observed data, so the sites are two parameters + one imputed cell
    assert header[:2] == ["chain", "draw"]
    assert header[2:] == ["a", "sigma", "y[4]"]
    assert len(out.read_text().splitlines()) == 1 + 2 * 100

    man = json.loads((tmp_path / "draws.manifest.json").read_text())
    assert man["tool"] == "ldm"
    assert man["command"] == "sample"
    assert man["obs"] == ["y"]
    assert man["mode"] == "FUSED"
    assert man["config"]["n_chains"] == 2
    assert man["data"] == [data_file]
    assert set(man["wall_clock_seconds"]) == {
        "compile", "validate", "graph", "bind", "lower", "compile_gradient",
        "sample", "write"}
    assert man["wall_clock_seconds"]["sample"] > 0


def test_sample_is_bitwise_reproducible(model_file, data_file, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(sample_args(model_file, data_file, str(a))) == 0
    assert main(sample_args(model_file, data_file, str(b))) == 0
    assert a.read_bytes() == b.read_bytes()


def test_no_optimize_flag_selects_unrolled(model_file, data_file, tmp_path):
    out = tmp_path / "u.csv"
    args = sample_args(model_file, data_file, str(out)) + ["--no-optimize"]
    assert main(args) == 0
    man = json.loads((tmp_path / "u.manifest.json").read_text())
    assert man["mode"] == "UNROLLED"


def write_csv(path, index_names, rows, columns):
    lines = [",".join(list(index_names) + list(columns))]
    for i, row in enumerate(rows):
        cells = [repr(float(v[i])) if np.isfinite(v[i]) else ""
                 for v in columns.values()]
        lines.append(",".join([str(x) for x in row] + cells))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def ar1_data(tmp_path):
    """models/ar1.ldm's T=300 with 20% of the cells missing."""
    rng = np.random.default_rng(3)
    y = np.empty(300)
    y[0] = 0.0
    for t in range(1, 300):
        y[t] = 0.6 * y[t - 1] + 0.3 + rng.normal()
    y[rng.random(300) < 0.2] = np.nan
    return write_csv(tmp_path / "ar1.csv", ["t"], [[t] for t in range(300)],
                     {"y": y})


def dbn_data(tmp_path):
    """models/dbn_simplified.ldm's n=10, T=38 panel, 15% of each variable
    but P missing."""
    rng = np.random.default_rng(4)
    cols = {}
    for name in ("EM", "IM", "A", "C", "P"):
        v = rng.normal(size=380)
        if name != "P":
            v[rng.random(380) < 0.15] = np.nan
        cols[name] = v
    rows = [[n, t] for n in range(10) for t in range(38)]
    return write_csv(tmp_path / "dbn.csv", ["n", "t"], rows, cols)


@pytest.mark.parametrize("model, data, chains, draws", [
    ("ar1.ldm", ar1_data, 2, 40),
    ("ar1.ldm", ar1_data, 3, 40),     # 2 workers deal the chains round-robin
    ("ar1.ldm", ar1_data, 4, 40),
    ("dbn_simplified.ldm", dbn_data, 2, 20),
])
def test_sample_output_does_not_depend_on_worker_count(
        monkeypatch, tmp_path, model, data, chains, draws):
    args = ["sample", str(ROOT / "models" / model), "--data", data(tmp_path),
            "--chains", str(chains), "--warmup", str(2 * draws),
            "--samples", str(draws), "--seed", "7"]
    default = sampler._worker_count(chains)
    outputs = []
    for n_workers in sorted({1, default, 2}):
        monkeypatch.setattr(sampler, "_worker_count",
                            lambda n, w=n_workers: min(n, w))
        out = tmp_path / f"w{n_workers}.csv"
        assert main(args + ["-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert len(outputs) > 1
    assert all(o == outputs[0] for o in outputs[1:])


def test_manifest_records_workers_gradients_and_memory(
        monkeypatch, model_file, data_file, tmp_path):
    calls = [0]
    compile_model = cli.compile_model

    def counting(*args, **kwargs):
        plan = compile_model(*args, **kwargs)
        inner = plan.logdensity_and_grad

        def counted(u):
            calls[0] += 1
            return inner(u)

        plan.logdensity_and_grad = counted
        return plan

    monkeypatch.setattr(cli, "compile_model", counting)
    monkeypatch.setattr(sampler, "_worker_count", lambda n_chains: 1)
    out = tmp_path / "draws.csv"
    assert main(sample_args(model_file, data_file, str(out))) == 0
    man = json.loads((tmp_path / "draws.manifest.json").read_text())
    assert man["workers"] == 1
    grads = man["gradients"]
    assert len(grads["warmup"]) == len(grads["sampling"]) == 2
    assert sum(grads["warmup"]) + sum(grads["sampling"]) == calls[0]
    assert set(man["peak_rss_mb"]) == {"process", "workers"}
    assert man["peak_rss_mb"]["process"] > 0

    monkeypatch.setattr(sampler, "_worker_count", lambda n_chains: 2)
    assert main(sample_args(model_file, data_file, str(out))) == 0
    man2 = json.loads((tmp_path / "draws.manifest.json").read_text())
    assert man2["workers"] == 2
    assert man2["gradients"] == grads
    assert man2["peak_rss_mb"]["workers"] > 0


def test_manifest_records_each_chains_warmup(monkeypatch, model_file,
                                             data_file, tmp_path):
    # Pathfinder's calls, counted where the chain makes them, and one
    # entry per metric window
    counted = []
    start = sampler.pathfinder

    def counting(rng, grad_fn, value_fn, u, v, g):
        calls = {"gradients": 0, "values": 0}

        def grad(x):
            calls["gradients"] += 1
            return grad_fn(x)

        def value(x):
            calls["values"] += 1
            return value_fn(x)

        out = start(rng, grad, value, u, v, g)
        counted.append(calls)
        return out

    monkeypatch.setattr(sampler, "pathfinder", counting)
    monkeypatch.setattr(sampler, "_worker_count", lambda n_chains: 1)
    out = tmp_path / "draws.csv"
    assert main(sample_args(model_file, data_file, str(out))) == 0
    man = json.loads((tmp_path / "draws.manifest.json").read_text())
    assert len(man["warmup"]) == 2
    for chain, calls, n_grads in zip(man["warmup"], counted,
                                     man["gradients"]["warmup"]):
        path = chain["pathfinder"]
        assert set(path) == {"iterations", "gradients", "values",
                             "best_iteration", "elbo"}
        assert {k: path[k] for k in calls} == calls
        assert 1 <= path["best_iteration"] <= path["iterations"]
        assert isinstance(path["elbo"], float)
        assert [(w["start"], w["end"]) for w in chain["windows"]] == \
            sampler.mass_windows(150)
        for w in chain["windows"]:
            assert w["step_size"] > 0
            assert w["leapfrogs"] >= w["end"] - w["start"]
        leapfrogs = sum(w["leapfrogs"] for w in chain["windows"])
        assert path["gradients"] + leapfrogs < n_grads


def test_gradient_shadowed_on_the_plan_writes_the_same_draws(
        monkeypatch, model_file, data_file, tmp_path):
    # a wrapper set as `plan.logdensity_and_grad` on the plan instance, as
    # a profiler counting gradients sets it, reaches the forked chain
    # workers and changes nothing they write
    plain = tmp_path / "plain.csv"
    assert main(sample_args(model_file, data_file, str(plain))) == 0
    compile_model = cli.compile_model

    def shadowing(*args, **kwargs):
        plan = compile_model(*args, **kwargs)
        inner = plan.logdensity_and_grad
        plan.logdensity_and_grad = lambda u: inner(u)
        return plan

    monkeypatch.setattr(cli, "compile_model", shadowing)
    shadowed = tmp_path / "shadowed.csv"
    assert main(sample_args(model_file, data_file, str(shadowed))) == 0
    assert shadowed.read_bytes() == plain.read_bytes()


WORKER_HYGIENE = """\
import atexit, os, sys
from ldmlang import sampler
from ldmlang.cli import main
sampler._worker_count = lambda n_chains: n_chains
print("buffered before sampling")
atexit.register(print, "atexit handler ran", flush=True)
rc = main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child process is left")
except ChildProcessError:
    pass
sys.exit(rc)
"""


def test_chain_workers_leave_no_output_and_no_processes(model_file,
                                                        data_file, tmp_path):
    # stdout is a pipe, so the first line is still in the parent's buffer
    # when the workers fork: a worker that flushed it, or ran the atexit
    # handler, would print it again
    out = tmp_path / "draws.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(
        [sys.executable, "-c", WORKER_HYGIENE, "sample", model_file,
         "--data", data_file, "--chains", "3", "--warmup", "50",
         "--samples", "20", "-o", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines == ["buffered before sampling",
                     f"wrote {out} (3 chains x 20 draws, 3 sites, "
                     f"{lines[1].split(', ')[-1]}",
                     "atexit handler ran"], proc.stdout


def test_summary_of_draws(model_file, data_file, tmp_path, capsys):
    out = tmp_path / "draws.csv"
    main(sample_args(model_file, data_file, str(out)))
    capsys.readouterr()
    json_out = tmp_path / "summary.json"
    assert main(["summary", str(out), "-o", str(json_out)]) == 0
    text = capsys.readouterr().out
    assert "r_hat" in text and " a " in text + " "
    rows = json.loads(json_out.read_text())
    assert [r["site"] for r in rows] == ["a", "sigma", "y[4]"]


def ar1_missing_data(tmp_path):
    """models/ar1.ldm's T=300 with exactly 60 cells missing, as in the
    benchmark's ar1_missing workload."""
    rng = np.random.default_rng(31)
    y = np.empty(300)
    y[0] = rng.normal(1.0, 0.5 / np.sqrt(1 - 0.81))
    for t in range(1, 300):
        y[t] = 0.9 * y[t - 1] + 0.1 + rng.normal(0, 0.5)
    y[rng.choice(300, 60, replace=False)] = np.nan
    return write_csv(tmp_path / "ar1.csv", ["t"], [[t] for t in range(300)],
                     {"y": y})


# SHA-256 of `ldm sample models/ar1.ldm` on ar1_missing_data, 2 chains of
# 50+50 at the seed, then of `ldm summary`'s stdout and its `-o` JSON, whose
# floats are written in full: (draws CSV, summary stdout, summary JSON)
SAMPLE_SHA256 = {
    5: ("dcff7a9d0d03f409e6559dc6277085dc751592039b0142e0902ac2e31ca03f7f",
        "a7c47fe9c84be2b5b94aab4876ba9e153781fc7bb2d023b75ed3c50c7ccd131e",
        "6adfb7f845c2e79afacab3f69be20ef881b1d1ec743a1ad4b6b5f5b001e0f9f0"),
    11: ("6f8f1c10791e9900078371bee6a994a88c3fb8f626ff48ded2b5f63333f352ed",
         "64b85f3c8c8fad4e326d67f92d8b207f23ccbe83b9bf058aadea2d4ae4fefc3d",
         "039fcf1492bcfd577c6766c12aa6ee0206d7220b60d921021c514896c46da97d"),
}


@pytest.mark.parametrize("seed", sorted(SAMPLE_SHA256))
def test_sample_and_summary_output_is_pinned(seed, monkeypatch, tmp_path,
                                             capsys):
    data = ar1_missing_data(tmp_path)
    for n_workers in (1, 2):
        monkeypatch.setattr(sampler, "_worker_count",
                            lambda n, w=n_workers: min(n, w))
        draws = tmp_path / f"w{n_workers}.csv"
        rows = tmp_path / f"w{n_workers}.json"
        assert main(["sample", str(ROOT / "models" / "ar1.ldm"), "--data",
                     data, "--chains", "2", "--warmup", "50", "--samples",
                     "50", "--seed", str(seed), "-o", str(draws)]) == 0
        capsys.readouterr()
        assert main(["summary", str(draws), "-o", str(rows)]) == 0
        got = tuple(hashlib.sha256(b).hexdigest() for b in (
            draws.read_bytes(), capsys.readouterr().out.encode(),
            rows.read_bytes()))
        assert got == SAMPLE_SHA256[seed], n_workers


def test_summary_rejects_non_draws_csv(data_file, capsys):
    assert main(["summary", data_file]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("body, problem", [
    pytest.param("chain,draw,a\n0,0,1.5\n0,1,\n",
                 "line 3: cell '' is not a number", id="empty cell"),
    pytest.param("chain,draw,a\n0,0,1.5\n0,1,x\n",
                 "line 3: cell 'x' is not a number", id="non-numeric cell"),
    pytest.param("chain,draw,a\n0,0,1.5\n0,1\n0,2,2.5\n",
                 "line 3 has 2 cells, expected 3", id="ragged row"),
    pytest.param("chain,draw,a\n", "no draws after the header",
                 id="header only"),
    pytest.param("", "not a draws file (expected chain,draw,... header)",
                 id="empty file"),
])
def test_summary_of_a_malformed_draws_file_is_one_error_line(
        tmp_path, capsys, body, problem):
    draws = tmp_path / "draws.csv"
    draws.write_text(body)
    assert main(["summary", str(draws)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0] == f"error: {draws}: {problem}"


def test_ic_reports_criteria(model_file, data_file, tmp_path, capsys):
    draws = tmp_path / "draws.csv"
    main(sample_args(model_file, data_file, str(draws)))
    capsys.readouterr()
    out = tmp_path / "ic.json"
    assert main(["ic", model_file, "--data", data_file,
                 "--draws", str(draws), "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["k"] == 2  # a and sigma; imputed cells are not parameters
    assert payload["n"] == 19
    assert payload["aic"] == pytest.approx(2 * 2 + 2 * payload["nll"])
    printed = json.loads(capsys.readouterr().out)
    assert printed["bic"] == payload["bic"]


def test_ic_rejects_mismatched_draws(model_file, data_file, tmp_path, capsys):
    foreign = tmp_path / "foreign.csv"
    foreign.write_text("chain,draw,zz\n0,0,1.0\n0,1,2.0\n")
    assert main(["ic", model_file, "--data", data_file,
                 "--draws", str(foreign)]) == 1
    assert "site layout" in capsys.readouterr().err


def test_bench_grid(model_file, tmp_path, capsys):
    # fully observed data so the rate=0 cell has only parameter latents
    rng = np.random.default_rng(1)
    data = tmp_path / "full.csv"
    lines = ["t,y"] + [f"{t},{rng.normal()!r}" for t in range(20)]
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "bench.csv"
    assert main(["bench", model_file, "--data", str(data),
                 "--sizes", "8,12", "--rates", "0,25",
                 "--warmup", "40", "--samples", "20", "--chains", "1",
                 "-o", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "size,miss_rate_pct,mode,latent_dim,seconds"
    assert len(rows) == 1 + 2 * 2 * 2  # sizes x rates x modes
    cells = [r.split(",") for r in rows[1:]]
    for size, rate, mode, dim, secs in cells:
        if float(rate) == 0:
            assert dim == "2"  # only a and sigma stay latent on full data
        assert float(secs) > 0
    assert any(int(c[3]) > 2 for c in cells if float(c[1]) > 0)
    modes = {c[2] for c in cells}
    assert modes == {"FUSED", "UNROLLED"}


def test_unknown_command_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_missing_file_is_a_clean_error(capsys):
    assert main(["check", "/nonexistent/model.ldm"]) == 1
    assert "error:" in capsys.readouterr().err or \
        "No such file" in capsys.readouterr().err


NO_SCIPY = """
import contextlib, io, sys
import ldmlang, ldmlang.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert ldmlang.cli.main(sys.argv[1:3] + ["-o", "sim.csv"]) == 0
    assert ldmlang.cli.main(sys.argv[3:] + ["-o", "draws.csv"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_runs_without_importing_scipy(tmp_path):
    # `ldm simulate` and `ldm sample` of zero_inflated.ldm, whose gate is
    # expit(ap) and whose counts take gammaln
    (tmp_path / "y.csv").write_text("y\n3\n")
    model = str(ROOT / "models" / "zero_inflated.ldm")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, "simulate", model,
         "sample", model, "--data", "y.csv", "--chains", "1",
         "--warmup", "20", "--samples", "20"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"]

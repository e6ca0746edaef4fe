"""The package's public surface: its `__all__` lists, and the parts of the
program that the gradient microbenchmark in `perfbench/` reads."""

import pathlib
import subprocess
import sys

import pytest

import ldmlang
import ldmlang.frontend

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("module", [ldmlang, ldmlang.frontend],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    # a stale entry breaks `from module import *`
    assert [name for name in module.__all__
            if not hasattr(module, name)] == []


def test_microbench_reads_the_tape_and_scalar_sites():
    """perfbench/microbench.py counts autodiff tape entries and FUSED
    scalar sites through `autodiff.Tape`, `eval_logdensity` and
    `plan.blocks`; deleting any of them fails this run."""
    out = subprocess.run(
        [sys.executable, "perfbench/microbench.py", "--workload",
         "ar1_missing", "--seed", "1", "--seconds", "0.05"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    rows = {tuple(line.split()[1:]) for line in out.stdout.splitlines()}
    assert ("autodiff.tape_entries", "2") in rows
    assert ("plan.scalar_sites", "4") in rows

"""Time one set-up of a workload in a fresh process.

Run by run.py as `python3 setup_probe.py ROOT ARGV_JSON`, where ARGV_JSON is
the `ldm` command line of the workload's first call. Imports ldmlang.cli
from ROOT/src and runs that command through `ldmlang.cli.main` up to the
plan's first `logdensity_and_grad` returning (for `ldm simulate`, up to the
plan being compiled), then stops it before it samples or writes anything.
Prints one JSON line with the import time and the `time.perf_counter()`
reading at that point, which the parent compares with its own reading taken
just before it started this process (both read the system-wide monotonic
clock).
"""

import contextlib
import io
import json
import os
import sys
import time


class Ready(Exception):
    pass


def main() -> int:
    root, argv = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.perf_counter()
    import ldmlang.cli
    import_s = time.perf_counter() - t0

    compile_model = ldmlang.cli.compile_model

    def compile_then_stop(*args, **kwargs):
        plan = compile_model(*args, **kwargs)
        if argv[0] != "sample":
            raise Ready
        grad = plan.logdensity_and_grad

        def first_grad(u):
            grad(u)
            raise Ready

        plan.logdensity_and_grad = first_grad
        return plan

    ldmlang.cli.compile_model = compile_then_stop
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = ldmlang.cli.main(argv)
    except Ready:
        print(json.dumps({"ready": time.perf_counter(), "import_s": import_s}))
        return 0
    print(f"ldm {argv[0]} ended (exit {rc}) before its first gradient",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())

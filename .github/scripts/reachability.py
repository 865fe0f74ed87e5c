#!/usr/bin/env python3
"""List the functions under ``src/repro/`` that no production entry point calls.

    python3 .github/scripts/reachability.py

A ``sys.setprofile`` hook records every ``src/repro/`` code object entered
while four entry sets run in this one interpreter:

1. the five ledger workloads at smoke size, built through
   ``benchmarks/ledger/workloads.py`` (imported only, as
   ``retained_by_file.py`` does): start, run and the correctness check;
2. every pack of the scenario catalog at scale 0.05, serial and uncached,
   with observability on, and its ``[[expect]]`` rows checked (a FAIL
   verdict at that scale is not an error; only an exception is);
3. one smallest-argument invocation of each CLI subcommand;
4. every ``examples/*.py``, run as ``__main__`` without arguments.

It then prints, per file, the functions defined there that none of them
reached, and a total. Functions are found by compiling each file before
the entry points run (so a file edited mid-run cannot shift line numbers)
and walking its code objects, so methods and nested functions count, and
lambdas, comprehensions and class bodies do not. The hook is on from
before the first ``repro`` import, so what runs at import time counts as
reached. Tests are not an entry set: a function that only its own unit
tests call is listed.

The census is function-level. A dead branch inside a live function is not
listed; the private-flyweight branch ``SmrNode.__init__`` once had for
direct construction was such a branch.

Exits 1 if any entry point raises or a CLI command returns non-zero, so a
broken entry cannot silently shrink the reached set. What the entry points
print is discarded.
"""
import contextlib
import glob
import inspect
import io
import os
import runpy
import sys
import tempfile
import traceback
import types

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO, "src", "repro")
PACK_SCALE = 0.05


def defined_functions():
    """{file: [(first line, qualified name)]} for every function in ``SRC``."""
    found = {}
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path) as fh:
            stack = [compile(fh.read(), path, "exec")]
        functions = found.setdefault(path, [])
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    function = const.co_flags & inspect.CO_NEWLOCALS  # not a class body
                    if function and not const.co_name.startswith("<"):
                        functions.append((const.co_firstlineno, const.co_qualname))
    return found


def cli_commands(tmp):
    """One invocation per (nested) subcommand, sized to finish in seconds."""
    small = ["--scenario", "national", "--duration", "2"]
    engine = ["--jobs", "1", "--no-cache"]
    return [
        ["run", "--n", "4", *small],
        ["modes"],
        ["model", "--n", "7"],
        ["tune", "--n", "7"],
        ["table", "2"],
        ["fig", "3", "--scale", "0.05"],
        ["scenarios", "list"],
        ["scenarios", "show", "smoke"],
        ["scenarios", "validate", "smoke"],
        ["scenarios", "run", "smoke", "--scale", str(PACK_SCALE), *engine,
         "--report", os.path.join(tmp, "smoke_report.json")],
        ["capacity", "--n", "4", "--users", "100", "--points", "1", *small, *engine],
        ["cache", "stats", "--dir", os.path.join(tmp, "cache")],
        ["cache", "prune", "--dir", os.path.join(tmp, "cache"), "--dry-run"],
        ["run", "--n", "4", *small, "--report", os.path.join(tmp, "report.json")],
    ]


def entry_points(tmp):
    """(label, thunk) for every entry of the four sets, in run order."""
    sys.path[:0] = [os.path.join(REPO, "src"), os.path.join(REPO, "benchmarks", "ledger")]
    import workloads
    from repro import cli
    from repro.scenarios import catalog, check_rows, run_pack

    def ledger(workload):
        deployment = workloads.Deployment(workload, 0)
        deployment.start()
        deployment.run()
        deployment.check()

    def pack(name):
        grid, results = run_pack(name, scale=PACK_SCALE, jobs=1, cache=False,
                                 observability=True)
        for verdict in check_rows(grid, results):
            print(verdict.line())

    def command(argv):
        code = cli.main(argv)
        if code:
            raise SystemExit(f"exit status {code}")

    def example(path):
        sys.argv = [path]
        runpy.run_path(path, run_name="__main__")

    entries = [(f"ledger {name}", lambda w=w: ledger(w)) for name, w in workloads.SMOKE.items()]
    entries += [(f"pack {name}", lambda name=name: pack(name)) for name in catalog()]
    entries += [(f"cli {' '.join(argv[:2])}", lambda argv=argv: command(argv))
                for argv in cli_commands(tmp)]
    entries += [(f"example {os.path.basename(path)}", lambda path=path: example(path))
                for path in sorted(glob.glob(os.path.join(REPO, "examples", "*.py")))]
    return entries


def main():
    # Snapshot the definitions before anything runs: line numbers must be
    # those of the code that runs, even if a source file is edited mid-run.
    defined = defined_functions()
    failures = []
    reached = set()
    record = reached.add

    def hook(frame, event, arg):
        if event == "call":
            record(frame.f_code)

    sys.setprofile(hook)
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["REPRO_SWEEP_CACHE_DIR"] = os.path.join(tmp, "cache")
        os.environ["REPRO_SWEEP_JOBS"] = "1"
        argv = sys.argv
        for label, run in entry_points(tmp):
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    run()
            except SystemExit as exc:
                if exc.code not in (None, 0):
                    failures.append(label)
                    print(f"FAILED {label}: {exc.code}\n{sink.getvalue()}", file=sys.stderr)
            except Exception:
                failures.append(label)
                print(f"FAILED {label}:\n{sink.getvalue()}{traceback.format_exc()}",
                      file=sys.stderr)
            finally:
                sys.argv = argv
    sys.setprofile(None)
    reached_keys = {(code.co_filename, code.co_firstlineno, code.co_qualname) for code in reached}

    total = unreached = 0
    for path, functions in defined.items():
        missing = [(line, name) for line, name in functions
                   if (path, line, name) not in reached_keys]
        total += len(functions)
        unreached += len(missing)
        if missing:
            print(f"{os.path.relpath(path, REPO)}: {len(missing)} of {len(functions)}")
            for line, name in sorted(missing):
                print(f"  {line:5} {name}")
    print(f"{unreached} of {total} functions under src/repro/ reached by no entry point")
    if failures:
        print(f"{len(failures)} entry points failed: {', '.join(failures)}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()

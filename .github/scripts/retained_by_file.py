#!/usr/bin/env python3
"""Print where the memory retained at the end of one ledger pass lives.

    retained_by_file.py --workload W [--smoke] [--root DIR] [--base DIR]

Builds the workload's deployment through ``benchmarks/ledger/workloads.py``
of the checkout at ``--root`` (default: this repository), runs one pass at
seed 0 under ``tracemalloc``, calls ``gc.collect()`` with the deployment
still alive, and prints the traced MiB by allocating file and in total.
Imports happen before tracing starts, so module objects are not counted;
construction is. Files outside the checkout share one row, and so do files
under 0.05 MiB on both sides.

A second table counts the live generators at that moment by their code's
qualified name (``co_qualname``): every parked protocol coroutine is one,
so it shows how many frames each in-flight consensus instance holds.
Names with fewer than 10 generators on both sides share one row.

With ``--base DIR`` the checkout at ``DIR`` is measured too, each side in
its own interpreter, and every row is printed old -> new. Nothing is gated:
the tables say where memory went, the ledger's ``peak_mib`` decides.
"""
import argparse
import gc
import json
import os
import subprocess
import sys
import tracemalloc
import types

THIS_REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
OUTSIDE = "(outside the checkout)"
MIB = 1024.0 * 1024.0
#: Files below this on both sides are folded into one row.
SHOWN_MIB = 0.05
#: Generator names below this count on both sides are folded into one row.
SHOWN_GENERATORS = 10


def measure(root, workload, smoke):
    """Traced bytes by file (relative to ``root``) and live generators by
    ``co_qualname`` at the end of one pass."""
    root = os.path.abspath(root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "benchmarks", "ledger")]
    import workloads

    table = workloads.SMOKE if smoke else workloads.WORKLOADS
    tracemalloc.start()
    deployment = workloads.Deployment(table[workload], 0)
    deployment.start()
    deployment.run()
    gc.collect()
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    by_file = {}
    for stat in snapshot.statistics("filename"):
        path = os.path.abspath(stat.traceback[0].filename)
        key = os.path.relpath(path, root) if path.startswith(root + os.sep) else OUTSIDE
        by_file[key] = by_file.get(key, 0) + stat.size
    generators = {}
    for obj in gc.get_objects():
        if type(obj) is types.GeneratorType:
            name = obj.gi_code.co_qualname
            generators[name] = generators.get(name, 0) + 1
    return {"by_file": by_file, "generators": generators}


def measure_in_child(root, args):
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--root", root, "--json"]
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def rows(sides, threshold, rest, total, unit=1.0):
    """Keys reaching ``threshold`` on some side, largest on the last side
    first; then the rest as one row, then the total (all divided by
    ``unit``)."""
    keys = sorted(set().union(*sides), key=lambda k: (-sides[-1].get(k, 0), k))
    shown = [k for k in keys if max(side.get(k, 0) for side in sides) >= threshold]
    for name in shown:
        yield name, [side.get(name, 0) / unit for side in sides]
    yield rest, [
        sum(size for name, size in side.items() if name not in shown) / unit for side in sides
    ]
    yield total, [sum(side.values()) / unit for side in sides]


def tables(sides):
    """The two printed tables as (title, number format, rows)."""
    yield "traced MiB retained", "8.2f", rows(
        [side["by_file"] for side in sides], SHOWN_MIB * MIB,
        "every other file", "total traced", MIB)
    yield "live generators", "8.0f", rows(
        [side["generators"] for side in sides], SHOWN_GENERATORS,
        "every other generator", "total generators")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--smoke", action="store_true", help="the ledger's smoke size")
    parser.add_argument("--root", default=THIS_REPO, help="checkout to measure")
    parser.add_argument("--base", help="also measure this checkout; print old -> new")
    parser.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.json:
        print(json.dumps(measure(args.root, args.workload, args.smoke)))
        return
    size = "smoke" if args.smoke else "full"
    if args.base is None:
        for title, fmt, table in tables([measure_in_child(args.root, args)]):
            print(f"{args.workload} ({size}), {title} at the end of one pass:")
            for name, (value,) in table:
                print(f"  {name:44} {value:{fmt}}")
        return
    sides = [measure_in_child(args.base, args), measure_in_child(args.root, args)]
    for title, fmt, table in tables(sides):
        print(f"{args.workload} ({size}), {title} at the end of one pass, "
              f"base -> change:")
        for name, (old, new) in table:
            print(f"  {name:44} {old:{fmt}} -> {new:{fmt}}  ({new - old:+{fmt}})")


if __name__ == "__main__":
    main()

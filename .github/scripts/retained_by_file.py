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

With ``--base DIR`` the checkout at ``DIR`` is measured too, each side in
its own interpreter, and every row is printed old -> new. Nothing is gated:
the table says where memory went, the ledger's ``peak_mib`` decides.
"""
import argparse
import gc
import json
import os
import subprocess
import sys
import tracemalloc

THIS_REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
OUTSIDE = "(outside the checkout)"
MIB = 1024.0 * 1024.0
#: Files below this on both sides are folded into one row.
SHOWN_MIB = 0.05


def measure(root, workload, smoke):
    """Traced bytes by file (relative to ``root``) at the end of one pass."""
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
    return by_file


def measure_in_child(root, args):
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--root", root, "--json"]
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def rows(sides):
    """Files holding at least ``SHOWN_MIB`` on some side, largest on the
    last side first; then the rest as one row, then the total."""
    files = sorted(set().union(*sides), key=lambda f: (-sides[-1].get(f, 0), f))
    shown = [f for f in files if max(side.get(f, 0) for side in sides) >= SHOWN_MIB * MIB]
    for name in shown:
        yield name, [side.get(name, 0) / MIB for side in sides]
    yield "every other file", [
        sum(size for name, size in side.items() if name not in shown) / MIB for side in sides
    ]
    yield "total traced", [sum(side.values()) / MIB for side in sides]


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
        print(f"{args.workload} ({size}), traced MiB retained at the end of one pass:")
        for name, (mib,) in rows([measure_in_child(args.root, args)]):
            print(f"  {name:44} {mib:8.2f}")
        return
    sides = [measure_in_child(args.base, args), measure_in_child(args.root, args)]
    print(f"{args.workload} ({size}), traced MiB retained at the end of one pass, "
          f"base -> change:")
    for name, (old, new) in rows(sides):
        print(f"  {name:44} {old:8.2f} -> {new:8.2f}  ({new - old:+.2f})")


if __name__ == "__main__":
    main()

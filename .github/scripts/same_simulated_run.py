#!/usr/bin/env python3
"""Fail unless two ledger result documents hold the same simulated runs.

    same_simulated_run.py BASE.json HEAD.json   # run.py --trace --out files

``deterministic.sim_digest`` -- height, hash and instant of every first
commit -- must be equal for every workload. The boundary counts a
simulator-only change may move on purpose are printed old -> new.
"""
import json
import sys

COUNTS = ("sim.events", "sim.sched_now", "sim.cpu.jobs", "net.msgs")


def deterministic(path):
    with open(path) as fh:
        workloads = json.load(fh)["workloads"]
    return {name: run["deterministic"] for name, run in workloads.items()}


def main(base_path, head_path):
    base, head = deterministic(base_path), deterministic(head_path)
    changed = sorted(base.keys() ^ head.keys())
    for name in sorted(base.keys() & head.keys()):
        same = base[name]["sim_digest"] == head[name]["sim_digest"]
        print(f"{name}: simulated times {'unchanged' if same else 'CHANGED'}")
        if not same:
            changed.append(name)
        for key in COUNTS:  # per work unit, as --trace reports them
            old, new = (side[name]["counts"][key] for side in (base, head))
            print(f"  {key:14} {old:.6g} -> {new:.6g}" + ("" if old == new else "  (moved)"))
    if changed:
        sys.exit(f"simulated run missing or different on: {', '.join(changed)}")


if __name__ == "__main__":
    main(*sys.argv[1:3])

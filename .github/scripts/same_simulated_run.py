#!/usr/bin/env python3
"""Fail unless two ledger result documents hold the same simulated runs.

    same_simulated_run.py BASE.json HEAD.json   # run.py --trace --out files

``deterministic.sim_digest`` -- height, hash and instant of every first
commit -- must be equal for every workload, and so must every boundary
count in ``COUNTS``: the simulator is deterministic, so a count that moves
is a change in the work done, never noise. A PR that moves one on purpose
names it in ``MOVED`` below, so the exception is a reviewed line of its
diff. An entry for a count that did not move fails too: it is left over
from an earlier PR and would hide the next move.

The calls per work unit of the layers in ``LAYERS`` are printed beside
them, old -> new, and not gated: host-side refactors move them on purpose,
and the printout says by how much.
"""
import json
import sys

COUNTS = (
    "sim.events", "sim.sched_now", "sim.sched_handle", "sim.sched_call",
    "sim.sched_timeout", "sim.cpu.jobs", "net.msgs",
    "crypto.sign_calls", "crypto.combine_calls", "crypto.verify_calls",
    "core.wait_for_calls", "net.send_calls", "net.multicast_calls",
)

#: Printed, not gated (``deterministic.layer_calls_per_unit``).
LAYERS = ("core", "consensus", "sim.cpu", "sim.process", "other")

#: count -> one-line reason it differs from the merge base in this PR.
MOVED = {}


def deterministic(path):
    with open(path) as fh:
        workloads = json.load(fh)["workloads"]
    return {name: run["deterministic"] for name, run in workloads.items()}


def main(base_path, head_path):
    base, head = deterministic(base_path), deterministic(head_path)
    changed = sorted(base.keys() ^ head.keys())
    moved = set()
    for name in sorted(base.keys() & head.keys()):
        same = base[name]["sim_digest"] == head[name]["sim_digest"]
        print(f"{name}: simulated times {'unchanged' if same else 'CHANGED'}")
        if not same:
            changed.append(name)
        for key in COUNTS:  # per work unit, as --trace reports them
            old, new = (side[name]["counts"][key] for side in (base, head))
            note = ""
            if old != new:
                note = f"  (moved: {MOVED[key]})" if key in MOVED else "  (MOVED, not named)"
                moved.add(key)
            print(f"  {key:20} {old:.6g} -> {new:.6g}{note}")
        for layer in LAYERS:
            old, new = (side[name]["layer_calls_per_unit"][layer] for side in (base, head))
            change = f"{new / old - 1:+.1%}" if old else "n/a"
            print(f"  {layer + ' calls':20} {old:.6g} -> {new:.6g}  ({change}, not gated)")
    problems = []
    if changed:
        problems.append(f"simulated run missing or different on: {', '.join(changed)}")
    unnamed, stale = sorted(moved - MOVED.keys()), sorted(MOVED.keys() - moved)
    if unnamed:
        problems.append(f"counts moved without an entry in MOVED: {', '.join(unnamed)}")
    if stale:  # left over from an earlier PR: would hide the next move
        problems.append(f"MOVED names counts that did not move: {', '.join(stale)}")
    if problems:
        sys.exit("; ".join(problems))


if __name__ == "__main__":
    main(*sys.argv[1:3])

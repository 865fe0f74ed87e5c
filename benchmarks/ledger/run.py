#!/usr/bin/env python3
"""Perf ledger: the repository's benchmark command.

    python3 benchmarks/ledger/run.py [--workload W ...] [--seed S]
        [--seconds T] [--trace [0|1]] [--layers] [--smoke] [--out FILE]

One workload runs in this process, pinned to one CPU; several (the default
is all five) run one child process each, in sequence. Every metric is
printed by name with its unit, every pass is checked for correctness, and
the exit code is non-zero when a check fails. The last line of a
single-workload run is the driver's result object::

    {"correct": true, "attempted": 36, "failed": 0, "metrics": {...}}

with every ``end_to_end`` metric of ``BENCHMARK.json`` (``--trace 0``) or
every ``per_layer`` metric (``--trace 1``). See README.md next to this file
for the protocol and the reasons behind it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
MANIFEST_PATH = os.path.join(REPO, "BENCHMARK.json")

#: Timed passes per workload (the contract's --seconds can only add more).
MIN_PASSES = 5
#: Untraced passes of a --trace run (they only anchor trace.overhead_ratio).
TRACE_PASSES = 3
#: Fresh interpreters launched for setup_s.
SETUP_LAUNCHES = 10
#: A pass whose wall time exceeds its CPU time by this share was preempted.
DISTURBED_SHARE = 0.05
#: Seconds per driver repeat: short inside a --trace run, which repeats the
#: drivers for every workload; longer for a standalone --layers run.
TRACE_DRIVER_REP_S = 0.04
LAYERS_DRIVER_REP_S = 0.3


def load_manifest() -> Dict[str, Any]:
    with open(MANIFEST_PATH) as fh:
        return json.load(fh)


def relative_iqr(values: List[float]) -> float:
    """Interquartile range over the median: the spread the benchmark
    contract bounds, computed as the contract computes it."""
    if len(values) < 2:
        return 0.0
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def pin_to_one_cpu() -> Tuple[Optional[List[int]], Optional[int]]:
    """Pin this process (and its children) to the last allowed CPU."""
    try:
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {allowed[-1]})
    except (AttributeError, OSError):
        return None, None
    return allowed, allowed[-1]


def machine_block(allowed: Optional[List[int]], pinned: Optional[int]) -> Dict[str, Any]:
    commit = None
    if os.path.exists(os.path.join(REPO, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "allowed_cpus": allowed,
        "pinned_cpu": pinned,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


# ----------------------------------------------------------------------
# Child probe: set-up time and peak memory need a fresh interpreter
# ----------------------------------------------------------------------
def peak_rss_mib() -> float:
    """High-water mark of this process's resident set.

    ``VmHWM`` where /proc has it: it belongs to the address space, so it
    starts from zero at exec. ``ru_maxrss`` does not -- Linux seeds it with
    the forking parent's size -- and is only the fallback.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe(workload_name: str, seed: int, smoke: bool, run_pass: bool) -> Dict[str, float]:
    """Time imports + construction + start(); optionally run one pass too
    and report the process's peak resident set."""
    start = time.perf_counter()
    import workloads

    imported_mib = peak_rss_mib()
    table = workloads.SMOKE if smoke else workloads.WORKLOADS
    deployment = workloads.Deployment(table[workload_name], seed)
    deployment.start()
    out = {"setup_s": time.perf_counter() - start}
    if run_pass:
        deployment.run()
        # The post-import figure is printed so a reader can tell
        # interpreter + modules from construction + run.
        out["rss_import_mib"] = imported_mib
        out["rss_peak_mib"] = peak_rss_mib()
    return out


def launch_probe(workload_name: str, seed: int, smoke: bool, run_pass: bool) -> Dict[str, float]:
    argv = [sys.executable, os.path.abspath(__file__), "--probe",
            "--workload", workload_name, "--seed", str(seed)]
    if smoke:
        argv.append("--smoke")
    if run_pass:
        argv.append("--probe-run")
    done = subprocess.run(argv, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def quiet_pass(slices: List[List[float]]) -> float:
    """Host seconds of one undisturbed pass: for each slice, the fastest
    any pass ran it, summed.

    The program is deterministic and single threaded, so whatever else the
    machine does only ever adds time, and the fastest observation of a piece
    of work is the best estimate of its cost. Taken per ~6 ms slice and not
    per ~1.2 s pass because this box is disturbed in bursts shorter than a
    pass: measured over 10 runs x 7 passes of kauri_n100 in a noisy spell,
    the fastest whole pass ranged 14.8% between runs, this sum 7.9%.
    """
    if len({len(one) for one in slices}) != 1:
        raise ValueError("passes of a deterministic run differ in slice count")
    return sum(min(column) for column in zip(*slices))


class Ledger:
    """Runs one workload's passes and assembles its document."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, smoke: bool):
        import workloads

        self.workloads = workloads
        self.workload = (workloads.SMOKE if smoke else workloads.WORKLOADS)[name]
        self.seed = seed
        self.trace = trace
        self.smoke = smoke
        # How much of everything: the contract's sizes, or the test suite's.
        if smoke:
            self.cold, self.min_passes, self.seconds = False, 2, 0.0
            self.launches, self.driver_rep_s, self.driver_repeats = 2, 0.005, 1
        else:
            self.cold = True
            self.min_passes = TRACE_PASSES if trace else MIN_PASSES
            self.seconds = 0.0 if trace else seconds
            self.launches = SETUP_LAUNCHES
            self.driver_rep_s, self.driver_repeats = TRACE_DRIVER_REP_S, 2
        self.fingerprint: Optional[tuple] = None
        self.passes: List[Dict[str, Any]] = []

    def one_pass(self, profile: bool = False):
        """Fresh deployment, construction and start() outside the timer,
        garbage collected before it starts; checked after it stops.

        A ticker event every ``slice_s`` simulated seconds stamps the host
        clock, cutting the pass into ~200 slices. The program is
        deterministic, so slice k does the same work in every pass, and the
        ticker (one event in ~700) is part of every pass alike.
        """
        deployment = self.workloads.Deployment(self.workload, self.seed)
        deployment.start()
        sim = deployment.cluster.sim
        slice_s = self.workload.slice_s
        clock = time.perf_counter
        stamps: List[float] = []

        def tick() -> None:
            stamps.append(clock())
            sim.schedule_call(slice_s, tick)

        sim.schedule_call(slice_s, tick)
        gc.collect()
        stats = None
        wall0, cpu0 = clock(), time.process_time()
        if profile:
            import layertrace

            stats = layertrace.profile_call(deployment.run)
        else:
            deployment.run()
        wall1, cpu = clock(), time.process_time() - cpu0
        wall = wall1 - wall0
        deployment.check()
        fingerprint = deployment.fingerprint()
        if self.fingerprint is None:
            self.fingerprint = fingerprint
        elif fingerprint != self.fingerprint:
            raise self.workloads.CheckFailed(
                f"fingerprint_stable: pass gave {fingerprint}, "
                f"first pass gave {self.fingerprint}"
            )
        edges = [wall0, *stamps, wall1]
        timing = {
            "wall_s": wall,
            "cpu_s": cpu,
            "disturbed": wall > cpu * (1.0 + DISTURBED_SHARE),
            "slices": [b - a for a, b in zip(edges, edges[1:])],
        }
        return deployment, timing, stats

    def run(self) -> Dict[str, Any]:
        manifest = load_manifest()
        # The cold pass (first use of every code path, lazy imports, memo
        # warm-up) is printed but never enters a metric.
        cold_s = self.one_pass()[1]["wall_s"] if self.cold else None
        started = time.perf_counter()
        deployment = None
        while (
            len(self.passes) < self.min_passes
            or time.perf_counter() - started < self.seconds
        ):
            # Drop the previous pass before building the next: a live extra
            # deployment makes every full garbage collection dearer.
            deployment = None
            deployment, timing, _ = self.one_pass()
            self.passes.append(timing)

        walls = [timing["wall_s"] for timing in self.passes]
        slices = [timing.pop("slices") for timing in self.passes]
        units = deployment.units()
        attempted, failed = deployment.ops()
        sim, commit_tail = deployment.sim_metrics()
        quiet = quiet_pass(slices)
        doc: Dict[str, Any] = {
            "workload": self.workload.name,
            "seed": self.seed,
            "smoke": self.smoke,
            "deterministic": {
                "inputs": {
                    "rtt_s": deployment.link.rtt,
                    "bandwidth_bps": deployment.link.bandwidth_bps,
                    "block_size": deployment.config.block_size,
                    "max_commits": self.workload.max_commits,
                    "duration_s": self.workload.duration,
                },
                "fingerprint": list(self.fingerprint),
                "sim_digest": deployment.sim_digest(),
                "recovery_s": deployment.recovery_s(),
                "units": units,
                "ops_attempted": attempted,
                "ops_failed": failed,
                "sim": sim,
                "commit_tail": commit_tail,
            },
            "wall": {
                "cold_pass_s": cold_s,
                "passes": self.passes,
                "pass_wall_s": {
                    "quiet": quiet,
                    # The same estimate from every other pass only: how far
                    # the two halves disagree is the estimate's own spread.
                    "quiet_halves": [quiet_pass(slices[0::2]), quiet_pass(slices[1::2])],
                    "slices": len(slices[0]),
                    "min": min(walls),
                    "median": statistics.median(walls),
                    "max": max(walls),
                    "relative_iqr": relative_iqr(walls),
                },
            },
        }
        if self.trace:
            values = self.traced(quiet, doc)
            listed = manifest["per_layer"]
        else:
            values = self.end_to_end(quiet, units, sim, doc)
            listed = manifest["end_to_end"]
        unit_of = {entry["name"]: entry["unit"] for entry in listed}
        stray = sorted(set(values) ^ set(unit_of))
        if stray:
            raise self.workloads.CheckFailed(
                f"manifest: metrics emitted and listed in BENCHMARK.json differ: {stray}"
            )
        doc["metrics"] = {
            name: {"value": values[name], "unit": unit_of[name]} for name in unit_of
        }
        doc["correct"] = True
        return doc

    def end_to_end(self, quiet: float, units, sim, doc) -> Dict[str, float]:
        probes = [
            launch_probe(self.workload.name, self.seed, self.smoke, run_pass=(i == 0))
            for i in range(self.launches)
        ]
        setups = [p["setup_s"] for p in probes]
        doc["wall"]["setup_s_samples"] = setups
        doc["wall"]["rss"] = {k: v for k, v in probes[0].items() if k.startswith("rss")}
        values = dict(sim)
        values.update({
            "setup_s": min(setups),
            "host_ms_per_block": quiet * 1e3 / units["blocks"],
            "host_us_per_offered_tx": quiet * 1e6 / units["offered_txs"],
            "peak_mib": probes[0]["rss_peak_mib"],
        })
        return values

    def traced(self, quiet: float, doc) -> Dict[str, float]:
        import layers
        import layertrace

        deployment, timing, stats = self.one_pass(profile=True)
        folded = layertrace.fold(stats)
        unit = deployment.per_unit_divisor()
        values: Dict[str, float] = {}
        for layer, row in folded["layers"].items():
            values[f"{layer}.self_ms_per_unit"] = row["self_s"] * 1e3 / unit
            values[f"{layer}.calls_per_unit"] = row["calls"] / unit
        values["trace.overhead_ratio"] = timing["wall_s"] / quiet
        counts = deployment.attribute_counts()
        calls = folded["boundary_calls"]
        counts.update({name: count / unit for name, count in calls.items()})
        sends = calls["net.send_calls"] + calls["net.multicast_calls"]
        counts["net.mean_fanout"] = deployment.cluster.network.messages_sent / max(sends, 1)
        values.update(counts)
        drivers = layers.run_all(self.driver_rep_s, self.driver_repeats, SRC)
        values.update(drivers)
        doc["deterministic"]["counts"] = counts
        doc["deterministic"]["layer_calls_per_unit"] = {
            layer: row["calls"] / unit for layer, row in folded["layers"].items()
        }
        doc["wall"]["trace"] = {
            "traced_pass_s": timing["wall_s"],
            "profiled_total_s": folded["total_s"],
            "repro_self_s": folded["repro_self_s"],
            "repro_other_s": folded["repro_other_s"],
            "layers": folded["layers"],
        }
        doc["wall"]["drivers"] = drivers
        return values


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def print_doc(doc: Dict[str, Any]) -> None:
    det, wall = doc["deterministic"], doc["wall"]
    print(f"== {doc['workload']}  seed={doc['seed']}" + ("  [smoke]" if doc["smoke"] else ""))
    inputs = det["inputs"]
    print(f"   inputs: rtt={inputs['rtt_s'] * 1e3:.3f} ms  "
          f"bandwidth={inputs['bandwidth_bps'] / 1e6:.3f} Mb/s  "
          f"block={inputs['block_size']} B  "
          f"max_commits={inputs['max_commits']}  duration={inputs['duration_s']} s")
    print(f"   fingerprint: {det['fingerprint']}")
    print(f"   sim_digest:  {det['sim_digest']}")
    print(f"   units: {det['units']}  ops_attempted={det['ops_attempted']}  "
          f"ops_failed={det['ops_failed']}")
    if det["recovery_s"] is not None:
        print(f"   recovery after the crash: {det['recovery_s']:.4f} simulated s")
    tail = det["commit_tail"]
    print(f"   commit tail = p{tail['percentile']:g} of {tail['samples']} samples "
          f"(e2e: {tail['e2e_samples']} samples)")
    stats = wall["pass_wall_s"]
    cold = "skipped" if wall["cold_pass_s"] is None else f"{wall['cold_pass_s']:.3f}"
    print(f"   cold_pass_s={cold}  passes={len(wall['passes'])}  "
          f"quiet={stats['quiet']:.4f} ({stats['slices']} slices; halves "
          f"{stats['quiet_halves'][0]:.4f} / {stats['quiet_halves'][1]:.4f})  "
          f"min={stats['min']:.4f}  median={stats['median']:.4f}  "
          f"max={stats['max']:.4f}  iqr/median={stats['relative_iqr']:.3f}")
    for index, timing in enumerate(wall["passes"]):
        flag = "  disturbed" if timing["disturbed"] else ""
        print(f"     pass {index}: wall={timing['wall_s']:.4f} s  "
              f"process_time={timing['cpu_s']:.4f} s{flag}")
    if "rss" in wall:
        print(f"   setup_s samples: {[round(s, 4) for s in wall['setup_s_samples']]}  "
              f"rss: {wall['rss']}")
    if "trace" in wall:
        trace = wall["trace"]
        print(f"   traced pass {trace['traced_pass_s']:.3f} s, profiled self time "
              f"{trace['profiled_total_s']:.3f} s, repro files in `other`: "
              f"{trace['repro_other_s'] / max(trace['repro_self_s'], 1e-12):.4%}")
    print("   metric".ljust(48) + "value".rjust(18) + "  unit")
    for name, entry in doc["metrics"].items():
        print(f"   {name}".ljust(48) + f"{entry['value']:18.6g}  {entry['unit']}")


def result_line(doc: Dict[str, Any]) -> str:
    det = doc["deterministic"]
    return json.dumps({
        "correct": doc["correct"],
        "attempted": det["ops_attempted"],
        "failed": det["ops_failed"],
        "metrics": doc["metrics"],
    })


def write_out(path: str, machine: Dict[str, Any], docs: Dict[str, Any],
              drivers: Optional[Dict[str, float]] = None) -> None:
    payload: Dict[str, Any] = {"schema": 1, "machine": machine, "workloads": docs}
    if drivers is not None:
        payload["layers"] = drivers
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    manifest = load_manifest()
    names = [entry["name"] for entry in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=0,
                        help="generates the workload's inputs (default 0)")
    parser.add_argument("--seconds", type=float, default=float(manifest["run_seconds"]),
                        help="keep timing passes for at least this long")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
                        help="per-layer run: cProfile fold, boundary counts, drivers")
    parser.add_argument("--layers", action="store_true",
                        help="run the layer drivers alone at full length")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and two passes (test suite)")
    parser.add_argument("--out", help="write the results document here")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-run", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.all_workloads = names
    return args


def run_children(args: argparse.Namespace, machine: Dict[str, Any]) -> int:
    """Several workloads: one child process each, one after the other."""
    docs: Dict[str, Any] = {}
    status = 0
    for name in args.workload:
        part = f"{args.out}.{name}.part" if args.out else None
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        if part:
            argv += ["--out", part]
        sys.stdout.flush()
        code = subprocess.run(argv).returncode
        status = status or code
        if part and os.path.exists(part):
            with open(part) as fh:
                docs.update(json.load(fh)["workloads"])
            os.remove(part)
    if args.out:
        write_out(args.out, machine, docs)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"ledger: no simulator to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    if args.probe:
        print(json.dumps(probe(args.workload[0], args.seed, args.smoke, args.probe_run)))
        return 0
    allowed, pinned = pin_to_one_cpu()
    machine = machine_block(allowed, pinned)
    if args.layers:
        import layers

        drivers = layers.run_all(LAYERS_DRIVER_REP_S, 5, SRC)
        unit_of = {m["name"]: m["unit"] for m in load_manifest()["per_layer"]}
        for name, value in drivers.items():
            print(f"{name}".ljust(48) + f"{value:18.6g}  {unit_of[name]}")
        if args.out:
            write_out(args.out, machine, {}, drivers)
        return 0
    if not args.workload:
        args.workload = args.all_workloads
    if len(args.workload) > 1:
        return run_children(args, machine)

    ledger = Ledger(args.workload[0], args.seed, args.seconds, bool(args.trace), args.smoke)
    try:
        doc = ledger.run()
    except ledger.workloads.CheckFailed as failure:
        print(f"ledger: {args.workload[0]}: check failed: {failure}", file=sys.stderr)
        return 1
    print_doc(doc)
    if args.out:
        write_out(args.out, machine, {doc["workload"]: doc})
    print(result_line(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

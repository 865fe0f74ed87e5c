"""Layer drivers: each calls one layer's public API alone and reports its
host cost per operation.

A driver is ``driver(ops) -> (elapsed_s, ops_done)``: it builds what it
needs outside the timed region, performs about ``ops`` operations inside
it, and returns the measured time (a driver that times two things in one
go returns a list of such pairs, one per metric). :func:`cost_per_op` sizes
``ops`` from a calibration call so one repeat lasts about ``rep_s``
seconds, repeats, and takes the fastest repeat (the drivers are
deterministic and single threaded, so interference only ever adds time).

Apart from the observability pair, which by definition compares a whole
deployment with the recorder on and off, no driver builds a ``Cluster``.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import time
from types import SimpleNamespace
from typing import Callable, Dict, List, Tuple, Union

from repro.config import NetworkParams, ProtocolConfig
from repro.crypto.keys import Pki
from repro.crypto.signature import make_scheme
from repro.net.netem import HomogeneousNetem
from repro.net.network import Network
from repro.runtime.clients import MempoolWorkload, TxChunk
from repro.runtime.metrics import (
    E2E_PERCENTILES,
    LatencyHistogram,
    Metrics,
    latency_summary,
)
from repro.runtime.workload import ClientClassSpec, WorkloadHarness, WorkloadSpec
from repro.sim.engine import Simulator
from repro.sim.process import Signal, Sleep, WaitSignal, spawn

from workloads import CheckFailed, Deployment, Workload

Timing = Tuple[float, int]
Driver = Callable[[int], Union[Timing, List[Timing]]]

LAN = NetworkParams(name="driver", rtt=0.004, bandwidth_bps=1e9)
REPEATS = 5
CALIBRATION_OPS = 4_000


def _timings(result: Union[Timing, List[Timing]]) -> List[Timing]:
    return result if isinstance(result, list) else [result]


def cost_per_op(driver: Driver, rep_s: float) -> List[float]:
    """Host microseconds per operation on the fastest repeat, one per
    timing the driver returns (``ops`` is sized on the first)."""
    elapsed, done = _timings(driver(CALIBRATION_OPS))[0]
    ops = max(CALIBRATION_OPS, int(done * rep_s / max(elapsed, 1e-6)))
    samples: List[List[float]] = []
    for _ in range(REPEATS):
        gc.collect()
        samples.append([elapsed / done for elapsed, done in _timings(driver(ops))])
    return [min(column) * 1e6 for column in zip(*samples)]


def _timed_run(sim: Simulator) -> float:
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------
def engine_events(ops: int, chains: int = 64) -> Tuple[float, int]:
    """Self-rescheduling ``schedule`` chains with random delays: the heap
    reorders constantly, as NIC completions and timers do in a run."""
    sim = Simulator(seed=0)
    fired = 0

    def tick() -> None:
        nonlocal fired
        fired += 1
        if fired + chains <= ops:
            sim.schedule(sim.rng.random() * 1e-3, tick)

    for _ in range(chains):
        sim.schedule(sim.rng.random() * 1e-3, tick)
    return _timed_run(sim), fired


def engine_call_events(ops: int, chains: int = 64) -> Tuple[float, int]:
    """Handle-free ``schedule_call`` chains with one constant delay: times
    are monotone, so every entry takes the run-queue append path."""
    sim = Simulator(seed=0)
    fired = 0

    def tick() -> None:
        nonlocal fired
        fired += 1
        if fired + chains <= ops:
            sim.schedule_call(1e-3, tick)

    for _ in range(chains):
        sim.schedule_call(1e-3, tick)
    return _timed_run(sim), fired


def wheel_cancelled(ops: int, per_tick: int = 16) -> Tuple[float, int]:
    """The pacemaker pattern: every tick cancels the deadlines armed on the
    previous tick and arms new ones; none ever fires."""
    sim = Simulator(seed=0)
    armed: list = []
    done = 0

    def never() -> None:
        raise AssertionError("cancelled timeout fired")

    def tick() -> None:
        nonlocal done
        for handle in armed:
            handle.cancel()
        armed.clear()
        if done >= ops:
            return
        for _ in range(per_tick):
            armed.append(sim.schedule_timeout(1.7, never))
        done += per_tick
        sim.schedule_call(0.01, tick)

    sim.schedule_call(0.0, tick)
    return _timed_run(sim), done


def wheel_fired(ops: int) -> Tuple[float, int]:
    """Arm ``ops`` timeouts over a spread of deadlines and let all fire."""
    sim = Simulator(seed=0)
    fired = 0

    def fire() -> None:
        nonlocal fired
        fired += 1

    rng = random.Random(0)
    delays = [0.1 + 1.9 * rng.random() for _ in range(ops)]
    start = time.perf_counter()
    for delay in delays:
        sim.schedule_timeout(delay, fire)
    sim.run()
    return time.perf_counter() - start, fired


def process_resumes(ops: int, tasks: int = 32) -> Tuple[float, int]:
    """Tasks alternating a ``Sleep`` and a ``Signal`` wait."""
    sim = Simulator(seed=0)
    resumes = 0
    rounds = max(1, ops // (2 * tasks))

    def body():
        nonlocal resumes
        for _ in range(rounds):
            yield Sleep(1e-3)
            signal = Signal()
            sim.schedule_call(5e-4, signal.fire)
            yield WaitSignal(signal)
            resumes += 2

    for index in range(tasks):
        spawn(sim, body(), name=f"driver-{index}")
    return _timed_run(sim), resumes


# ----------------------------------------------------------------------
# net
# ----------------------------------------------------------------------
def _fabric(nodes: int) -> Tuple[Simulator, Network]:
    sim = Simulator(seed=0)
    net = Network(sim, HomogeneousNetem(LAN))
    for node in range(nodes):
        net.register(node)
    return sim, net


def multicast(fanout: int) -> Driver:
    """One sender batch-fanning a proposal-sized payload to ``fanout``
    children: a Kauri internal node (20) or the n=400 star root (399)."""

    def driver(ops: int) -> Tuple[float, int]:
        sim, net = _fabric(fanout + 1)
        dsts = tuple(range(1, fanout + 1))
        rounds = max(1, ops // fanout)

        def blast(round_no: int = 0) -> None:
            net.multicast(0, dsts, ("blk", round_no), None, 1000)
            if round_no + 1 < rounds:
                sim.schedule_call(2e-3, blast, round_no + 1)

        blast()
        elapsed = _timed_run(sim)
        if net.messages_delivered != fanout * rounds:
            raise AssertionError("multicast driver lost messages")
        return elapsed, net.messages_delivered

    return driver


def unicast(armed: bool) -> Driver:
    """Point-to-point ``send`` (votes up the tree). ``armed`` registers a
    crash on an unrelated node first, which turns direct delivery off:
    every message then takes the serialization-completion hop."""

    def driver(ops: int, peers: int = 20, per_tick: int = 10) -> Tuple[float, int]:
        sim, net = _fabric(peers + 2)
        if armed:
            net.faults.crash_at(peers + 1, 1e9)
        rounds = max(1, ops // per_tick)

        def burst(round_no: int = 0) -> None:
            for k in range(per_tick):
                net.send(1 + (round_no + k) % peers, 0, ("vote", round_no), None, 200)
            if round_no + 1 < rounds:
                sim.schedule_call(2e-3, burst, round_no + 1)

        burst()
        elapsed = _timed_run(sim)
        if net.messages_delivered != per_tick * rounds:
            raise AssertionError("send driver lost messages")
        return elapsed, net.messages_delivered

    return driver


# ----------------------------------------------------------------------
# crypto
# ----------------------------------------------------------------------
def aggregation(kind: str, n: int) -> Driver:
    """Algorithm 3's per-node work up a sqrt(N) tree, fresh values every
    round: validate each incoming contribution, ⊕-merge it, check the root
    reaches the full quorum. Signing stays outside the timed regions.

    Two timings: validate + merge per share merged, and validation alone
    per verify call.
    """
    state: dict = {}

    def driver(ops: int) -> List[Timing]:
        if not state:
            pki = Pki(n, seed=0)
            state.update(
                scheme=make_scheme(kind, pki),
                keypairs=[pki.keypair(i) for i in range(n)],
                round=0,
            )
        scheme, keypairs = state["scheme"], state["keypairs"]
        fanout = max(2, int(round(n ** 0.5)))
        validate_s = merge_s = 0.0
        verifies = merged = 0
        clock = time.perf_counter
        for _ in range(max(1, ops // n)):
            state["round"] += 1
            value = ("driver-round", kind, state["round"])
            singles = [scheme.new(kp, value) for kp in keypairs]
            partials = []
            for base in range(0, n, fanout):
                group = singles[base: base + fanout]
                t0 = clock()
                for single in group:
                    if not single.signers_for(value):
                        raise AssertionError("invalid share in driver")
                t1 = clock()
                acc = scheme.empty()
                for single in group:
                    acc = acc.combine(single)
                t2 = clock()
                validate_s += t1 - t0
                merge_s += t2 - t1
                verifies += len(group)
                merged += len(group)
                partials.append(acc)
            t0 = clock()
            for partial in partials:
                if not partial.signers_for(value):
                    raise AssertionError("invalid partial in driver")
            t1 = clock()
            root = scheme.empty()
            for partial in partials:
                merged += len(partial)
                root = root.combine(partial)
            t2 = clock()
            if not root.has(value, n):
                raise AssertionError("aggregation driver lost shares")
            t3 = clock()
            validate_s += (t1 - t0) + (t3 - t2)
            merge_s += t2 - t1
            verifies += len(partials) + 1
        return [(validate_s + merge_s, merged), (validate_s, verifies)]

    return driver


# ----------------------------------------------------------------------
# runtime
# ----------------------------------------------------------------------
def arrival_synthesis(ops: int) -> Tuple[float, int]:
    """``WorkloadHarness`` arrival synthesis alone: one 2M tx/s class
    ticking into a sink endpoint nobody drains. The harness needs a
    deployment to talk to; this stand-in exposes the public attributes it
    reads (``sim``, ``network``, ``config``, ``n``, ``metrics``, ``nodes``,
    ``policy``) and nothing else, so no consensus runs."""
    rate, interval = 2_000_000.0, 0.01
    sim = Simulator(seed=0)
    net = Network(sim, HomogeneousNetem(LAN))
    net.register(0)
    sink = SimpleNamespace(
        sim=sim, network=net, config=ProtocolConfig(), n=1, metrics=Metrics(sim),
        nodes=[SimpleNamespace(view=0, stopped=False)],
        policy=SimpleNamespace(leader_of=lambda view: 0),
    )
    spec = WorkloadSpec(
        classes=(ClientClassSpec(name="driver", population=int(rate / 0.05),
                                 rate_per_user=0.05),),
        batch_interval=interval,
    )
    harness = WorkloadHarness(sink, spec, seed=0)
    harness.start()
    ticks = max(1, int(ops / (rate * interval)))
    start = time.perf_counter()
    sim.run(until=(ticks + 0.5) * interval)
    elapsed = time.perf_counter() - start
    return elapsed, harness.classes[0].generated


def admission(ops: int) -> Tuple[float, int]:
    """``admit_batch`` + ``next_fill`` cycles at 10% headroom: each block
    drains 500 of the mempool's 5,000 slots and the next 20,000-tx tick
    refills them, shedding the rest -- the ingest_overload steady state."""
    config = ProtocolConfig()
    pool = MempoolWorkload(config, capacity_txs=5_000, policy="drop")
    tick_txs, chunk_txs = 20_000, 8_192
    seq = 0

    def tick(now: float) -> list:
        nonlocal seq
        batch, start, end = [], seq, seq + tick_txs
        while start < end:
            take = min(chunk_txs, end - start)
            batch.append(TxChunk(7, start, take, config.tx_size, now))
            start += take
        seq = end
        return batch

    pool.admit_batch(tick(0.0), 0.0)
    before = pool.admitted
    cycles = max(1, ops // config.txs_per_block)
    start = time.perf_counter()
    for cycle in range(cycles):
        now = 0.01 * (cycle + 1)
        pool.next_fill(now)
        pool.admit_batch(tick(now), now)
    elapsed = time.perf_counter() - start
    if pool.offered != pool.admitted + pool.dropped + pool.deferred_txs:
        raise AssertionError("admission driver broke the conservation law")
    return elapsed, pool.admitted - before


def latency_accounting(ops: int) -> List[Timing]:
    """The two percentile paths on the same values: histogram
    (``add_many`` + ``summary``) and exact (sort + ``latency_summary``)."""
    rng = random.Random(0)
    values = [0.05 + 4.0 * rng.random() ** 2 for _ in range(ops)]
    start = time.perf_counter()
    hist = LatencyHistogram()
    hist.add_many(values)
    hist.summary(E2E_PERCENTILES)
    middle = time.perf_counter()
    latency_summary(sorted(values), E2E_PERCENTILES)
    end = time.perf_counter()
    return [(middle - start, ops), (end - middle, ops)]


#: Metric names -> driver (one name per timing the driver returns).
MICRO_DRIVERS: Dict[Tuple[str, ...], Driver] = {
    ("sim.engine.us_per_event",): engine_events,
    ("sim.engine.us_per_call_event",): engine_call_events,
    ("sim.wheel.us_per_cancelled_timeout",): wheel_cancelled,
    ("sim.wheel.us_per_fired_timeout",): wheel_fired,
    ("sim.process.us_per_resume",): process_resumes,
    ("net.network.us_per_multicast_msg.f20",): multicast(20),
    ("net.network.us_per_multicast_msg.f399",): multicast(399),
    ("net.network.us_per_send_msg",): unicast(armed=False),
    ("net.network.us_per_send_msg_armed",): unicast(armed=True),
    ("crypto.bls.us_per_merge_n400", "crypto.bls.us_per_verify"): aggregation("bls", 400),
    ("crypto.secp.us_per_merge_n100", "crypto.secp.us_per_verify"): aggregation("secp", 100),
    ("runtime.workload.us_per_generated_tx",): arrival_synthesis,
    ("runtime.clients.us_per_admitted_tx",): admission,
    ("runtime.metrics.us_per_hist_sample", "runtime.metrics.us_per_exact_sample"):
        latency_accounting,
}


# ----------------------------------------------------------------------
# obs, scenarios, cli: whole-surface costs
# ----------------------------------------------------------------------
def observability(repeats: int) -> Dict[str, float]:
    """Recorder overhead (a small kauri_n100 with ``observability`` on over
    the same run with it off, passes alternated) and the cost of turning
    the observed run into a validated RunReport."""
    from repro.obs import build_report, report_json, validate_report

    small = Workload("kauri_n100", 100, "kauri", "global", 900.0, 0.2, max_commits=9)
    times: Dict[bool, List[float]] = {True: [], False: []}
    observed = None
    for _ in range(repeats):
        for flag in (False, True):
            deployment = Deployment(small, seed=0, observability=flag)
            deployment.start()
            gc.collect()
            start = time.perf_counter()
            deployment.run()
            times[flag].append(time.perf_counter() - start)
            if flag:
                observed = deployment
    start = time.perf_counter()
    report = build_report(observed.cluster)
    report_json(report)
    build_ms = (time.perf_counter() - start) * 1e3
    problems = validate_report(report)
    if problems:
        raise CheckFailed(f"validate_report: {problems[0]}")
    return {
        "obs.recorder.overhead_ratio": min(times[True]) / min(times[False]),
        "obs.report.build_ms": build_ms,
    }


def scenario_packs(repeats: int) -> Dict[str, float]:
    """Load + compile every checked-in pack under ``scenarios/``."""
    from repro.scenarios import compile_pack, load_pack, pack_names

    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        names = pack_names()
        for name in names:
            compile_pack(load_pack(name))
        samples.append((time.perf_counter() - start) * 1e3)
        if not names:
            raise AssertionError("no scenario packs found")
    return {"scenarios.compile_ms": min(samples)}


def cli_cold_start(repeats: int, src_dir: str) -> Dict[str, float]:
    """``python -m repro modes`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=src_dir)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro", "modes"],
            env=env, check=True, stdout=subprocess.DEVNULL, timeout=60,
        )
        samples.append((time.perf_counter() - start) * 1e3)
    return {"cli.cold_start_ms": min(samples)}


def run_all(rep_s: float, repeats: int, src_dir: str) -> Dict[str, float]:
    """Every driver metric, by name."""
    results: Dict[str, float] = {}
    for names, driver in MICRO_DRIVERS.items():
        results.update(zip(names, cost_per_op(driver, rep_s)))
    results.update(observability(repeats))
    results.update(scenario_packs(repeats))
    results.update(cli_cold_start(repeats, src_dir))
    return results

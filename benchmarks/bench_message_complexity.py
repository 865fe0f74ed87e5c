"""Message and byte complexity across topologies (Table 1 evidence, §1).

The paper's Table 1 contrasts communication patterns; here the contrast is
measured: messages and leader-bytes per committed block for PBFT (clique,
O(n²)), HotStuff (star, O(n)) and Kauri (tree, O(n) total but O(fanout)
per node), across system sizes.
"""

from conftest import SCALE, run_once

from repro.analysis import format_table
from repro.runtime.cluster import Cluster

SIZES = (7, 16, 31)
MODES = ("pbft", "hotstuff-secp", "kauri")


def sweep():
    rows = {}
    for n in SIZES:
        for mode in MODES:
            cluster = Cluster(n=n, mode=mode, scenario="national")
            cluster.start()
            cluster.run(duration=60.0 * max(SCALE, 0.2), max_commits=40)
            blocks = max(1, cluster.metrics.committed_blocks)
            root = cluster.policy.leader_of(0)
            rows[(n, mode)] = (
                cluster.network.messages_sent / blocks,
                cluster.network.nic(root).bytes_sent / blocks,
                blocks,
            )
    return rows


def test_message_complexity_by_topology(benchmark, save_table):
    data = run_once(benchmark, sweep)
    rows = [
        (n, mode, round(msgs, 1), round(leader_bytes / 1024, 1), blocks)
        for (n, mode), (msgs, leader_bytes, blocks) in data.items()
    ]
    save_table(
        "message_complexity",
        format_table(
            ("N", "System", "Msgs/block", "Leader KB/block", "Blocks"),
            rows,
            title="Message complexity per committed block (national)",
        ),
    )

    def msgs(mode, n):
        return data[(n, mode)][0]

    def leader_kb(mode, n):
        return data[(n, mode)][1]

    # PBFT messages grow super-linearly; HotStuff's and Kauri's linearly
    for lo, hi in ((7, 16), (16, 31)):
        scale = hi / lo
        assert msgs("pbft", hi) / msgs("pbft", lo) > 1.4 * scale
        assert msgs("hotstuff-secp", hi) / msgs("hotstuff-secp", lo) < 1.6 * scale
        assert msgs("kauri", hi) / msgs("kauri", lo) < 1.6 * scale
    # the tree bounds the *leader's* bytes by its fanout, not by N:
    # HotStuff's leader ships ~(N-1)/fanout times more bytes than Kauri's
    for n in (16, 31):
        assert leader_kb("hotstuff-secp", n) > 2 * leader_kb("kauri", n)

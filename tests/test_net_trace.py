"""Protocol-flow assertions over the network's observer stream."""

from repro import Cluster


def traced_cluster(**kwargs):
    """A cluster and the list its network appends every send, delivery
    and drop to, as ``(kind, msg, time)``."""
    cluster = Cluster(**kwargs)
    events = []
    cluster.network.observers.append(
        lambda kind, msg, time: events.append((kind, msg, time))
    )
    return cluster, events


def of(events, kind, tag_kind):
    """The messages of ``events`` of one event kind and tag kind."""
    return [
        msg for event, msg, _ in events if event == kind and msg.tag[0] == tag_kind
    ]


class TestObservedTraffic:
    def test_counts_and_bytes(self):
        cluster, events = traced_cluster(n=7, mode="kauri", scenario="national")
        cluster.start()
        cluster.run(duration=3.0)
        sent = {kind: of(events, "send", kind) for kind in ("prop", "vote", "qc")}
        assert all(sent.values())
        assert sum(m.size for m in sent["prop"]) > sum(m.size for m in sent["vote"])

    def test_drop_events_recorded(self):
        cluster, events = traced_cluster(n=7, mode="kauri", scenario="national")
        cluster.crash_at(3, 1.0)
        cluster.start()
        cluster.run(duration=5.0)
        assert any(kind == "drop" for kind, _, _ in events)


class TestProtocolFlowShape:
    def test_proposals_flow_level_by_level(self):
        """Algorithm 2: each proposal send goes parent -> child, and a
        node forwards a height only after receiving it."""
        cluster, events = traced_cluster(n=13, mode="kauri", scenario="national")
        tree = cluster.policy.configuration(0)
        cluster.start()
        cluster.run(duration=2.0)
        for msg in of(events, "send", "prop"):
            assert tree.parent(msg.dst) == msg.src

    def test_votes_flow_child_to_parent(self):
        """Algorithm 3: vote aggregates travel strictly upward."""
        cluster, events = traced_cluster(n=13, mode="kauri", scenario="national")
        tree = cluster.policy.configuration(0)
        cluster.start()
        cluster.run(duration=2.0)
        vote_sends = of(events, "send", "vote")
        assert vote_sends
        for msg in vote_sends:
            assert tree.parent(msg.src) == msg.dst

    def test_leaf_delivery_lags_internal_delivery(self):
        """Dissemination reaches depth-1 nodes before depth-2 nodes."""
        cluster, events = traced_cluster(n=13, mode="kauri", scenario="national")
        tree = cluster.policy.configuration(0)
        cluster.start()
        cluster.run(duration=2.0)
        first_by_node = {}
        for kind, msg, time in events:
            if kind == "deliver" and msg.tag[0] == "prop":
                first_by_node.setdefault(msg.dst, time)
        internals = [n for n in tree.internal_nodes if n != tree.root]
        leaves_under = tree.children(internals[0])
        assert first_by_node[internals[0]] < min(
            first_by_node[leaf] for leaf in leaves_under if leaf in first_by_node
        )

    def test_star_has_single_hop_flows(self):
        cluster, events = traced_cluster(n=7, mode="hotstuff-bls", scenario="national")
        cluster.start()
        cluster.run(duration=3.0)
        leader = cluster.policy.leader_of(0)
        for msg in of(events, "send", "prop"):
            assert msg.src == leader
        for msg in of(events, "send", "vote"):
            assert msg.dst == leader

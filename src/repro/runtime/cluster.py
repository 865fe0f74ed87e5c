"""Deployment builder: one object wiring simulator, network, crypto,
topology policy, protocol nodes and fault plan together.

Mirrors the paper's experimental setup (§7.1): pick a scenario (global /
regional / national / heterogeneous), a system size, a protocol mode, a
block size, and run for a simulated duration or block budget.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.config import (
    ClusterParams,
    NetworkParams,
    ProtocolConfig,
    SCENARIOS,
    max_faults,
)
from repro.core.modes import ModeSpec, mode_spec, protocol_class, protocol_kind
from repro.core.smr import ReplicaShared, SmrNode
from repro.core.perfmodel import PerfModel
from repro.crypto.keys import Pki
from repro.crypto.signature import make_scheme
from repro.errors import ConfigError, ConsensusError
from repro.net.faults import FaultInjector
from repro.net.netem import ClusterNetem, HomogeneousNetem, Netem
from repro.net.network import Network
from repro.runtime.metrics import Metrics
from repro.sim.engine import Simulator
from repro.topology.reconfig import FixedTopologyPolicy, ReconfigurationPolicy
from repro.topology.tree import Tree


def build_cluster_tree(clusters: ClusterParams) -> Tree:
    """The §7.9 hand-placed heterogeneous tree.

    The root goes to the best-connected cluster (cluster 0 / Oregon); one
    internal node heads each cluster, with its cluster's remaining members
    as its leaves ("internal nodes are located closely to their leaf
    nodes").
    """
    root = next(iter(clusters.members(0)))
    children: Dict[int, List[int]] = {root: []}
    for cluster_index in range(len(clusters.cluster_sizes)):
        members = [p for p in clusters.members(cluster_index) if p != root]
        if not members:
            continue
        head = members[0]
        children[root].append(head)
        if len(members) > 1:
            children[head] = members[1:]
    return Tree(root, children)


def representative_params(clusters: ClusterParams) -> NetworkParams:
    """A single (RTT, bandwidth) summarising the leader's inter-cluster
    links, for the performance model in heterogeneous deployments."""
    root = next(iter(clusters.members(0)))
    links = [
        clusters.params_between(root, next(iter(clusters.members(c))))
        for c in range(1, len(clusters.cluster_sizes))
    ]
    mean_rtt = sum(link.rtt for link in links) / len(links)
    min_bw = min(link.bandwidth_bps for link in links)
    return NetworkParams("representative", rtt=mean_rtt, bandwidth_bps=min_bw)


def build_policy(
    mode: ModeSpec,
    scenario: Union[str, NetworkParams, ClusterParams],
    n: int,
    height: int,
    root_fanout: Optional[int],
):
    """A deployment's topology policy: the §7.9 hand-placed tree on a
    cluster scenario, a robust tree, or a star. The view-0 leader a run
    will have is ``build_policy(...).leader_of(0)``, no cluster needed."""
    if isinstance(scenario, ClusterParams) and mode.uses_tree:
        return FixedTopologyPolicy(build_cluster_tree(scenario))
    if mode.uses_tree:
        return ReconfigurationPolicy(range(n), height=height, root_fanout=root_fanout)
    return ReconfigurationPolicy.star_policy(range(n))


class Cluster:
    """A fully wired deployment, ready to run."""

    def __init__(
        self,
        n: int = None,
        mode: Union[str, ModeSpec] = "kauri",
        scenario: Union[str, NetworkParams, ClusterParams] = "global",
        config: Optional[ProtocolConfig] = None,
        height: int = 2,
        root_fanout: Optional[int] = None,
        seed: int = 0,
        crashes: Sequence[Tuple[int, float]] = (),
        byzantine: Optional[Dict[int, Callable[..., SmrNode]]] = None,
        workload_factory: Optional[Callable[[int], Any]] = None,
        uplink_lanes: int = 1,
        strict: bool = True,
        observability: bool = False,
    ):
        self.mode = mode_spec(mode) if isinstance(mode, str) else mode
        self.config = config if config is not None else ProtocolConfig()
        self.scenario, self.netem, self._model_params = self._resolve_scenario(scenario)
        if isinstance(self.scenario, ClusterParams):
            if n is not None and n != self.scenario.n:
                raise ConfigError(
                    f"n={n} conflicts with cluster deployment of {self.scenario.n}"
                )
            n = self.scenario.n
        if n is None:
            raise ConfigError("system size n is required")
        if n < 4:
            raise ConfigError(f"BFT needs n >= 4, got {n}")
        self.n = n
        self.f = max_faults(n)

        self.sim = Simulator(seed=seed, strict=strict)
        self.faults = FaultInjector(self.sim)
        self.network = Network(
            self.sim, self.netem, faults=self.faults, uplink_lanes=uplink_lanes
        )
        self.pki = Pki(n, seed=seed)
        self.scheme = make_scheme(self.mode.scheme, self.pki)
        self.metrics = Metrics(self.sim)
        self.policy = build_policy(self.mode, self.scenario, n, height, root_fanout)
        self._model_cache: Dict[Tuple[int, int], PerfModel] = {}

        byzantine = byzantine or {}
        # Strategy protocols all run on the shared SmrNode base; standalone
        # node classes (PBFT's clique flow) come from the registry directly.
        default_factory: Callable[..., SmrNode] = SmrNode
        if protocol_kind(self.mode.protocol) == "node":
            default_factory = protocol_class(self.mode.protocol)
        #: One flyweight of deployment-wide immutable replica config,
        #: shared by every replica, honest or Byzantine.
        self.shared = ReplicaShared.build(
            scheme=self.scheme,
            policy=self.policy,
            config=self.config,
            mode=self.mode,
            model_factory=self.model_for,
            metrics=self.metrics,
        )
        self.nodes: List[SmrNode] = []
        for node_id in range(n):
            factory = byzantine.get(node_id, default_factory)
            workload = workload_factory(node_id) if workload_factory else None
            node = factory(node_id, self.sim, self.network, self.shared, workload)
            self.nodes.append(node)
            if node_id in byzantine:
                self.faults.mark_byzantine(node_id)

        #: The WorkloadHarness driving this cluster's clients, if any (it
        #: registers itself); None for saturated runs.
        self.workload_harness: Any = None
        #: node_id -> PhaseRecorder when observability is on (else empty).
        self.recorders: Dict[int, Any] = {}
        if observability:
            from repro.obs.recorder import PhaseRecorder

            for node in self.nodes:
                recorder = PhaseRecorder()
                node.obs = recorder
                self.recorders[node.node_id] = recorder

        for node_id, when in crashes:
            self.crash_at(node_id, when)

    # ------------------------------------------------------------------
    # Wiring helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_scenario(scenario) -> Tuple[Any, Netem, NetworkParams]:
        if isinstance(scenario, str):
            try:
                scenario = SCENARIOS[scenario]
            except KeyError:
                raise ConfigError(
                    f"unknown scenario {scenario!r}; available: {sorted(SCENARIOS)}"
                ) from None
        if isinstance(scenario, NetworkParams):
            return scenario, HomogeneousNetem(scenario), scenario
        if isinstance(scenario, ClusterParams):
            return scenario, ClusterNetem(scenario), representative_params(scenario)
        raise ConfigError(f"unsupported scenario object: {scenario!r}")

    def model_for(self, tree: Tree) -> PerfModel:
        """The §4.3 model for ``tree``, cached per (height, root fanout)."""
        key = (tree.height, tree.fanout(tree.root))
        model = self._model_cache.get(key)
        if model is None:
            widest = max(tree.fanout(node) for node in tree.nodes)
            model = PerfModel.for_topology(
                n=self.n,
                height=max(1, tree.height),
                root_fanout=max(1, tree.fanout(tree.root)),
                params=self._model_params,
                block_size=self.config.block_size,
                costs=self.scheme.costs,
                bottleneck_fanout=max(1, widest),
                uplink_lanes=self.network.uplink_lanes,
            )
            self._model_cache[key] = model
        return model

    # ------------------------------------------------------------------
    # Fault plan
    # ------------------------------------------------------------------
    def crash_at(self, node_id: int, when: float) -> None:
        """Crash ``node_id`` at simulated ``when``: drop its traffic and
        halt its protocol tasks."""
        self.faults.crash_at(node_id, when)
        self.sim.schedule_at(when, self.nodes[node_id].stop)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Boot every replica (crashed-at-0 nodes stop immediately)."""
        for node in self.nodes:
            node.start()

    def run(
        self,
        duration: Optional[float] = None,
        max_commits: Optional[int] = None,
    ) -> None:
        """Run until ``duration`` simulated seconds or ``max_commits``
        committed blocks, whichever comes first.

        ``duration`` is required: a deployment that cannot commit
        ``max_commits`` blocks (too many crashes, say) never runs out of
        events, because its pacemakers keep timing out.
        """
        if duration is None:
            raise ConfigError(
                "Cluster.run needs a duration (simulated seconds); "
                "max_commits only stops earlier"
            )
        if max_commits is not None:
            check_interval = 0.25

            def watchdog() -> None:
                if self.metrics.committed_blocks >= max_commits:
                    self.sim.stop()
                else:
                    self.sim.schedule(check_interval, watchdog)

            self.sim.schedule(check_interval, watchdog)
        self.sim.run(until=duration)

    # ------------------------------------------------------------------
    # Invariant checks
    # ------------------------------------------------------------------
    def check_agreement(self) -> None:
        """Cross-replica safety: no two correct replicas committed different
        blocks at the same height. Raises on violation."""
        chains: Dict[int, str] = {}
        for node in self.nodes:
            if self.faults.is_byzantine(node.node_id):
                continue
            for block in node.store.commit_log:
                seen = chains.get(block.height)
                if seen is None:
                    chains[block.height] = block.hash
                elif seen != block.hash:
                    raise ConsensusError(
                        f"AGREEMENT VIOLATION at height {block.height}: "
                        f"{seen} vs {block.hash}"
                    )

    def correct_nodes(self) -> List[SmrNode]:
        """Nodes that are neither crashed nor designated Byzantine."""
        return [
            node
            for node in self.nodes
            if node.node_id not in self.faults.faulty
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(n={self.n}, mode={self.mode.name}, "
            f"scenario={getattr(self.scenario, 'name', self.scenario)})"
        )

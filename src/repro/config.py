"""Scenario and deployment configuration.

Encodes the deployment scenarios of the paper's evaluation (§7.1):

- *global*:   200 ms RTT,   25 Mb/s links
- *regional*: 100 ms RTT,  100 Mb/s links
- *national*:  10 ms RTT, 1000 Mb/s links
- *heterogeneous*: the ResilientDB-style multi-cluster deployment (§7.9)

and the tree shapes used throughout the experiments: height-2 trees with
root fanout 10/14/20 for N = 100/200/400 and remaining processes spread
evenly below the internal nodes (internal fanouts 8-9 / 13-14 / 18-19,
matching §7.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.errors import ConfigError

KB = 1024
MB = 1024 * KB


def mbps(value: float) -> float:
    """Convert megabits/second to bits/second."""
    return value * 1_000_000.0


def ms(value: float) -> float:
    """Convert milliseconds to seconds."""
    return value / 1000.0


@dataclass(frozen=True)
class NetworkParams:
    """Homogeneous link characteristics: one RTT/bandwidth for every pair."""

    name: str
    rtt: float  # seconds, round-trip
    bandwidth_bps: float  # per-process uplink, bits/second

    def __post_init__(self) -> None:
        # Comparisons NaN fails: ``rtt < 0`` would wave NaN through, and a
        # NaN link stalls a run without an error.
        if not 0 <= self.rtt < math.inf:
            raise ConfigError(f"RTT must be finite and non-negative: {self.rtt}")
        if not self.bandwidth_bps > 0:  # inf: serializes instantly (Fig. 8)
            raise ConfigError(f"non-positive or NaN bandwidth: {self.bandwidth_bps}")

    @property
    def propagation_delay(self) -> float:
        """One-way propagation delay (half the RTT)."""
        return self.rtt / 2.0

    def with_rtt(self, rtt: float) -> "NetworkParams":
        return replace(self, rtt=rtt)

    def with_bandwidth_bps(self, bandwidth_bps: float) -> "NetworkParams":
        return replace(self, bandwidth_bps=bandwidth_bps)


#: §7.1 deployment scenarios.
GLOBAL = NetworkParams("global", rtt=ms(200), bandwidth_bps=mbps(25))
REGIONAL = NetworkParams("regional", rtt=ms(100), bandwidth_bps=mbps(100))
NATIONAL = NetworkParams("national", rtt=ms(10), bandwidth_bps=mbps(1000))

SCENARIOS: Dict[str, NetworkParams] = {
    "global": GLOBAL,
    "regional": REGIONAL,
    "national": NATIONAL,
}


@dataclass(frozen=True)
class ClusterParams:
    """Heterogeneous multi-cluster link characteristics (§7.9).

    ``cluster_of`` is derived from ``cluster_sizes``: processes are assigned
    to clusters contiguously. Intra-cluster pairs use ``intra``; a pair in
    clusters (a, b) uses ``inter[(a, b)]`` (symmetric lookups fall back to
    ``inter[(b, a)]``).
    """

    name: str
    cluster_sizes: Tuple[int, ...]
    intra: NetworkParams
    inter: Dict[Tuple[int, int], NetworkParams]

    @property
    def n(self) -> int:
        return sum(self.cluster_sizes)

    def cluster_of(self, process: int) -> int:
        if not 0 <= process < self.n:
            raise ConfigError(f"process {process} outside deployment of {self.n}")
        offset = 0
        for index, size in enumerate(self.cluster_sizes):
            offset += size
            if process < offset:
                return index
        raise ConfigError("unreachable")  # pragma: no cover

    def params_between(self, a: int, b: int) -> NetworkParams:
        ca, cb = self.cluster_of(a), self.cluster_of(b)
        if ca == cb:
            return self.intra
        link = self.inter.get((ca, cb)) or self.inter.get((cb, ca))
        if link is None:
            raise ConfigError(f"no inter-cluster params for clusters {ca},{cb}")
        return link

    def members(self, cluster: int) -> range:
        start = sum(self.cluster_sizes[:cluster])
        return range(start, start + self.cluster_sizes[cluster])


def resilientdb_clusters(per_cluster: int = 10) -> ClusterParams:
    """The §7.9 heterogeneous deployment, after ResilientDB's GeoBFT eval.

    Six clusters (Oregon, Iowa, Montreal, Belgium, Taiwan, Sydney) of
    ``per_cluster`` processes each. Cluster 0 (Oregon) has the highest
    bandwidth and lowest RTT to every other cluster, which is where the
    paper places the Kauri/HotStuff leader. RTTs approximate published
    inter-region measurements; intra-cluster links are LAN-class.
    """
    names = ["oregon", "iowa", "montreal", "belgium", "taiwan", "sydney"]
    rtts_ms = {
        (0, 1): 38, (0, 2): 65, (0, 3): 126, (0, 4): 118, (0, 5): 151,
        (1, 2): 31, (1, 3): 105, (1, 4): 155, (1, 5): 184,
        (2, 3): 82, (2, 4): 190, (2, 5): 210,
        (3, 4): 252, (3, 5): 272,
        (4, 5): 130,
    }
    inter = {}
    for (a, b), rtt in rtts_ms.items():
        # Links touching Oregon (cluster 0) get the best bandwidth, making
        # it the natural leader placement, as in the paper.
        bandwidth = mbps(200) if a == 0 else mbps(100)
        inter[(a, b)] = NetworkParams(
            f"{names[a]}-{names[b]}", rtt=ms(rtt), bandwidth_bps=bandwidth
        )
    intra = NetworkParams("intra-cluster", rtt=ms(1), bandwidth_bps=mbps(1000))
    return ClusterParams(
        name="resilientdb",
        cluster_sizes=tuple([per_cluster] * 6),
        intra=intra,
        inter=inter,
    )


def max_faults(n: int) -> int:
    """Classical BFT resilience: the largest f with n >= 3f + 1."""
    if n < 1:
        raise ConfigError(f"need at least one process, got {n}")
    return (n - 1) // 3


def quorum_size(n: int) -> int:
    """Byzantine quorum: n - f."""
    return n - max_faults(n)


def default_root_fanout(n: int, height: int) -> int:
    """Root fanout giving an approximately balanced tree of ``height``.

    Matches the paper's choices: N=100 -> 10, N=200 -> 14, N=400 -> 20 for
    height 2, and N=100 -> 5 for height 3 (§7.1, §7.8).
    """
    if height < 1:
        raise ConfigError(f"tree height must be >= 1, got {height}")
    if n < 2:
        raise ConfigError(f"need at least two processes for a tree, got {n}")
    return max(1, int((n - 1) ** (1.0 / height) + 0.5))


@dataclass(frozen=True)
class ProtocolConfig:
    """Per-run protocol parameters.

    ``stretch`` is Kauri's pipelining stretch (§4.3): the number of
    additional consensus instances started during one round. ``None`` means
    "derive from the performance model" (§7.2); 0 disables pipelining
    entirely (the Kauri-np baseline of §7.4). HotStuff ignores ``stretch``
    and uses its fixed pipeline depth of 4 (§4.1).
    """

    block_size: int = 250 * KB
    tx_size: int = 512  # bytes per transaction (payload accounting only)
    stretch: Optional[float] = None
    adaptive_stretch: bool = False  # §6 future work: adapt at runtime
    base_timeout: float = 1.7  # §7.10 HotStuff calibration; Kauri uses 0.35
    timeout_cap: float = 10.0  # §7.10: doubled twice, then capped
    delta: Optional[float] = None  # impatient-channel bound; None = derived
    max_inflight_factor: int = 4  # safety cap on outstanding instances

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ConfigError(f"non-positive block size: {self.block_size}")
        if self.tx_size <= 0:
            raise ConfigError(f"non-positive tx size: {self.tx_size}")
        if self.tx_size > self.block_size:
            raise ConfigError(
                f"tx_size {self.tx_size} B exceeds block_size "
                f"{self.block_size} B: no transaction fits in a block"
            )
        # Written as comparisons NaN fails (see NetworkParams).
        if self.stretch is not None and not 0 <= self.stretch < math.inf:
            raise ConfigError(
                f"stretch must be finite and non-negative: {self.stretch}"
            )
        if not 0 < self.base_timeout < math.inf:
            raise ConfigError(
                f"timeout must be finite and positive: {self.base_timeout}"
            )
        if not self.timeout_cap > 0:  # inf: no cap
            raise ConfigError(f"non-positive or NaN timeout cap: {self.timeout_cap}")
        if self.delta is not None and not 0 < self.delta < math.inf:
            raise ConfigError(
                f"impatient-channel bound delta must be finite and positive: "
                f"{self.delta}"
            )

    @property
    def txs_per_block(self) -> int:
        return self.block_size // self.tx_size

    def with_stretch(self, stretch: Optional[float]) -> "ProtocolConfig":
        return replace(self, stretch=stretch)

    def with_block_size(self, block_size: int) -> "ProtocolConfig":
        return replace(self, block_size=block_size)


#: §7.10 empirically calibrated fault-detection timeouts.
KAURI_TIMEOUT = 0.35
HOTSTUFF_TIMEOUT = 1.7

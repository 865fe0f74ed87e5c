"""Deterministic view-to-configuration mapping (paper §5.2-§5.3, §6).

Every process derives the communication topology for view ``v`` locally and
deterministically, so no agreement on the topology itself is needed:

- *Tree phase* (positions ``0 .. m-1`` of each cycle): tree ``j`` draws its
  internal nodes from disjoint bin ``j`` (Algorithm 4). With ``f < m``
  faults, some bin is all-correct, so a robust tree appears within ``m``
  steps -- and since any leader-based protocol needs up to ``f + 1``
  reconfigurations, this is optimal when ``f < m`` (§1).
- *Star phase* (positions ``m ..``): after ``m`` consecutive failed tree
  configurations Kauri falls back to a star whose leader rotates round
  robin (§5.3), recovering within ``f + 1`` further steps. Worst case:
  ``m + f + 1`` reconfigurations.

Views only advance on timeout (§6), so consecutive views correspond exactly
to consecutive failed configurations. The mapping cycles with period
``m + n`` so that a system that stabilised in the star phase simply keeps
its star (matching Figure 12c, where post-recovery Kauri performs like
HotStuff).

A ``star`` policy (HotStuff itself) rotates the star leader every view.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.errors import TopologyError
from repro.topology.bins import BinPartition
from repro.topology.builder import build_star, build_tree, tree_level_sizes
from repro.topology.tree import Tree


class ReconfigurationPolicy:
    """Maps view numbers to topologies for one deployment."""

    def __init__(
        self,
        processes: Sequence[int],
        height: int = 2,
        root_fanout: Optional[int] = None,
        num_bins: Optional[int] = None,
    ):
        self.processes: Tuple[int, ...] = tuple(processes)
        self.n = len(self.processes)
        if self.n < 2:
            raise TopologyError("need at least two processes")
        self.height = height
        self.root_fanout = root_fanout
        self._cache: dict = {}
        if height == 1:
            # Pure star (HotStuff): one internal node, no bins needed.
            self.internal_count = 1
            self.partition: Optional[BinPartition] = None
            self.num_bins = 0
        else:
            sizes = tree_level_sizes(self.n, height, root_fanout)
            self.internal_count = sum(sizes[:-1])
            self.partition = BinPartition(
                self.processes, self.internal_count, num_bins
            )
            self.num_bins = self.partition.num_bins

    @classmethod
    def star_policy(cls, processes: Sequence[int]) -> "ReconfigurationPolicy":
        """HotStuff's rotation: a star whose leader advances each view."""
        return cls(processes, height=1)

    # ------------------------------------------------------------------
    @property
    def cycle_length(self) -> int:
        if self.height == 1:
            return self.n
        return self.num_bins + self.n

    def is_tree_view(self, view: int) -> bool:
        """True if ``view`` uses a tree (not the star fallback)."""
        if self.height == 1:
            return False
        return view % self.cycle_length < self.num_bins

    def configuration(self, view: int) -> Tree:
        """The topology every correct process uses in ``view``."""
        if view < 0:
            raise TopologyError(f"negative view: {view}")
        position = view % self.cycle_length
        tree = self._cache.get(position)
        if tree is not None:
            return tree
        if self.height == 1:
            tree = build_star(self.processes, leader=self.processes[position])
        elif position < self.num_bins:
            assert self.partition is not None
            tree = build_tree(
                self.processes,
                self.height,
                self.root_fanout,
                internals_first=self.partition.bin(position),
            )
        else:
            leader = self.processes[(position - self.num_bins) % self.n]
            tree = build_star(self.processes, leader=leader)
        self._cache[position] = tree
        return tree

    def leader_of(self, view: int) -> int:
        """The root process of ``view``'s configuration."""
        return self.configuration(view).root

    def worst_case_reconfigurations(self, f: int) -> int:
        """§5.3: ``m + f + 1`` for trees, ``f + 1`` for a star policy."""
        if self.height == 1:
            return f + 1
        return self.num_bins + f + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "star" if self.height == 1 else f"tree(h={self.height})"
        return (
            f"ReconfigurationPolicy({kind}, n={self.n}, bins={self.num_bins}, "
            f"internals={self.internal_count})"
        )


class FixedTopologyPolicy:
    """A hand-placed topology, with a star fallback for faulty runs.

    Used for the heterogeneous deployment (§7.9), where the paper manually
    places the leader in the best-connected cluster and internal nodes next
    to their leaf nodes -- automatic placement is handled by
    :func:`repro.core.autotune.tune_heterogeneous`. View 0 uses the
    hand-placed tree; the §7.9 experiments are fault-free so it is the only
    configuration ever used there. If the tree does fail, later views fall
    back to rotating stars (§5.3's degradation) so liveness is preserved
    even though no alternative hand-placed trees exist. The cycle wraps
    after every process has led a star, giving the fixed tree another
    chance post-recovery.
    """

    def __init__(self, tree: Tree):
        self.tree = tree
        self.processes: Tuple[int, ...] = tree.nodes
        self.n = tree.n
        self.height = tree.height
        self.num_bins = 1
        self.internal_count = len(tree.internal_nodes)
        self._cache: dict = {}

    @property
    def cycle_length(self) -> int:
        return 1 + self.n

    def configuration(self, view: int) -> Tree:
        if view < 0:
            raise TopologyError(f"negative view: {view}")
        position = view % self.cycle_length
        if position == 0:
            return self.tree
        star = self._cache.get(position)
        if star is None:
            star = build_star(self.processes, leader=self.processes[position - 1])
            self._cache[position] = star
        return star

    def leader_of(self, view: int) -> int:
        return self.configuration(view).root

    def is_tree_view(self, view: int) -> bool:
        return view % self.cycle_length == 0 and not self.tree.is_star

    def worst_case_reconfigurations(self, f: int) -> int:
        return f + 2  # the fixed tree, then at most f+1 star leaders

"""The network fabric: endpoints, sends, and tag-based receives.

``Network.send`` charges the sender's NIC (serialization at the pair's
bandwidth), adds the pair's propagation delay, consults the fault injector,
and delivers into the destination :class:`Endpoint`. Endpoints hand
messages to blocked ``receive`` coroutines by tag (and optional sender),
queueing unclaimed messages per tag.

Delivered-but-stale traffic is garbage collected by tag prefix when a view
ends (:meth:`Endpoint.purge`), mirroring a real implementation discarding
messages from superseded instances.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Hashable, List, Optional, Tuple

from repro.errors import NetworkError
from repro.net.faults import FaultInjector
from repro.net.message import Message
from repro.net.netem import Netem
from repro.net.nic import Nic
from repro.sim.engine import Simulator
from repro.sim.process import MailboxWait

#: Fixed per-message framing overhead (TCP/IP + protocol header), bytes.
HEADER_BYTES = 64


class Endpoint:
    """Receiving side of one process: a mailbox keyed by tag.

    Every receive names a tag and, optionally, the one sender it accepts
    (``src``); :meth:`try_receive` takes a queued message, :meth:`wait`
    parks for the next arrival, and :meth:`receive` is the two in turn.
    At most one receive is parked per tag at a time: every protocol tag
    names one (view, instance, round, channel), which one coroutine
    receives.
    """

    __slots__ = (
        "sim", "node_id", "_inbox", "_waiters", "messages_delivered",
        "bytes_delivered", "_queued", "max_queued",
    )

    def __init__(self, sim: Simulator, node_id: int):
        self.sim = sim
        self.node_id = node_id
        self._inbox: Dict[Hashable, Deque[Message]] = {}
        #: The one parked receive request per tag; the task kernel parks
        #: and withdraws it, :meth:`deliver` pops it when it serves it.
        self._waiters: Dict[Hashable, MailboxWait] = {}
        self.messages_delivered = 0
        self.bytes_delivered = 0
        #: Live count of queued (delivered-but-unclaimed) messages, and its
        #: high-water mark.
        self._queued = 0
        self.max_queued = 0

    # ------------------------------------------------------------------
    def deliver(self, msg: Message) -> None:
        """Fabric hook: hand ``msg`` to a blocked receiver or queue it.

        The tag's parked waiter, if its sender filter accepts the message,
        is popped and its task woken with it; otherwise the message is
        queued. Every parked entry is live -- a timed-out or cancelled
        waiter withdraws its own -- so there is nothing to prune.
        """
        self.messages_delivered += 1
        self.bytes_delivered += msg.size
        tag = msg.tag
        waiter = self._waiters.get(tag)
        if waiter is not None and (waiter.src is None or waiter.src == msg.src):
            del self._waiters[tag]
            task = waiter.task
            waiter.task = None
            self.sim.schedule_now(task._step, waiter.token, "send", msg)
            return
        queue = self._inbox.get(tag)
        if queue is None:
            self._inbox[tag] = deque((msg,))
        else:
            queue.append(msg)
        self._queued += 1
        if self._queued > self.max_queued:
            self.max_queued = self._queued

    def try_receive(
        self, tag: Hashable, src: Optional[int] = None
    ) -> Optional[Message]:
        """Non-blocking receive: pop the first queued message from ``src``
        (from anyone if ``None``), if any."""
        queue = self._inbox.get(tag)
        if not queue:
            return None
        if src is None:
            msg = queue.popleft()
        else:
            # Locate by index and rotate/pop: deque.remove would rescan the
            # queue comparing every element a second time.
            for index, candidate in enumerate(queue):
                if candidate.src == src:
                    break
            else:
                return None
            if index:
                queue.rotate(-index)
                msg = queue.popleft()
                queue.rotate(index)
            else:
                msg = queue.popleft()
        if not queue:
            del self._inbox[tag]
        self._queued -= 1
        return msg

    def wait(
        self,
        tag: Hashable,
        timeout: Optional[float] = None,
        src: Optional[int] = None,
    ) -> MailboxWait:
        """Wait request for the next message tagged ``tag`` that *arrives*.

        Yielding it evaluates to the :class:`Message`, or to
        :data:`~repro.sim.process.TIMEOUT` if ``timeout`` elapses first; the task
        kernel parks the request on the tag, which must have no receive
        parked already. It does not look at the inbox:
        ask :meth:`try_receive` first, as :meth:`receive` does. Protocol
        coroutines on the hot path compose the two themselves, one
        generator frame shallower than ``yield from receive(...)``.
        """
        return MailboxWait(self._waiters, tag, timeout, src)

    def receive(
        self,
        tag: Hashable,
        timeout: Optional[float] = None,
        src: Optional[int] = None,
    ):
        """Coroutine: block until a message tagged ``tag`` arrives.

        Returns the :class:`Message`, or :data:`~repro.sim.process.TIMEOUT` if
        ``timeout`` elapses first. ``src`` restricts candidates to one
        sender. Cancellation-safe: a cancelled receiver never consumes a message,
        from the moment ``cancel()`` returns.
        """
        msg = self.try_receive(tag, src)
        if msg is None:
            msg = yield self.wait(tag, timeout, src)
        return msg

    # ------------------------------------------------------------------
    def purge(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop queued messages whose tag satisfies ``predicate``.

        Returns the number of messages discarded. Waiters are left alone:
        their owning tasks are cancelled separately on view change, which
        withdraws their entries.
        """
        doomed = [tag for tag in self._inbox if predicate(tag)]
        dropped = 0
        for tag in doomed:
            dropped += len(self._inbox.pop(tag))
        self._queued -= dropped
        return dropped

    @property
    def queued_messages(self) -> int:
        return self._queued

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Endpoint(node={self.node_id}, queued={self.queued_messages})"


class Network:
    """Full-mesh fabric over a :class:`~repro.net.netem.Netem` shaper."""

    def __init__(
        self,
        sim: Simulator,
        netem: Netem,
        faults: Optional[FaultInjector] = None,
        header_bytes: int = HEADER_BYTES,
        uplink_lanes: int = 1,
    ):
        self.sim = sim
        self.netem = netem
        self.faults = faults if faults is not None else FaultInjector(sim)
        self.header_bytes = header_bytes
        self.uplink_lanes = uplink_lanes
        self.endpoints: Dict[int, Endpoint] = {}
        self.nics: Dict[int, Nic] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self._uid = 0
        # Link-parameter memo in front of the shaper: every Netem in the
        # library is static, and the fabric queries per message. Keyed by
        # the shaper's link *class* when it exposes ``link_key`` (one
        # entry for a homogeneous scenario, O(clusters^2) for a clustered
        # one -- never O(n^2) pairs), by (src, dst) pair otherwise.
        # Swapping ``self.netem`` rebinds and clears the memo on the next
        # send (see _rebind_netem).
        self._params_cache: Dict[Any, Any] = {}
        self._keyed_netem: Any = netem
        self._link_key: Optional[Callable[[int, int], Any]] = getattr(
            netem, "link_key", None
        )
        #: Optional observers called as f(kind, msg, time) on "send",
        #: "deliver" and "drop" events (repro.consensus.evidence uses one).
        self.observers: List[Callable[[str, Message, float], None]] = []

    def _notify(self, kind: str, msg: Message) -> None:
        for observer in self.observers:
            observer(kind, msg, self.sim.now)

    # ------------------------------------------------------------------
    def register(self, node_id: int) -> Endpoint:
        """Create (or return) the endpoint and NIC for ``node_id``."""
        if node_id not in self.endpoints:
            self.endpoints[node_id] = Endpoint(self.sim, node_id)
            self.nics[node_id] = Nic(
                self.sim, name=f"nic-{node_id}", lanes=self.uplink_lanes
            )
        return self.endpoints[node_id]

    def endpoint(self, node_id: int) -> Endpoint:
        """The registered endpoint of ``node_id`` (raises if unknown)."""
        try:
            return self.endpoints[node_id]
        except KeyError:
            raise NetworkError(f"process {node_id} is not registered") from None

    def nic(self, node_id: int) -> Nic:
        """The registered NIC of ``node_id`` (raises if unknown)."""
        try:
            return self.nics[node_id]
        except KeyError:
            raise NetworkError(f"process {node_id} is not registered") from None

    # ------------------------------------------------------------------
    def send(
        self,
        src: int,
        dst: int,
        tag: Hashable,
        payload: Any,
        size: int,
    ) -> Message:
        """Send ``payload`` from ``src`` to ``dst``.

        The message occupies the sender's NIC for ``(size + header) * 8 /
        bandwidth`` seconds, then arrives ``propagation_delay`` (plus any
        injected delay) later -- unless a fault drops it. Self-sends are
        delivered immediately without touching the NIC.
        """
        return self._emit(src, dst, tag, payload, size)

    def multicast(
        self,
        src: int,
        dsts: Tuple[int, ...],
        tag: Hashable,
        payload: Any,
        size: int,
    ) -> List[Message]:
        """Send ``payload`` from ``src`` to every process in ``dsts``, in
        order: one :meth:`send` per destination.

        The m messages serialize back to back on the sender's NIC, which
        is the paper's §4.3 sending time. A destination that is not
        registered raises at its turn, after the messages before it were
        sent.
        """
        emit = self._emit
        return [emit(src, dst, tag, payload, size) for dst in dsts]

    def _emit(
        self,
        src: int,
        dst: int,
        tag: Hashable,
        payload: Any,
        size: int,
    ) -> Message:
        """The one body of :meth:`send` and :meth:`multicast`."""
        # Single .get() per dict on the hot path (no membership check
        # followed by a second hash of the same key).
        nic = self.nics.get(src)
        dst_endpoint = self.endpoints.get(dst)
        if nic is None or dst_endpoint is None:
            raise NetworkError(f"send between unregistered processes {src}->{dst}")
        self._uid += 1
        msg = Message(
            src=src, dst=dst, tag=tag, payload=payload, size=size,
            sent_at=self.sim.now, uid=self._uid,
        )
        self.messages_sent += 1
        if self.observers:
            self._notify("send", msg)
        faults = self.faults
        if src in faults.crashed:
            faults.dropped_messages += 1
            if self.observers:
                self._notify("drop", msg)
            return msg
        if src == dst:
            self._deliver(msg)
            return msg
        if self.netem is not self._keyed_netem:
            self._rebind_netem()
        link_key = self._link_key
        key = (src, dst) if link_key is None else link_key(src, dst)
        params = self._params_cache.get(key)
        if params is None:
            params = self.netem.params_between(src, dst)
            self._params_cache[key] = params
        done = nic.transmit_raw(size + self.header_bytes, params.bandwidth_bps)
        if faults._armed:
            self.sim.schedule_call_at(
                done, self._serialized, msg, params.propagation_delay
            )
        else:
            # No fault rule has ever been registered on this injector, and
            # arming is monotonic, so none can exist when serialization
            # completes either: skip the completion hop and schedule the
            # delivery directly -- one handle-free event instead of two.
            self.sim.schedule_call_at(
                done + params.propagation_delay, self._deliver, msg
            )
        return msg

    def _serialized(self, msg: Message, propagation_delay: float) -> None:
        """Per-message serialization-completion hook (armed injector only).

        Fault checks must run at serialization completion (a crash can land
        mid-serialization, also mid-multicast-fan-out), but the common
        no-rule case is decided by plain attribute peeks at the injector's
        rule sets (see FaultInjector) -- no method dispatch, no per-message
        tuple allocation.
        """
        faults = self.faults
        if faults.crashed or faults._omission_edges or (
            faults._drop_predicate is not None
        ):
            if faults.should_drop(msg):
                if self.observers:
                    self._notify("drop", msg)
                return
        if faults._delay_fn is None:
            delay = propagation_delay
        else:
            delay = propagation_delay + faults.extra_delay(msg)
        self.sim.schedule_call(delay, self._deliver, msg)

    def _rebind_netem(self) -> None:
        """Adopt a swapped shaper (client-harness wrapping, or any direct
        ``network.netem = ...``): drop every memoised entry so stale
        bandwidth or propagation values never price new traffic, and pick
        up the new shaper's ``link_key`` (or lack of one)."""
        netem = self.netem
        self._keyed_netem = netem
        self._link_key = getattr(netem, "link_key", None)
        self._params_cache.clear()

    def _deliver(self, msg: Message) -> None:
        faults = self.faults
        if msg.dst in faults.crashed:
            faults.dropped_messages += 1
            if self.observers:
                self._notify("drop", msg)
            return
        msg.delivered_at = self.sim.now
        self.messages_delivered += 1
        if self.observers:
            self._notify("deliver", msg)
        self.endpoints[msg.dst].deliver(msg)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(n={len(self.endpoints)}, sent={self.messages_sent}, "
            f"delivered={self.messages_delivered})"
        )

"""Network substrate: links, NICs, channels, shaping, and fault injection.

The fabric models what the paper's Grid'5000 + NetEm testbed provides:

- per-pair propagation delay (RTT/2) and per-process uplink bandwidth
  (:mod:`repro.net.netem`, :mod:`repro.net.nic`);
- perfect point-to-point channels (§2), including an explicit
  retransmission/deduplication implementation over lossy links
  (:mod:`repro.net.perfect`);
- the tagged, per-source mailbox receives (:class:`repro.net.network.Endpoint`)
  that :mod:`repro.core.comm` builds Algorithm 1's impatient channels on;
- crash/omission/delay fault injection (:mod:`repro.net.faults`).
"""

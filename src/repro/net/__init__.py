"""Network substrate: links, NICs, channels, shaping, and fault injection.

The fabric models what the paper's Grid'5000 + NetEm testbed provides:

- per-pair propagation delay (RTT/2) and per-process uplink bandwidth
  (:mod:`repro.net.netem`, :mod:`repro.net.nic`);
- perfect point-to-point channels (§2), including an explicit
  retransmission/deduplication implementation over lossy links
  (:mod:`repro.net.perfect`);
- impatient channels (Algorithm 1) offering a blocking ``receive`` that
  returns either the sender's value or ⊥ after the known bound Δ
  (:mod:`repro.net.impatient`);
- crash/omission/delay fault injection (:mod:`repro.net.faults`).
"""

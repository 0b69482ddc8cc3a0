"""Deployment tier: the protocol over real UDP sockets.

The simulator tier proves the protocol correct under a controlled
clock; this package runs the *same* protocol core as real processes
exchanging real datagrams:

* :mod:`repro.net.wire` -- datagram framing over the
  :mod:`repro.runtime.codec` tagged-JSON message format.
* :mod:`repro.net.datagram` -- :class:`~repro.net.datagram.DatagramTransport`,
  the UDP sibling of the in-memory transport (ARQ reliability,
  address learning, fault injection).
* :mod:`repro.net.faults` -- seeded loss/duplication/reordering.
* :mod:`repro.net.daemon` -- ``repro node``, one protocol node per
  OS process with a UDP control protocol.
* :mod:`repro.net.rendezvous` -- ``repro rendezvous``, the bootstrap
  directory.
* :mod:`repro.net.control` -- blocking control-protocol client and
  the sans-io response helper every op server shares.
* :mod:`repro.net.cluster` -- ``repro cluster``, the multi-process
  join experiment with live Definition 3.8 / Theorem 3 verification.
* :mod:`repro.net.collect` -- telemetry collector: clock-aligns and
  merges every daemon's causal trace into one analyzable stream.
* :mod:`repro.net.top` -- ``repro top``, the live cluster status view.
"""

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

from repro.net.cluster import ClusterConfig, ClusterError, run_cluster
from repro.net.collect import CollectError, TelemetryCollector
from repro.net.control import ControlClient, ControlError
from repro.net.daemon import NodeDaemon, NodeDaemonConfig
from repro.net.datagram import DatagramTransport
from repro.net.faults import FaultInjector, FaultPlan
from repro.net.rendezvous import RendezvousServer
from repro.net.top import poll_cluster, run_top
from repro.net.wire import parse_hostport, format_hostport

__all__ = [
    "ClusterConfig",
    "ClusterError",
    "CollectError",
    "ControlClient",
    "ControlError",
    "DatagramTransport",
    "FaultInjector",
    "FaultPlan",
    "NodeDaemon",
    "NodeDaemonConfig",
    "RendezvousServer",
    "TelemetryCollector",
    "format_hostport",
    "parse_hostport",
    "poll_cluster",
    "run_cluster",
    "run_top",
]

"""Object location on top of the routing infrastructure.

PRR's purpose -- and the motivation in the paper's introduction -- is
locating replicated objects: object names hash into the node ID space,
each object has a deterministic *root* node (the surrogate-routing
resolution of its ID, property P1), and directory entries mapping the
object to its holders live at the root.

:class:`ObjectDirectory` implements that scheme over any table
provider.  It is deliberately minimal -- the paper defers directory
dynamics to PRR [9] -- but enough to run the motivating file-sharing
workloads (see ``examples/file_sharing_network.py``).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.ids.digits import NodeId
from repro.ids.idspace import IdSpace
from repro.routing.router import TableProvider, surrogate_route


def object_root(
    tables: TableProvider, origin: NodeId, object_id: NodeId
) -> NodeId:
    """The object's root: where surrogate routing from ``origin``
    toward ``object_id`` terminates.  Origin-independent on a
    consistent network (deterministic location, P1)."""
    result = surrogate_route(tables, origin, object_id)
    if not result.success:
        raise RuntimeError(
            f"surrogate routing failed at {result.failed_at}; "
            "is the network consistent?"
        )
    return result.path[-1]


class ObjectDirectory:
    """A name service over a :class:`~repro.protocol.join.JoinProtocolNetwork`.

    Objects are published under their hashed name at their current
    root; queries resolve the root and look the name up there.  After
    membership changes (joins can move roots), call
    :meth:`republish_all` -- the maintenance step real systems trigger
    on neighbor-table change.
    """

    def __init__(self, network, hash_algorithm: str = "sha1"):
        self.network = network
        self.idspace: IdSpace = network.idspace
        self.hash_algorithm = hash_algorithm
        # root -> {object name -> holders}
        self._directories: Dict[NodeId, Dict[str, Set[NodeId]]] = {}
        # holder bookkeeping for republish
        self._published: Dict[str, Set[NodeId]] = {}

    def object_id(self, name: str) -> NodeId:
        """Hash ``name`` into the node ID space."""
        return self.idspace.hash_name(name, self.hash_algorithm)

    def _provider(self):
        # A live view: no per-operation copy of every table reference,
        # and members that joined after this directory was created
        # resolve like any other.
        nodes = self.network.nodes
        return lambda node_id: nodes[node_id].table

    def root_of(self, name: str, origin: Optional[NodeId] = None) -> NodeId:
        """The current root node of ``name`` (origin-independent)."""
        if origin is None:
            origin = next(iter(self.network.nodes))
        return object_root(
            self._provider(), origin, self.object_id(name)
        )

    def publish(self, holder: NodeId, name: str) -> NodeId:
        """Record ``holder`` as having ``name``; returns the root the
        mapping was stored at."""
        if holder not in self.network.nodes:
            raise ValueError(f"{holder} is not a live member")
        root = self.root_of(name, origin=holder)
        self._directories.setdefault(root, {}).setdefault(
            name, set()
        ).add(holder)
        self._published.setdefault(name, set()).add(holder)
        return root

    def query(self, origin: NodeId, name: str) -> Set[NodeId]:
        """Holders of ``name`` per the directory at its current root."""
        root = self.root_of(name, origin=origin)
        return set(self._directories.get(root, {}).get(name, ()))

    def republish_all(self) -> int:
        """Re-anchor every mapping at its (possibly moved) current
        root; drops holders that have left.  Returns mappings placed."""
        live = set(self.network.nodes)
        published = {
            name: {h for h in holders if h in live}
            for name, holders in self._published.items()
        }
        self._directories = {}
        self._published = {}
        count = 0
        for name, holders in published.items():
            for holder in holders:
                self.publish(holder, name)
                count += 1
        return count

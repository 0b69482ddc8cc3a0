"""Per-node optimization logic, mixed into ProtocolNode.

RTT measurement rides on the recovery package's PingMsg/PongMsg with a
dedicated token (:data:`MEASURE`); the
:meth:`repro.recovery.mixin.RecoveryMixin._on_measured_pong` hook
routes those pongs here.

Suffix-class tests use the packed ``(key, mask)`` form of
:mod:`repro.ids.packed`, as in the recovery mixin.  A measured pong
reads only the cells its candidate fits -- ``(L, owner[L])`` for ``L <
k = csuf(candidate, owner)``, then ``(k, candidate[k])`` -- from the
live table: no memo, so no validity stamp.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.ids.digits import NodeId
from repro.ids.packed import suffix_pattern
from repro.optimize.messages import OptFindMsg, OptFindRlyMsg
from repro.recovery.messages import PingMsg, PongMsg

Position = Tuple[int, int]

#: Ping token for RTT measurement (recovery uses 0 and 1).
MEASURE = 2


class _OptimizationState:
    """One node's working state for an optimization round."""

    __slots__ = ("best", "measured")

    def __init__(self) -> None:
        # position -> (best RTT seen, best candidate)
        self.best: Dict[Position, Tuple[float, NodeId]] = {}
        self.measured: Set[NodeId] = set()


class OptimizationMixin:
    """Nearest-neighbor entry optimization, one node's share.

    A node that never runs a round keeps ``_opt`` at ``None``.
    """

    __slots__ = ()

    def _init_optimization(self) -> None:
        self._opt: Optional[_OptimizationState] = None
        self.optimization_switches = 0
        # First instance of the class registers for all (class-shared
        # handler table, see NetworkNode._class_handlers).
        if OptFindMsg not in self._handlers:
            self.handles(OptFindMsg, self._on_opt_find)
            self.handles(OptFindRlyMsg, self._on_opt_find_rly)

    def begin_optimization_round(self) -> None:
        """Ask each entry's occupant for its suffix-class members."""
        self._opt = _OptimizationState()
        for entry in self.table.entries():
            if entry.node == self.node_id:
                continue
            suffix = self.node_id.suffix(entry.level) + (entry.digit,)
            self.send(entry.node, OptFindMsg(self.node_id, suffix))

    def _on_opt_find(self, msg: OptFindMsg) -> None:
        suffix = msg.suffix
        me = self.node_id
        key, mask = suffix_pattern(suffix, me._base, len(me._digits))
        sender = msg.sender
        candidates = [me] if me._packed & mask == key else []
        candidates += [
            n for n in self.table.distinct_neighbors()
            if n._packed & mask == key and n != sender and n != me
        ]
        self.send(
            msg.sender,
            OptFindRlyMsg(self.node_id, suffix, tuple(candidates)),
        )

    def _optimization_state(self) -> _OptimizationState:
        state = self._opt
        if state is None:
            state = self._opt = _OptimizationState()
        return state

    def _on_opt_find_rly(self, msg: OptFindRlyMsg) -> None:
        measured = self._optimization_state().measured
        for candidate in msg.candidates:
            if candidate == self.node_id or candidate in measured:
                continue
            measured.add(candidate)
            self.send(
                candidate, PingMsg(self.node_id, self.now, token=MEASURE)
            )

    def _on_measured_pong(self, msg: PongMsg) -> None:
        rtt = self.now - msg.sent_at
        candidate = msg.sender
        best_of = self._optimization_state().best
        me = self.node_id
        digits = me._digits
        k = me.csuf_len(candidate)
        fits = [(level, digits[level]) for level in range(k)]
        if k < len(digits):
            fits.append((k, candidate._digits[k]))
        cells = self.table._cells
        base = self.table.base
        for position in fits:
            node = cells[position[0] * base + position[1]]
            if node is None or node == me:
                continue
            best = best_of.get(position)
            if best is None or rtt < best[0]:
                best_of[position] = (rtt, candidate)

    def finalize_optimization_round(self) -> int:
        """Switch each entry to its best measured candidate.  Returns
        the number of entries switched."""
        from repro.protocol.messages import RvNghDropMsg, RvNghNotiMsg
        from repro.routing.entry import NeighborState

        switches = 0
        state = self._optimization_state()
        for position, (_rtt, candidate) in state.best.items():
            level, digit = position
            current = self.table.get(level, digit)
            if current is None or current == candidate:
                continue
            self.table.replace_entry(
                level, digit, candidate, NeighborState.S
            )
            self.send(
                candidate,
                RvNghNotiMsg(self.node_id, level, digit, NeighborState.S),
            )
            self.send(current, RvNghDropMsg(self.node_id, level, digit))
            switches += 1
        self.optimization_switches += switches
        state.best = {}
        return switches

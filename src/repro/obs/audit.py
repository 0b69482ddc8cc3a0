"""Live protocol auditing: invariants checked *during* the run.

Zave's work on Chord (see PAPERS.md) showed that join protocols are
best validated by continuously checking invariants during execution,
not only at quiescence.  :class:`LiveAuditor` applies that lesson to
this paper: it rides the scheduler's ``on_event_fired`` hook and, at
configurable virtual-time intervals, evaluates

* **Theorem 3 (hard gate)** -- every joiner's
  ``CpRstMsg + JoinWaitMsg`` count must stay ``<= d + 1``;
* **mid-run consistency** -- Definition 3.8 over the *S-node*
  subnetwork (plus any stalled joiner, see below), with live T-nodes
  accepted as entry occupants.  Single-sample violations are expected
  while notifications are in flight; a violation that persists for
  ``persist_samples`` consecutive samples becomes an incident;
* **stalls** -- a joiner sitting in one phase for more than
  ``stall_timeout`` virtual time while the simulation is still making
  progress.  A stalled joiner is then *promoted into the audited
  membership*: it has been around so long that the network should know
  it, so Definition 3.8 reports exactly the entries the lost messages
  should have filled -- this is how a dropped ``JoinNotiMsg`` surfaces
  mid-run;
* **Theorems 4/5 (soft gate, at finalization)** -- the measured mean
  number of ``JoinNotiMsg`` per joiner against the Theorem 4
  expectation and the Theorem 5 upper bound, with a tolerance.

The auditor needs no tracer: it reads phase transitions through the
network's phase-listener hook and counters through
:class:`~repro.network.stats.MessageStats`, so ``join --audit`` works
in the cheap metrics-only configuration.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import compress, count, islice
from operator import attrgetter, is_not
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.analysis.expected_cost import (
    expected_join_noti,
    expected_join_noti_upper_bound,
    theorem3_bound,
)
from repro.consistency.checker import check_consistency

#: Incident kinds, in the order they are typically produced.
HARD_KINDS = (
    "theorem3",
    "stall",
    "consistency",
    "quiescent_stall",
    "final_consistency",
)
SOFT_KINDS = ("theorem45",)

_STATUS = attrgetter("status")


@dataclass
class AuditConfig:
    """Tunables of one :class:`LiveAuditor`."""

    #: Virtual time between consistency samples.
    interval: float = 50.0
    #: Consecutive samples a violation must survive to become an
    #: incident (absorbs in-flight-notification windows).
    persist_samples: int = 4
    #: Virtual time a joiner may sit in a single phase before it is
    #: declared stalled (and promoted into the audited membership).
    stall_timeout: float = 1500.0
    #: Relative tolerance of the Theorem 4/5 soft gate.
    theorem45_tolerance: float = 0.5
    #: Violation cap per consistency sample (keeps sampling bounded on
    #: heavily broken networks).
    max_violations_per_sample: int = 200
    #: Use the stateful :class:`~repro.consistency.IncrementalChecker`
    #: for every consistency check, finalize() included: only nodes
    #: whose verdict could have changed since the previous check are
    #: re-verified, turning the cost from O(n*d*b) into O(dirty).
    #: Reports are identical to the full scanner's (membership shrink
    #: falls back to a full rescan).  Off by default.
    incremental: bool = False

    def validated(self) -> "AuditConfig":
        """Self, after bounds checks."""
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.persist_samples < 1:
            raise ValueError("persist_samples must be >= 1")
        if self.stall_timeout <= 0:
            raise ValueError("stall_timeout must be positive")
        if self.theorem45_tolerance < 0:
            raise ValueError("theorem45_tolerance must be >= 0")
        return self


@dataclass
class AuditIncident:
    """One rule violation flagged by the auditor."""

    kind: str
    severity: str  # "hard" or "soft"
    time: float
    detail: str

    def to_json_dict(self) -> Dict[str, Any]:
        """Deterministic plain-dict form."""
        return {
            "kind": self.kind,
            "severity": self.severity,
            "time": self.time,
            "detail": self.detail,
        }


@dataclass
class AuditSample:
    """One mid-run snapshot of the audited invariants."""

    time: float
    s_nodes: int
    t_nodes: int
    open_joins: int
    violations: int
    persistent_violations: int

    def to_json_dict(self) -> Dict[str, Any]:
        """Deterministic plain-dict form."""
        return {
            "time": self.time,
            "s_nodes": self.s_nodes,
            "t_nodes": self.t_nodes,
            "open_joins": self.open_joins,
            "violations": self.violations,
            "persistent_violations": self.persistent_violations,
        }


@dataclass
class AuditReport:
    """The auditor's verdict over one run."""

    samples: List[AuditSample] = field(default_factory=list)
    incidents: List[AuditIncident] = field(default_factory=list)
    theorem3_bound: int = 0
    theorem3_max: int = 0
    theorem4_expected: Optional[float] = None
    theorem5_bound: Optional[float] = None
    measured_mean_join_noti: Optional[float] = None
    final_consistent: Optional[bool] = None
    all_in_system: Optional[bool] = None
    finalized: bool = False

    @property
    def hard_incidents(self) -> List[AuditIncident]:
        """Incidents that fail the audit."""
        return [i for i in self.incidents if i.severity == "hard"]

    @property
    def warnings(self) -> List[AuditIncident]:
        """Soft incidents (reported, not failing)."""
        return [i for i in self.incidents if i.severity == "soft"]

    @property
    def passed(self) -> bool:
        """True when no hard incident was raised."""
        return not self.hard_incidents

    def to_json_dict(self) -> Dict[str, Any]:
        """Deterministic plain-dict form (stable across invocations)."""
        return {
            "passed": self.passed,
            "finalized": self.finalized,
            "gates": {
                "theorem3": {
                    "bound": self.theorem3_bound,
                    "max": self.theorem3_max,
                    "passed": self.theorem3_max <= self.theorem3_bound,
                },
                "theorem45": {
                    "expected": self.theorem4_expected,
                    "upper_bound": self.theorem5_bound,
                    "measured_mean": self.measured_mean_join_noti,
                },
            },
            "final": {
                "consistent": self.final_consistent,
                "all_in_system": self.all_in_system,
            },
            "samples": [s.to_json_dict() for s in self.samples],
            "incidents": [i.to_json_dict() for i in self.incidents],
        }

    def render_text(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"audit              : "
            f"{'PASS' if self.passed else 'FAIL'} "
            f"({len(self.samples)} samples, "
            f"{len(self.hard_incidents)} hard / "
            f"{len(self.warnings)} soft incidents)",
            f"Theorem 3 gate     : max {self.theorem3_max} "
            f"<= {self.theorem3_bound}: "
            f"{self.theorem3_max <= self.theorem3_bound}",
        ]
        if self.measured_mean_join_noti is not None:
            lines.append(
                f"Theorem 4/5 gate   : measured "
                f"{self.measured_mean_join_noti:.3f} "
                f"(E(J) {self.theorem4_expected:.3f}, "
                f"bound {self.theorem5_bound:.3f})"
            )
        if self.final_consistent is not None:
            lines.append(
                f"final check        : consistent "
                f"{self.final_consistent}, all in system "
                f"{self.all_in_system}"
            )
        for incident in self.incidents:
            lines.append(
                f"  [{incident.severity}] {incident.kind} "
                f"@ {incident.time:.1f}: {incident.detail}"
            )
        return "\n".join(lines)


class LiveAuditor:
    """Samples protocol invariants while the simulation runs.

    ``network`` is duck-typed (any object with ``nodes``, ``stats``,
    ``idspace``, ``initial_ids``, ``joiner_ids`` and ``simulator``
    attributes shaped like
    :class:`~repro.protocol.join.JoinProtocolNetwork`); attach with
    :meth:`attach` (or via
    :meth:`~repro.protocol.join.JoinProtocolNetwork.attach_auditor`)
    *before* joins start, run, then call :meth:`finalize`.
    """

    def __init__(self, network: Any, config: Optional[AuditConfig] = None):
        self.network = network
        self.config = (
            config if config is not None else AuditConfig()
        ).validated()
        digits = network.idspace.num_digits
        self.report = AuditReport(theorem3_bound=theorem3_bound(digits))
        self._next_sample = self.config.interval
        # (node, level, digit, kind) -> consecutive samples seen.
        self._violation_streaks: Dict[Tuple[str, int, int, str], int] = {}
        self._flagged_violations: Set[Tuple[str, int, int, str]] = set()
        self._flagged_theorem3: Set[Any] = set()
        self._stalled: Set[Any] = set()
        # node_id -> (status, virtual time the status was entered).
        self._phase_entered: Dict[Any, Tuple[Any, float]] = {}
        # The audited ``{node_id: table}`` map -- S-nodes plus stalled
        # joiners, in ``network.nodes`` order -- carried from sample to
        # sample; None until the first.
        self._audited: Optional[Dict[Any, Any]] = None
        # Every node's status at the last sample, in ``network.nodes``
        # order, and the lengths of ``initial_ids`` and ``joiner_ids``
        # then (every arrival grows one of them).
        self._statuses: List[Any] = []
        self._roster: Tuple[int, int] = (0, 0)
        if self.config.incremental:
            from repro.consistency.incremental import IncrementalChecker

            self._incremental: Optional[IncrementalChecker] = (
                IncrementalChecker()
            )
        else:
            self._incremental = None

    # -- wiring ---------------------------------------------------------

    def attach(self) -> "LiveAuditor":
        """Hook into the network's runtime and phase notifications.

        The hooks hold this auditor weakly and fall silent once it is
        dropped: the auditor holds its network, which owns the hooks,
        so strong hooks would make every audited network a reference
        cycle.
        """
        auditor_ref = weakref.ref(self)

        def on_event(now: float, pending: int) -> None:
            auditor = auditor_ref()
            if auditor is not None and now >= auditor._next_sample:
                auditor.on_event(now, pending)

        def on_phase(node_id: Any, status: Any, time: float) -> None:
            auditor = auditor_ref()
            if auditor is not None:
                auditor.on_phase(node_id, status, time)

        self.network.runtime.add_event_listener(on_event)
        add_listener = getattr(self.network, "add_phase_listener", None)
        if add_listener is not None:
            add_listener(on_phase)
        return self

    def on_phase(self, node_id: Any, status: Any, time: float) -> None:
        """Phase-transition listener: tracks per-joiner progress.  A
        joiner that reaches in_system, or starts leaving (a status
        outside the join lifecycle), is no longer joining."""
        if getattr(status, "is_s_node", False) or not getattr(
            status, "is_join_phase", True
        ):
            self._phase_entered.pop(node_id, None)
            self._stalled.discard(node_id)
        else:
            self._phase_entered[node_id] = (status, time)

    def on_event(self, now: float, pending: int) -> None:
        """Scheduler listener: samples once per ``interval``."""
        if now >= self._next_sample:
            self._next_sample = now + self.config.interval
            self.sample(now)

    # -- incidents ------------------------------------------------------

    def _incident(
        self, kind: str, severity: str, time: float, detail: str
    ) -> None:
        self.report.incidents.append(
            AuditIncident(kind, severity, time, detail)
        )

    # -- sampling -------------------------------------------------------

    def _check_stalls(self, now: float) -> List[Any]:
        """Flag joiners stuck in one phase beyond ``stall_timeout``;
        returns the ones flagged now."""
        promoted: List[Any] = []
        timeout = self.config.stall_timeout
        for node_id, (status, entered) in self._phase_entered.items():
            if node_id in self._stalled or now - entered <= timeout:
                continue
            self._stalled.add(node_id)
            promoted.append(node_id)
            phase = getattr(status, "value", str(status))
            self._incident(
                "stall",
                "hard",
                now,
                f"{node_id} stuck in {phase} since t={entered:g} "
                f"({now - entered:g} > {timeout:g})",
            )
        return promoted

    def _check_theorem3(self, now: float) -> int:
        """Hard per-joiner gate; returns the current maximum count."""
        stats = self.network.stats
        bound = self.report.theorem3_bound
        worst = self.report.theorem3_max
        for joiner in self.network.joiner_ids:
            count = stats.theorem3_count(joiner)
            if count > worst:
                worst = count
            if count > bound and joiner not in self._flagged_theorem3:
                self._flagged_theorem3.add(joiner)
                self._incident(
                    "theorem3",
                    "hard",
                    now,
                    f"{joiner} sent {count} CpRstMsg+JoinWaitMsg "
                    f"(> d+1 = {bound})",
                )
        self.report.theorem3_max = worst
        return worst

    def _check_consistency(
        self, now: float, audited: Dict[Any, Any]
    ) -> Tuple[int, int]:
        """Definition 3.8 over ``audited``: S-nodes plus stalled joiners.

        Returns ``(violations_now, persistent_violations)``.
        """
        nodes = self.network.nodes
        if self._incremental is not None:
            result = self._incremental.check(
                audited,
                occupant_set=nodes.keys(),
                max_violations=self.config.max_violations_per_sample,
            )
        else:
            result = check_consistency(
                audited,
                max_violations=self.config.max_violations_per_sample,
                require_s_states=False,
                occupant_set=nodes.keys(),
            )
        seen = {
            (str(v.node), v.level, v.digit, v.kind)
            for v in result.violations
        }
        streaks = self._violation_streaks
        for key in list(streaks):
            if key not in seen:
                del streaks[key]
        persistent = 0
        for key in seen:
            streak = streaks.get(key, 0) + 1
            streaks[key] = streak
            if streak >= self.config.persist_samples:
                persistent += 1
                if key not in self._flagged_violations:
                    self._flagged_violations.add(key)
                    node, level, digit, kind = key
                    self._incident(
                        "consistency",
                        "hard",
                        now,
                        f"{kind} at ({level},{digit}) of {node} "
                        f"persisted {streak} samples",
                    )
        return len(result.violations), persistent

    def _audited_tables(self, promoted: List[Any]) -> Dict[Any, Any]:
        """The audited map, brought up to date with what moved since
        the last sample: statuses that changed (phase transitions, and
        the ones no transition announces, such as a member that started
        leaving) and the joiners ``promoted`` by a stall.  A node that
        arrived or left since rebuilds the map."""
        net = self.network
        nodes = net.nodes
        statuses = list(map(_STATUS, nodes.values()))
        roster = (len(net.initial_ids), len(net.joiner_ids))
        previous = self._statuses
        self._statuses = statuses
        if (
            self._audited is None
            or roster != self._roster
            or len(statuses) != len(previous)
        ):
            self._roster = roster
            self._audited = {}
            moved: Optional[int] = 0
        else:
            # Same nodes in the same order: a slot of ``statuses`` is a
            # position in ``network.nodes``.
            moved = next(
                compress(count(), map(is_not, statuses, previous)), None
            )
            promoted = [node_id for node_id in promoted if node_id in nodes]
            if promoted:
                first = min(map(list(nodes).index, promoted))
                moved = first if moved is None else min(moved, first)
        if moved is not None:
            self._relay_audited(moved)
        return self._audited

    def _relay_audited(self, start: int) -> None:
        """Re-decide the nodes from position ``start`` of
        ``network.nodes`` on: the audited map keeps that order, so its
        entries from there come off and the audited ones go back on."""
        audited = self._audited
        stalled = self._stalled
        tail = list(islice(self.network.nodes.items(), start, None))
        for node_id, _node in tail:
            audited.pop(node_id, None)
        audited.update(
            (node_id, node.table)
            for node_id, node in tail
            if node.status.is_s_node or node_id in stalled
        )

    def sample(self, now: float) -> AuditSample:
        """Take one audit sample at virtual time ``now``."""
        promoted = self._check_stalls(now)
        self._check_theorem3(now)
        nodes = self.network.nodes
        stalled = self._stalled
        audited = self._audited_tables(promoted)
        # Every S-node is audited, and so is every stalled joiner.
        s_nodes = len(audited) - sum(
            1 for node_id in stalled
            if node_id in audited and not nodes[node_id].status.is_s_node
        )
        violations, persistent = self._check_consistency(now, audited)
        sample = AuditSample(
            time=now,
            s_nodes=s_nodes,
            t_nodes=len(nodes) - s_nodes,
            open_joins=len(self._phase_entered),
            violations=violations,
            persistent_violations=persistent,
        )
        self.report.samples.append(sample)
        return sample

    # -- finalization ---------------------------------------------------

    def finalize(self) -> AuditReport:
        """Quiescence checks plus the Theorem 4/5 soft gate."""
        if self.report.finalized:
            return self.report
        net = self.network
        now = net.runtime.now
        self._check_theorem3(now)
        for node_id, (status, entered) in sorted(
            self._phase_entered.items(), key=lambda kv: str(kv[0])
        ):
            phase = getattr(status, "value", str(status))
            self._incident(
                "quiescent_stall",
                "hard",
                now,
                f"{node_id} still in {phase} (entered t={entered:g}) "
                f"at quiescence",
            )
        # Sampling is over: the map it carried gives way to the full one.
        self._audited = None
        tables = {
            node_id: node.table for node_id, node in net.nodes.items()
        }
        all_s = all(node.status.is_s_node for node in net.nodes.values())
        if self._incremental is not None:
            final = self._incremental.check_final(
                tables, require_s_states=all_s
            )
        else:
            final = check_consistency(tables, require_s_states=all_s)
        self.report.final_consistent = final.consistent
        self.report.all_in_system = all_s
        if not final.consistent:
            by_kind = final.by_kind()
            summary = ", ".join(
                f"{kind}={count}" for kind, count in sorted(by_kind.items())
            )
            self._incident(
                "final_consistency",
                "hard",
                now,
                f"{len(final.violations)} Definition 3.8 violations "
                f"at quiescence ({summary})",
            )
        self._theorem45_gate(now)
        self.report.finalized = True
        return self.report

    def _theorem45_gate(self, now: float) -> None:
        """Soft comparison of measured J against Theorems 4 and 5."""
        net = self.network
        n = len(net.initial_ids)
        m = len(net.joiner_ids)
        if n < 1 or m < 1:
            return
        space = net.idspace
        expected = expected_join_noti(n, space.base, space.num_digits)
        bound = expected_join_noti_upper_bound(
            n, m, space.base, space.num_digits
        )
        counts = net.join_noti_counts()
        measured = sum(counts) / m
        self.report.theorem4_expected = expected
        self.report.theorem5_bound = bound
        self.report.measured_mean_join_noti = measured
        ceiling = bound * (1.0 + self.config.theorem45_tolerance)
        if measured > ceiling:
            self._incident(
                "theorem45",
                "soft",
                now,
                f"measured mean JoinNotiMsg {measured:.3f} exceeds "
                f"Theorem 5 bound {bound:.3f} by more than "
                f"{self.config.theorem45_tolerance:.0%}",
            )

"""The paper's primary contribution, under one roof.

``repro.core`` hosts the *sans-io* protocol layer -- the pieces that
are pure computation over protocol state, independent of any execution
substrate:

* :mod:`repro.core.effects` -- the input/effect vocabulary
  (``MessageReceived``/``TimerFired`` in, ``Send``/``StartTimer``/
  ``CancelTimer``/``StatusChanged`` out).
* :mod:`repro.core.machine` -- :class:`~repro.core.machine.JoinMachine`,
  the join/leave/recovery state machine as a pure effect-emitting
  object, plus a zero-IO effect loop for driving machines in tests
  and proofs.

It also re-exports the join protocol, the consistency notions it
guarantees, the C-set tree machinery behind its proof, and the
communication-cost theorems -- i.e. everything Sections 3-5 of the
paper contribute, as opposed to the substrates (runtimes, topology,
transport, routing tables) they stand on.  The re-exports resolve
lazily (PEP 562) so that importing :mod:`repro.core` -- or one of its
pure submodules -- never drags in an execution substrate as a side
effect; none of them reach :mod:`repro.sim` either way (enforced by
``tests/test_architecture.py``).
"""

from typing import List

# name -> module that defines it; resolved on first attribute access.
_EXPORTS = {
    "expected_join_noti": "repro.analysis.expected_cost",
    "expected_join_noti_upper_bound": "repro.analysis.expected_cost",
    "level_distribution": "repro.analysis.expected_cost",
    "theorem3_bound": "repro.analysis.expected_cost",
    "ConsistencyReport": "repro.consistency.checker",
    "Violation": "repro.consistency.checker",
    "check_consistency": "repro.consistency.checker",
    "verify_reachability": "repro.consistency.verifier",
    "JoiningPeriod": "repro.csettree.classify",
    "joins_are_concurrent": "repro.csettree.classify",
    "joins_are_dependent": "repro.csettree.classify",
    "joins_are_independent": "repro.csettree.classify",
    "joins_are_sequential": "repro.csettree.classify",
    "check_condition1": "repro.csettree.conditions",
    "check_condition2": "repro.csettree.conditions",
    "check_condition3": "repro.csettree.conditions",
    "group_by_notification_suffix": "repro.csettree.notification",
    "notification_set": "repro.csettree.notification",
    "notification_suffix": "repro.csettree.notification",
    "RealizedCSetTree": "repro.csettree.realized",
    "build_realized_tree": "repro.csettree.realized",
    "CSetTreeTemplate": "repro.csettree.template",
    "build_template": "repro.csettree.template",
    "OptimizationReport": "repro.optimize",
    "measure_stretch": "repro.optimize",
    "optimize_tables": "repro.optimize",
    "JoinProtocolNetwork": "repro.protocol.join",
    "leave_sequentially": "repro.protocol.leave",
    "initialize_network": "repro.protocol.network_init",
    "single_node_table": "repro.protocol.network_init",
    "ProtocolNode": "repro.protocol.node",
    "SizingPolicy": "repro.protocol.sizing",
    "NodeStatus": "repro.protocol.status",
    "RecoveryReport": "repro.recovery",
    "fail_nodes": "repro.recovery",
    "recover_from_failures": "repro.recovery",
    # sans-io core
    "CancelTimer": "repro.core.effects",
    "Effect": "repro.core.effects",
    "Input": "repro.core.effects",
    "MessageReceived": "repro.core.effects",
    "Send": "repro.core.effects",
    "SendLossy": "repro.core.effects",
    "StartTimer": "repro.core.effects",
    "StatusChanged": "repro.core.effects",
    "Timer": "repro.core.effects",
    "TimerFired": "repro.core.effects",
    "JoinMachine": "repro.core.machine",
    "run_effect_loop": "repro.core.machine",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Resolve a re-exported name on first use (PEP 562)."""
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))

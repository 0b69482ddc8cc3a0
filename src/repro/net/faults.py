"""Fault injection at the datagram boundary.

The in-memory :class:`~repro.network.transport.Transport` is reliable
by construction; the whole point of the real-wire tier is that UDP is
not.  :class:`FaultInjector` sits between the
:class:`~repro.net.datagram.DatagramTransport` and the socket and
decides, per outbound protocol datagram, whether to deliver it once
(the normal case), drop it, duplicate it, or delay it past its
successors (reordering).  Decisions come from a seeded RNG so a lossy
run is reproducible given its seed.

Targeted drops -- "lose the first JoinNotiMsg" -- are expressed as
``(type_name, count)`` budgets, the wire-level analogue of the
simulator's ``Transport.drop_filter``; the acceptance suite uses them
to prove the retransmission machinery recovers exactly the scenario
Section 5 of the paper worries about.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple


class FaultPlan:
    """Knobs for a lossy channel.

    ``loss``/``duplicate``/``reorder`` are independent probabilities in
    ``[0, 1]`` applied to every outbound protocol datagram (acks
    included -- a lost ack exercises the duplicate-suppression path).
    ``drop_first`` maps message type names to a number of initial
    occurrences to drop deterministically, *before* the probabilistic
    rules apply.  ``reorder_delay`` is the extra protocol-time delay a
    reordered datagram is held for.
    """

    __slots__ = (
        "loss", "duplicate", "reorder", "reorder_delay", "seed",
        "drop_first",
    )

    def __init__(
        self,
        loss: float = 0.0,
        duplicate: float = 0.0,
        reorder: float = 0.0,
        reorder_delay: float = 20.0,
        seed: int = 0,
        drop_first: Optional[Dict[str, int]] = None,
    ):
        for name, rate in (("loss", loss), ("duplicate", duplicate),
                           ("reorder", reorder)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} rate must be in [0, 1]: {rate}")
        self.loss = loss
        self.duplicate = duplicate
        self.reorder = reorder
        self.reorder_delay = reorder_delay
        self.seed = seed
        self.drop_first = dict(drop_first) if drop_first else {}

    @property
    def active(self) -> bool:
        return bool(
            self.loss or self.duplicate or self.reorder or self.drop_first
        )


#: One transmission instruction: (extra delay in protocol units, send?).
Decision = Tuple[float, bool]


class FaultInjector:
    """Applies a :class:`FaultPlan` to outbound datagrams.

    :meth:`transmissions` returns the list of extra-delay values at
    which the datagram should actually be handed to the socket --
    empty means *dropped*, two entries mean *duplicated*, a non-zero
    delay means *held back* (reordered behind later traffic).
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._drop_budget = dict(plan.drop_first)
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0

    def transmissions(self, type_name: Optional[str]) -> List[float]:
        """Delays (protocol units) at which to transmit one datagram
        carrying a message of ``type_name`` (``None`` for acks)."""
        plan = self.plan
        if type_name is not None and self._drop_budget:
            remaining = self._drop_budget.get(type_name, 0)
            if remaining > 0:
                self._drop_budget[type_name] = remaining - 1
                self.dropped += 1
                return []
        rng = self._rng
        if plan.loss and rng.random() < plan.loss:
            self.dropped += 1
            return []
        delay = 0.0
        if plan.reorder and rng.random() < plan.reorder:
            self.reordered += 1
            delay = plan.reorder_delay * (0.5 + rng.random())
        sends = [delay]
        if plan.duplicate and rng.random() < plan.duplicate:
            self.duplicated += 1
            sends.append(delay + plan.reorder_delay * rng.random())
        return sends


__all__ = ["FaultInjector", "FaultPlan"]

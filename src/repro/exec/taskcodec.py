"""Wire codec for sweep tasks and results: the task dialect of the
one value codec.

The :class:`~repro.exec.remote.RemoteBackend` ships task configs to
``repro worker`` daemons and results back over UDP, so every campaign
config/result type must round-trip through JSON.
:class:`repro.runtime.codec.ValueCodec` covers scalars, NodeIds,
enums, tuples and frozensets; this subclass adds lists (``{"$li":
[...]}``), order-preserving dicts (``{"$map": [[k, v], ...]}``),
registered dataclasses (``{"$dc": [name, {field: value, ...}]}`` --
the campaign configs and their result records, rebuilt through
``__init__`` so a decoded config ``==`` the original) and one more
enum (:class:`~repro.protocol.sizing.SizingPolicy`).

The registries are explicit allowlists (name -> defining module),
resolved lazily so importing the engine never drags in the experiment
modules.  Unregistered types raise :class:`TaskCodecError` with the
type name, which is the extension point's error message.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict

from repro.runtime.codec import CodecError, ValueCodec, resolve_type


class TaskCodecError(CodecError):
    """A task or result value the sweep codec cannot (de)serialize."""


#: Dataclasses allowed on the sweep wire: name -> defining module.
TASK_DATACLASSES: Dict[str, str] = {
    "JoinTaskConfig": "repro.experiments.parallel",
    "JoinTaskResult": "repro.experiments.parallel",
    "ChurnConfig": "repro.experiments.churn",
    "ChurnResult": "repro.experiments.churn",
    "PhaseOutcome": "repro.experiments.churn",
    "RecoveryReport": "repro.recovery.driver",
    "TransitStubParams": "repro.topology.transit_stub",
}

#: Enums allowed on the sweep wire beyond the protocol codec's own.
TASK_ENUMS: Dict[str, str] = {"SizingPolicy": "repro.protocol.sizing"}


class _TaskCodec(ValueCodec):
    """The protocol dialect plus lists, dicts and dataclasses."""

    enums = {**ValueCodec.enums, **TASK_ENUMS}
    error = TaskCodecError

    def encode_other(self, value: Any) -> Any:
        """Lists, dicts and allow-listed dataclasses."""
        encode = self.encode
        if isinstance(value, list):
            return {"$li": [encode(v) for v in value]}
        if isinstance(value, dict):
            return {"$map": [[encode(k), encode(v)] for k, v in value.items()]}
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            name = type(value).__name__
            if name not in TASK_DATACLASSES:
                raise TaskCodecError(
                    f"dataclass {name} is not registered in "
                    f"repro.exec.taskcodec.TASK_DATACLASSES"
                )
            return {"$dc": [name, {
                field.name: encode(getattr(value, field.name))
                for field in dataclasses.fields(value)
            }]}
        return super().encode_other(value)

    def _dataclass(self, body: Any) -> Any:
        name, fields = body
        try:
            cls = resolve_type(TASK_DATACLASSES[name], name)
        except (KeyError, AttributeError, ImportError):
            raise TaskCodecError(
                f"unknown dataclass on the sweep wire: {name}"
            ) from None
        return cls(**{key: self.decode(v) for key, v in fields.items()})

    tags = {
        **ValueCodec.tags,
        "$li": lambda self, body: [self.decode(v) for v in body],
        "$map": lambda self, body: {
            self.decode(k): self.decode(v) for k, v in body
        },
        "$dc": _dataclass,
    }


#: One task/result value into its JSON-ready tagged form, and back
#: (the codec is stateless: an instance is just its dialect).
encode_task_value = _TaskCodec().encode
decode_task_value = _TaskCodec().decode


__all__ = [
    "TASK_DATACLASSES",
    "TASK_ENUMS",
    "TaskCodecError",
    "decode_task_value",
    "encode_task_value",
]

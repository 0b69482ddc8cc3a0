"""Task-codec round trips: everything a campaign puts on the wire."""

import dataclasses

import pytest

from repro.exec.taskcodec import (
    TaskCodecError,
    decode_task_value,
    encode_task_value,
)
from repro.experiments.churn import ChurnConfig
from repro.experiments.fig15b import PAPER_CONFIGS
from repro.experiments.parallel import JoinTaskConfig, JoinTaskResult
from repro.ids.idspace import IdSpace
from repro.protocol.sizing import SizingPolicy
from repro.topology.transit_stub import TransitStubParams


def roundtrip(value):
    """Encode then decode; the task codec's defining property is that
    this is the identity (including container types)."""
    return decode_task_value(encode_task_value(value))


class TestScalarsAndContainers:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, -7, 3.25, "text", ""],
    )
    def test_scalars(self, value):
        decoded = roundtrip(value)
        assert decoded == value
        assert type(decoded) is type(value)

    def test_list_stays_a_list(self):
        decoded = roundtrip([1, "two", [3.0, None]])
        assert decoded == [1, "two", [3.0, None]]
        assert isinstance(decoded, list)

    def test_tuple_stays_a_tuple(self):
        decoded = roundtrip((1, (2, 3)))
        assert decoded == (1, (2, 3))
        assert isinstance(decoded, tuple)
        assert isinstance(decoded[1], tuple)

    def test_dict_preserves_insertion_order(self):
        value = {"z": 1, "a": 2, "m": (3,)}
        decoded = roundtrip(value)
        assert decoded == value
        assert list(decoded) == ["z", "a", "m"]

    def test_frozenset(self):
        assert roundtrip(frozenset({1, 5, 9})) == frozenset({1, 5, 9})


class TestProtocolValues:
    def test_node_id_via_protocol_codec(self):
        node_id = IdSpace(16, 8).hash_name("codec-test")
        assert roundtrip(node_id) == node_id

    def test_sizing_policy_enum(self):
        for policy in SizingPolicy:
            decoded = roundtrip(policy)
            assert decoded is policy


class TestDataclasses:
    def test_join_task_config_full(self):
        config = JoinTaskConfig(
            base=4,
            num_digits=4,
            n=25,
            m=5,
            seed=9,
            use_topology=True,
            topology_params=TransitStubParams(),
            sizing=SizingPolicy.FULL,
        )
        decoded = roundtrip(config)
        assert decoded == config
        assert isinstance(decoded, JoinTaskConfig)
        assert isinstance(decoded.topology_params, TransitStubParams)

    def test_join_task_result(self):
        result = JoinTaskResult(
            seed=3,
            consistent=True,
            all_in_system=True,
            members=30,
            join_noti_counts=(0, 3, 7),
            max_theorem3=4,
            theorem3_violations=0,
            total_messages=812,
            total_bytes=40960,
            message_counts=(("CpRstMsg", 5), ("JoinNotiMsg", 12)),
        )
        decoded = roundtrip(result)
        assert decoded == result
        assert decoded.mean_join_noti == 10 / 3
        assert decoded.counts_dict() == {"CpRstMsg": 5, "JoinNotiMsg": 12}

    def test_fig15b_and_churn_configs(self):
        for config in (
            PAPER_CONFIGS[0],
            ChurnConfig(n=40, m=10, leaves=5, failures=3, seed=2),
        ):
            decoded = roundtrip(config)
            assert decoded == config
            assert type(decoded) is type(config)


class TestErrors:
    def test_unregistered_dataclass_rejected(self):
        @dataclasses.dataclass
        class NotOnTheWire:
            x: int = 1

        with pytest.raises(TaskCodecError, match="NotOnTheWire"):
            encode_task_value(NotOnTheWire())

    def test_arbitrary_object_rejected(self):
        with pytest.raises(TaskCodecError):
            encode_task_value(object())

    def test_unknown_dataclass_tag_rejected_on_decode(self):
        with pytest.raises(TaskCodecError, match="Spoofed"):
            decode_task_value({"$dc": ["Spoofed", {"x": 1}]})

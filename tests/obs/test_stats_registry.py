"""MessageStats over the metrics registry: per-type reads through the
registry, drop accounting, and shared-registry visibility."""

from repro.ids.idspace import IdSpace
from repro.network.message import HEADER_BYTES, Message
from repro.network.stats import MessageStats
from repro.obs.metrics import MetricsRegistry

SPACE = IdSpace(4, 4)
A = SPACE.from_string("0000")
B = SPACE.from_string("1111")


class Fake(Message):
    type_name = "Fake"


class Probe(Message):
    type_name = "ProbeMsg"


class TestDropAccounting:
    def test_on_drop_counts_by_type(self):
        stats = MessageStats()
        stats.on_drop(Fake(A))
        stats.on_drop(Fake(B))
        stats.on_drop(Probe(A))
        assert stats.total_dropped == 3
        assert stats.registry.values_by_label("messages_dropped", "type") == {
            "Fake": 2, "ProbeMsg": 1,
        }

    def test_missing_type_reads_zero(self):
        stats = MessageStats()
        assert stats.total_dropped == 0
        assert stats.registry.values_by_label("messages_dropped", "type") == {}

    def test_drops_do_not_count_as_sends(self):
        stats = MessageStats()
        stats.on_drop(Fake(A))
        assert stats.total_messages == 0
        assert stats.count("Fake") == 0
        assert stats.total_bytes == 0

    def test_drops_reach_the_registry(self):
        registry = MetricsRegistry()
        stats = MessageStats(registry=registry)
        stats.on_drop(Fake(A))
        assert registry.value("messages_dropped", type="Fake") == 1
        assert registry.value("messages_dropped_total") == 1


class TestRegistryBacking:
    def test_sends_mirror_into_registry(self):
        registry = MetricsRegistry()
        stats = MessageStats(registry=registry)
        stats.on_send(Fake(A))
        stats.on_send(Fake(A))
        stats.on_send(Fake(B))
        assert registry.value("messages_sent", type="Fake") == 3
        assert registry.value(
            "messages_sent_by", sender=str(A), type="Fake"
        ) == 2
        assert registry.value("messages_total") == 3
        assert registry.value("message_bytes", type="Fake") == 3 * HEADER_BYTES

    def test_registry_snapshot_equals_legacy_snapshot(self):
        registry = MetricsRegistry()
        stats = MessageStats(registry=registry)
        stats.on_send(Fake(A))
        stats.on_send(Probe(B))
        assert registry.values_by_label("messages_sent", "type") == (
            stats.snapshot()
        )

    def test_private_registry_by_default(self):
        a, b = MessageStats(), MessageStats()
        a.on_send(Fake(A))
        assert b.total_messages == 0
        assert a.registry is not b.registry

    def test_legacy_dict_views_are_copies(self):
        """A per-type dict read from the registry is a copy."""
        stats = MessageStats()
        stats.on_send(Fake(A))
        view = stats.registry.values_by_label("messages_sent", "type")
        view["Fake"] = 99
        assert stats.count("Fake") == 1
        assert stats.registry.value("messages_sent", type="Fake") == 1

    def test_count_by_sender_type_nested_view(self):
        """Sender x type counts are ``sent_by`` reads; missing pairs 0."""
        stats = MessageStats()
        stats.on_send(Fake(A))
        stats.on_send(Probe(A))
        assert stats.sent_by(A, "Fake") == 1
        assert stats.sent_by(A, "ProbeMsg") == 1
        assert stats.sent_by(A, "Missing") == 0

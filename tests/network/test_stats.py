"""Unit tests for message statistics."""

from repro.ids.idspace import IdSpace
from repro.network.message import HEADER_BYTES, Message
from repro.network.stats import MessageStats
from repro.obs.metrics import MetricsRegistry

SPACE = IdSpace(4, 4)
A = SPACE.from_string("0000")
B = SPACE.from_string("1111")


class Fake(Message):
    type_name = "Fake"


class CpRstLike(Message):
    type_name = "CpRstMsg"


class JoinWaitLike(Message):
    type_name = "JoinWaitMsg"


class JoinNotiLike(Message):
    type_name = "JoinNotiMsg"


class TestMessageStats:
    def test_counts_by_type_and_sender(self):
        stats = MessageStats()
        stats.on_send(Fake(A))
        stats.on_send(Fake(A))
        stats.on_send(Fake(B))
        assert stats.count("Fake") == 3
        assert stats.sent_by(A, "Fake") == 2
        assert stats.sent_by(B, "Fake") == 1
        assert stats.sent_by(B, "Other") == 0
        assert stats.sent_by(SPACE.from_string("2222"), "Fake") == 0

    def test_bytes_accounting(self):
        stats = MessageStats()
        stats.on_send(Fake(A))
        assert stats.total_bytes == HEADER_BYTES
        by_type = stats.registry.values_by_label("message_bytes", "type")
        assert by_type == {"Fake": HEADER_BYTES}

    def test_theorem3_count(self):
        stats = MessageStats()
        stats.on_send(CpRstLike(A))
        stats.on_send(JoinWaitLike(A))
        stats.on_send(JoinNotiLike(A))
        stats.on_send(Fake(A))
        stats.on_send(CpRstLike(B))
        assert stats.theorem3_count(A) == 2
        assert stats.theorem3_count(B) == 1

    def test_sent_by_each_preserves_order(self):
        stats = MessageStats()
        stats.on_send(Fake(B))
        assert stats.sent_by_each([A, B], "Fake") == [0, 1]

    def test_snapshot_is_plain_dict(self):
        stats = MessageStats()
        stats.on_send(Fake(A))
        snap = stats.snapshot()
        assert snap == {"Fake": 1}
        snap["Fake"] = 99
        assert stats.count("Fake") == 1


def _per_sender_instruments(registry):
    """``messages_sent_by`` counters that exist, read without collecting."""
    return [key for key in registry._instruments if key[0] == "messages_sent_by"]


class TestPerSenderReads:
    """Per-sender reads add pending to flushed counts; only the
    registry's collector turns them into labelled counters."""

    def _sends(self, stats):
        for message in (CpRstLike(A), CpRstLike(A), JoinWaitLike(A),
                        JoinNotiLike(B), Fake(B)):
            stats.on_send(message)

    def test_reads_materialize_no_counter(self):
        registry = MetricsRegistry()
        stats = MessageStats(registry)
        self._sends(stats)
        assert stats.sent_by(A, "CpRstMsg") == 2
        assert stats.sent_by_each([A, B], "JoinNotiMsg") == [0, 1]
        assert stats.theorem3_count(A) == 3
        assert stats.sent_by(B, "Fake") == 1
        assert _per_sender_instruments(registry) == []

    def test_reads_span_flushed_and_pending_counts(self):
        registry = MetricsRegistry()
        stats = MessageStats(registry)
        self._sends(stats)
        registry.snapshot()
        self._sends(stats)
        assert stats.sent_by(A, "CpRstMsg") == 4
        assert stats.theorem3_count(A) == 6
        assert stats.sent_by(B, "JoinNotiMsg") == 2
        assert stats.sent_by(A, "JoinWaitMsg") == 2

    def test_export_after_reads_equals_unread_export(self):
        def export(read: bool):
            registry = MetricsRegistry()
            stats = MessageStats(registry)
            self._sends(stats)
            if read:
                stats.sent_by(A, "CpRstMsg")
                stats.theorem3_count(B)
            return registry.snapshot()

        exported = export(read=True)
        assert exported == export(read=False)
        assert exported["messages_sent_by{sender=0000,type=CpRstMsg}"] == 2
        assert exported["messages_sent_by{sender=1111,type=Fake}"] == 1

    def test_registry_outliving_stats_still_exports(self):
        registry = MetricsRegistry()
        stats = MessageStats(registry)
        self._sends(stats)
        del stats
        assert registry.value(
            "messages_sent_by", sender="0000", type="JoinWaitMsg"
        ) == 1

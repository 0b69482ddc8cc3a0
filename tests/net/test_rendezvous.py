"""Rendezvous directory tests: handler logic and live-socket service."""

import threading

import pytest

from repro.ids.idspace import IdSpace
from repro.net.control import ControlClient, ControlError
from repro.net.rendezvous import RendezvousServer
from repro.net.wire import node_id_from_wire, node_id_to_wire

SPACE = IdSpace(4, 4)


def wire_id(text):
    return node_id_to_wire(SPACE.from_string(text))


class TestHandlerLogic:
    """Direct ``handle()`` tests -- no sockets."""

    def setup_method(self):
        self.server = RendezvousServer(("127.0.0.1", 0), ttl=60.0)

    def teardown_method(self):
        self.server.close()

    def test_announce_returns_other_s_nodes_only(self):
        handle = self.server.handle
        handle("announce", {"id": wire_id("0000"), "s": True},
               ("127.0.0.1", 10))
        handle("announce", {"id": wire_id("1111"), "s": False},
               ("127.0.0.1", 11))
        response = handle(
            "announce", {"id": wire_id("2222"), "s": True},
            ("127.0.0.1", 12),
        )
        peers = response["peers"]
        # Only the S-node, and never the announcer itself.
        assert [node_id_from_wire(row[0]) for row in peers] == [
            SPACE.from_string("0000")
        ]
        assert peers[0][1] == ["127.0.0.1", 10]

    def test_resolve_any_announced_node(self):
        handle = self.server.handle
        handle("announce", {"id": wire_id("1111"), "s": False},
               ("127.0.0.1", 11))
        assert handle("resolve", {"id": wire_id("1111")}, ("c", 1)) == {
            "addr": ["127.0.0.1", 11]
        }
        assert handle("resolve", {"id": wire_id("3333")}, ("c", 1)) == {
            "addr": None
        }

    def test_remove_forgets_a_node(self):
        handle = self.server.handle
        handle("announce", {"id": wire_id("1111"), "s": True},
               ("127.0.0.1", 11))
        handle("remove", {"id": wire_id("1111")}, ("c", 1))
        assert handle("resolve", {"id": wire_id("1111")}, ("c", 1)) == {
            "addr": None
        }

    def test_ttl_expires_stale_registrations(self):
        handle = self.server.handle
        handle("announce", {"id": wire_id("1111"), "s": True},
               ("127.0.0.1", 11))
        registration = self.server.registrations[SPACE.from_string("1111")]
        registration.refreshed_at -= 120.0  # age it past the TTL
        assert handle("ping", None or {}, ("c", 1))["nodes"] == 0
        assert handle("peers", {}, ("c", 1))["peers"] == []

    def test_directory_lists_every_live_node_with_s_bits(self):
        handle = self.server.handle
        handle("announce", {"id": wire_id("2222"), "s": True},
               ("127.0.0.1", 12))
        handle("announce", {"id": wire_id("0000"), "s": False},
               ("127.0.0.1", 10))
        nodes = handle("directory", {}, ("c", 1))["nodes"]
        # Full roster -- S and non-S alike -- sorted by id.
        assert [
            (str(node_id_from_wire(row[0])), row[1], row[2])
            for row in nodes
        ] == [
            ("0000", ["127.0.0.1", 10], False),
            ("2222", ["127.0.0.1", 12], True),
        ]

    def test_directory_respects_ttl(self):
        handle = self.server.handle
        handle("announce", {"id": wire_id("1111"), "s": False},
               ("127.0.0.1", 11))
        registration = self.server.registrations[SPACE.from_string("1111")]
        registration.refreshed_at -= 120.0
        assert handle("directory", {}, ("c", 1))["nodes"] == []

    def test_an_id_live_at_another_address_is_refused(self):
        handle = self.server.handle
        first = ("127.0.0.1", 10)
        assert handle("announce", {"id": wire_id("0123"), "s": True},
                      first)["ok"]
        reply = handle("announce", {"id": wire_id("0123"), "s": False},
                       ("127.0.0.1", 11))
        assert reply == {"error": "id in use"}
        # The first row stands, and its owner may keep re-announcing.
        assert handle("resolve", {"id": wire_id("0123")}, first) == {
            "addr": list(first)
        }
        assert handle("announce", {"id": wire_id("0123"), "s": True},
                      first)["ok"]

    def test_an_expired_id_may_be_taken_by_another_address(self):
        server = RendezvousServer(("127.0.0.1", 0), ttl=0.0)
        try:
            server.handle("announce", {"id": wire_id("0123")},
                          ("127.0.0.1", 10))
            assert server.handle("announce", {"id": wire_id("0123")},
                                 ("127.0.0.1", 11))["ok"]
        finally:
            server.close()

    def test_unknown_op(self):
        assert "error" in self.server.handle("wat", {}, ("c", 1))

    def test_directory_rows_carry_kind_defaulting_to_node(self):
        handle = self.server.handle
        handle("announce", {"id": wire_id("0000"), "s": True},
               ("127.0.0.1", 10))  # no kind: a protocol node
        handle(
            "announce",
            {"id": wire_id("1111"), "s": False, "kind": "worker"},
            ("127.0.0.1", 11),
        )
        nodes = handle("directory", {}, ("c", 1))["nodes"]
        assert [(str(node_id_from_wire(r[0])), r[3]) for r in nodes] == [
            ("0000", "node"),
            ("1111", "worker"),
        ]

    def test_workers_never_appear_in_peer_lists(self):
        handle = self.server.handle
        handle("announce", {"id": wire_id("0000"), "s": True},
               ("127.0.0.1", 10))
        # Even a (misconfigured) worker announcing s=True is not a
        # bootstrap contact.
        handle(
            "announce",
            {"id": wire_id("1111"), "s": True, "kind": "worker"},
            ("127.0.0.1", 11),
        )
        peers = handle("peers", {}, ("c", 1))["peers"]
        assert [node_id_from_wire(row[0]) for row in peers] == [
            SPACE.from_string("0000")
        ]


class TestLiveService:
    """End-to-end over a real socket, driven by the blocking client."""

    def test_announce_resolve_stop_over_udp(self):
        server = RendezvousServer(("127.0.0.1", 0), ttl=60.0)
        addr = server.open()
        thread = threading.Thread(target=server.serve, daemon=True)
        thread.start()
        try:
            with ControlClient(timeout=1.0, retries=3) as client:
                pong = client.request(addr, "ping")
                assert pong["ok"] and pong["nodes"] == 0
                client.request(
                    addr, "announce", {"id": wire_id("0123"), "s": True}
                )
                resolved = client.request(
                    addr, "resolve", {"id": wire_id("0123")}
                )
                assert resolved["addr"] is not None
                assert client.request(addr, "stop")["ok"]
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        finally:
            server.stop()
            thread.join(timeout=5.0)
            server.close()

    def test_client_times_out_against_dead_address(self):
        with ControlClient(timeout=0.05, retries=1) as client:
            # A bound-then-closed socket: nothing listens there.
            import socket as socket_module

            probe = socket_module.socket(
                socket_module.AF_INET, socket_module.SOCK_DGRAM
            )
            probe.bind(("127.0.0.1", 0))
            dead = probe.getsockname()
            probe.close()
            with pytest.raises(ControlError):
                client.request((dead[0], dead[1]), "ping")
            assert client.try_request((dead[0], dead[1]), "ping") is None

"""FaureServer: the line protocol end-to-end, shedding, failure modes."""

from __future__ import annotations

import json
import threading
import time

from repro.serve.server import FaureServer
from repro.serve.state import ServeState


def test_update_query_health_over_the_wire(server_factory):
    server, client = server_factory()
    before = client.health()
    # seed R: p1 A->B, B->C, A->C and the conditional p2 A->E
    assert before["ok"] and before["relations"]["R"] == 4

    landed = client.update("F", ["p1", "C", "D"], txid="t1")
    assert landed["ok"] and landed["seq"] == 1

    replayed = client.update("F", ["p1", "C", "D"], txid="t1")
    assert replayed["duplicate"] and replayed["seq"] == 1

    answer = client.query("R", limit=2)
    assert answer["ok"] and answer["truncated"] and len(answer["rows"]) == 2
    assert answer["epoch"] == landed["epoch"]

    after = client.health()
    assert after["wal_entries"] == 1
    assert after["counters"]["updates_duplicate"] == 1
    assert after["server"]["requests"] == 5
    assert after["queue_limit"] == 64


def test_malformed_lines_answered_not_fatal(server_factory):
    server, client = server_factory()
    for bad, fragment in [
        ({"op": "nonsense"}, "unknown op"),
        ({"op": "query"}, "relation"),
        ({"op": "query", "relation": "R", "limit": -1}, "limit"),
        ({"op": "query", "relation": "Missing"}, "Missing"),
        ({"op": "query", "relation": "R", "where": "f == 1"}, "not a c-variable"),
        (
            {"op": "update", "relation": "F", "values": ["p1", "C", "D"],
             "condition": "n1 == 1"},
            "not a c-variable",
        ),
        ({"op": "update", "relation": "F", "values": ["((bad"]}, "bad value"),
        ({"op": "update", "relation": "R", "values": ["x", "y", "z"]}, "derived"),
    ]:
        response = client.request(bad)
        assert response["ok"] is False
        assert fragment in response["error"]
        assert response["errno"] == 2
    # raw non-JSON bytes on the same connection
    client._sock.sendall(b"this is not json\n")
    response = json.loads(client._file.readline())
    assert response["code"] == "MALFORMED"
    # two protocol-layer rejects: the unknown op and the non-JSON line
    assert server.counters["protocol_errors"] == 2
    # the daemon is still healthy and still ingests
    assert client.update("F", ["p1", "C", "D"])["ok"]
    assert server.state.counters["updates_applied"] == 1
    assert server.state.wal.last_seq == 1  # no rejected update was logged


def test_overload_sheds_with_retry_after(server_factory, tmp_path, monkeypatch):
    sentinel = tmp_path / "hang.sentinel"
    monkeypatch.setenv("FAURE_CHAOS", f"serve-hang-apply:2.0:{sentinel}")
    server, client = server_factory(queue_limit=1, shed_retry_after=0.25)

    responses = {}

    def push(name, values):
        responses[name] = server.dispatch(
            json.dumps(
                {"op": "update", "relation": "F", "values": values}
            ).encode()
        )[0]

    # u1 is picked up by the ingest thread and hangs in the chaos hook;
    # u2 parks in the (size-1) queue; u3 must be shed synchronously.
    t1 = threading.Thread(target=push, args=("u1", ["p1", "C", "D"]))
    t1.start()
    deadline = time.monotonic() + 10
    while not sentinel.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert sentinel.exists(), "chaos hang never fired"
    t2 = threading.Thread(target=push, args=("u2", ["p1", "D", "E"]))
    t2.start()
    while server._queue.qsize() < 1 and time.monotonic() < deadline:
        time.sleep(0.01)

    push("u3", ["p1", "E", "G"])
    shed = responses["u3"]
    assert shed["ok"] is False and shed["code"] == "OVERLOADED"
    assert shed["errno"] == 6 and shed["retry_after"] == 0.25
    assert shed["status"] == "OVERLOADED"
    assert server.counters["shed"] == 1

    # while the ingest is saturated, reads still answer from the snapshot
    assert client.query("R")["total"] == 4
    assert client.health()["ok"]

    t1.join(timeout=30)
    t2.join(timeout=30)
    assert responses["u1"]["ok"] and responses["u2"]["ok"]
    assert server.state.wal.last_seq == 2  # the shed update never landed


def test_shutdown_refuses_new_updates_but_drains_queued(server_factory):
    server, client = server_factory()
    client.update("F", ["p1", "C", "D"])
    goodbye = client.shutdown()
    assert goodbye == {"ok": True, "shutdown": True}
    refused = server._update({"relation": "F", "values": ["p1", "D", "E"]})
    assert refused["code"] == "OVERLOADED" and "shutting down" in refused["error"]


def test_infrastructure_failure_exits_with_code_6(make_state, monkeypatch):
    state = make_state()
    server = FaureServer(state, queue_limit=4)
    outcome = {}

    def run():
        outcome["exit"] = server.serve_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()

    def broken_submit(entry):
        raise OSError("disk gone")

    monkeypatch.setattr(state, "submit", broken_submit)
    response = server._update({"relation": "F", "values": ["p1", "C", "D"]})
    assert response["code"] == "INTERNAL"
    assert "disk gone" in response["error"]
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert outcome["exit"] == 6
    assert isinstance(server.fatal, OSError)


def test_graceful_stop_exits_zero(make_state):
    state = make_state()
    server = FaureServer(state)
    outcome = {}

    def run():
        outcome["exit"] = server.serve_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    server.stop()
    thread.join(timeout=30)
    assert outcome["exit"] == 0


def test_shutdown_ack_is_written_before_serve_forever_returns(make_state, monkeypatch):
    """The process may exit once serve_forever returns: the ack goes first."""
    from repro.serve import server as server_module
    from repro.serve.client import ServeClient

    state = make_state()
    server = FaureServer(state)
    order = []
    encode = server_module.encode

    def slow_encode(obj):
        if obj.get("shutdown"):
            time.sleep(0.3)  # the handler thread is still writing the ack
            order.append("ack")
        return encode(obj)

    monkeypatch.setattr(server_module, "encode", slow_encode)

    def run():
        server.serve_forever()
        order.append("returned")

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    host, port = server.address
    with ServeClient(host, port, timeout=30.0) as client:
        assert client.shutdown() == {"ok": True, "shutdown": True}
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert order == ["ack", "returned"]

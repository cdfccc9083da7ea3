"""HTTP/1.1 keep-alive on the serving endpoint and the router's pool.

Three properties of the one stdlib HTTP layer that the router's public
port and every fleet worker share:

* **Framing.** A reply sent before the request body was read closes the
  connection, so the unread body is never parsed as the next request on
  the stream; every reply is the documented JSON, never the stdlib's HTML
  400 page.
* **Reuse.** A keep-alive client, and the router's pool towards one
  replica, send request after request over a single TCP connection.
* **No Nagle stall.** Replies go out as two writes (headers, body); the
  handler socket has ``TCP_NODELAY``, so a keep-alive round trip does not
  wait ~40 ms for the client's delayed ACK.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import time
from typing import Optional

import numpy as np
import pytest

from repro.serve import Router, RouterConfig, Server, start_http_server
from repro.serve.http import MAX_BODY_BYTES


@pytest.fixture()
def endpoint(artifact_dir):
    server = Server()
    server.load("default", artifact_dir)
    httpd, _ = start_http_server(server, port=0)
    yield httpd.server_address[1]
    httpd.shutdown()
    httpd.server_close()
    server.close()


@pytest.fixture()
def connects(monkeypatch):
    """Counts every TCP connection ``http.client`` opens."""
    opened = []
    connect = http.client.HTTPConnection.connect

    def counting(self):
        opened.append((self.host, self.port))
        return connect(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting)
    return opened


class RawConnection:
    """One TCP stream to the endpoint, written and parsed by hand."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.reader = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def post(self, path: str, body: bytes,
             length: Optional[str] = None, extra: bytes = b"") -> None:
        length = str(len(body)) if length is None else length
        self.send(f"POST {path} HTTP/1.1\r\nHost: test\r\n"
                  f"Content-Type: application/json\r\n"
                  f"Content-Length: {length}\r\n\r\n".encode() + body + extra)

    def response(self):
        """The next (status, headers, JSON payload) on the stream."""
        status_line = self.reader.readline()
        assert status_line, "connection closed before a response"
        version, status, _ = status_line.decode("latin-1").split(" ", 2)
        assert version == "HTTP/1.1"
        headers = http.client.parse_headers(self.reader)
        # Every reply is the documented JSON, never the stdlib HTML page.
        assert headers["Content-Type"] == "application/json"
        body = self.reader.read(int(headers["Content-Length"]))
        return int(status), headers, json.loads(body)

    def rest(self) -> bytes:
        """Everything the server sends until it closes the connection."""
        try:
            return self.reader.read()
        except ConnectionResetError:
            return b""

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def predict_body(rows: np.ndarray) -> bytes:
    return json.dumps({"inputs": rows.tolist()}).encode()


class TestEarlyReplyFraming:
    @pytest.mark.parametrize("path,body,length,status,fragment", [
        ("/nope", b'{"inputs": [[1.0]]}', None, 404, "unknown path"),
        ("/admin/load", b'{"name": "m", "path": "/x"}', None, 404,
         "admin endpoints are not enabled"),
        ("/predict", b'{"inputs": [[1.0]]}', "twelve", 400,
         "invalid Content-Length"),
        ("/predict", b"", None, 400, "request body required"),
    ], ids=["unknown-path", "admin-disabled", "bad-content-length",
            "empty-body"])
    def test_early_reply_closes_the_connection(self, endpoint, path, body,
                                               length, status, fragment):
        raw = RawConnection(endpoint)
        try:
            raw.post(path, body, length=length)
            got, headers, payload = raw.response()
            assert got == status
            assert fragment in payload["error"]
            assert headers["Connection"] == "close"
            # The unread body is never parsed as a request: nothing else
            # comes back before the server closes the stream.
            assert raw.rest() == b""
        finally:
            raw.close()

    def test_oversize_body_does_not_leak_a_pipelined_request(self, endpoint):
        raw = RawConnection(endpoint)
        try:
            raw.post("/predict", b"", length=str(MAX_BODY_BYTES + 1),
                     extra=b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            status, headers, payload = raw.response()
            assert status == 413
            assert "exceeds" in payload["error"]
            assert headers["Connection"] == "close"
            assert raw.rest() == b""
        finally:
            raw.close()

    def test_reply_after_the_body_keeps_the_stream_usable(self, endpoint,
                                                          servable,
                                                          features):
        raw = RawConnection(endpoint)
        try:
            for bad in (b"{not json", b"[1, 2]", b'{"inputs": "x"}'):
                raw.post("/predict", bad)
                status, headers, _ = raw.response()
                assert status == 400
                assert headers["Connection"] is None
                raw.post("/predict", predict_body(features[:2]))
                status, _, payload = raw.response()
                assert status == 200
                assert payload["predictions"] == servable.predict(
                    features[:2]).tolist()
        finally:
            raw.close()


class TestConnectionReuse:
    def test_keepalive_client_uses_one_connection(self, endpoint, connects,
                                                  servable, features):
        connection = http.client.HTTPConnection("127.0.0.1", endpoint,
                                                timeout=10)
        round_trips = []
        try:
            for index in range(50):
                row = features[index % len(features)][None, :]
                started = time.perf_counter()
                connection.request("POST", "/predict", body=predict_body(row),
                                   headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                payload = json.loads(response.read())
                round_trips.append(time.perf_counter() - started)
                assert response.status == 200
                assert payload["predictions"] == servable.predict(row).tolist()
        finally:
            connection.close()
        assert len(connects) == 1
        # A Nagle/delayed-ACK stall costs >= 40 ms per request; the healthy
        # keep-alive path is a millisecond or two.
        assert statistics.median(round_trips) < 0.020, round_trips

    def test_router_pool_reuses_one_connection(self, endpoint, connects,
                                               servable, features):
        router = Router(RouterConfig())
        router.add_replica("a", "127.0.0.1", endpoint, models=["default"])
        try:
            for index in range(20):
                row = features[index % len(features)]
                assert router.predict(row)["predictions"] == \
                    servable.predict(row[None, :]).tolist()
        finally:
            router.close()
        assert connects == [("127.0.0.1", endpoint)]

"""Open-loop HTTP load generator over a few pipelined keep-alive connections.

Requests are sent when they are due, whatever is still outstanding: each
connection pipelines, and responses are matched to requests in order.  A
request's latency runs from its due time to its full response, so a stall
also charges the requests queued behind it.  The generator records its own
lateness (send time minus due time) and the number of requests in flight.
Graph updates are sent at most one at a time: an update that falls due
while the previous one is in flight waits for it.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field


@dataclass
class Call:
    """One request and what became of it (times relative to phase start)."""

    kind: str            # "predict" or "update"
    due: float
    path: str
    body: bytes
    meta: dict = field(default_factory=dict)
    sent: float | None = None
    done: float | None = None
    status: int = 0
    response: bytes = b""

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def ok(self) -> bool:
        return self.status == 200


def request_bytes(path: str, body: bytes) -> bytes:
    return (f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("ascii") + body


class _Connection:
    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = bytearray()
        self.outstanding: deque[Call] = deque()

    def close(self) -> None:
        self.sock.close()

    def parse(self, now: float) -> list[Call]:
        """Complete every full response sitting in the buffer."""
        finished = []
        while self.outstanding:
            head_end = self.buffer.find(b"\r\n\r\n")
            if head_end < 0:
                break
            head = bytes(self.buffer[:head_end]).decode("latin-1").split("\r\n")
            length = 0
            for line in head[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            end = head_end + 4 + length
            if len(self.buffer) < end:
                break
            call = self.outstanding.popleft()
            call.status = int(head[0].split()[1])
            call.response = bytes(self.buffer[head_end + 4:end])
            call.done = now
            del self.buffer[:end]
            finished.append(call)
        return finished


@dataclass
class PhaseResult:
    calls: list[Call]
    duration: float
    lateness: list[float]         # seconds, one per sent call
    inflight: list[tuple]         # (time, requests in flight) at each send

    def by_kind(self, kind: str) -> list[Call]:
        return [call for call in self.calls if call.kind == kind]


def run_phase(address, predicts: list[Call], updates: list[Call],
              duration: float, *, connections: int = 2,
              drain_timeout: float = 15.0) -> PhaseResult:
    """Send ``predicts`` (sorted by due time) and ``updates`` open-loop and
    wait for every answer; calls still unanswered after ``duration +
    drain_timeout`` keep status 0 (failed)."""
    conns = [_Connection(address) for _ in range(connections)]
    selector = selectors.DefaultSelector()
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    lateness, inflight = [], []
    next_predict = next_update = 0
    update_in_flight = None
    outstanding = 0
    origin = time.perf_counter() + 0.01

    def send(call: Call, now: float) -> None:
        nonlocal outstanding
        conn = min(conns, key=lambda c: len(c.outstanding))
        conn.sock.sendall(request_bytes(call.path, call.body))
        call.sent = now
        conn.outstanding.append(call)
        outstanding += 1
        lateness.append(now - call.due)
        inflight.append((now, outstanding))

    try:
        while True:
            now = time.perf_counter() - origin
            while next_predict < len(predicts) and predicts[next_predict].due <= now:
                send(predicts[next_predict], now)
                next_predict += 1
            if (next_update < len(updates) and updates[next_update].due <= now
                    and (update_in_flight is None
                         or update_in_flight.done is not None)):
                update_in_flight = updates[next_update]
                send(update_in_flight, now)
                next_update += 1
            if (next_predict == len(predicts) and next_update == len(updates)
                    and outstanding == 0):
                break
            if now > duration + drain_timeout:
                break
            upcoming = [predicts[next_predict].due] \
                if next_predict < len(predicts) else []
            if next_update < len(updates) and (update_in_flight is None
                                               or update_in_flight.done is not None):
                upcoming.append(updates[next_update].due)
            timeout = min([0.05] + [max(0.0, due - now) for due in upcoming])
            for key, _events in selector.select(timeout):
                conn = key.data
                chunk = conn.sock.recv(1 << 20)
                now = time.perf_counter() - origin
                if chunk:
                    conn.buffer += chunk
                    outstanding -= len(conn.parse(now))
                    continue
                # The server hung up: whatever it still owed has failed
                # (status 0); carry on over a fresh connection.
                for call in conn.outstanding:
                    call.done = now
                outstanding -= len(conn.outstanding)
                selector.unregister(conn.sock)
                conn.close()
                conns[conns.index(conn)] = fresh = _Connection(address)
                selector.register(fresh.sock, selectors.EVENT_READ, fresh)
    finally:
        selector.close()
        for conn in conns:
            conn.close()
    return PhaseResult(calls=sorted(predicts + updates, key=lambda c: c.due),
                       duration=duration, lateness=lateness, inflight=inflight)

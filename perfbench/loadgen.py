"""Single-process open-loop HTTP client over keep-alive connections.

Requests are sent on a fixed schedule whatever the server's pace: each
of at most ``nproc`` threads owns one persistent HTTP/1.1 connection
and takes the earliest request not yet sent, waits for its due time,
sends it and reads the reply.  When every connection is busy a due
request waits, so latency is timed from the due time — a stall is
charged to every request it delays — and the send delay is reported as
generator lag.
"""

from __future__ import annotations

import http.client
import json
import threading
from dataclasses import dataclass
from time import perf_counter, sleep
from urllib.parse import urlencode


@dataclass
class Outcome:
    query: str
    request_id: str
    due: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lag(self) -> float:
        return self.sent - self.due


class OpenLoopClient:
    """Keep-alive connections to one server, shared by a schedule."""

    def __init__(self, host: str, port: int, connections: int, k: int,
                 timeout: float = 30.0):
        self.host = host
        self.port = port
        self.connections = connections
        self.k = k
        self.timeout = timeout

    def run(self, schedule, on_response=None) -> list[Outcome]:
        """Send ``schedule`` — (offset seconds, query, request id) in
        offset order — and return one outcome per entry, in order.

        ``on_response(outcome)`` runs on the sending thread right after
        the reply is read (the traced run records its spans there).
        A transport error yields status 0.
        """
        outcomes: list[Outcome | None] = [None] * len(schedule)
        cursor = iter(range(len(schedule)))
        lock = threading.Lock()
        start = perf_counter() + 0.05

        def worker():
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            try:
                while True:
                    with lock:
                        index = next(cursor, None)
                    if index is None:
                        return
                    offset, query, rid = schedule[index]
                    due = start + offset
                    delay = due - perf_counter()
                    if delay > 0:
                        sleep(delay)
                    outcome = self._send(conn, query, rid, due)
                    if outcome.status == 0:
                        conn.close()
                    outcomes[index] = outcome
                    if on_response is not None:
                        on_response(outcome)
            finally:
                conn.close()

        threads = [
            threading.Thread(target=worker, name=f"loadgen-{i}")
            for i in range(self.connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return outcomes  # type: ignore[return-value]

    def _send(self, conn, query, rid, due) -> Outcome:
        path = "/suggest?" + urlencode({"q": query, "k": self.k})
        sent = perf_counter()
        try:
            conn.request("GET", path, headers={"X-Request-Id": rid})
            response = conn.getresponse()
            body = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            body, status = b"", 0
        return Outcome(query, rid, due, sent, perf_counter(), status, body)

    def get_json(self, path: str) -> dict:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

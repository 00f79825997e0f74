"""A deterministic scripted client for the scheduler daemon.

:class:`ScriptedClient` is a plain blocking-socket NDJSON client — the
integration harness the kill/resume tests and the CI ``server-smoke``
job drive the daemon with.  It is deliberately synchronous (it lives
*outside* the daemon's async path, so SRV801 does not apply): a script
is a list of request dicts executed strictly in order, and the
transcript — every response and every pushed event, in arrival order —
is the deterministic artifact the tests diff.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, List, Optional, Sequence

from repro.server.protocol import encode_line

__all__ = ["ScriptedClient", "run_script"]


class ScriptedClient:
    """One blocking NDJSON connection with push-event accounting."""

    def __init__(
        self, host: str, port: int, timeout_s: float = 30.0
    ) -> None:
        self.sock = socket.create_connection((host, port), timeout_s)
        self.reader = self.sock.makefile("rb")
        #: Push events that arrived while waiting for responses.
        self.events: List[Dict[str, Any]] = []

    def __enter__(self) -> "ScriptedClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        try:
            self.reader.close()
        finally:
            self.sock.close()

    def send(self, request: Dict[str, Any]) -> None:
        self.sock.sendall(encode_line(request))

    def read_line(self) -> Optional[Dict[str, Any]]:
        """Next line from the server (response or event); None = EOF."""
        raw = self.reader.readline()
        if not raw:
            return None
        return json.loads(raw.decode("utf-8"))

    def request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request and return its response.

        Push events that arrive first are collected into
        :attr:`events` — the protocol guarantees the response for tick
        N follows N's events, so ordering is never ambiguous.
        """
        self.send(request)
        while True:
            line = self.read_line()
            if line is None:
                raise ConnectionError(
                    "server closed the connection mid-request"
                )
            if "event" in line:
                self.events.append(line)
                continue
            return line


def run_script(
    commands: Sequence[Dict[str, Any]],
    host: str,
    port: int,
    timeout_s: float = 30.0,
) -> Dict[str, Any]:
    """Execute ``commands`` in order; returns the full transcript.

    The transcript — ``{"responses": [...], "events": [...]}`` — is
    canonical-JSON-stable, so two identical runs (or one run and its
    kill/resume twin) compare byte-for-byte once dumped.
    """
    with ScriptedClient(host, port, timeout_s) as client:
        responses = [client.request(dict(cmd)) for cmd in commands]
        return {"responses": responses, "events": list(client.events)}

"""A minimal HTTP/1.1 layer over asyncio streams.

Just enough protocol for the evaluation server's JSON API -- request
line + headers + ``Content-Length`` bodies in, status + headers + body
out, keep-alive by default on HTTP/1.1 (HTTP/1.0 only on request) --
written against ``asyncio`` streams so the whole server stays on the
standard library.  Anything malformed raises :class:`BadRequest` (the
connection answers 400 and closes), and so does any body framing the
server cannot follow exactly: ``Transfer-Encoding``, or ``Content-Length``
headers that disagree, would leave the rest of the stream unparseable.
Bodies above the server's budget raise :class:`PayloadTooLarge` (413).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

#: Bound on the request line + headers block, independent of the body cap.
MAX_HEADER_BYTES = 16384

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


class BadRequest(Exception):
    """The bytes on the wire are not a parseable HTTP/1.x request."""


class PayloadTooLarge(Exception):
    """The declared request body exceeds the server's budget."""


@dataclass
class Request:
    """One parsed request."""

    method: str
    path: str
    version: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 keeps the connection unless told to close; HTTP/1.0
        closes it unless asked to keep it."""
        tokens = {token.strip() for token in
                  self.headers.get("connection", "").lower().split(",")}
        if self.version == "HTTP/1.0":
            return "keep-alive" in tokens
        return "close" not in tokens


async def read_request(reader: asyncio.StreamReader,
                       max_body: int) -> Request | None:
    """Parse one request off ``reader``; ``None`` on a clean EOF.

    A peer that closes between requests yields ``None`` (normal
    keep-alive teardown); one that closes mid-request raises the usual
    ``asyncio.IncompleteReadError``, which the connection handler
    accounts as a disconnect.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise
    except asyncio.LimitOverrunError:
        raise BadRequest("header block exceeds the line limit") from None
    if len(head) > MAX_HEADER_BYTES:
        raise BadRequest("header block too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise BadRequest(f"malformed request line: {lines[0]!r}")
    method, path, version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise BadRequest(f"malformed header line: {line!r}")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise BadRequest("conflicting Content-Length headers")
        headers[name] = value
    if "transfer-encoding" in headers:
        raise BadRequest("Transfer-Encoding is not supported; "
                         "frame the body with Content-Length")
    length_text = headers.get("content-length", "0")
    try:
        # digits only: int() alone also takes a sign, blanks and "_"
        if not (length_text.isascii() and length_text.isdigit()):
            raise ValueError(length_text)
        length = int(length_text)
    except ValueError:
        raise BadRequest(
            f"malformed Content-Length: {length_text!r}") from None
    if length > max_body:
        raise PayloadTooLarge(
            f"request body of {length} bytes exceeds the "
            f"{max_body}-byte budget (REPRO_SERVER_MAX_BODY)")
    body = await reader.readexactly(length) if length else b""
    return Request(method=method, path=path, version=version,
                   headers=headers, body=body)


def response_bytes(status: int, body: bytes,
                   content_type: str = "application/json",
                   *, keep_alive: bool = True) -> bytes:
    """Serialize one response, ``Content-Length`` framed."""
    reason = REASONS.get(status, "Unknown")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n")
    return head.encode("latin-1") + body

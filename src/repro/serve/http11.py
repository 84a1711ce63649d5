"""The HTTP/1.1 message framing both ends of the query service share.

The server and :class:`~repro.serve.client.ServeClient` read a header
block with :func:`read_headers` — a line loop over a buffered socket
file, not the MIME feed parser the standard library runs per
request.  It keeps the standard library's limits: a line over
:data:`MAX_LINE` bytes or more than :data:`MAX_HEADERS` fields is a 431.
"""

from __future__ import annotations

__all__ = ["MAX_HEADERS", "MAX_LINE", "IncompleteMessage", "MessageError",
           "ends_connection", "read_headers"]

MAX_LINE = 65536
MAX_HEADERS = 100


class MessageError(Exception):
    """A malformed HTTP message; *status* is the reply a server owes it."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


class IncompleteMessage(MessageError):
    """The peer hung up part way through a message."""


def read_headers(rfile) -> dict:
    """Read one header block from *rfile*, through its empty line.

    Returns ``{lower-cased name: value}`` with the surrounding whitespace
    of each value stripped.  A field sent more than once is combined into
    one comma-separated value (RFC 9110 §5.3), so a repeated
    ``Content-Length`` stays visible to the caller.  Obsolete line
    folding, a line without a colon and whitespace before the colon are
    400s (RFC 9112 §5); a line over :data:`MAX_LINE` bytes or more than
    :data:`MAX_HEADERS` fields is a 431.
    """
    headers: dict = {}
    count = 0
    while True:
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise MessageError("header line too long", 431)
        if line in (b"\r\n", b"\n"):
            return headers
        if not line.endswith(b"\n"):
            raise IncompleteMessage("connection closed inside the header block")
        count += 1
        if count > MAX_HEADERS:
            raise MessageError(f"more than {MAX_HEADERS} headers", 431)
        if line[:1] in (b" ", b"\t"):
            raise MessageError("obsolete line folding in the header block")
        name, colon, value = line.partition(b":")
        if not colon or not name or name != name.rstrip():
            raise MessageError(f"malformed header line {line[:80]!r}")
        name = name.decode("iso-8859-1").lower()
        value = value.strip().decode("iso-8859-1")
        headers[name] = f"{headers[name]}, {value}" if name in headers else value


def ends_connection(headers: dict, http10: bool) -> bool:
    """Does the message with *headers* end its connection?  HTTP/1.1
    persists unless ``Connection: close``; HTTP/1.0 (*http10*) closes
    unless ``Connection: keep-alive`` (RFC 9112 §9.3)."""
    options = {
        option.strip()
        for option in headers.get("connection", "").lower().split(",")
    }
    return "close" in options or (http10 and "keep-alive" not in options)

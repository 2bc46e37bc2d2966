"""Gateway wire format: streaming frames, input hardening, and the
minimal HTTP/1.1 surface.

The gateway speaks two protocols over one TCP port (auto-detected
from the first request line); ``repro serve`` speaks the first over
stdin/stdout:

- **framed JSONL** — one JSON request object per line, one or more
  ``repro.gwframe/1`` frame objects per line back.  The batch spec's
  entry forms (see :mod:`repro.service.requests`), plus
  ``tenant`` (admission-control bucket), ``stream`` (progressive
  frames), and ``id`` (echoed on every frame of the response);
- **HTTP/1.1** — stdlib-only parsing of ``POST /analyze``,
  ``POST /query``, ``GET /metrics``, and ``GET /healthz``. Streaming
  responses use chunked transfer encoding with one frame per chunk
  (``application/x-ndjson``), so ``curl -N`` shows the Andersen
  preview frame before the FSAM refinement lands.

A streamed ``analyze`` response is a sequence of frames sharing the
request's ``id``::

    {"schema": "repro.gwframe/1", "seq": 0, "kind": "andersen",
     "final": false, "body": {...degraded-shape Andersen facts...}}
    {"schema": "repro.gwframe/1", "seq": 1, "kind": "result",
     "final": true, "body": {...the result record...}}

Non-streamed responses are a single ``final`` frame.  Errors —
including the 429-style admission-control records — are ``kind:
"error"`` frames whose body is the structured error record
``{"status": "error", "error": {"type", "message", "code"}}``.

Input hardening: request lines larger
than ``max_request_bytes`` (default 1 MiB) and JSON nested deeper
than :data:`DEFAULT_MAX_JSON_DEPTH` (64, the one depth limit) are
rejected with a structured error record *before* any unbounded
``json.loads`` work happens — the depth check is a linear pre-scan of
the raw text, so a hostile 100k-deep-bracket line can never reach the
recursive parser.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.schemas import GWFRAME_SCHEMA

#: The JSONL input limits: the ``--max-request-bytes`` default, and
#: the one JSON nesting limit.
DEFAULT_MAX_REQUEST_BYTES = 1 << 20     # 1 MiB per request line/body
DEFAULT_MAX_JSON_DEPTH = 64

#: Frame kinds a response may carry, in the order they can appear.
FRAME_KINDS = ("andersen", "result", "error")


class RequestError(ValueError):
    """A request the gateway refuses: carries the HTTP-style status
    code and a stable machine-readable type for the error record."""

    code = 400

    @property
    def kind(self) -> str:
        return type(self).__name__


class BadRequest(RequestError):
    code = 400


class RequestTooLarge(RequestError):
    code = 413


class RequestTooDeep(RequestError):
    code = 400


class RateLimited(RequestError):
    """Per-tenant token bucket empty — the 429-style shed record."""
    code = 429


class QueueFull(RequestError):
    """Admission queue over its high-water mark; lowest-priority work
    is shed with this record."""
    code = 429


class GatewayClosing(RequestError):
    """The gateway is draining for shutdown; no new work admitted."""
    code = 503


# -- input hardening --------------------------------------------------------


def json_depth(text: str) -> int:
    """Maximum bracket-nesting depth of *text*, counted by a linear
    scan that skips string literals (and their escapes).  Runs before
    ``json.loads`` so pathological nesting never reaches the recursive
    parser; malformed text simply returns the depth seen so far and is
    left for the real parser to reject."""
    depth = 0
    max_depth = 0
    in_string = False
    escaped = False
    for ch in text:
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch in "[{":
            depth += 1
            if depth > max_depth:
                max_depth = depth
        elif ch in "]}":
            depth -= 1
    return max_depth


def parse_request_text(text: str,
                       max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES
                       ) -> Dict:
    """One hardened request parse: size cap, depth pre-scan, then
    ``json.loads``.  Raises a :class:`RequestError` subclass with a
    structured-record-ready type/code on refusal."""
    encoded_size = len(text.encode("utf-8", errors="replace"))
    if encoded_size > max_request_bytes:
        raise RequestTooLarge(
            f"request is {encoded_size} bytes "
            f"(limit {max_request_bytes}); raise --max-request-bytes "
            "to accept it")
    depth = json_depth(text)
    if depth > DEFAULT_MAX_JSON_DEPTH:
        raise RequestTooDeep(
            f"request JSON nests {depth} levels deep "
            f"(limit {DEFAULT_MAX_JSON_DEPTH})")
    try:
        entry = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadRequest(f"request is not valid JSON: {exc}") from exc
    if not isinstance(entry, dict):
        raise BadRequest(
            f"request is not a JSON object: {type(entry).__name__}")
    return entry


# -- frames -----------------------------------------------------------------


def make_frame(kind: str, body: Dict[str, object], *, seq: int,
               final: bool,
               request_id: object = None) -> Dict[str, object]:
    """One ``repro.gwframe/1`` frame."""
    frame: Dict[str, object] = {
        "schema": GWFRAME_SCHEMA,
        "seq": seq,
        "kind": kind,
        "final": final,
        "body": body,
    }
    if request_id is not None:
        frame["id"] = request_id
    return frame


def error_body(exc: BaseException,
               request_id: object = None) -> Dict[str, object]:
    """The structured error record: type, message, and an HTTP-style
    numeric code — a refused request's own (429 for admission sheds,
    etc.), else :func:`~repro.service.runner.error_record`'s (400 for
    a MiniC diagnostic in client source, 500 for anything else)."""
    if isinstance(exc, RequestError):
        error = {"type": exc.kind, "message": str(exc), "code": exc.code}
    else:
        # Imported here: the CLI reads this module's limits without
        # loading the service.
        from repro.service.runner import error_record
        error = error_record(exc)
    body: Dict[str, object] = {"status": "error", "error": error}
    if request_id is not None:
        body["id"] = request_id
    return body


def error_frame(exc: BaseException, *, seq: int = 0,
                request_id: object = None) -> Dict[str, object]:
    return make_frame("error", error_body(exc, request_id), seq=seq,
                      final=True, request_id=request_id)


def validate_gwframe(doc: object) -> Dict[str, object]:
    """Check *doc* against ``repro.gwframe/1``; returns it unchanged
    (same contract as the other validators)."""
    def _check(cond: bool, message: str) -> None:
        if not cond:
            raise ValueError(f"invalid gwframe: {message}")

    _check(isinstance(doc, dict), "frame is not an object")
    assert isinstance(doc, dict)
    _check(doc.get("schema") == GWFRAME_SCHEMA,
           f"schema is {doc.get('schema')!r}, expected {GWFRAME_SCHEMA!r}")
    _check(doc.get("kind") in FRAME_KINDS,
           f"kind {doc.get('kind')!r} not in {FRAME_KINDS}")
    seq = doc.get("seq")
    _check(isinstance(seq, int) and not isinstance(seq, bool) and seq >= 0,
           "seq is not a non-negative integer")
    _check(isinstance(doc.get("final"), bool), "final is not a bool")
    body = doc.get("body")
    _check(isinstance(body, dict), "body is not an object")
    assert isinstance(body, dict)
    if doc["kind"] == "error":
        error = body.get("error")
        _check(body.get("status") == "error"
               and isinstance(error, dict)
               and isinstance(error.get("type"), str)
               and isinstance(error.get("code"), int),
               "error frame body lacks a structured error record")
    return doc


def validate_gwframe_stream(frames: List[Dict[str, object]]
                            ) -> List[Dict[str, object]]:
    """One response's frames: validates each, checks ``seq`` is dense
    from 0, exactly the last frame is ``final``, and an ``andersen``
    preview (when present) precedes the result."""
    if not frames:
        raise ValueError("invalid gwframe stream: empty")
    for i, frame in enumerate(frames):
        validate_gwframe(frame)
        if frame["seq"] != i:
            raise ValueError(
                f"invalid gwframe stream: frame {i} has seq {frame['seq']}")
        if frame["final"] != (i == len(frames) - 1):
            raise ValueError(
                f"invalid gwframe stream: frame {i} final={frame['final']}")
    kinds = [frame["kind"] for frame in frames]
    if "andersen" in kinds and "result" in kinds \
            and kinds.index("andersen") > kinds.index("result"):
        raise ValueError(
            "invalid gwframe stream: andersen preview after the result")
    return frames


# -- minimal HTTP/1.1 -------------------------------------------------------

#: Request-line methods that flag a connection as HTTP rather than
#: framed JSONL (the transport auto-detection peek).
HTTP_METHODS = ("GET", "POST", "HEAD", "PUT", "DELETE", "OPTIONS", "PATCH")

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


def looks_like_http(first_line: bytes) -> bool:
    head = first_line.split(b" ", 1)[0]
    try:
        return head.decode("ascii") in HTTP_METHODS
    except UnicodeDecodeError:
        return False


def parse_http_head(request_line: bytes, header_lines: List[bytes]
                    ) -> Tuple[str, str, Dict[str, str], Dict[str, str]]:
    """Parse the request line + headers of one HTTP/1.1 request.
    Returns ``(method, path, query, headers)`` with header names
    lower-cased.  Raises :class:`BadRequest` on malformed input."""
    try:
        parts = request_line.decode("ascii").strip().split(" ")
        method, target, version = parts[0], parts[1], parts[2]
    except (UnicodeDecodeError, IndexError) as exc:
        raise BadRequest("malformed HTTP request line") from exc
    if not version.startswith("HTTP/1."):
        raise BadRequest(f"unsupported HTTP version {version!r}")
    split = urlsplit(target)
    query = dict(parse_qsl(split.query))
    headers: Dict[str, str] = {}
    for raw in header_lines:
        line = raw.decode("latin-1").strip()
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise BadRequest(f"malformed HTTP header {line!r}")
        headers[name.strip().lower()] = value.strip()
    return method, split.path, query, headers


def http_response(status: int, body: bytes,
                  content_type: str = "application/json",
                  extra_headers: Optional[Dict[str, str]] = None) -> bytes:
    """One complete non-streamed HTTP/1.1 response (connection
    closes after it)."""
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


def http_stream_head(status: int = 200,
                     content_type: str = "application/x-ndjson") -> bytes:
    """The head of a chunked streaming response; follow with
    :func:`http_chunk` per frame and :func:`http_stream_tail`."""
    return ("\r\n".join([
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        "Transfer-Encoding: chunked",
        "Connection: close",
    ]) + "\r\n\r\n").encode("ascii")


def http_chunk(data: bytes) -> bytes:
    return f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n"


def http_stream_tail() -> bytes:
    return b"0\r\n\r\n"

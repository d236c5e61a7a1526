"""Client API for likwid-server.

Two clients over the same JSON-lines protocol:

* :class:`ServerClient` — asyncio, one request pipelined at a time
  per connection; the load harness opens hundreds of these.
* :class:`SyncServerClient` — a blocking socket client for
  synchronous callers: ``likwid-server submit`` and the agent's
  :class:`~repro.server.ingest.ServerIngestSink`.

Both are thin I/O shells over one sans-IO core, :class:`_ClientCore`:
one attempt is the generator :meth:`_ClientCore._exchange`, which
yields the shell's connect/send/readline/sleep steps.

Both are **retrying** clients: every call runs under a
:class:`~repro.retry.RetryPolicy` (seeded-jitter exponential backoff
keyed by the client id), reconnects automatically after any
transport failure, and honours a per-call wall-clock ``deadline``.
``submit``/``cancel``/``ingest`` carry idempotency keys (``client`` +
monotonically increasing ``seq``, stamped once per logical operation
and stable across its retries), so a retry after a lost reply lands
on the server's dedup window instead of re-executing.

A :class:`~repro.server.chaos.ChaosPlan` can be armed on either
client; faults are injected at the stream/socket seam (see the chaos
module docstring) and surface as retryable
:class:`~repro.errors.ChaosError`, which the retry loop absorbs
exactly like genuine network weather.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import socket
import time

from repro import trace as _trace
from repro.errors import ChaosError, ServerError
from repro.retry import RetryPolicy, retryable
from repro.server import chaos as _chaos
from repro.server.chaos import ChaosPlan
from repro.server.scheduler import SessionRequest, request_to_dict

_CLIENT_IDS = itertools.count(1)


def _default_client_id() -> str:
    return f"client-{os.getpid()}-{next(_CLIENT_IDS)}"


def _reply_error(reply: dict) -> ServerError:
    return ServerError(reply.get("error", "server error"),
                       code=reply.get("code", "server-error"),
                       retryable=bool(reply.get("retryable", False)))


def _checked(reply: dict) -> dict:
    if not reply.get("ok"):
        raise _reply_error(reply)
    return reply


class _CallClock:
    """Per-call deadline bookkeeping (wall clock, not virtual)."""

    def __init__(self, deadline: float | None):
        self.deadline = deadline
        self.start = time.monotonic()

    def remaining(self) -> float | None:
        if self.deadline is None:
            return None
        left = self.deadline - (time.monotonic() - self.start)
        if left <= 0.0:
            raise ServerError(
                f"call deadline of {self.deadline}s exceeded",
                code="deadline-exceeded")
        return left


class _ClientCore:
    """Everything the two clients share; performs no I/O itself.

    ``retry=None`` uses the default :class:`RetryPolicy`
    (:data:`~repro.retry.NO_RETRY` fails fast); ``deadline`` is the
    default per-call wall-clock budget (None = wait forever, the
    load-harness default since terminal waits are legitimately long).
    A shell provides ``call``, ``_request``, ``_drive``, ``_abort``
    and the I/O steps ``_open``, ``_send``, ``_readline``, ``_sleep``."""

    def __init__(self, host: str, port: int, *,
                 client_id: str | None = None,
                 retry: RetryPolicy | None = None,
                 deadline: float | None = None,
                 chaos: ChaosPlan | None = None):
        self.host = host
        self.port = port
        self.client_id = client_id if client_id is not None \
            else _default_client_id()
        self.retry = retry if retry is not None else RetryPolicy()
        self.deadline = deadline
        self.chaos = chaos.arm(self.client_id) \
            if chaos is not None and chaos.active else None
        self.retries = 0
        self._rng = random.Random(f"retry:{self.client_id}")
        self._seq = 0

    def next_seq(self) -> int:
        """Allocate an idempotency sequence number (also for callers
        that stamp their own requests, like the ingest spill ring)."""
        self._seq += 1
        return self._seq

    def _stamp(self, doc: dict) -> dict:
        doc["client"] = self.client_id
        doc["seq"] = self.next_seq()
        return doc

    # -- verbs (awaitables on the async client) --------------------------------

    def ping(self, *, deadline: float | None = None):
        return self._request({"op": "ping"}, deadline)

    def status(self, *, deadline: float | None = None):
        return self._request({"op": "status"}, deadline)

    def submit(self, request: SessionRequest, *, wait: bool = True,
               deadline: float | None = None):
        """Submit one session; with ``wait`` (default) blocks until
        the terminal state and returns the full session document."""
        doc = request_to_dict(request)
        doc["op"] = "submit"
        doc["wait"] = wait
        return self._request(self._stamp(doc), deadline)

    def wait(self, node: str, session_id: int, *,
             deadline: float | None = None):
        return self._request(
            {"op": "wait", "node": node, "session": session_id}, deadline)

    def cancel(self, node: str, session_id: int, *,
               deadline: float | None = None):
        return self._request(self._stamp(
            {"op": "cancel", "node": node, "session": session_id}),
            deadline)

    # -- calls and attempts as I/O steps ---------------------------------------
    #
    # A generator yields ``(io_step, arg)``; the shell's ``_drive``
    # runs the step and sends back its result (a read's line) or
    # throws in its exception.

    def _refuse(self) -> None:
        if self.chaos is not None and self.chaos.refuse_connect():
            raise ChaosError("connection refused (injected)",
                             kind="refused")

    def _attempt(self, doc: dict, clock: _CallClock):
        """One bare attempt, no retries."""
        return self._drive(self._exchange(doc, clock))

    def _call(self, doc: dict, deadline: float | None):
        """One logical call: attempts under the retry policy.  Error
        replies the server marked retryable are retried in here, so a
        returned error reply is always terminal."""
        clock = _CallClock(deadline if deadline is not None
                           else self.deadline)
        attempt = 0
        while True:
            try:
                return (yield from self._exchange(doc, clock))
            except Exception as exc:
                if not retryable(exc):     # an exceeded deadline too
                    raise
                attempt += 1
                self.retries += 1
                _trace.incr("server.retries")
                self._abort()
                if attempt >= self.retry.max_attempts:
                    raise ServerError(
                        f"retries exhausted after {attempt} "
                        f"attempt(s): {exc}",
                        code="retries-exhausted") from exc
                clock.remaining()
                pause = self.retry.delay(attempt - 1, self._rng)
            yield self._sleep, pause

    def _exchange(self, doc: dict, clock: _CallClock):
        """One attempt; returns the decoded reply."""
        yield self._open, clock.remaining()
        data = json.dumps(doc).encode() + b"\n"
        ch = self.chaos
        fate = _chaos.DELIVER
        if ch is not None:
            pause = ch.delay()
            if pause:
                yield self._sleep, pause
            fate = ch.request_fate()
            if fate == _chaos.TORN_REQUEST:
                yield self._send, ch.tear(data)
                raise ChaosError("connection lost mid-request "
                                 "(injected)", kind="torn-request")
            if fate == _chaos.DUPLICATE:
                data = data + data
        yield self._send, data
        if ch is not None:
            reply_fate = ch.reply_fate()
            if reply_fate == _chaos.DROP_REPLY:
                raise ChaosError("connection lost before reply "
                                 "(injected)", kind="dropped-reply")
            if reply_fate == _chaos.TORN_REPLY:
                yield from self._read(clock)   # keep stream cadence
                raise ChaosError("reply line torn mid-JSON "
                                 "(injected)", kind="torn-reply")
        line = yield from self._read(clock)
        if fate == _chaos.DUPLICATE:
            # The duplicate delivery produced a second reply (or a
            # dedup replay); it must leave the stream before the next
            # request keeps order.
            yield from self._read(clock)
        try:
            reply = json.loads(line)
        except ValueError:
            raise ServerError("torn reply: response line is not JSON",
                              code="torn-reply", retryable=True) \
                from None
        if not reply.get("ok") and reply.get("retryable"):
            raise _reply_error(reply)
        return reply

    def _read(self, clock: _CallClock):
        line = yield self._readline, clock.remaining()
        if not line:
            raise ServerError("server closed the connection",
                              code="connection-lost", retryable=True)
        return line


class ServerClient(_ClientCore):
    """Async JSON-lines client (one outstanding request at a time)."""

    _sleep = staticmethod(asyncio.sleep)

    def __init__(self, host: str, port: int, **options):
        super().__init__(host, port, **options)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._lock = asyncio.Lock()

    async def __aenter__(self) -> "ServerClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def connect(self) -> None:
        self._refuse()
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)

    async def close(self) -> None:
        """Flush and close the connection.  Waits for the transport
        to actually close — dropping the writer reference without
        ``wait_closed`` loses buffered data and leaks the transport
        until GC."""
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _abort(self) -> None:
        """Sever the connection without ceremony (the next attempt
        reconnects)."""
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            transport = writer.transport
            if transport is not None:
                transport.abort()

    async def _open(self, remaining: float | None) -> None:
        if self._writer is None:
            opening = self.connect()
            await (opening if remaining is None
                   else asyncio.wait_for(opening, remaining))

    async def _send(self, data: bytes) -> None:
        self._writer.write(data)
        await self._writer.drain()

    async def _readline(self, remaining: float | None) -> bytes:
        line = self._reader.readline()
        return await (line if remaining is None
                      else asyncio.wait_for(line, remaining))

    async def _drive(self, steps):
        result = error = None
        while True:
            try:
                io, arg = steps.send(result) if error is None \
                    else steps.throw(error)
            except StopIteration as done:
                return done.value
            try:
                result, error = await io(arg), None
            except Exception as exc:
                result, error = None, exc

    async def call(self, doc: dict, *,
                   deadline: float | None = None) -> dict:
        """One request/response round trip, retried under the
        client's policy (serialized per client — the protocol matches
        replies to requests by order).  Returns the reply object."""
        async with self._lock:
            return await self._drive(self._call(doc, deadline))

    async def _request(self, doc: dict, deadline: float | None) -> dict:
        return _checked(await self.call(doc, deadline=deadline))


class SyncServerClient(_ClientCore):
    """Blocking socket client for synchronous call sites — same
    retry/deadline/idempotency/chaos contract as the async client.

    ``timeout`` caps a single socket operation; ``deadline`` caps a
    whole logical call across all its retries.  Each connect, attempt
    and read runs under ``min(remaining deadline, timeout)``."""

    _sleep = staticmethod(time.sleep)

    def __init__(self, host: str, port: int, *,
                 timeout: float | None = 30.0, **options):
        super().__init__(host, port, **options)
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._file = None

    def __enter__(self) -> "SyncServerClient":
        self.connect()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def connect(self) -> None:
        self._open(None)

    def close(self) -> None:
        """Close file and socket; exception-safe — a failing buffered
        flush in ``_file.close()`` must never leak the socket."""
        sock, self._sock = self._sock, None
        file, self._file = self._file, None
        if sock is None:
            return
        try:
            if file is not None:
                file.close()
        except (OSError, ValueError):
            pass
        finally:
            sock.close()

    _abort = close

    def _timeout(self, remaining: float | None) -> float | None:
        if remaining is None:
            return self.timeout
        return remaining if self.timeout is None \
            else min(remaining, self.timeout)

    def _open(self, remaining: float | None) -> None:
        """Connect if needed; either way the socket timeout becomes
        this attempt's budget, never one left over from an earlier
        call's deadline."""
        if self._sock is not None:
            self._sock.settimeout(self._timeout(remaining))
            return
        self._refuse()
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self._timeout(remaining))
        self._file = self._sock.makefile("rwb")

    def _send(self, data: bytes) -> None:
        self._file.write(data)
        self._file.flush()

    def _readline(self, remaining: float | None) -> bytes:
        self._sock.settimeout(self._timeout(remaining))
        try:
            return self._file.readline()
        except socket.timeout:
            raise TimeoutError("timed out waiting for reply") from None

    def _drive(self, steps):
        result = error = None
        while True:
            try:
                io, arg = steps.send(result) if error is None \
                    else steps.throw(error)
            except StopIteration as done:
                return done.value
            try:
                result, error = io(arg), None
            except Exception as exc:
                result, error = None, exc

    def call(self, doc: dict, *,
             deadline: float | None = None) -> dict:
        return self._drive(self._call(doc, deadline))

    def _request(self, doc: dict, deadline: float | None) -> dict:
        return _checked(self.call(doc, deadline=deadline))


def parse_endpoint(text: str) -> tuple[str, int]:
    """``HOST:PORT`` → tuple (the --server argument syntax)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ServerError(f"bad server endpoint {text!r} "
                          f"(expected HOST:PORT)", code="bad-request")
    try:
        return host, int(port)
    except ValueError:
        raise ServerError(f"bad server port in {text!r}",
                          code="bad-request") from None

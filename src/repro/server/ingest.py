"""Server-backed agent ingest: SampleBatch over the wire.

``likwid-agent --server HOST:PORT`` swaps its in-process aggregator
lane for a :class:`ServerIngestSink` — every measurement window's
batch is serialized to the JSON-lines protocol's ``ingest`` verb and
aggregated server-side, so a fleet of agents feeds one central
rollup.  The batch round-trip is exact: ``batch_from_dict(
batch_to_dict(b)) == b`` field for field, including NaN metric
values (degraded uncore reads must survive the wire — JSON has no
NaN, so they travel as the string ``"nan"``).
"""

from __future__ import annotations

import math
from collections import deque

from repro import trace as _trace
from repro.agent.batch import AgentSample, SampleBatch
from repro.agent.sinks import Sink
from repro.errors import ServerError
from repro.retry import retryable


def _value_to_wire(value: float) -> float | str:
    return "nan" if math.isnan(value) else value


def _value_from_wire(value) -> float:
    if value == "nan":
        return math.nan
    return float(value)


def batch_to_dict(batch: SampleBatch) -> dict:
    return {
        "node": batch.node, "group": batch.group,
        "window": batch.window, "time": batch.time,
        "duration": batch.duration, "seq": batch.seq,
        "samples": [
            {"scope": s.scope, "id": s.ident, "metric": s.metric,
             "value": _value_to_wire(s.value), "seq": s.seq}
            for s in batch.samples],
    }


def batch_from_dict(doc: dict) -> SampleBatch:
    try:
        node = doc["node"]
        group = doc["group"]
        window = int(doc["window"])
        time = float(doc["time"])
        duration = float(doc["duration"])
        samples = tuple(
            AgentSample(node, group, window, time, s["scope"],
                        int(s["id"]), s["metric"],
                        _value_from_wire(s["value"]),
                        int(s.get("seq", 0)))
            for s in doc.get("samples", ()))
    except (KeyError, TypeError, ValueError) as exc:
        raise ServerError(f"bad ingest batch: {exc}") from None
    return SampleBatch(node, group, window, time, duration, samples,
                       seq=int(doc.get("seq", 0)))


def _transport_failure(exc: BaseException) -> bool:
    """Did the batch fail to *reach* the server (breaker territory),
    as opposed to the server refusing it (drop territory)?"""
    return retryable(exc) or (isinstance(exc, ServerError) and exc.code
                              in ("retries-exhausted", "deadline-exceeded"))


class ServerIngestSink(Sink):
    """An agent sink lane that ships every batch to a likwid-server,
    behind a circuit breaker with a bounded spill ring.

    Takes any object with a ``call(doc) -> dict`` method (the sync
    client).  :meth:`emit` **never raises**: a batch first enters the
    spill ring, then the ring drains to the server in order.  When
    the server is unreachable (the client's own retries exhausted)
    the breaker opens and subsequent emits skip the network entirely
    — probing again with exponentially spaced emits — so one dead
    server costs the agent loop one timeout, not one per window.  A
    full ring evicts oldest-first; evictions are *counted* drops,
    never silent ones.  Accounting is exact at all times::

        offered == shipped + refused + dropped + pending

    Each batch is stamped with an idempotency key when it enters the
    ring (``client.next_seq()``), so a drain retry of a batch whose
    reply was lost deduplicates server-side instead of
    double-counting into the aggregator."""

    kind = "server"

    #: Probe spacing cap: while the breaker is open at steady state,
    #: one emit in 64 touches the network.
    MAX_SKIP = 64

    def __init__(self, client, *, max_batch: int | None = None,
                 spill_capacity: int = 64):
        super().__init__(max_batch=max_batch)
        if spill_capacity < 1:
            raise ValueError("spill capacity must be positive")
        self.client = client
        self.spill_capacity = spill_capacity
        self.offered = 0         # samples handed to the sink
        self.shipped = 0         # samples the server accepted
        self.refused = 0         # samples the server refused (fatal)
        self.dropped = 0         # samples evicted/abandoned unsent
        self.breaker_open = False
        self.breaker_trips = 0
        self.last_error = ""
        self._skip = 0           # emits until the next probe
        self._skip_next = 1      # exponential probe spacing
        self._spill: deque[tuple[dict, int]] = deque()

    @property
    def pending(self) -> int:
        """Samples sitting in the spill ring, not yet shipped."""
        return sum(n for _, n in self._spill)

    def inconsistencies(self) -> list[str]:
        """Exact-accounting check (the agent ``--verify`` surface)."""
        total = self.shipped + self.refused + self.dropped \
            + self.pending
        if self.offered != total:
            return [f"server sink accounting broken: offered "
                    f"{self.offered} != shipped {self.shipped} + "
                    f"refused {self.refused} + dropped {self.dropped}"
                    f" + pending {self.pending}"]
        return []

    def emit(self, batch: SampleBatch) -> None:
        doc = {"op": "ingest", "batch": batch_to_dict(batch)}
        client_id = getattr(self.client, "client_id", None)
        next_seq = getattr(self.client, "next_seq", None)
        if client_id is not None and next_seq is not None:
            doc["client"] = client_id
            doc["seq"] = next_seq()
        self.offered += len(batch)
        self._spill.append((doc, len(batch)))
        while len(self._spill) > self.spill_capacity:
            _, evicted = self._spill.popleft()
            self.dropped += evicted
            _trace.incr("ingest.breaker.dropped", evicted)
        if self.breaker_open:
            self._skip -= 1
            if self._skip > 0:
                return
        self.drain()

    def drain(self) -> bool:
        """Ship the spill ring in order; returns True when it fully
        drained (breaker closed), False when the server is still
        unreachable (breaker open, spill retained)."""
        while self._spill:
            doc, n = self._spill[0]
            try:
                reply = self.client.call(doc)
            except Exception as exc:
                if _transport_failure(exc):
                    self._trip(exc)
                    return False
                # The server refused the batch outright (bad batch,
                # unknown verb...): dropping it is the only honest
                # move — it will never be accepted.
                self._spill.popleft()
                self.refused += n
                self.last_error = str(exc)
                _trace.incr("ingest.breaker.refused", n)
                continue
            self._spill.popleft()
            if not reply.get("ok"):
                self.refused += n
                self.last_error = str(reply.get("error", ""))
                _trace.incr("ingest.breaker.refused", n)
                continue
            self.shipped += reply.get("accepted", 0)
        if self.breaker_open:
            self.breaker_open = False
            self._skip_next = 1
            _trace.incr("ingest.breaker.closed")
        return True

    def _trip(self, exc: BaseException) -> None:
        self.last_error = str(exc)
        if not self.breaker_open:
            self.breaker_open = True
            self.breaker_trips += 1
            _trace.incr("ingest.breaker.trips")
        else:
            self._skip_next = min(self._skip_next * 2, self.MAX_SKIP)
        self._skip = self._skip_next

    def close(self) -> None:
        """Final drain attempt; whatever the server still cannot take
        is abandoned as counted drops (the agent is exiting — there
        is no later reconnect to wait for)."""
        self.drain()
        while self._spill:
            _, n = self._spill.popleft()
            self.dropped += n
            _trace.incr("ingest.breaker.dropped", n)

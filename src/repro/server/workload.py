"""Standalone replay: the bit-identity oracle for server sessions.

A server-scheduled session must produce *exactly* the result the same
measurement would produce standalone — same architecture, seed, cpu
set, group and windows on a freshly created machine, no contention,
no faults.  This holds because session counts are baseline-subtracted
deltas (accumulated machine state cancels), the synthetic workload is
a pure function of (seed, window index, cpu, duration), uncore
application is scoped to the session's own sockets, and the session's
``wall_time`` is its own accumulated window time.  Transient injected
faults are absorbed by retries and never change counts, so the replay
runs fault-free.

``run_standalone`` is what ``likwid-server load-test --verify`` calls
per completed session; :func:`results_identical` is the comparison —
field-for-field equality on counts and metrics, NaN == NaN.
"""

from __future__ import annotations

import math

from repro.agent.scheduler import SyntheticLoad
from repro.core.perfctr.measurement import (LikwidPerfCtr,
                                            MeasurementResult)
from repro.hw.arch import create_machine
from repro.oskern.access import open_backend
from repro.retry import SOAK_RETRIES
from repro.server.scheduler import SessionRequest


def sockets_of(spec, cpus) -> tuple[int, ...]:
    """The sockets a cpu set spans (the lease footprint)."""
    return tuple(sorted({spec.socket_of(cpu) for cpu in cpus}))


def run_standalone(request: SessionRequest,
                   arch: str) -> MeasurementResult:
    """Run one session request to completion on a private machine —
    no server, no contention, no faults — and return its result."""
    machine = create_machine(arch)
    backend = open_backend("msr", machine)
    perfctr = LikwidPerfCtr(machine, backend=backend,
                            retry_policy=SOAK_RETRIES)
    cpus = list(request.cpus)
    workload = SyntheticLoad(machine, cpus, seed=request.seed,
                             sockets=sockets_of(machine.spec, cpus))
    run_time = 0.0
    with perfctr.session(cpus, request.group) as session:
        for window in range(request.windows):
            run_time += workload(window, request.group,
                                 request.window)
        session.stop()
        return session.read(wall_time=run_time)


def _same(a: float, b: float) -> bool:
    if math.isnan(a) and math.isnan(b):
        return True
    return a == b


def results_identical(a: MeasurementResult,
                      b: MeasurementResult) -> bool:
    """Bit-identical counts and metrics (NaN matches NaN; retry
    counts and warnings are excluded — fault absorption is allowed
    to differ, values are not)."""
    if sorted(a.counts) != sorted(b.counts):
        return False
    for cpu in a.counts:
        ca, cb = a.counts[cpu], b.counts[cpu]
        if sorted(ca) != sorted(cb):
            return False
        if not all(_same(ca[ev], cb[ev]) for ev in ca):
            return False
    if sorted(a.metrics) != sorted(b.metrics):
        return False
    for cpu in a.metrics:
        ma, mb = a.metrics[cpu], b.metrics[cpu]
        if sorted(ma) != sorted(mb):
            return False
        if not all(_same(ma[m], mb[m]) for m in ma):
            return False
    return _same(a.wall_time, b.wall_time)


def result_from_dict(doc: dict) -> MeasurementResult:
    """Rebuild a result from a session document's ``result`` field
    (the protocol's wire form) for client-side verification."""
    def _num(value):
        return math.nan if value is None else float(value)

    return MeasurementResult(
        cpus=sorted(int(c) for c in doc.get("counts", {})),
        counts={int(c): {ev: _num(v) for ev, v in events.items()}
                for c, events in doc.get("counts", {}).items()},
        metrics={int(c): {m: _num(v) for m, v in metrics.items()}
                 for c, metrics in doc.get("metrics", {}).items()},
        wall_time=float(doc.get("wall_time", 0.0)),
        warnings=list(doc.get("warnings", ())),
        io_retries=int(doc.get("io_retries", 0)))

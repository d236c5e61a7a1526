"""The per-node session scheduler: socket leases as a wait queue.

Standalone likwid-perfctr resolves uncore contention first-come: the
second session hitting a held socket lock gets a
:class:`~repro.errors.SocketLockError` and degrades to NaN.  The
server turns that into *scheduling*: a session submission claims the
sockets its CPU set spans; busy sockets queue the request on a
deficit-fair, aging-aware wait queue
(:class:`~repro.oskern.locks.FairWaitQueue`); deadline expiry fires
while queued; and a granted lease that outlives its limit is
**preempted** through the PR 5 crash machinery — the session's
simulated process is killed, its write-ahead journal replayed
backwards to pristine MSR state, its stale socket locks reclaimed —
so the next waiter starts from clean hardware.

Time is *virtual*: the node clock advances by exactly the measured
window durations, so queue waits, deadlines and lease ages are
deterministic, replayable, and independent of host load.  Each
granted session runs its measurement windows atomically (the
simulated window is a synchronous call), one window per scheduler
step, with active sessions on disjoint sockets interleaving
round-robin — kernel-arbitration behavior in the sense of Becker's
"Measuring Software Performance on Linux", modeled at tool level.

The scheduler core is synchronous and single-threaded; the asyncio
layer (:mod:`repro.server.server`) drives ``step()`` from per-node
tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro import trace as _trace
from repro.agent.scheduler import SyntheticLoad
from repro.core.perfctr.groups import groups_for
from repro.core.perfctr.measurement import (LikwidPerfCtr,
                                            MeasurementResult,
                                            SessionLease)
from repro.errors import ReproError, ServerError
from repro.hw.arch import create_machine
from repro.oskern.access import open_backend
from repro.oskern.locks import FairWaitQueue, SocketLockTable
from repro.oskern.msr_driver import FaultPlan
from repro.oskern.proc import SimProcessTable
from repro.oskern.recovery import RecoveryEngine, RecoveryReport
from repro.retry import SOAK_RETRIES
from repro.trace.metrics import Histogram


class SessionState(Enum):
    """Terminal accounting states (plus the two live ones).

    Every submitted session must end in exactly one of the terminal
    states — the load harness' ``--verify`` reconciles
    ``completed + timed_out + rejected + preempted (+ cancelled +
    failed) == submitted`` and requires ``failed == 0``."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    TIMED_OUT = "timed-out"
    REJECTED = "rejected"
    PREEMPTED = "preempted"
    CANCELLED = "cancelled"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        return self not in (SessionState.QUEUED, SessionState.RUNNING)


@dataclass(frozen=True)
class SessionRequest:
    """One client's measurement submission."""

    node: str
    cpus: tuple[int, ...]
    group: str
    tenant: str = "default"
    windows: int = 1              # measurement windows under one lease
    window: float = 0.1           # virtual seconds per window
    deadline: float | None = None  # max queue wait (virtual seconds)
    seed: int = 0                 # workload seed (bit-identity key)


#: Protocol fields of a submit verb, mirroring SessionRequest.
REQUEST_FIELDS = ("node", "cpus", "group", "tenant", "windows",
                  "window", "deadline", "seed")


def request_to_dict(req: SessionRequest) -> dict:
    return {"node": req.node, "cpus": list(req.cpus),
            "group": req.group, "tenant": req.tenant,
            "windows": req.windows, "window": req.window,
            "deadline": req.deadline, "seed": req.seed}


def request_from_dict(doc: dict) -> SessionRequest:
    try:
        node = doc["node"]
        cpus = tuple(int(c) for c in doc["cpus"])
        group = doc["group"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ServerError(f"bad submit request: {exc}",
                          code="bad-request") from None
    deadline = doc.get("deadline")
    return SessionRequest(
        node=node, cpus=cpus, group=group,
        tenant=str(doc.get("tenant", "default")),
        windows=int(doc.get("windows", 1)),
        window=float(doc.get("window", 0.1)),
        deadline=None if deadline is None else float(deadline),
        seed=int(doc.get("seed", 0)))


@dataclass
class ServerSession:
    """One submission's full server-side record."""

    id: int
    request: SessionRequest
    state: SessionState = SessionState.QUEUED
    reason: str = ""               # rejection/failure detail
    submit_clock: float = 0.0
    grant_clock: float | None = None
    end_clock: float | None = None
    windows_run: int = 0
    run_time: float = 0.0          # this session's own window time
    result: MeasurementResult | None = None
    # live measurement plumbing (populated while RUNNING)
    sockets: tuple[int, ...] = ()
    driver: object = None
    backend: object = None
    psession: object = None
    workload: object = None
    epoch: int | None = None
    waiter: object = None

    @property
    def tenant(self) -> str:
        return self.request.tenant

    @property
    def queue_wait(self) -> float | None:
        """Virtual seconds spent waiting for the socket lease (for a
        timed-out session: the full wait until expiry)."""
        if self.grant_clock is not None:
            return self.grant_clock - self.submit_clock
        if self.end_clock is not None:
            return self.end_clock - self.submit_clock
        return None

    @property
    def held(self) -> float:
        """Virtual seconds the lease has been held so far."""
        if self.grant_clock is None:
            return 0.0
        end = self.end_clock
        return (end if end is not None else self._now) - self.grant_clock

    _now: float = 0.0              # scheduler-maintained clock mirror
    #: Terminal document adopted verbatim from a pre-crash WAL record;
    #: when set it IS this session's wire representation, so a
    #: post-restart ``wait`` resolves bit-identically.
    restored_doc: dict | None = None

    def as_dict(self) -> dict:
        if self.restored_doc is not None:
            return dict(self.restored_doc)
        doc = {
            "session": self.id,
            "node": self.request.node,
            "tenant": self.tenant,
            "group": self.request.group,
            "cpus": list(self.request.cpus),
            "windows": self.request.windows,
            "window": self.request.window,
            "deadline": self.request.deadline,
            "seed": self.request.seed,
            "state": self.state.value,
            "windows_run": self.windows_run,
            "queue_wait": self.queue_wait,
        }
        if self.reason:
            doc["reason"] = self.reason
        if self.result is not None:
            doc["result"] = {
                "wall_time": self.result.wall_time,
                "counts": {str(cpu): dict(events)
                           for cpu, events in self.result.counts.items()},
                "metrics": {str(cpu): dict(m)
                            for cpu, m in self.result.metrics.items()},
                "warnings": list(self.result.warnings),
                "io_retries": self.result.io_retries,
            }
        return doc


@dataclass
class NodeResidue:
    """What a server crash leaves behind on one node.

    The *server process* dies; the simulated hardware does not.  The
    machine's register files, the process table, the socket-lock
    table and the orphaned (terminated) session drivers all survive —
    exactly like real MSR state survives a likwid-perfctr SIGKILL —
    and the next server incarnation must recover them before it runs
    anything, or every post-restart measurement starts dirty."""

    machine: object
    procs: SimProcessTable
    locks: SocketLockTable
    orphans: list            # terminated drivers of mid-run sessions


class NodeScheduler:
    """One node's lease scheduler and session executor.

    ``lease_limit`` is the maximum virtual time a granted lease may
    hold its sockets before preemption; ``max_queue`` bounds the wait
    queue (admission control — excess submissions are rejected, never
    silently dropped); ``age_limit`` is the wait-queue's bounded-
    bypass threshold.  ``residue`` rebuilds the scheduler on the
    surviving hardware of a crashed incarnation (see
    :class:`NodeResidue`); call :meth:`recover` before submitting."""

    def __init__(self, name: str, arch: str = "westmere_ep", *,
                 access_mode: str = "msr", faults: str | None = None,
                 lease_limit: float = 1.0, max_queue: int = 64,
                 age_limit: float | None = None,
                 queue_wait_hist: Histogram | None = None,
                 on_terminal=None, on_grant=None,
                 residue: NodeResidue | None = None):
        self.name = name
        self.arch = arch
        self.access_mode = access_mode
        self.faults_spec = faults
        if residue is not None:
            self.machine = residue.machine
            self.procs = residue.procs
            self.locks = residue.locks
            self._orphans = list(residue.orphans)
        else:
            self.machine = create_machine(arch)
            self.procs = SimProcessTable()
            self.locks = SocketLockTable(self.procs)
            self._orphans = []
        self.lease_limit = lease_limit
        self.max_queue = max_queue
        self.queue = FairWaitQueue(
            age_limit=age_limit if age_limit is not None
            else 4.0 * lease_limit)
        self.clock = 0.0
        self.busy: dict[int, ServerSession] = {}
        self.active: list[ServerSession] = []
        self.sessions: dict[int, ServerSession] = {}
        self.counts: dict[SessionState, int] = {s: 0 for s in SessionState}
        self.submitted = 0
        self.queue_wait_hist = queue_wait_hist if queue_wait_hist \
            is not None else Histogram("server.queue_wait.s")
        self.on_terminal = on_terminal
        self.on_grant = on_grant
        self._next_id = 0
        self._rr = 0                   # round-robin cursor over active
        self._provided = groups_for(self.machine.spec)

    # -- crash / recovery ------------------------------------------------------

    def crash(self) -> NodeResidue:
        """Simulated server SIGKILL: every running session's process
        dies mid-operation with no teardown (the PR 5 crash model),
        and the node's hardware state is handed over as residue for
        the next incarnation.  The scheduler object is dead after
        this — queued sessions are *not* drained; the WAL knows about
        them."""
        orphans = []
        for sess in list(self.active):
            sess.driver.terminate()
            orphans.append(sess.driver)
        return NodeResidue(self.machine, self.procs, self.locks,
                           orphans)

    def recover(self) -> list[RecoveryReport]:
        """Fence the residue's orphaned drivers: respawn each dead
        process and replay its write-ahead journal backwards to
        bit-identical pristine MSR state (reclaiming its stale socket
        locks).  Must run before any new grant — requeued sessions'
        bit-identity depends on starting from clean registers."""
        reports = []
        for driver in self._orphans:
            driver.respawn()
            reports.append(RecoveryEngine(driver).recover())
        self._orphans.clear()
        return reports

    def adopt_terminal(self, doc: dict) -> ServerSession:
        """Re-register a pre-crash terminal session from its WAL
        document, counted in the accounting but *not* re-announced
        through ``on_terminal`` (its terminal record is already in
        the log)."""
        sid = int(doc["session"])
        state = SessionState(doc["state"])
        sess = ServerSession(sid, request_from_dict(doc))
        sess.state = state
        sess.reason = doc.get("reason", "")
        sess.windows_run = int(doc.get("windows_run", 0))
        sess.restored_doc = doc
        self.sessions[sid] = sess
        self.submitted += 1
        self.counts[state] += 1
        self._next_id = max(self._next_id, sid)
        return sess

    def adopt_fenced(self, reqdoc: dict, session_id: int,
                     *, reason: str) -> ServerSession:
        """Terminate a session that was *running* when the server
        died: its registers were recovered by :meth:`recover`, but
        the measurement itself is unaccountable, so it ends PREEMPTED
        (never silently re-run).  Goes through ``_finish`` so the new
        incarnation's WAL and handles both see the terminal."""
        self._next_id = max(self._next_id, session_id)
        sess = ServerSession(session_id, request_from_dict(reqdoc),
                             submit_clock=self.clock)
        sess._now = self.clock
        self.sessions[session_id] = sess
        self.submitted += 1
        self._finish(sess, SessionState.PREEMPTED, reason=reason)
        return sess

    # -- admission -------------------------------------------------------------

    def _sockets_of(self, cpus: tuple[int, ...]) -> tuple[int, ...]:
        spec = self.machine.spec
        return tuple(sorted({spec.socket_of(cpu) for cpu in cpus}))

    def _validate(self, req: SessionRequest) -> str | None:
        if not req.cpus:
            return "empty cpu set"
        if len(set(req.cpus)) != len(req.cpus):
            return f"duplicate cpus in {req.cpus}"
        if max(req.cpus) >= self.machine.num_hwthreads or min(req.cpus) < 0:
            return (f"cpu set {req.cpus} outside 0-"
                    f"{self.machine.num_hwthreads - 1} on {self.arch}")
        if req.group not in self._provided:
            return (f"group {req.group!r} not provided by {self.arch} "
                    f"(available: {', '.join(sorted(self._provided))})")
        if req.windows < 1:
            return "need at least one measurement window"
        if req.window <= 0:
            return "window duration must be positive"
        return None

    def submit(self, req: SessionRequest, *,
               session_id: int | None = None) -> ServerSession:
        """Admit a submission: reject, grant immediately, or queue.

        ``session_id`` re-admits a pre-crash submission under its
        original id (crash recovery's requeue path), so the handle a
        client obtained before the restart still names the session;
        fresh ids always allocate past every adopted one."""
        if session_id is None:
            self._next_id += 1
            session_id = self._next_id
        else:
            if session_id in self.sessions:
                raise ServerError(
                    f"session {session_id} already exists on "
                    f"{self.name}", code="bad-request")
            self._next_id = max(self._next_id, session_id)
        sess = ServerSession(session_id, req, submit_clock=self.clock)
        sess._now = self.clock
        self.sessions[sess.id] = sess
        self.submitted += 1
        problem = self._validate(req)
        if problem is None and len(self.queue) >= self.max_queue:
            problem = f"queue full ({self.max_queue} waiting)"
        if problem is not None:
            self._finish(sess, SessionState.REJECTED, reason=problem)
            return sess
        sess.sockets = self._sockets_of(req.cpus)
        sess.waiter = self.queue.enqueue(
            sess.sockets, tenant=req.tenant, now=self.clock,
            deadline=req.deadline, payload=sess)
        if _trace.TRACER.enabled:
            _trace.incr("server.sessions.submitted")
        self._pump()
        return sess

    def cancel(self, session_id: int) -> bool:
        """Client cancellation: a queued session leaves the queue; a
        running one is torn down through the preemption path (journal
        replay to pristine).  Terminal sessions are left alone."""
        sess = self.sessions.get(session_id)
        if sess is None:
            raise ServerError(f"unknown session {session_id}",
                              code="unknown-session")
        if sess.state is SessionState.QUEUED:
            self.queue.cancel(sess.waiter)
            self._finish(sess, SessionState.CANCELLED,
                         reason="cancelled while queued")
            return True
        if sess.state is SessionState.RUNNING:
            self._evict(sess, SessionState.CANCELLED,
                        reason="cancelled while running")
            return True
        return False

    # -- the scheduler loop ----------------------------------------------------

    @property
    def pending(self) -> int:
        """Sessions not yet in a terminal state."""
        return len(self.queue) + len(self.active)

    def step(self) -> bool:
        """One scheduling quantum; returns True if anything happened.

        Order matters and is part of the contract: expire overdue
        waiters first (a deadline that passed while the clock advanced
        must fire before new grants), then grant every runnable
        waiter, then run one window of one active session
        (round-robin)."""
        progressed = self._expire()
        progressed = self._pump() or progressed
        progressed = self._run_quantum() or progressed
        return progressed

    def run_to_idle(self) -> None:
        """Drive the node until no queued or active session remains
        (the synchronous harness entry point; the asyncio layer calls
        ``step`` itself to interleave nodes)."""
        while self.step():
            pass
        if self.pending:
            raise ServerError(
                f"{self.name}: scheduler wedged with {self.pending} "
                f"session(s) pending")

    def _expire(self) -> bool:
        expired = self.queue.expire(self.clock)
        for waiter in expired:
            sess = waiter.payload
            self._finish(sess, SessionState.TIMED_OUT,
                         reason=f"deadline {waiter.deadline}s expired "
                                f"after {self.clock - waiter.enqueued_at:.3g}s"
                                f" queued")
        return bool(expired)

    def _pump(self) -> bool:
        granted = False
        while True:
            waiter = self.queue.grant_next(set(self.busy), self.clock)
            if waiter is None:
                return granted
            self._grant(waiter.payload)
            granted = True

    def _run_quantum(self) -> bool:
        if not self.active:
            return False
        self._rr %= len(self.active)
        sess = self.active[self._rr]
        if sess.held >= self.lease_limit \
                and sess.windows_run < sess.request.windows:
            self._evict(sess, SessionState.PREEMPTED,
                        reason=f"lease limit {self.lease_limit}s exceeded "
                               f"after {sess.windows_run} window(s)")
            return True
        self._run_window(sess)
        if sess.windows_run >= sess.request.windows:
            self._complete(sess)
        else:
            self._rr += 1
        return True

    # -- grant / run / finish --------------------------------------------------

    def _grant(self, sess: ServerSession) -> None:
        req = sess.request
        plan = FaultPlan.from_string(self.faults_spec) \
            if self.faults_spec else None
        backend = open_backend(self.access_mode, self.machine,
                               faults=plan, procs=self.procs,
                               locks=self.locks)
        driver = backend.driver
        epoch = driver.begin_epoch()
        sess.backend = backend
        sess.driver = driver
        sess.epoch = epoch
        lease = SessionLease(epoch=epoch)
        perfctr = LikwidPerfCtr(self.machine, backend=backend,
                                retry_policy=SOAK_RETRIES)
        try:
            psession = perfctr.session(list(req.cpus), req.group,
                                       lease=lease)
            psession.start()
        except ReproError as exc:
            driver.end_epoch(epoch)
            self._finish(sess, SessionState.FAILED,
                         reason=f"session start failed: {exc}")
            return
        sess.psession = psession
        sess.workload = SyntheticLoad(self.machine, list(req.cpus),
                                      seed=req.seed,
                                      sockets=sess.sockets)
        sess.state = SessionState.RUNNING
        sess.grant_clock = self.clock
        sess._now = self.clock
        for socket in sess.sockets:
            self.busy[socket] = sess
        self.active.append(sess)
        self.queue_wait_hist.observe(sess.queue_wait)
        if _trace.TRACER.enabled:
            _trace.incr("server.sessions.granted")
            _trace.observe("server.queue_wait.s", sess.queue_wait)
        if self.on_grant is not None:
            # The grant is durable before any window runs: _grant is
            # synchronous, so the WAL record and the lease commit
            # atomically with respect to the simulated server crash.
            self.on_grant(sess)

    def _run_window(self, sess: ServerSession) -> None:
        req = sess.request
        with _trace.span("server.window", node=self.name,
                         session=sess.id, group=req.group):
            duration = sess.workload(sess.windows_run, req.group,
                                     req.window)
        sess.windows_run += 1
        sess.run_time += duration
        self.clock += duration
        self._touch_clocks()

    def _touch_clocks(self) -> None:
        for other in self.active:
            other._now = self.clock

    def _complete(self, sess: ServerSession) -> None:
        psession = sess.psession
        driver = sess.driver
        try:
            psession.stop()
            # wall_time is this session's *own* accumulated window
            # time, not clock-since-grant: the node clock also
            # advances for interleaved sessions on other sockets, and
            # rate metrics must stay bit-identical to a standalone run.
            result = psession.read(wall_time=sess.run_time)
            psession.close()
        except ReproError as exc:
            self._evict(sess, SessionState.FAILED,
                        reason=f"readout failed: {exc}")
            return
        driver.end_epoch(sess.epoch)
        sess.result = result
        self._release(sess)
        self._finish(sess, SessionState.COMPLETED)

    def _evict(self, sess: ServerSession, state: SessionState, *,
               reason: str) -> None:
        """Forcibly end a RUNNING session through the crash-safety
        machinery: SIGKILL its simulated process (no teardown runs),
        then respawn-and-recover — the write-ahead journal is replayed
        backwards to bit-identical pristine MSR state and the stale
        socket locks are reclaimed — before the sockets go back into
        the free pool."""
        driver = sess.driver
        with _trace.span("server.preempt", node=self.name,
                         session=sess.id):
            driver.terminate()
            try:
                sess.psession.close()    # absorbs: the process is dead
            except Exception:
                pass
            driver.respawn()
            RecoveryEngine(driver).recover()
            driver.end_epoch(sess.epoch)
        self._release(sess)
        self._finish(sess, state, reason=reason)

    def _release(self, sess: ServerSession) -> None:
        for socket in sess.sockets:
            if self.busy.get(socket) is sess:
                del self.busy[socket]
        if sess in self.active:
            self.active.remove(sess)
        self.queue.charge(sess.tenant, sess.held)

    def _finish(self, sess: ServerSession, state: SessionState, *,
                reason: str = "") -> None:
        sess.state = state
        sess.reason = reason
        sess.end_clock = self.clock
        sess._now = self.clock
        self.counts[state] += 1
        if _trace.TRACER.enabled:
            _trace.incr(f"server.sessions.{state.name.lower()}")
        if self.on_terminal is not None:
            self.on_terminal(sess)

    # -- introspection ---------------------------------------------------------

    def accounting(self) -> dict:
        """Terminal-state accounting (the --verify surface)."""
        return {
            "submitted": self.submitted,
            "completed": self.counts[SessionState.COMPLETED],
            "timed_out": self.counts[SessionState.TIMED_OUT],
            "rejected": self.counts[SessionState.REJECTED],
            "preempted": self.counts[SessionState.PREEMPTED],
            "cancelled": self.counts[SessionState.CANCELLED],
            "failed": self.counts[SessionState.FAILED],
            "pending": self.pending,
        }

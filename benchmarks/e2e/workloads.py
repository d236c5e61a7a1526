"""The five end-to-end workloads.

Each workload turns a seed into inputs (``inputs``) and runs one
*round* over them (``run``): it builds a fresh stack, times every op
on a closed loop, tears the stack down and checks the outputs.  A run
is a warm-up round followed by timed rounds until the time budget is
spent.  Fresh stacks per round keep memory independent of run length,
so peak RSS does not grow with throughput; the first round's inputs
are fixed by the seed, so the ledger's per-op counts repeat exactly.

=================  ===================================================
serve-closed       client ``submit(wait=True)`` to a terminal reply:
                   one westmere_ep node, 2 TCP connections contending
                   for its sockets, no WAL
serve-durable      the same submits on one connection beside ``ingest``
                   batches on a second, file-backed WAL (fsync per
                   record)
wrap-jacobi        one likwid-perfctr wrap of a Table II Jacobi variant
                   with explicit uncore events (no group catalog)
agent-rotate       one monitor-agent window over 16 cpus, rotating five
                   groups into a back-pressured aggregator lane
substrate-triad    the exact cache substrate: triad then triad_nt
                   traffic at 4x the last-level cache
=================  ===================================================
"""

from __future__ import annotations

import asyncio
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.agent.aggregate import Aggregator, AggregatorSink
from repro.agent.fleet import NodeSpec
from repro.agent.scheduler import AgentConfig, MonitorAgent
from repro.agent.sinks import CollectorSink
from repro.core.bench import measure_kernel_traffic
from repro.core.perfctr import LikwidPerfCtr
from repro.errors import ReproError
from repro.hw.arch import create_machine
from repro.oskern.access import open_backend
from repro.oskern.scheduler import OSKernel
from repro.server.client import ServerClient
from repro.server.ingest import batch_to_dict
from repro.server.loadtest import (LOADTEST_RETRIES, LoadTestConfig,
                                   LoadTestReport, generate_requests)
from repro.server.protocol import ProtocolServer
from repro.server.server import ReproServer
from repro.server.wal import ServerWal
from repro.workloads.jacobi import JacobiConfig, run_jacobi

_ns = time.perf_counter_ns


def round_seed(seed: int, index: int) -> int:
    """Seed of round *index* (-1 is the warm-up round)."""
    return seed * 1_000_003 + index + 1


@dataclass
class Round:
    """What one round measured and checked."""

    ops: int = 0                     # timed primary ops
    latencies: list = field(default_factory=list)         # ns per op
    ingest_latencies: list = field(default_factory=list)  # ns per ingest
    window: tuple = (0, 0)           # timed (start, end) perf_counter_ns
    counters: dict = field(default_factory=dict)  # deltas over window
    failed: int = 0
    errors: list = field(default_factory=list)    # failed checks
    facts: dict = field(default_factory=dict)     # exact ledger facts

    @property
    def attempted(self) -> int:
        return self.ops + len(self.ingest_latencies)


@contextmanager
def _timed(rnd: Round, edge):
    """The timed window: counters snapshotted at both edges (``edge``
    is the ledger's counter reader, None when not tracing)."""
    before = edge() if edge else {}
    start = _ns()
    yield
    end = _ns()
    after = edge() if edge else {}
    rnd.window = (start, end)
    rnd.counters = {k: v - before.get(k, 0) for k, v in after.items()}


def _closed_loop(rnd: Round, ops, call) -> None:
    for op in ops:
        t = _ns()
        try:
            call(op)
        except ReproError:
            rnd.failed += 1
        rnd.latencies.append(_ns() - t)


class Workload:
    """One workload: ``round_ops`` timed ops per round after a warm-up
    round of ``warmup_ops`` (both overridable, for smoke tests)."""

    name = ""
    round_ops = warmup_ops = 1

    def __init__(self, seed: int, tmpdir: str | None = None, *,
                 round_ops: int | None = None,
                 warmup_ops: int | None = None):
        self.seed = seed
        self.tmpdir = tmpdir
        self.round_ops = round_ops or self.round_ops
        self.warmup_ops = warmup_ops or self.warmup_ops


# ---------------------------------------------------------------------------
# serve-closed / serve-durable
# ---------------------------------------------------------------------------

SERVE_ARCH = "westmere_ep"
REPLAYS_PER_ROUND = 5       # standalone bit-identity replays, untimed


class Serve(Workload):
    """Sessions from ``generate_requests`` (FLOPS_DP/MEM/BRANCH, 4%
    long enough to be preempted, 10% tight deadline, ~10% spanning
    both sockets) against a one-node server, client-timed."""

    name = "serve-closed"
    round_ops = 1500
    warmup_ops = 500

    def inputs(self, index: int, ops: int):
        config = LoadTestConfig(sessions=ops, clients=2, nodes=1,
                                tenants=4, seed=round_seed(self.seed, index),
                                arch=SERVE_ARCH, long_fraction=0.04,
                                deadline_fraction=0.1)
        return config, generate_requests(config)

    def run(self, inputs, edge=None) -> Round:
        return asyncio.run(self._run(*inputs, edge))

    async def _start(self, wal):
        server = ReproServer.from_specs(
            [NodeSpec("node000", arch=SERVE_ARCH, seed=self.seed)],
            lease_limit=1.0, max_queue=1024, wal=wal)
        proto = ProtocolServer(server)
        host, port = await proto.start()
        clients = [ServerClient(host, port, client_id=f"e2e-{i}",
                                retry=LOADTEST_RETRIES) for i in range(2)]
        for client in clients:
            await client.connect()
        return proto, clients

    async def _sessions(self, rnd, client, work, docs) -> None:
        while work:
            request = work.pop()
            t = _ns()
            try:
                doc = await client.submit(request, wait=True)
            except (ReproError, OSError):
                rnd.failed += 1
            else:
                docs.append(doc)
                result = doc.get("result") or {}
                if doc["state"] in ("failed", "rejected") \
                        or result.get("warnings"):
                    rnd.failed += 1
            rnd.latencies.append(_ns() - t)

    async def _run(self, config, requests, edge) -> Round:
        rnd = Round(ops=len(requests))
        proto, clients = await self._start(None)
        try:
            work = list(reversed(requests))
            docs: list[dict] = []
            with _timed(rnd, edge):
                await asyncio.gather(*(self._sessions(rnd, c, work, docs)
                                       for c in clients))
            status = proto.server.status()
        finally:
            for client in clients:
                await client.close()
            await proto.close()
        self._check(rnd, config, requests, docs, status)
        return rnd

    def _check(self, rnd, config, requests, docs, status) -> None:
        report = LoadTestReport(config=config, submitted=len(requests),
                                counts=status["total"], sessions=docs,
                                archs={"node000": SERVE_ARCH})
        rnd.errors += report.verify(sample=REPLAYS_PER_ROUND)
        counts = status["total"]
        windows = sum(d["windows_run"] for d in docs)
        useful = sum(d["windows_run"] for d in docs
                     if d["state"] == "completed")
        rnd.facts.update(
            useful_window_ratio=useful / windows if windows else 0.0,
            timed_out_ratio=counts["timed_out"] / len(requests),
            preempted_ratio=counts["preempted"] / len(requests),
            queue_wait_p99_vs=status["queue_wait"]["p99"])


class ServeDurable(Serve):
    """Sessions on connection 1 beside ``ingest`` batches on connection
    2 (one batch per two sessions, ~98 samples each, pre-generated from
    a seeded monitor agent), with a file-backed WAL."""

    name = "serve-durable"
    round_ops = 600
    warmup_ops = 300
    _pool: list[dict] | None = None    # ingest batches, built once

    def inputs(self, index: int, ops: int):
        if self._pool is None:
            machine = create_machine(SERVE_ARCH)
            sink = CollectorSink()
            cfg = AgentConfig(groups=("FLOPS_DP", "MEM", "BRANCH"),
                              cpus=tuple(range(machine.num_hwthreads)),
                              seed=self.seed)
            agent = MonitorAgent(machine, open_backend("msr", machine),
                                 cfg, sinks=(sink,))
            for window in range(60):
                agent.dispatch(agent.measure_window(
                    cfg.groups[window % 3], window))
            self._pool = [batch_to_dict(b) for b in sink.batches]
        config, requests = super().inputs(index, ops)
        start = random.Random(round_seed(self.seed, index)).randrange(60)
        batches = [self._pool[(start + i) % len(self._pool)]
                   for i in range((ops + 1) // 2)]
        return config, requests, batches

    def run(self, inputs, edge=None) -> Round:
        return asyncio.run(self._run_durable(*inputs, edge))

    async def _ingest(self, rnd, client, batches, accepted) -> None:
        for seq, batch in enumerate(batches, 1):
            doc = {"op": "ingest", "batch": batch,
                   "client": client.client_id, "seq": seq}
            t = _ns()
            try:
                reply = await client.call(doc)
            except (ReproError, OSError):
                rnd.failed += 1
            else:
                if reply.get("ok"):
                    accepted.append(reply["accepted"])
                else:
                    rnd.failed += 1
            rnd.ingest_latencies.append(_ns() - t)

    async def _run_durable(self, config, requests, batches, edge) -> Round:
        rnd = Round(ops=len(requests))
        path = os.path.join(self.tmpdir, f"serve-{os.getpid()}.wal")
        wal = ServerWal(path)
        proto, (sessions, ingest) = await self._start(wal)
        try:
            work = list(reversed(requests))
            docs: list[dict] = []
            accepted: list[int] = []
            with _timed(rnd, edge):
                await asyncio.gather(
                    self._sessions(rnd, sessions, work, docs),
                    self._ingest(rnd, ingest, batches, accepted))
            status = proto.server.status()
            total_samples = proto.aggregator.total_samples
        finally:
            await sessions.close()
            await ingest.close()
            await proto.close()
        try:
            self._check(rnd, config, requests, docs, status)
            rnd.facts["wal_bytes"] = len(wal.buffer)
            replay = ServerWal(path).replay()
        finally:
            os.unlink(path)
        if replay.fenced or replay.requeue_admitted \
                or replay.requeue_intended \
                or len(replay.terminals) != len(requests):
            rnd.errors.append(
                f"wal replay: {len(replay.terminals)} terminal of "
                f"{len(requests)}, {len(replay.fenced)} fenced, "
                f"{len(replay.requeue_admitted)} + "
                f"{len(replay.requeue_intended)} requeued")
        if sum(accepted) != total_samples:
            rnd.errors.append(f"ingest accepted {sum(accepted)} samples, "
                              f"aggregator holds {total_samples}")
        return rnd


# ---------------------------------------------------------------------------
# wrap-jacobi
# ---------------------------------------------------------------------------

#: Table II of the paper: one Nehalem EP socket, N=480, 18 sweeps.
PAPER_TABLE2 = {
    "threaded": (5.91e8, 5.87e8, 75.39, 784.0),
    "threaded_nt": (3.44e8, 3.43e8, 43.97, 1032.0),
    "wavefront": (1.30e8, 1.29e8, 16.57, 1331.0),
}
TABLE2_EVENTS = "UNC_L3_LINES_IN_ANY:UPMC0,UNC_L3_LINES_OUT_ANY:UPMC1"


def table2_row(variant: str) -> tuple[float, float, float, float]:
    """One ``likwid-perfctr -c 0-3 -g <uncore events>`` invocation
    around one Jacobi run: (lines in, lines out, GB, MLUPS)."""
    machine = create_machine("nehalem_ep")
    kernel = OSKernel(machine, seed=11)
    perfctr = LikwidPerfCtr(machine)
    config = JacobiConfig(variant, 480, 18, 4)
    mlups = []

    def run():
        res = run_jacobi(machine, kernel, config, pin_cpus=[0, 1, 2, 3])
        mlups.append(res.mlups)
        return res.result

    result = perfctr.wrap("0-3", TABLE2_EVENTS, run)
    lines_in = result.total("UNC_L3_LINES_IN_ANY")
    lines_out = result.total("UNC_L3_LINES_OUT_ANY")
    return lines_in, lines_out, (lines_in + lines_out) * 64 / 1e9, mlups[0]


class WrapJacobi(Workload):
    """Table II variants round-robin from a seeded starting variant."""

    name = "wrap-jacobi"
    round_ops = 900
    warmup_ops = 300

    def __init__(self, seed: int, tmpdir: str | None = None, **ops):
        super().__init__(seed, tmpdir, **ops)
        self._first: dict[str, tuple] = {}

    def inputs(self, index: int, ops: int):
        variants = sorted(PAPER_TABLE2)
        start = random.Random(round_seed(self.seed, index)).randrange(3)
        return [variants[(start + i) % 3] for i in range(ops)]

    def run(self, variants, edge=None) -> Round:
        rnd = Round(ops=len(variants))
        rows = []
        with _timed(rnd, edge):
            _closed_loop(rnd, variants,
                         lambda v: rows.append((v, table2_row(v))))
        for variant, row in rows:
            paper = PAPER_TABLE2[variant]
            first = self._first.setdefault(variant, row)
            if row != first:
                rnd.errors.append(f"{variant}: {row} differs from the "
                                  f"first repeat {first}")
            elif any(abs(got - want) > 0.03 * want
                     for got, want in zip(row, paper)):
                rnd.errors.append(f"{variant}: {row} not within 3% of "
                                  f"Table II {paper}")
        return rnd


# ---------------------------------------------------------------------------
# agent-rotate
# ---------------------------------------------------------------------------

AGENT_GROUPS = ("FLOPS_DP", "MEM", "L3", "BRANCH", "DATA")


class AgentRotate(Workload):
    """nehalem_ep cpus 0-15, groups rotating from a seeded offset, into
    an aggregator lane capped at 64 samples per batch (windows carry
    up to ~100, so back-pressure drops are live)."""

    name = "agent-rotate"
    round_ops = 700
    warmup_ops = 200

    def inputs(self, index: int, ops: int):
        start = random.Random(round_seed(self.seed, index)).randrange(5)
        return [(AGENT_GROUPS[(start + i) % 5], i) for i in range(ops)]

    def run(self, windows, edge=None) -> Round:
        rnd = Round(ops=len(windows))
        machine = create_machine("nehalem_ep")
        aggregator = Aggregator()
        config = AgentConfig(groups=AGENT_GROUPS, cpus=tuple(range(16)),
                             seed=self.seed)
        agent = MonitorAgent(machine, open_backend("msr", machine), config,
                             sinks=(AggregatorSink(aggregator,
                                                   max_batch=64),))

        def window(op) -> None:
            group, index = op
            before = len(agent.warnings)
            agent.dispatch(agent.measure_window(group, index))
            if len(agent.warnings) > before:
                rnd.failed += 1

        with _timed(rnd, edge):
            _closed_loop(rnd, windows, window)
        lane = agent.lanes[0].accounting
        if lane.offered != lane.emitted + lane.dropped:
            rnd.errors.append(f"lane offered {lane.offered} != emitted "
                              f"{lane.emitted} + dropped {lane.dropped}")
        if aggregator.total_samples != lane.emitted:
            rnd.errors.append(f"aggregator holds {aggregator.total_samples}"
                              f" samples, lane emitted {lane.emitted}")
        rnd.facts["dropped_ratio"] = lane.dropped / lane.offered \
            if lane.offered else 0.0
        return rnd


# ---------------------------------------------------------------------------
# substrate-triad
# ---------------------------------------------------------------------------

TRIAD_N = 131072            # 1 MiB arrays: 4x the 256 KiB L2 (the LLC)
TRIAD_BYTES = {"triad": (24.0, 8.0), "triad_nt": (16.0, 8.0)}


class SubstrateTriad(Workload):
    """One op is a triad and a triad_nt traffic measurement on the
    batched engine (a pair keeps the latency distribution unimodal);
    the seed picks which goes first."""

    name = "substrate-triad"
    round_ops = 4
    warmup_ops = 2

    def inputs(self, index: int, ops: int):
        pair = ("triad", "triad_nt") if round_seed(self.seed, index) % 2 \
            else ("triad_nt", "triad")
        return [pair] * ops

    def run(self, pairs, edge=None) -> Round:
        rnd = Round(ops=len(pairs))
        got = []

        def measure(pair) -> None:
            for kernel in pair:
                got.append((kernel, measure_kernel_traffic(
                    kernel, engine="batched", n=TRIAD_N)))

        with _timed(rnd, edge):
            _closed_loop(rnd, pairs, measure)
        for kernel, traffic in got:
            if traffic != TRIAD_BYTES[kernel]:
                rnd.errors.append(f"{kernel}: {traffic} bytes per element, "
                                  f"expected {TRIAD_BYTES[kernel]}")
        return rnd


WORKLOADS = {w.name: w for w in (Serve, ServeDurable, WrapJacobi,
                                 AgentRotate, SubstrateTriad)}

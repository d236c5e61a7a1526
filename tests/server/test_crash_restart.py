"""Server SIGKILL + WAL recovery, full stack.

The crash model matches PR 5's process kills: ``abort()`` tears the
listener and every handler task down mid-flight and crashes the node
schedulers, leaving hardware residue (machines, procs, locks, orphan
drivers).  ``recover_protocol`` must rebuild a serving stack on that
residue: pristine MSR state before anything runs, terminals adopted
bit-for-bit, running sessions fenced (never silently re-run), queued
sessions requeued under their original ids, and the idempotency
window restored so pre-crash retries still deduplicate.
"""

import asyncio

import pytest

from repro.agent.fleet import NodeSpec
from repro.retry import RetryPolicy
from repro.server.client import ServerClient
from repro.server.protocol import ProtocolServer, recover_protocol
from repro.server.scheduler import SessionRequest
from repro.server.server import ReproServer
from repro.server.wal import K_GRANT, ServerWal
from repro.server.workload import (result_from_dict, results_identical,
                                   run_standalone)

RETRIES = RetryPolicy(max_attempts=12, backoff_base=0.001,
                      backoff_cap=0.2)


def _specs():
    return [NodeSpec(name="node000", arch="westmere_ep", seed=0)]


def _request(seed=0, windows=1, cpus=(0,)):
    return SessionRequest(node="node000", cpus=cpus, group="FLOPS_DP",
                          windows=windows, window=0.05, seed=seed)


async def _boot(wal, *, lease_limit=100.0):
    server = ReproServer.from_specs(_specs(), lease_limit=lease_limit,
                                    wal=wal)
    proto = ProtocolServer(server)
    host, port = await proto.start()
    return proto, host, port


async def _granted(wal):
    """Yield until the WAL shows a lease grant — the session is now
    running (and, with hundreds of windows ahead of it, will still be
    running when the very next thing we do is pull the plug)."""
    while not any(r.kind == K_GRANT for r in wal.scan().records):
        await asyncio.sleep(0)


async def _crash_and_recover(proto, wal, host, port, *,
                             lease_limit=100.0):
    residues = await proto.abort()
    new_proto = await recover_protocol(_specs(), wal,
                                       residues=residues,
                                       lease_limit=lease_limit)
    await new_proto.start(host, port)
    return new_proto, residues


class TestCrashRestart:
    def test_completed_sessions_are_adopted_verbatim(self):
        async def body():
            wal = ServerWal()
            proto, host, port = await _boot(wal)
            client = ServerClient(host, port, retry=RETRIES)
            before = await client.submit(_request(seed=3))
            assert before["state"] == "completed"

            proto, _ = await _crash_and_recover(proto, wal, host, port)
            try:
                after = await client.wait(before["node"],
                                          before["session"])
                assert after == before
            finally:
                await client.close()
                await proto.close()
        asyncio.run(body())

    def test_running_session_is_fenced_not_rerun(self):
        async def body():
            wal = ServerWal()
            proto, host, port = await _boot(wal)
            client = ServerClient(host, port, retry=RETRIES)
            # Long enough that it is still running when we pull the
            # plug (lease limit is high: no preemption racing us).
            sub = await client.submit(_request(seed=1, windows=512),
                                      wait=False)
            sid = sub["session"]
            await _granted(wal)

            proto, residues = await _crash_and_recover(
                proto, wal, host, port)
            try:
                # The kill left a real orphaned driver behind.
                assert residues["node000"].orphans
                doc = await client.wait("node000", sid)
                assert doc["state"] == "preempted"
                assert "fenced by recovery" in doc["reason"]
                total = (await client.status())["total"]
                assert total["submitted"] == 1
            finally:
                await client.close()
                await proto.close()
        asyncio.run(body())

    def test_queued_sessions_requeue_under_original_ids(self):
        async def body():
            wal = ServerWal()
            proto, host, port = await _boot(wal)
            client = ServerClient(host, port, retry=RETRIES)
            # One long runner holds cpu 0's socket; two more queue
            # behind it on the same cpus.
            runner = await client.submit(_request(seed=1, windows=512),
                                         wait=False)
            queued = [await client.submit(_request(seed=2 + i),
                                          wait=False)
                      for i in range(2)]
            await _granted(wal)

            proto, _ = await _crash_and_recover(proto, wal, host, port)
            try:
                fenced = await client.wait("node000",
                                           runner["session"])
                assert fenced["state"] == "preempted"
                for sub in queued:
                    doc = await client.wait("node000", sub["session"])
                    assert doc["session"] == sub["session"]
                    assert doc["state"] == "completed"
                total = (await client.status())["total"]
                assert total["submitted"] == 3
                assert total["completed"] == 2
                assert total["preempted"] == 1
            finally:
                await client.close()
                await proto.close()
        asyncio.run(body())

    def test_recovered_node_is_pristine_for_new_work(self):
        """The fence must restore MSR state before anything executes:
        a fresh session after recovery is bit-identical to running
        the same request on a never-crashed machine."""
        async def body():
            wal = ServerWal()
            proto, host, port = await _boot(wal)
            client = ServerClient(host, port, retry=RETRIES)
            await client.submit(_request(seed=1, windows=512),
                                wait=False)
            await _granted(wal)

            proto, _ = await _crash_and_recover(proto, wal, host, port)
            try:
                doc = await client.submit(_request(seed=42))
                assert doc["state"] == "completed"
                alone = run_standalone(_request(seed=42),
                                       "westmere_ep")
                assert results_identical(
                    result_from_dict(doc["result"]), alone)
            finally:
                await client.close()
                await proto.close()
        asyncio.run(body())

    def test_retried_submit_across_restart_deduplicates(self):
        """A client whose submit reply was lost in the crash retries
        after the restart; the restored dedup window must land the
        retry on the pre-crash session instead of executing twice."""
        async def body():
            wal = ServerWal()
            proto, host, port = await _boot(wal)
            client = ServerClient(host, port, client_id="ret",
                                  retry=RETRIES)
            doc = {"op": "submit", "wait": False, "client": "ret",
                   "seq": 1, "node": "node000", "cpus": [0],
                   "group": "FLOPS_DP", "windows": 1, "window": 0.05,
                   "seed": 7}
            first = await client.call(dict(doc))
            assert first["ok"]

            proto, _ = await _crash_and_recover(proto, wal, host, port)
            try:
                retry = await client.call(dict(doc))
                assert retry["ok"]
                assert retry["deduplicated"] is True
                assert retry["session"] == first["session"]
                terminal = await client.wait("node000",
                                             first["session"])
                assert terminal["state"] in ("completed", "preempted")
                total = (await client.status())["total"]
                assert total["submitted"] == 1
            finally:
                await client.close()
                await proto.close()
        asyncio.run(body())

    def test_ingest_dedup_survives_restart(self):
        async def body():
            wal = ServerWal()
            proto, host, port = await _boot(wal)
            batch = {"node": "n0", "group": "MEM", "window": 0,
                     "time": 0.05, "duration": 0.05, "seq": 0,
                     "samples": [{"scope": "cpu", "id": 0,
                                  "metric": "CPI", "value": 1.0,
                                  "seq": 0}]}
            client = ServerClient(host, port, client_id="agent",
                                  retry=RETRIES)
            doc = {"op": "ingest", "batch": batch, "client": "agent",
                   "seq": 1}
            first = await client.call(dict(doc))
            assert first["accepted"] == 1

            proto, _ = await _crash_and_recover(proto, wal, host, port)
            try:
                replayed = await client.call(dict(doc))
                assert replayed["ok"]
                assert replayed["accepted"] == 1
                # The replay is served from the restored dedup window
                # without touching the (fresh, empty) aggregator: the
                # rollup died with the crash, but the batch is not
                # counted a second time.
                assert proto.ingested == 1
                assert proto.aggregator.total_samples == 0
            finally:
                await client.close()
                await proto.close()
        asyncio.run(body())

    def test_double_crash_double_recovery(self):
        """Recovery output is itself WAL-journaled: a second crash on
        the recovered incarnation classifies exactly."""
        async def body():
            wal = ServerWal()
            proto, host, port = await _boot(wal)
            client = ServerClient(host, port, retry=RETRIES)
            first = await client.submit(_request(seed=5))
            proto, _ = await _crash_and_recover(proto, wal, host, port)
            second = await client.submit(_request(seed=6))
            proto, _ = await _crash_and_recover(proto, wal, host, port)
            try:
                for doc in (first, second):
                    again = await client.wait("node000",
                                              doc["session"])
                    assert again["result"] == doc["result"]
                total = (await client.status())["total"]
                assert total["submitted"] == 2
                assert total["completed"] == 2
            finally:
                await client.close()
                await proto.close()
        asyncio.run(body())

"""Per-layer cost ledger: instrument the program from outside, fold the
trace into self-time shares and exact per-op counts.

Nothing under ``src/`` is edited.  For the body of
:meth:`Probes.tracing`, each layer's public entry points are replaced
by wrappers in every module that bound them (``from x import f``
copies the reference); the originals are put back on exit.  Three
kinds of wrapper:

* **spans** — a :mod:`repro.trace` span around a synchronous call.
  Only synchronous functions are wrapped: the tracer's span stack is
  thread-local, so a span held across an ``await`` would mis-parent.
* **leaves** — device-level calls made hundreds of times per op (one
  agent window issues ~300 MSR operations).  A span record each would
  cost more than the call, so these record a bare (start, duration)
  pair; only the outermost leaf on the stack is timed, and the fold
  subtracts each leaf from the innermost span that encloses it.
* **counts** — call counters with no timing (parser calls).

The global tracer stays on during a traced round, so the program's own
spans (``perfctr.*``, ``server.window``, ``batch.replay_fast`` ...) and
counters (``server.wal.records``, ``journal.records`` ...) fold in
alongside.  A span's self time is its duration minus its child spans
and the leaves it encloses; a layer's share is the sum of its self
times over the timed wall time, and ``unattributed.share`` closes the
sum to 1.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager

from repro import trace
from repro.trace import export
from stats import percentile

# (module, attribute path, span name).  The span name's first dotted
# component is its layer.
SPANS = (
    ("repro.server.scheduler", "request_to_dict", "protocol.request_to_dict"),
    ("repro.server.scheduler", "request_from_dict",
     "protocol.request_from_dict"),
    ("repro.server.scheduler", "ServerSession.as_dict",
     "protocol.session_as_dict"),
    ("repro.server.ingest", "batch_to_dict", "protocol.batch_to_dict"),
    ("repro.server.ingest", "batch_from_dict", "protocol.batch_from_dict"),
    ("repro.server.wal", "ServerWal.record_intent", "wal.record_intent"),
    ("repro.server.wal", "ServerWal.record_admit", "wal.record_admit"),
    ("repro.server.wal", "ServerWal.record_grant", "wal.record_grant"),
    ("repro.server.wal", "ServerWal.record_terminal", "wal.record_terminal"),
    ("repro.server.wal", "ServerWal.record_ingest", "wal.record_ingest"),
    ("repro.server.scheduler", "NodeScheduler.submit", "sched.submit"),
    ("repro.server.scheduler", "NodeScheduler.step", "sched.step"),
    ("repro.core.perfctr.measurement", "LikwidPerfCtr.session",
     "perfctr.session"),
    ("repro.core.perfctr.measurement", "PerfCtrSession.close",
     "perfctr.close"),
    ("repro.core.perfctr.measurement", "derive_metrics",
     "formula.derive_metrics"),
    ("repro.core.perfctr.groups", "groups_for", "catalog.groups_for"),
    ("repro.core.perfctr.groups", "lookup_group", "catalog.lookup_group"),
    ("repro.hw.arch", "create_machine", "machine.create"),
    ("repro.oskern.access", "open_backend", "msr.open_backend"),
    ("repro.oskern.msr_driver", "MsrDriver.__init__", "msr.driver_init"),
    ("repro.oskern.scheduler", "OSKernel.__init__", "oskern.kernel_init"),
    ("repro.model.ecm", "solve", "ecm.solve"),
    ("repro.core.bench", "measure_kernel_traffic",
     "batch.measure_kernel_traffic"),
    ("repro.agent.batch", "normalize_result", "agent.normalize"),
    ("repro.agent.sinks", "SinkLane.push", "agent.push"),
    ("repro.agent.aggregate", "Aggregator.ingest", "agent.ingest"),
    ("repro.agent.scheduler", "SyntheticLoad.__call__",
     "workload.synthetic_load"),
)

#: (module, attribute path, leaf kind); kind -> layer in LEAF_LAYER.
LEAVES = (
    ("repro.oskern.msr_driver", "MsrFile.pread", "msr.read"),
    ("repro.oskern.msr_driver", "MsrFile.pwrite", "msr.write"),
    ("repro.oskern.msr_driver", "MsrFile.journaled_write", "msr.write"),
    ("repro.hw.machine", "SimMachine.apply_counts", "pmu.apply"),
    ("repro.hw.pmu", "CorePMU.apply", "pmu.apply"),
    ("repro.hw.pmu", "UncorePMU.apply", "pmu.apply"),
)
LEAF_KINDS = ("msr.read", "msr.write", "pmu.apply")

#: (module, attribute path, counter name)
COUNTS = (
    ("repro.core.perfctr.groupfile", "parse_group_file",
     "catalog.parse_calls"),
    ("repro.core.perfctr.formula", "parse", "formula.parse_calls"),
)

#: Program counters read at the edges of every timed window.
PROGRAM_COUNTERS = ("server.wal.records", "server.dedup_hits",
                    "msr.pread", "msr.pwrite", "journal.records",
                    "msr.io.retries", "batch.replay.accesses",
                    "batch.cache.hits", "batch.cache.misses")

#: Layers reported as ``<layer>.share``.  Span names map to a layer by
#: their first dotted component, through LAYER_OF for the program's own
#: span names.
LAYERS = ("protocol", "wal", "sched", "perfctr", "catalog", "formula",
          "machine", "pmu", "msr", "oskern", "batch", "ecm", "agent",
          "workload")
LAYER_OF = {"server": "sched", "multiplex": "perfctr", "recover": "msr",
            "runner": "workload"}
SPAN_LAYER_OVERRIDE = {"perfctr.workload": "workload"}

#: (metric, unit) of every per-layer metric, in report order.
METRICS = (
    ("protocol.codec_us_per_op", "us"), ("protocol.share", "ratio"),
    ("protocol.dedup_hits", "count"),
    ("wal.records_per_op", "count"), ("wal.bytes_per_op", "B"),
    ("wal.append_us_p50", "us"), ("wal.append_us_p99", "us"),
    ("wal.share", "ratio"),
    ("sched.submit_us_p50", "us"), ("sched.step_self_us_p50", "us"),
    ("sched.preempt_us_p50", "us"), ("sched.useful_window_ratio", "ratio"),
    ("sched.timed_out_ratio", "ratio"), ("sched.preempted_ratio", "ratio"),
    ("sched.queue_wait_p99_vs", "s"), ("sched.share", "ratio"),
    ("perfctr.session_us_p50", "us"), ("perfctr.start_us_p50", "us"),
    ("perfctr.read_us_p50", "us"), ("perfctr.share", "ratio"),
    ("catalog.groups_for_per_op", "count"),
    ("catalog.parse_calls_per_op", "count"), ("catalog.share", "ratio"),
    ("formula.parse_calls_per_op", "count"), ("formula.share", "ratio"),
    ("machine.create_ms_p50", "ms"), ("machine.share", "ratio"),
    ("pmu.apply_us_p50", "us"), ("pmu.share", "ratio"),
    ("msr.ops_per_op", "count"), ("msr.journal_records_per_op", "count"),
    ("msr.read_us_mean", "us"), ("msr.write_us_mean", "us"),
    ("msr.retries", "count"), ("msr.share", "ratio"),
    ("oskern.share", "ratio"),
    ("batch.accesses_per_s", "1/s"), ("batch.share", "ratio"),
    ("trace_cache.hit_ratio", "ratio"),
    ("ecm.solve_us_p50", "us"), ("ecm.share", "ratio"),
    ("agent.normalize_us_p50", "us"), ("agent.push_us_p50", "us"),
    ("agent.dropped_ratio", "ratio"), ("agent.share", "ratio"),
    ("workload.share", "ratio"), ("unattributed.share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

#: Span names whose durations feed a percentile metric.
_TIMED = {"perfctr.session", "perfctr.start", "perfctr.read",
          "sched.submit", "server.preempt", "machine.create", "ecm.solve",
          "agent.normalize", "agent.push"}


def layer_of(span_name: str) -> str | None:
    if span_name in SPAN_LAYER_OVERRIDE:
        return SPAN_LAYER_OVERRIDE[span_name]
    head = span_name.split(".", 1)[0]
    head = LAYER_OF.get(head, head)
    return head if head in LAYERS else None


class Probes:
    """The installed wrappers and what they recorded."""

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.leaf_start = array("q")
        self.leaf_dur = array("q")
        self.leaf_kind = array("B")
        self.missing: list[str] = []
        self._depth = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def _span(self, fn, name):
        span = trace.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _leaf(self, fn, kind):
        index = LEAF_KINDS.index(kind)
        clock = time.perf_counter_ns
        starts, durs, kinds = self.leaf_start, self.leaf_dur, self.leaf_kind

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._depth = 0
                starts.append(t0)
                durs.append(t1 - t0)
                kinds.append(index)
        return wrapper

    def _count(self, fn, name):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        plan = [(m, a, self._span, n) for m, a, n in SPANS]
        plan += [(m, a, self._leaf, k) for m, a, k in LEAVES]
        plan += [(m, a, self._count, n) for m, a, n in COUNTS]
        functions = {}
        for module_name, path, make, label in plan:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                # An entry point a later version renamed or removed:
                # its metrics read 0 instead of failing the run.
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = make(original, label)
            self._set(owner, attr, original, wrapper)
            if not parents:
                functions[id(original)] = (original, wrapper)
        # Rebind module-level copies (``from x import f [as g]``).
        for mod in list(sys.modules.values()):
            names = getattr(mod, "__dict__", None) or {}
            for name, value in list(names.items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, name, value, hit[1])

    def _set(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextmanager
    def tracing(self):
        """Wrappers installed and the global tracer on, for the body
        only; the program is left exactly as it was found."""
        self.install()
        trace.enable()
        try:
            yield self
        finally:
            trace.disable()
            trace.reset()
            self.uninstall()

    # -- per-round bookkeeping -------------------------------------------

    def counters(self) -> dict[str, int]:
        registry = trace.metrics()
        out = {name: registry.value(name) for name in PROGRAM_COUNTERS}
        out.update(self.counts)
        return out

    def reset(self) -> None:
        """Start a round from a clean slate.  Call before the round
        builds its objects: the msr journal caches its counter object
        at construction, and a reset orphans it."""
        trace.reset()
        for name in self.counts:
            self.counts[name] = 0
        del self.leaf_start[:], self.leaf_dur[:], self.leaf_kind[:]


class Ledger:
    """Folds traced rounds into the per-layer metrics.

    ``add_round`` takes a traced round (see ``workloads.Round``): only
    spans and leaves inside its timed window count.  Counts, ratios
    and facts come from the first round only: its inputs are fixed by
    the seed, so they repeat bit-for-bit.  Times and shares accumulate
    over all rounds.
    """

    def __init__(self):
        self.wall_ns = 0
        self.self_ns = {layer: 0 for layer in LAYERS}
        self.durations: dict[str, list[int]] = {}
        self.step_self: list[int] = []
        self.wal_append: list[int] = []
        self.leaf_total = {kind: [0, 0] for kind in LEAF_KINDS}  # ns, n
        self.pmu_apply: list[int] = []
        self.protocol_ns = 0
        self.ops = 0
        self.first: dict | None = None
        self.replay_ns = 0
        self.replay_accesses = 0
        self.cache_hits = 0
        self.cache_lookups = 0

    def add_round(self, probes: Probes, rnd) -> None:
        t0, t1 = rnd.window
        records = [r for r in trace.records()
                   if t0 <= r.start_ns and r.start_ns + r.duration_ns <= t1]
        leaves = [(s, d, k) for s, d, k in zip(probes.leaf_start,
                                                probes.leaf_dur,
                                                probes.leaf_kind)
                  if t0 <= s and s + d <= t1]
        self.wall_ns += t1 - t0
        self.ops += rnd.ops
        counters = rnd.counters
        child_ns: dict[int, int] = {}
        for r in records:
            if r.parent_id is not None:
                child_ns[r.parent_id] = child_ns.get(r.parent_id, 0) \
                    + r.duration_ns
        leaf_in = _enclosing_leaf_time(records, leaves)
        for _, dur, kind_index in leaves:
            kind = LEAF_KINDS[kind_index]
            self.self_ns[kind.split(".")[0]] += dur
            total = self.leaf_total[kind]
            total[0] += dur
            total[1] += 1
            if kind == "pmu.apply":
                self.pmu_apply.append(dur)
        for r in records:
            own = r.duration_ns - child_ns.get(r.span_id, 0) \
                - leaf_in.get(r.span_id, 0)
            layer = layer_of(r.name)
            if layer is not None:
                self.self_ns[layer] += own
            if r.name in _TIMED:
                self.durations.setdefault(r.name, []).append(r.duration_ns)
            if r.name == "sched.step":
                self.step_self.append(own)
            elif r.name.startswith("wal.record_"):
                self.wal_append.append(r.duration_ns)
            if r.name.startswith("protocol."):
                self.protocol_ns += r.duration_ns
            if r.name == "batch.replay":
                self.replay_ns += r.duration_ns
        self.replay_accesses += counters.get("batch.replay.accesses", 0)
        self.cache_hits += counters.get("batch.cache.hits", 0)
        self.cache_lookups += counters.get("batch.cache.hits", 0) \
            + counters.get("batch.cache.misses", 0)
        if self.first is None:
            groups_for = sum(1 for r in records
                             if r.name == "catalog.groups_for")
            self.first = dict(rnd.facts, ops=rnd.ops,
                              counters=dict(counters), groups_for=groups_for)

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        first = self.first or {"ops": 0, "counters": {}, "groups_for": 0}
        c = first["counters"]
        n = max(first["ops"], 1)
        wall = max(self.wall_ns, 1)

        def p50_us(name):
            return percentile(self.durations.get(name, ()), 50) / 1e3

        def mean_us(kind):
            total, count = self.leaf_total[kind]
            return total / count / 1e3 if count else 0.0

        out = {
            "protocol.codec_us_per_op": self.protocol_ns / 1e3
            / max(self.ops, 1),
            "protocol.dedup_hits": c.get("server.dedup_hits", 0),
            "wal.records_per_op": c.get("server.wal.records", 0) / n,
            "wal.bytes_per_op": first.get("wal_bytes", 0) / n,
            "wal.append_us_p50": percentile(self.wal_append, 50) / 1e3,
            "wal.append_us_p99": percentile(self.wal_append, 99) / 1e3,
            "sched.submit_us_p50": p50_us("sched.submit"),
            "sched.step_self_us_p50": percentile(self.step_self, 50) / 1e3,
            "sched.preempt_us_p50": p50_us("server.preempt"),
            "sched.useful_window_ratio": first.get("useful_window_ratio", 0),
            "sched.timed_out_ratio": first.get("timed_out_ratio", 0),
            "sched.preempted_ratio": first.get("preempted_ratio", 0),
            "sched.queue_wait_p99_vs": first.get("queue_wait_p99_vs", 0),
            "perfctr.session_us_p50": p50_us("perfctr.session"),
            "perfctr.start_us_p50": p50_us("perfctr.start"),
            "perfctr.read_us_p50": p50_us("perfctr.read"),
            "catalog.groups_for_per_op": first["groups_for"] / n,
            "catalog.parse_calls_per_op": c.get("catalog.parse_calls", 0) / n,
            "formula.parse_calls_per_op": c.get("formula.parse_calls", 0) / n,
            "machine.create_ms_p50": p50_us("machine.create") / 1e3,
            "pmu.apply_us_p50": percentile(self.pmu_apply, 50) / 1e3,
            "msr.ops_per_op": (c.get("msr.pread", 0)
                               + c.get("msr.pwrite", 0)) / n,
            "msr.journal_records_per_op": c.get("journal.records", 0) / n,
            "msr.read_us_mean": mean_us("msr.read"),
            "msr.write_us_mean": mean_us("msr.write"),
            "msr.retries": c.get("msr.io.retries", 0),
            "batch.accesses_per_s": self.replay_accesses
            / (self.replay_ns / 1e9) if self.replay_ns else 0.0,
            "trace_cache.hit_ratio": self.cache_hits / self.cache_lookups
            if self.cache_lookups else 0.0,
            "ecm.solve_us_p50": p50_us("ecm.solve"),
            "agent.normalize_us_p50": p50_us("agent.normalize"),
            "agent.push_us_p50": p50_us("agent.push"),
            "agent.dropped_ratio": first.get("dropped_ratio", 0),
            "trace.overhead_ratio": overhead_ratio,
        }
        shares = {layer: ns / wall for layer, ns in self.self_ns.items()}
        for layer, share in shares.items():
            out[f"{layer}.share"] = share
        out["unattributed.share"] = 1.0 - sum(shares.values())
        return {name: float(out[name]) for name, _ in METRICS}


def _enclosing_leaf_time(records, leaves) -> dict[int, int]:
    """Leaf time per innermost enclosing span: one sweep over spans
    sorted by (start, longest first) and leaves in start order.  Spans
    of one thread nest properly, so a span that ends before a leaf
    ends cannot enclose it or any later leaf."""
    spans = sorted(((r.start_ns, r.start_ns + r.duration_ns, r.span_id)
                    for r in records), key=lambda s: (s[0], -s[1]))
    out: dict[int, int] = {}
    stack: list[tuple[int, int, int]] = []
    i = 0
    for start, dur, _ in sorted(leaves):
        end = start + dur
        while i < len(spans) and spans[i][0] <= start:
            while stack and stack[-1][1] <= spans[i][0]:
                stack.pop()
            stack.append(spans[i])
            i += 1
        while stack and stack[-1][1] < end:
            stack.pop()
        if stack:
            sid = stack[-1][2]
            out[sid] = out.get(sid, 0) + dur
    return out


def write_profile(path: str) -> None:
    """Dump the current round's spans as a Perfetto-loadable profile
    (leaf timings are folded into the ledger, not dumped)."""
    with open(path, "w") as fh:
        json.dump(export.profile_dict(trace.TRACER, tool="benchmarks/e2e"),
                  fh, separators=(",", ":"))

"""Fleet simulation: many monitored nodes, one ingest pipeline.

A :class:`FleetSimulator` runs tens-to-hundreds of simulated nodes —
mixed architectures, per-node seeds, per-node fault plans, both access
backends — each under its own :class:`~repro.agent.scheduler
.MonitorAgent`, all feeding one :class:`~repro.agent.aggregate
.Aggregator`.  This is the soak surface: group rotation × journaling ×
fault injection × back-pressure over long runs, with exact sample
accounting at the end (:meth:`FleetReport.inconsistencies` must come
back empty).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import trace as _trace
from repro.agent.aggregate import Aggregator, AggregatorSink
from repro.agent.batch import AgentReport
from repro.agent.scheduler import AgentConfig, MonitorAgent, SyntheticLoad
from repro.hw.arch import available, create_machine
from repro.oskern.access import ACCESS_MODES, open_backend
from repro.oskern.msr_driver import FaultPlan
from repro.retry import SOAK_RETRIES


@dataclass(frozen=True)
class NodeSpec:
    """One simulated node's identity and failure model."""

    name: str
    arch: str = "nehalem_ep"
    seed: int = 0
    access_mode: str = "msr"
    faults: str | None = None          # FaultPlan.from_string syntax
    ingest_capacity: int | None = None  # per-push sample budget
    overrun_rate: float = 0.0


def default_fleet(count: int, *, seed: int = 0,
                  archs: tuple[str, ...] | None = None,
                  access_modes: tuple[str, ...] = tuple(ACCESS_MODES),
                  faults: str | None = None,
                  ingest_capacity: int | None = None,
                  overrun_rate: float = 0.0) -> list[NodeSpec]:
    """A mixed fleet: architectures and access modes round-robin,
    seeds derived per node, one shared fault-plan template whose seed
    is re-derived per node (so every node faults differently but the
    whole fleet replays deterministically)."""
    if archs is None:
        archs = tuple(available())
    nodes = []
    for i in range(count):
        plan = faults
        if plan is not None and "seed=" not in plan:
            plan = f"seed={seed + i},{plan}" if plan else f"seed={seed + i}"
        nodes.append(NodeSpec(
            name=f"node{i:03d}",
            arch=archs[i % len(archs)],
            seed=seed + i,
            access_mode=access_modes[i % len(access_modes)],
            faults=plan,
            ingest_capacity=ingest_capacity,
            overrun_rate=overrun_rate))
    return nodes


@dataclass
class FleetReport:
    """Everything a soak test asserts on."""

    reports: dict[str, AgentReport] = field(default_factory=dict)
    rollup: dict = field(default_factory=dict)
    ingested: dict[str, int] = field(default_factory=dict)

    @property
    def total_emitted(self) -> int:
        return sum(lane.emitted for r in self.reports.values()
                   for lane in r.lanes)

    @property
    def total_dropped(self) -> int:
        return sum(lane.dropped for r in self.reports.values()
                   for lane in r.lanes)

    def inconsistencies(self) -> list[str]:
        """Every accounting violation in the run (must be empty):
        per-lane ``offered == emitted + dropped``, per-node ``offered
        == produced``, and pipeline ``ingested == emitted`` for the
        aggregator lane."""
        out: list[str] = []
        for node, report in self.reports.items():
            out.extend(report.inconsistencies())
            emitted = sum(lane.emitted for lane in report.lanes
                          if lane.sink == "aggregator")
            ingested = self.ingested.get(node, 0)
            if emitted != ingested:
                out.append(f"{node}: aggregator ingested {ingested} != "
                           f"lane emitted {emitted}")
        return out


class FleetSimulator:
    """Run a whole fleet's agents against one aggregation pipeline."""

    def __init__(self, nodes: list[NodeSpec], groups: tuple[str, ...],
                 *, cpus_per_node: int = 2, window: float = 0.1,
                 rotations: int = 1,
                 aggregator: Aggregator | None = None):
        if not nodes:
            raise ValueError("fleet needs at least one node")
        self.nodes = list(nodes)
        self.groups = tuple(groups)
        self.cpus_per_node = cpus_per_node
        self.window = window
        self.rotations = rotations
        self.aggregator = aggregator if aggregator is not None \
            else Aggregator()

    def node_groups(self, spec: NodeSpec, machine) -> tuple[str, ...]:
        """The requested rotation restricted to groups this node's
        architecture provides (a mixed fleet monitors what each node
        can measure; event lists are per-family)."""
        from repro.core.perfctr.groups import groups_for
        provided = groups_for(machine.spec)
        groups = tuple(g for g in self.groups if g in provided)
        if not groups:
            raise ValueError(
                f"{spec.name} ({spec.arch}) supports none of "
                f"{', '.join(self.groups)}")
        return groups

    def build_agent(self, spec: NodeSpec) -> MonitorAgent:
        machine = create_machine(spec.arch)
        faults = FaultPlan.from_string(spec.faults) if spec.faults \
            else None
        backend = open_backend(spec.access_mode, machine, faults=faults)
        cpus = tuple(range(min(self.cpus_per_node,
                               machine.num_hwthreads)))
        config = AgentConfig(groups=self.node_groups(spec, machine),
                             cpus=cpus,
                             window=self.window,
                             rotations=self.rotations,
                             node=spec.name, seed=spec.seed)
        sink = AggregatorSink(self.aggregator,
                              max_batch=spec.ingest_capacity)
        workload = SyntheticLoad(machine, cpus, seed=spec.seed,
                                 overrun_rate=spec.overrun_rate)
        return MonitorAgent(machine, backend, config, sinks=(sink,),
                            workload=workload,
                            retry_policy=SOAK_RETRIES)

    def run(self) -> FleetReport:
        report = FleetReport()
        with _trace.span("agent.fleet", nodes=len(self.nodes),
                         groups=len(self.groups),
                         rotations=self.rotations):
            for spec in self.nodes:
                agent = self.build_agent(spec)
                report.reports[spec.name] = agent.run()
                report.ingested[spec.name] = \
                    self.aggregator.node_samples(spec.name)
                if _trace.TRACER.enabled:
                    _trace.incr("agent.fleet.nodes")
        report.rollup = self.aggregator.rollup()
        return report

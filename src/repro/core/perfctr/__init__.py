"""likwid-perfCtr: hardware performance counter measurement."""

from repro.core.perfctr.counters import (Assignment, CounterMap,
                                         counter_delta)
from repro.core.perfctr.events import EventSpec, parse_event_string
from repro.core.perfctr.groups import GroupDef, groups_for, lookup_group
from repro.core.perfctr.marker import MarkerAPI
from repro.core.perfctr.measurement import (LikwidPerfCtr, MeasurementResult,
                                            PerfCtrSession, SessionLease)
from repro.core.perfctr.multiplex import measure_multiplexed, split_event_sets
from repro.retry import RetryPolicy

__all__ = ["Assignment", "CounterMap", "RetryPolicy", "counter_delta",
           "EventSpec", "parse_event_string",
           "GroupDef", "groups_for", "lookup_group", "MarkerAPI",
           "LikwidPerfCtr", "MeasurementResult", "PerfCtrSession",
           "SessionLease", "measure_multiplexed", "split_event_sets"]

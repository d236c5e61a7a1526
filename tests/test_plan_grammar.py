"""The shared ``key=value`` plan grammar, tested once for both plans.

:class:`~repro.oskern.msr_driver.FaultPlan` (``--msr-faults``) and
:class:`~repro.server.chaos.ChaosPlan` (``--chaos``) parse through
:func:`repro.planspec.parse_plan`; every grammar rule is checked
against both classes, and a property test round-trips random valid
plans through a renderer.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oskern.msr_driver import FaultPlan
from repro.server.chaos import ChaosPlan

PLANS = [pytest.param(FaultPlan, "fault", id="FaultPlan"),
         pytest.param(ChaosPlan, "chaos", id="ChaosPlan")]


@pytest.mark.parametrize("cls,what", PLANS)
class TestGrammar:
    def test_empty_segments_tolerated(self, cls, what):
        assert cls.from_string(",seed=7,, ,") == cls(seed=7)
        assert cls.from_string("") == cls()

    def test_whitespace_around_keys_and_values(self, cls, what):
        assert cls.from_string(" seed = 0x10 ") == cls(seed=16)

    def test_missing_equals_rejected(self, cls, what):
        with pytest.raises(ValueError,
                           match=rf"bad {what} spec 'seed' "
                                 r"\(need key=value\)"):
            cls.from_string("seed")

    def test_duplicate_key_rejected(self, cls, what):
        with pytest.raises(ValueError,
                           match=f"duplicate {what} key 'seed'"):
            cls.from_string("seed=1,seed=2")

    def test_unknown_key_rejected(self, cls, what):
        with pytest.raises(ValueError, match=f"unknown {what} key 'bogus'"):
            cls.from_string("bogus=1")

    def test_bad_value_rejected(self, cls, what):
        with pytest.raises(ValueError):
            cls.from_string("seed=seven")


def test_aliased_duplicate_rejected():
    with pytest.raises(ValueError,
                       match="duplicate chaos key 'refuse_rate'"):
        ChaosPlan.from_string("refuse=0.1,refuse_rate=0.2")


def test_sticky_repeats_and_accumulates_in_order():
    plan = FaultPlan.from_string(
        "sticky=0x38F,seed=1,sticky_addresses=0xC1,sticky=7")
    assert plan.sticky_addresses == (0x38F, 0xC1, 7)


def test_no_chaos_key_repeats():
    for field in dataclasses.fields(ChaosPlan):
        with pytest.raises(ValueError, match="duplicate chaos key"):
            ChaosPlan.from_string(f"{field.name}=0,{field.name}=0")


def render(plan) -> str:
    """The CLI form of *plan*: canonical keys, repeated tuple keys."""
    parts = []
    for field in dataclasses.fields(plan):
        value = getattr(plan, field.name)
        if isinstance(value, tuple):
            parts += [f"{field.name}={hex(v)}" for v in value]
        elif isinstance(value, str):
            parts.append(f"{field.name}={value}")
        elif value is not None:
            parts.append(f"{field.name}={value!r}")
    return ",".join(parts)


_rates = st.floats(min_value=0.0, max_value=1.0)
_counts = st.none() | st.integers(min_value=1, max_value=1 << 20)

fault_plans = st.builds(
    FaultPlan, seed=st.integers(0, 1 << 32),
    read_fault_rate=_rates, write_fault_rate=_rates,
    transient_errno=st.sampled_from(("EAGAIN", "EIO")),
    unload_after=_counts, revoke_write_after=_counts,
    sticky_addresses=st.lists(st.integers(0, 0xFFFF), max_size=4)
    .map(tuple),
    overflow_after=_counts, kill_after=_counts, sigint_after=_counts)

chaos_plans = st.builds(
    ChaosPlan, seed=st.integers(0, 1 << 32),
    refuse_rate=_rates, drop_request_rate=_rates,
    drop_reply_rate=_rates, torn_reply_rate=_rates,
    duplicate_rate=_rates, delay_rate=_rates,
    delay_s=st.floats(min_value=0.0, max_value=10.0))


@settings(max_examples=200, deadline=None)
@given(st.one_of(fault_plans, chaos_plans))
def test_render_round_trips(plan):
    assert type(plan).from_string(render(plan)) == plan

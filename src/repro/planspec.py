"""The ``key=value`` grammar of the seeded fault plans.

:class:`~repro.oskern.msr_driver.FaultPlan` (``--msr-faults``) and
:class:`~repro.server.chaos.ChaosPlan` (``--chaos``) are frozen
dataclasses parsed by one function, e.g.
``seed=7,read_fault_rate=0.1,sticky=0x38F,sticky=0xC1``.  Keys are
field names or short aliases, and each value is coerced by its
field's type (``int(v, 0)`` for ints, so hex works).  A
``tuple[int, ...]`` field may repeat and accumulates in order; any
other repeated key, and any unknown key, is rejected.  Empty segments
are tolerated (trailing commas from shell composition).
"""

from __future__ import annotations

import dataclasses
import functools
import typing

_COERCE = {int: lambda v: int(v, 0), float: float, str: str}


@functools.cache
def _fields(cls) -> dict[str, tuple[typing.Callable, bool]]:
    """``field -> (coerce, repeatable)`` from the dataclass hints."""
    hints = typing.get_type_hints(cls)
    out = {}
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        args = [a for a in typing.get_args(hint)
                if a is not type(None) and a is not Ellipsis]
        out[f.name] = (_COERCE[args[0] if args else hint],
                       typing.get_origin(hint) is tuple)
    return out


def parse_plan(cls, text: str, *, what: str, aliases: dict[str, str]):
    """Build a *cls* instance from the ``key=value`` CLI syntax.

    *what* names the plan in error messages (``bad fault spec ...``,
    ``duplicate chaos key ...``); *aliases* maps short keys to field
    names."""
    fields = _fields(cls)
    kwargs: dict = {}
    for part in filter(None, (p.strip() for p in text.split(","))):
        if "=" not in part:
            raise ValueError(f"bad {what} spec {part!r} (need key=value)")
        key, _, value = part.partition("=")
        key = aliases.get(key.strip(), key.strip())
        if key not in fields:
            raise ValueError(f"unknown {what} key {key!r}")
        coerce, repeatable = fields[key]
        if key in kwargs and not repeatable:
            raise ValueError(f"duplicate {what} key {key!r}")
        value = coerce(value.strip())
        kwargs[key] = kwargs.get(key, ()) + (value,) if repeatable else value
    return cls(**kwargs)


def check_rates(plan) -> None:
    """Every ``*_rate`` field of a plan is a probability."""
    for f in dataclasses.fields(plan):
        if f.name.endswith("_rate"):
            rate = getattr(plan, f.name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{f.name} must be in [0, 1], got {rate}")

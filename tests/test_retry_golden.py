"""Golden values for every shipped retry policy and one chaos stream.

Pins the *effective* retry behaviour of the msr device plane and the
network plane: each policy's fields and its first eight backoff
delays, plus the first 50 fault fates of one armed chaos stream.
Crash-restart and chaos runs are reproducible only while these stay
fixed, so any change to the retry or chaos machinery that moves one
of them changes observable behaviour.

Policies are reached through the objects that use them (a fresh
``CounterProgrammer``, fresh clients) where that is possible, so the
test pins what callers get, not where a constant happens to live.
"""

import random

import pytest

from repro.agent.fleet import SOAK_RETRIES
from repro.core.perfctr.counters import CounterMap, CounterProgrammer
from repro.hw.arch import create_machine
from repro.oskern.msr_driver import MsrDriver
from repro.server import NO_RETRY
from repro.server.chaos import ChaosPlan
from repro.server.client import ServerClient, SyncServerClient
from repro.server.loadtest import LOADTEST_RETRIES


def _msr_default():
    machine = create_machine("core2")
    return CounterProgrammer(MsrDriver(machine),
                             CounterMap(machine.spec)).policy


_CLIENT_DELAYS = [
    0.0005804142514468938, 0.001458037369628918, 0.0024695848993866003,
    0.00478710720520013, 0.010622077029646185, 0.016747719394692204,
    0.046432848080061206, 0.06382168323706668]

GOLDEN = {
    "counter-programmer-default": (
        _msr_default,
        (8, 0.0001, 0.002, 0.0),
        [0.0001, 0.0002, 0.0004, 0.0008, 0.0016, 0.002, 0.002, 0.002]),
    "server-client-default": (
        lambda: ServerClient("127.0.0.1", 1).retry,
        (6, 0.0005, 0.05, 0.5), _CLIENT_DELAYS),
    "sync-client-default": (
        lambda: SyncServerClient("127.0.0.1", 1).retry,
        (6, 0.0005, 0.05, 0.5), _CLIENT_DELAYS),
    "LOADTEST_RETRIES": (
        lambda: LOADTEST_RETRIES,
        (12, 0.001, 0.5, 0.5),
        [0.0011608285028937876, 0.002916074739257836,
         0.0049391697987732006, 0.00957421441040026,
         0.02124415405929237, 0.03349543878938441,
         0.09286569616012241, 0.1633835090868907]),
    "NO_RETRY": (
        lambda: NO_RETRY, (1, 0.0005, 0.05, 0.5), _CLIENT_DELAYS),
    "SOAK_RETRIES": (
        lambda: SOAK_RETRIES, (8, 0.0, 0.0, 0.0), [0.0] * 8),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_policy_fields_and_first_delays(name):
    get, fields, delays = GOLDEN[name]
    policy = get()
    jitter = getattr(policy, "jitter", 0.0)
    assert (policy.max_attempts, policy.backoff_base,
            policy.backoff_cap, jitter) == fields
    rng = random.Random("retry:golden")
    # A jitter-free policy needs no randomness, so it is asked without
    # an rng; a jittered one draws from the seeded stream.
    args = (rng,) if jitter else ()
    assert [policy.delay(r, *args) for r in range(8)] == delays


#: One step = connect, pre-send delay, request fate, reply fate:
#: ``R`` refused, ``D`` delayed, ``T`` torn request, ``U`` duplicate,
#: ``X`` dropped reply, ``Y`` torn reply, ``.`` nothing injected.
GOLDEN_FATES = (
    ".DUX .... R..X .... .... .... ..TX ...X ..U. .D.Y "
    ".D.. .... .... .... ...Y ...X .D.. .... .... ..U. "
    ".DU. .... .... .... .D.. ..U. .... .DU. .D.X .... "
    "..U. .... R... ...Y .... .... ..U. .... .... ..U. "
    ".D.. .... ..TX ..T. .... ..U. .... .... ..U. .D..").split()

_REQUEST = {"deliver": ".", "torn_request": "T", "duplicate": "U"}
_REPLY = {"deliver": ".", "drop_reply": "X", "torn_reply": "Y"}


def test_first_50_chaos_fates():
    plan = ChaosPlan(seed=3, refuse_rate=0.1, drop_request_rate=0.1,
                     drop_reply_rate=0.1, torn_reply_rate=0.1,
                     duplicate_rate=0.15, delay_rate=0.2)
    state = plan.arm("s1")
    fates = []
    for _ in range(50):
        fates.append(("R" if state.refuse_connect() else ".")
                     + ("D" if state.delay() else ".")
                     + _REQUEST[state.request_fate()]
                     + _REPLY[state.reply_fate()])
    assert fates == GOLDEN_FATES
    assert state.injected == {"delayed": 10, "duplicated": 11,
                              "dropped_reply": 7, "refused": 2,
                              "torn_request": 3, "torn_reply": 3}

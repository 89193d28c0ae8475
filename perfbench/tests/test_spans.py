"""Self-time arithmetic and attribute restoration of the span tracer."""

import types

import pytest

from perfbench.spans import Probe, Tracer


class TickClock:
    """A clock that returns the given readings in order."""

    def __init__(self, *readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


def test_self_time_with_nested_and_adjacent_children():
    # outer [0, 10] holds adjacent children a [1, 3] and b [3, 6];
    # b holds c [4, 5]
    tracer = Tracer(TickClock(0, 1, 3, 3, 4, 5, 6, 10))

    def b():
        tracer.call("c", lambda: None)

    def outer():
        tracer.call("a", lambda: None)
        tracer.call("b", b)

    tracer.call("outer", outer)
    self_s = {name: st.self_s for name, st in tracer.stats.items()}
    total_s = {name: st.total_s for name, st in tracer.stats.items()}
    assert self_s == {"outer": 5, "a": 2, "b": 2, "c": 1}
    assert total_s == {"outer": 10, "a": 2, "b": 3, "c": 1}
    assert sum(self_s.values()) == tracer.root_child_s() == 10


def test_repeated_calls_accumulate_and_reset_clears():
    tracer = Tracer(TickClock(0, 2, 5, 6))
    tracer.call("x", lambda: None)
    tracer.call("x", lambda: None)
    assert (tracer.stats["x"].calls, tracer.stats["x"].self_s) == (2, 3)
    assert tracer.root_child_s() == 3
    tracer.reset()
    assert tracer.stats == {} and tracer.root_child_s() == 0


def test_span_closes_when_the_call_raises():
    tracer = Tracer(TickClock(0, 1, 2, 4))

    def boom():
        raise ValueError

    def outer():
        with pytest.raises(ValueError):
            tracer.call("inner", boom)

    tracer.call("outer", outer)
    assert tracer.stats["inner"].self_s == 1
    assert tracer.stats["outer"].self_s == 3


def _module():
    mod = types.ModuleType("fake")
    mod.double = lambda x: 2 * x
    mod.caller = lambda x: mod.double(x) + 1
    return mod


def test_installed_rebinds_then_restores():
    mod = _module()
    originals = (mod.double, mod.caller)
    tracer = Tracer()
    probes = [
        Probe("fake.caller", mod, "caller"),
        Probe(lambda parent: f"double.from.{parent}", mod, "double", post=lambda st, a, k, r, t: st.add("sum", r)),
    ]
    with tracer.installed(probes):
        assert mod.caller(3) == 7
        assert mod.double(1) == 2
    assert (mod.double, mod.caller) == originals
    assert tracer.stats["fake.caller"].calls == 1
    assert tracer.stats["double.from.fake.caller"].counts == {"sum": 6}
    assert tracer.stats["double.from.bench"].counts == {"sum": 2}


def test_installed_restores_after_an_error_and_checks_attributes_first():
    mod = _module()
    original = mod.double
    with pytest.raises(RuntimeError):
        with Tracer().installed([Probe("d", mod, "double")]):
            raise RuntimeError
    assert mod.double is original
    with pytest.raises(AttributeError):
        with Tracer().installed([Probe("d", mod, "double"), Probe("m", mod, "missing")]):
            pass
    assert mod.double is original

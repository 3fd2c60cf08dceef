"""Tests for the observer-tap helper."""

import functools
import itertools

import pytest

from repro.sim.taps import tap


class Owner:
    def __init__(self, hook=None):
        self.on_event = hook

    def fire(self, *args):
        if self.on_event is not None:
            self.on_event(*args)


def recorder(log, name):
    return lambda *args: log.append((name, args))


def timing_wrapper(owner, attr, log):
    """Wrap a hook attribute the way ``perfbench/tracer.py``'s
    ``Tracer.hook`` does: ``functools.wraps`` over whatever it holds."""
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        log.append(("wrapper", args))
        return fn(*args, **kwargs)

    setattr(owner, attr, wrapper)
    return wrapper


class TestOrder:
    def test_newest_first_then_the_existing_callable(self):
        log = []
        owner = Owner(recorder(log, "base"))
        tap(owner, "on_event", recorder(log, "a"))
        tap(owner, "on_event", recorder(log, "b"))
        owner.fire(1, 2)
        assert log == [("b", (1, 2)), ("a", (1, 2)), ("base", (1, 2))]

    def test_untapped_slot_stays_none(self):
        owner = Owner()
        assert owner.on_event is None
        owner.fire("ignored")  # nothing to call


class TestRemoval:
    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_any_order_restores_the_exact_object(self, order):
        log = []
        base = recorder(log, "base")
        owner = Owner(base)
        names = ("a", "b", "c")
        handles = [tap(owner, "on_event", recorder(log, name)) for name in names]
        live = set(names)
        for i in order:
            handles[i].remove()
            live.discard(names[i])
            log.clear()
            owner.fire(0)
            expected = [(name, (0,)) for name in reversed(names) if name in live]
            assert log == expected + [("base", (0,))]
        assert owner.on_event is base

    def test_remove_twice_is_a_noop(self):
        log = []
        owner = Owner()
        first = tap(owner, "on_event", recorder(log, "a"))
        second = tap(owner, "on_event", recorder(log, "b"))
        first.remove()
        first.remove()
        owner.fire(3)
        assert log == [("b", (3,))]
        second.remove()
        second.remove()
        assert owner.on_event is None

    def test_same_function_tapped_twice_is_removed_once_per_handle(self):
        log = []
        owner = Owner()
        fn = recorder(log, "fn")
        first = tap(owner, "on_event", fn)
        tap(owner, "on_event", fn)
        first.remove()
        owner.fire(4)
        assert log == [("fn", (4,))]

    def test_retap_after_full_removal(self):
        log = []
        owner = Owner()
        tap(owner, "on_event", recorder(log, "a")).remove()
        assert owner.on_event is None
        handle = tap(owner, "on_event", recorder(log, "b"))
        owner.fire(5)
        assert log == [("b", (5,))]
        handle.remove()
        assert owner.on_event is None


class TestForeignWrapper:
    def test_later_tap_wraps_the_wrapper_and_still_runs(self):
        log = []
        owner = Owner()
        inner = tap(owner, "on_event", recorder(log, "inner"))
        wrapper = timing_wrapper(owner, "on_event", log)
        outer = tap(owner, "on_event", recorder(log, "outer"))
        owner.fire(1)
        assert log == [("outer", (1,)), ("wrapper", (1,)), ("inner", (1,))]
        outer.remove()
        assert owner.on_event is wrapper
        inner.remove()
        assert owner.on_event is wrapper
        log.clear()
        owner.fire(2)
        assert log == [("wrapper", (2,))]

    @pytest.mark.parametrize("inner_first", [True, False])
    def test_removal_never_unwraps(self, inner_first):
        log = []
        base = recorder(log, "base")
        owner = Owner(base)
        inner = tap(owner, "on_event", recorder(log, "inner"))
        wrapper = timing_wrapper(owner, "on_event", log)
        outer = tap(owner, "on_event", recorder(log, "outer"))
        for handle in (inner, outer) if inner_first else (outer, inner):
            handle.remove()
        assert owner.on_event is wrapper
        owner.fire(3)
        assert log == [("wrapper", (3,)), ("base", (3,))]

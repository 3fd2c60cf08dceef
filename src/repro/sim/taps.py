"""Observer taps: many observers on one single-slot callback hook.

Simulation objects expose their observation points as plain attributes
that hold one callable or ``None`` (``MesherNode.on_route_event``,
``Medium.on_frame``, ...), so a hook nobody watches costs its owner one
attribute load.  :func:`tap` lets any number of observers share such a
slot without each one saving, chaining and restoring the previous
callback by hand::

    handle = tap(node, "on_route_event", on_route)
    ...
    handle.remove()

Rules:

* The newest tap runs first; whatever the slot held before the first
  tap runs last.
* Taps can be removed in any order.  When the last tap on a slot goes,
  the slot gets back the exact object it held before.
* A wrapper someone else puts over a tapped slot is kept: a later tap
  wraps it in turn, and removing the taps underneath never unwraps it
  (they are left as a pass-through).

Only hooks whose return value the owner ignores can be tapped: the
dispatcher returns ``None``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple


class _Chain:
    """The dispatcher a slot holds, with its taps, newest first."""

    __slots__ = ("owner", "attr", "base", "taps", "fns", "dispatch")

    def __init__(self, owner: Any, attr: str, base: Optional[Callable]) -> None:
        self.owner = owner
        self.attr = attr
        self.base = base
        self.taps: Tuple[Tap, ...] = ()
        self.fns: Tuple[Callable, ...] = ()
        chain = self
        if base is None:

            def dispatch(*args):
                for fn in chain.fns:
                    fn(*args)

        else:

            def dispatch(*args):
                for fn in chain.fns:
                    fn(*args)
                base(*args)

        dispatch._tap_chain = self
        self.dispatch = dispatch


class Tap:
    """Handle for one observer added by :func:`tap`."""

    __slots__ = ("_chain",)

    def __init__(self, chain: _Chain) -> None:
        self._chain: Optional[_Chain] = chain

    def remove(self) -> None:
        """Take the observer off its hook; a second call does nothing."""
        chain, self._chain = self._chain, None
        if chain is None:
            return
        i = chain.taps.index(self)
        chain.taps = chain.taps[:i] + chain.taps[i + 1 :]
        chain.fns = chain.fns[:i] + chain.fns[i + 1 :]
        if not chain.taps and getattr(chain.owner, chain.attr) is chain.dispatch:
            setattr(chain.owner, chain.attr, chain.base)


def tap(owner: Any, attr: str, fn: Callable[..., None]) -> Tap:
    """Call ``fn`` with every call of the hook ``owner.<attr>``."""
    current = getattr(owner, attr)
    chain = getattr(current, "_tap_chain", None)
    # functools.wraps copies the attribute onto a foreign wrapper, so
    # only the dispatcher itself counts as this slot's chain.
    if chain is None or chain.dispatch is not current:
        chain = _Chain(owner, attr, current)
        setattr(owner, attr, chain.dispatch)
    handle = Tap(chain)
    chain.taps = (handle,) + chain.taps
    chain.fns = (fn,) + chain.fns
    return handle

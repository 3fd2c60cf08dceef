"""Fixed-capacity packet queues.

The firmware runs on a microcontroller with hard memory limits: its
received-packets and to-send queues are fixed-size FreeRTOS queues that
*drop* when full.  Reproducing the bounded queues (rather than letting
Python lists grow) matters because queue overflow is a real loss mode in
dense meshes, and two of the benchmarks measure it.

Control traffic (ACK / LOST / SYNC) jumps ahead of data in the send queue,
matching the firmware's priority handling — a starved ACK would stall a
whole reliable stream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Generic, Iterator, List, Optional, TypeVar

from repro.net.packets import AckPacket, LostPacket, Packet, SyncPacket

T = TypeVar("T")


class PacketQueue(Generic[T]):
    """A bounded FIFO with drop-on-overflow semantics and drop counting."""

    def __init__(self, capacity: int, name: str = "queue") -> None:
        if capacity <= 0:
            raise ValueError(f"queue capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._items: Deque[T] = deque()
        self.dropped = 0
        self.enqueued_total = 0
        self.dequeued_total = 0

    def push(self, item: T) -> bool:
        """Append; returns False (and counts a drop) when full."""
        if len(self._items) >= self.capacity:
            self.dropped += 1
            return False
        self._items.append(item)
        self.enqueued_total += 1
        return True

    def pop(self) -> Optional[T]:
        """Remove and return the head, or None when empty."""
        if not self._items:
            return None
        self.dequeued_total += 1
        return self._items.popleft()

    def peek(self) -> Optional[T]:
        """The head without removing it, or None."""
        return self._items[0] if self._items else None

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    @property
    def full(self) -> bool:
        """Whether the next push would drop."""
        return len(self._items) >= self.capacity


#: Packet types that skip ahead of queued data frames.
_PRIORITY_TYPES = (AckPacket, LostPacket, SyncPacket)


class SendQueue:
    """The to-send queue: bounded, with a priority lane for control packets."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"queue capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._control: Deque[Packet] = deque()
        self._data: Deque[Packet] = deque()
        self.dropped = 0
        self.enqueued_total = 0
        self.dequeued_total = 0

    def push(self, packet: Packet) -> bool:
        """Enqueue for transmission; control packets take the fast lane."""
        if len(self) >= self.capacity:
            self.dropped += 1
            return False
        if isinstance(packet, _PRIORITY_TYPES):
            self._control.append(packet)
        else:
            self._data.append(packet)
        self.enqueued_total += 1
        return True

    def pop(self) -> Optional[Packet]:
        """Next packet to transmit (control before data), or None."""
        if self._control:
            self.dequeued_total += 1
            return self._control.popleft()
        if self._data:
            self.dequeued_total += 1
            return self._data.popleft()
        return None

    def peek(self) -> Optional[Packet]:
        """What :meth:`pop` would return, without removing it."""
        if self._control:
            return self._control[0]
        if self._data:
            return self._data[0]
        return None

    def __len__(self) -> int:
        return len(self._control) + len(self._data)

    def __bool__(self) -> bool:
        return bool(self._control) or bool(self._data)

    @property
    def full(self) -> bool:
        """Whether the next push would drop."""
        return len(self) >= self.capacity

    def drain(self) -> List[Packet]:
        """Remove and return everything (used at shutdown in tests)."""
        out: List[Packet] = list(self._control) + list(self._data)
        self._control.clear()
        self._data.clear()
        self.dequeued_total += len(out)
        return out

"""A byte-bounded LRU map for results that depend on the design, not on the data.

The package keeps one per process, ``DESIGNS`` below: the moment sets of
``moments.pair_moments``, the no-ties index selections of ``confidence`` and the
exact tail tables of ``randomization``.  Values are read-only, so every caller
can share one object.
"""
from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import fields, is_dataclass
from typing import Callable, Hashable, TypeVar

import numpy as np

DESIGN_CACHE_BYTES = 3 << 20  # bytes the per-process design cache holds at most
# bytes charged per entry beside its arrays: key, containers and object headers
ENTRY_BYTES = 2 << 10

V = TypeVar("V")


def held_bytes(value) -> int | None:
    """Bytes a value holds: its arrays' bytes plus 8 per other field or item of the
    dataclasses, tuples and lists it is made of, plus the ``derived_bytes`` a dataclass
    names for what it derives after it is stored.  None when the value holds a
    writable array, which a shared value must not, or an object array, whose
    elements' sizes are unknown."""
    if isinstance(value, np.ndarray):
        return None if value.flags.writeable or value.dtype == object else value.nbytes
    if is_dataclass(value):
        held = held_bytes([getattr(value, f.name) for f in fields(value)])
        return None if held is None else held + getattr(value, "derived_bytes", 0)
    if isinstance(value, (tuple, list)):
        sizes = [held_bytes(v) for v in value]
        return None if None in sizes else sum(sizes)
    return 8


class ByteLRU:
    """LRU map from hashable keys to read-only values, holding at most ``limit`` bytes.

    A value is charged its ``held_bytes`` plus ENTRY_BYTES once, when it is
    stored, and the charge is kept beside it for its eviction; one whose charge is
    over the limit, or that ``held_bytes`` refuses, is returned but not kept.  One
    lock guards the bookkeeping; two threads that miss on one key both compute,
    and the first value stored stays.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self._items: OrderedDict = OrderedDict()
        self._sizes: dict = {}  # key -> the bytes charged for its value at insert
        self._nbytes = 0
        self._lock = threading.Lock()

    def get(self, key: Hashable, compute: Callable[[], V]) -> V:
        """The value stored under key, else compute()'s result, kept if it fits."""
        with self._lock:
            hit = self._items.get(key)
            if hit is not None:
                self._items.move_to_end(key)
                return hit
        value = compute()
        nbytes = held_bytes(value)
        if nbytes is None or nbytes + ENTRY_BYTES > self.limit:
            return value
        nbytes += ENTRY_BYTES
        with self._lock:
            if key in self._items:
                return value
            self._items[key] = value
            self._sizes[key] = nbytes
            self._nbytes += nbytes
            while self._nbytes > self.limit:
                old, _ = self._items.popitem(last=False)
                self._nbytes -= self._sizes.pop(old)
        return value

    def clear(self) -> None:
        with self._lock:
            self._items.clear()
            self._sizes.clear()
            self._nbytes = 0


DESIGNS = ByteLRU(DESIGN_CACHE_BYTES)

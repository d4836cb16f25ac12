"""Exact sort keys for the breadth-first closure in groups.py.

A closure block's candidates are told new or not by sorting their keys
once and looking them up in the sorted keys of the elements found, never
by one probe per candidate.  A candidate's key columns (its images of a
base, or its whole row) are entries below the degree; WordKeys packs them
exactly into one uint64 at bit_length(degree - 1) bits an entry, and
RowKeys takes rows too wide for that as their raw bytes.  Distinct rows
always have distinct keys: no scheme that could merge two rows is used,
since a perm spec has no known order that would catch a merge.
"""

from __future__ import annotations

import numpy as np


class WordKeys:
    """Sort keys of rows of key entries below degree, each packed exactly
    into one uint64, bits apart; seen begins with the sorted keys of the
    rows found.  Below the entries lie position bits for blocks of up to
    most keys when they fit, so that one plain sort of key | position
    orders a block by key and equal keys by position."""

    def __init__(self, columns: np.ndarray, bits: int, most: int, room: int):
        shift = max(1, most - 1).bit_length()
        if len(columns) * bits + shift > 64:
            shift = 0  # no room: blocks sort by a stable argsort
        self.ramp = np.arange(most, dtype=np.uint64) if shift else None  # block positions
        self.weights = np.left_shift(1, np.arange(shift, 64, bits, dtype=np.uint64)[: len(columns)])
        # masks of the position bits and of the rest: a ufunc takes 0-d
        # arrays faster than numpy scalars
        self.low = np.array((1 << shift) - 1, dtype=np.uint64)
        self.high = ~self.low
        self.seen = np.empty(room, dtype=np.uint64)
        self.seen[0] = self.pack(columns.astype(np.uint64))  # the identity's key

    def pack(self, columns: np.ndarray) -> np.ndarray:
        return columns.dot(self.weights)

    def new(self, keys: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The positions, in order, of the first of each key of a block
        that no row found has, and those keys (of rows, the rows found,
        only their number is read).  A block of more than one key is
        sorted first, which also serves the lookup in seen."""
        if len(keys) == 1:
            at = None
        elif self.ramp is None:
            at = keys.argsort(kind="stable")
            keys = keys[at]
        else:
            keys = keys | self.ramp[: len(keys)]
            keys.sort()
            at = keys & self.low
            keys &= self.high
        seen = self.seen[: len(rows)]
        new = seen.take(seen.searchsorted(keys), mode="clip") != keys
        if at is None:
            picks = new.nonzero()[0]
            return picks, keys if len(picks) else keys[new]
        new[1:] &= keys[1:] != keys[:-1]  # the first of equal keys
        picks = at[new]
        picks.sort()
        return picks, keys[new]

    def add(self, keys: np.ndarray, count: int) -> None:
        """Merges keys, those of the rows found from count on, into seen in
        place, grown by doubling."""
        end = count + len(keys)
        if end > len(self.seen):
            grown = np.empty(max(end, 2 * count), dtype=np.uint64)
            grown[:count] = self.seen[:count]
            self.seen = grown
        self.seen[count:end] = keys
        # timsort merges two sorted runs in linear time, but a cyclic
        # group's keys come in order, one a level, and need no sort at all
        if len(keys) > 1 or keys[0] < self.seen[count - 1]:
            self.seen[:end].sort(kind="stable")


class RowKeys:
    """Sort keys of whole rows too wide for one word: their bytes viewed as
    np.void, read in place from the rows found, whose ids seen lists in
    key order, so that a merge moves ids, not rows.  Searches read the
    keys through that order (searchsorted's sorter), and compare rows
    only as far as their first difference."""

    def __init__(self, degree: int, itemsize: int):
        self.void = np.dtype((np.void, degree * itemsize))
        self.seen = np.zeros(1, dtype=np.intp)  # the identity

    def pack(self, rows: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(rows).view(self.void).reshape(-1)

    def new(self, keys: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """As WordKeys.new: a stable argsort of the block ranks its keys,
        and a key comes first among equal ones when the first place of its
        value in that ranking holds it."""
        found = self.pack(rows)
        left = found.searchsorted(keys, sorter=self.seen)
        new = found.searchsorted(keys, "right", sorter=self.seen) == left
        if len(keys) > 1:
            at = keys.argsort(kind="stable")
            new &= at.take(keys.searchsorted(keys, sorter=at)) == np.arange(len(keys))
        picks = new.nonzero()[0]
        self._places = left[picks]  # in seen, for add
        return picks, keys[picks]

    def add(self, keys: np.ndarray, count: int) -> None:
        """Inserts into seen the ids count, count + 1, ... of the new rows,
        whose keys new returned, in key order at the places new found."""
        order = keys.argsort()  # distinct keys: the places come out nondecreasing
        slots = self._places[order] + np.arange(len(keys))
        merged = np.empty(len(self.seen) + len(keys), dtype=np.intp)
        merged[slots] = count + order
        kept = np.ones(len(merged), dtype=bool)
        kept[slots] = False
        merged[kept] = self.seen
        self.seen = merged

"""Exact keys for the breadth-first closure in groups.py.

A closure block's candidates are told new or not a block at a time, never
by one probe per candidate.  A candidate's key columns (its images of a
base, or its whole row but the last image, which the others determine)
are entries below the degree; WordKeys packs them exactly into one word at
bit_length(degree - 1) bits an entry, and RowKeys takes rows too wide for
that as their raw bytes.  A word key of at most TABLE_BITS bits indexes a
dense table of one bool a key, 2 MiB at most, that marks the keys found:
one gather tells a block's keys seen or new, and one scatter adds the new
ones.  Wider word keys, whose table would not fit, are looked up in the
sorted keys found instead, whose size follows the order rather than the
key width; so are narrow keys whose table would take more than
TABLE_BYTES_PER_ELEMENT bytes an element of a known order, so that a small
group does not pay for a table many times its own rows.  Distinct rows
always have distinct keys: no scheme that could merge two rows is used,
since a perm spec has no known order that would catch a merge.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

# the widest key that indexes a table, 2 MiB of bools: a whole row of
# degree 8 takes 7 x 3 bits
TABLE_BITS = 21
# bytes of table an element of a known order may take: ASL(3,2)'s rows would
# take a 2 MiB table for 1344 elements, 1.5 MB more at the catalog's peak
TABLE_BYTES_PER_ELEMENT = 64
# the picks of a block of one candidate, found before or new
_NONE = np.zeros(0, dtype=np.intp)
_FIRST = np.zeros(1, dtype=np.intp)
_NONE.flags.writeable = _FIRST.flags.writeable = False


class WordKeys:
    """Keys of rows of key entries below degree, each packed exactly into
    one word, bits apart.  pack reads rows of entries values whose first
    len(columns) are the key entries; the rest weigh nothing, as a whole
    row's last image does.

    A key of a table is its index there, an intp, and the table marks the
    keys of the rows found.  Any other key is a uint64, and seen begins
    with the sorted keys of the rows found.  Positions in a block of up to
    most keys go below the key, shifted up, so that one plain sort of
    key | position orders keys and equal keys by position: pack shifts a
    uint64 key up when the position bits fit beside it, and a table's new
    keys are shifted up by hand, the only ones of a block it sorts."""

    def __init__(self, columns: np.ndarray, bits: int, most: int, order: Optional[int], entries: int):
        width = len(columns) * bits
        shift = max(1, most - 1).bit_length()  # position bits
        table = width <= TABLE_BITS and (order is None or 1 << width <= TABLE_BYTES_PER_ELEMENT * order)
        # a table's keys are packed with no position bits; other keys with
        # them when they fit, else their blocks sort by a stable argsort
        packed = 0 if table or width + shift > 64 else shift
        powers = np.left_shift(1, np.arange(packed, 64, bits, dtype=np.uint64)[: len(columns)])
        identity = columns.astype(np.uint64).dot(powers)
        # float32 sums of a table's weights are exact, all below 2^24, and a
        # BLAS dot takes a fraction of the time of an integer one
        self.weights = np.zeros(entries, dtype=np.float32 if table else np.uint64)
        self.weights[: len(columns)] = powers
        if table:
            self.table = np.zeros(1 << width, dtype=bool)
            self.table[identity] = True
            dtype = np.intp
        else:
            self.table = None
            self.seen = np.empty(order or 1, dtype=np.uint64)
            self.seen[0] = identity
            shift = packed
            dtype = np.uint64
        self.ramp = np.arange(most, dtype=dtype) if shift else None  # block positions
        # the shift and the masks of the position bits and of the rest: a
        # ufunc takes 0-d arrays faster than numpy scalars
        self.shift = np.array(shift, dtype=dtype)
        self.low = np.array((1 << shift) - 1, dtype=dtype)
        self.high = ~self.low

    def pack(self, columns: np.ndarray) -> np.ndarray:
        keys = columns.dot(self.weights)
        return keys if self.table is None else keys.astype(np.intp)

    def new(self, keys: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The positions, in order, of the first of each key of a block
        that no row found has, and those keys, in key order (of rows, the
        rows found, only their number is read).  A table is read once for
        the whole block, and only the new keys are sorted; the sorted store
        sorts a block of more than one key first, which also serves its
        lookup."""
        if self.table is not None:
            return self._new_in_table(keys)
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

    def _new_in_table(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if len(keys) == 1:
            return (_NONE if self.table[keys[0]] else _FIRST), keys
        picks = (~self.table.take(keys)).nonzero()[0]
        if len(picks) < 2:
            return picks, keys.take(picks)
        keys = (keys.take(picks) << self.shift) | self.ramp[: len(picks)]
        keys.sort()
        at = keys & self.low
        keys >>= self.shift
        new = np.empty(len(keys), dtype=bool)
        new[0] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])  # the first of equal keys
        at = at[new]
        at.sort()
        return picks.take(at), keys[new]

    def add(self, keys: np.ndarray, count: int) -> None:
        """Marks keys, those of the rows found from count on, in the table,
        or merges them into seen in place, grown by doubling."""
        if self.table is not None:
            self.table[keys] = True
            return
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

"""Exact keys for the breadth-first closure in groups.py.

A closure block's candidates are told new or not a block at a time, never
by one probe per candidate.  A candidate's key columns (its images of a
base, or its whole row but the last image, which the others determine)
are entries below the degree; WordKeys packs them exactly into one word at
bit_length(degree - 1) bits an entry, and RowKeys takes rows too wide for
that as their raw bytes.  A word key of at most TABLE_BITS bits indexes a
dense table of one bool a key that marks the keys found: one gather tells
a block's keys seen or new, and one scatter adds the new ones.  Wider
word keys are looked up in the sorted keys found, and row keys through
the ids of the rows found in key order; both stores insert a block's new
keys by one scatter into a new array.  FirstOfEqual finds the first of
equal word keys in a block for both word stores.  Distinct rows always
have distinct keys: a perm spec has no known order that would catch a
merge.
"""

from __future__ import annotations

import numpy as np

# the widest key that indexes a table, 2 MiB of bools: a whole row of
# degree 8 takes 7 x 3 bits
TABLE_BITS = 21
# the picks of a block of one candidate, found before or new
_NONE = np.zeros(0, dtype=np.intp)
_FIRST = np.zeros(1, dtype=np.intp)
_NONE.flags.writeable = _FIRST.flags.writeable = False


class FirstOfEqual:
    """The distinct keys of a block of up to most keys of dtype below
    2^width, in order, and the position of the first of each, as
    np.unique(keys, return_index=True) gives them: one plain sort of
    key << shift | position when the position bits fit beside the key in
    its word, else a stable argsort."""

    def __init__(self, width: int, most: int, dtype: type):
        shift = max(1, most - 1).bit_length()  # position bits
        fits = width + shift <= np.iinfo(dtype).max.bit_length()
        self.ramp = np.arange(most, dtype=dtype) if fits else None  # block positions
        # a ufunc takes 0-d arrays faster than Python integers
        self.shift = np.array(shift, dtype=dtype)
        self.low = np.array((1 << shift) - 1, dtype=dtype)

    def __call__(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.ramp is None:
            at = keys.argsort(kind="stable")
            keys = keys.take(at)
        else:
            keys = (keys << self.shift) | self.ramp[: len(keys)]
            keys.sort()
            at = keys & self.low
            keys >>= self.shift
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        return keys[first], at[first]


def _insert(seen: np.ndarray, places: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A new array of seen with values[i] before seen[places[i]], places
    being nondecreasing: values scattered at places + arange, and seen
    filling the rest in order."""
    slots = places + np.arange(len(values))
    merged = np.empty(len(seen) + len(values), dtype=seen.dtype)
    merged[slots] = values
    kept = np.ones(len(merged), dtype=bool)
    kept[slots] = False
    merged[kept] = seen
    return merged


class WordKeys:
    """Keys of rows of key entries below degree, each packed exactly into
    one word, bits apart.  pack reads rows of entries values whose first
    len(columns) are the key entries; the rest weigh nothing, as a whole
    row's last image does.

    A key of a table is its index there, an intp, and the table marks the
    keys of the rows found.  Any other key is a uint64, and seen holds the
    sorted keys of the rows found.  A block has up to most keys."""

    def __init__(self, columns: np.ndarray, bits: int, most: int, entries: int):
        width = len(columns) * bits
        table = width <= TABLE_BITS
        powers = np.left_shift(1, np.arange(0, width, bits, dtype=np.uint64))
        identity = columns.astype(np.uint64).dot(powers)
        # float32 sums of a table's weights are exact, all below 2^24, and a
        # BLAS dot takes a fraction of the time of an integer one
        self.weights = np.zeros(entries, dtype=np.float32 if table else np.uint64)
        self.weights[: len(columns)] = powers
        if table:
            self.table = np.zeros(1 << width, dtype=bool)
            self.table[identity] = True
        else:
            self.table = None
            self.seen = np.array([identity], dtype=np.uint64)
        self.first_of_equal = FirstOfEqual(width, most, np.intp if table else np.uint64)

    def pack(self, columns: np.ndarray) -> np.ndarray:
        keys = columns.dot(self.weights)
        return keys if self.table is None else keys.astype(np.intp)

    def new(self, keys: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The positions, in order, of the first of each key of a block
        that no row found has, and those keys, in key order (rows, the
        rows found, are not read).  A table sorts only the keys it has not
        seen, the sorted store the whole block, which also orders its one
        searchsorted."""
        if self.table is not None:
            if len(keys) == 1:
                return (_NONE if self.table[keys[0]] else _FIRST), keys
            picks = (~self.table.take(keys)).nonzero()[0]
            keys, at = self.first_of_equal(keys.take(picks))
            at = picks.take(at)
        else:
            keys, at = self.first_of_equal(keys)
            places = self.seen.searchsorted(keys)
            new = self.seen.take(places, mode="clip") != keys
            keys, at, self._places = keys[new], at[new], places[new]  # places in seen, for add
        at.sort()
        return at, keys

    def add(self, keys: np.ndarray, count: int) -> None:
        """Marks keys, those of the rows found from count on, in the table,
        or inserts them into seen at the places new found."""
        if self.table is not None:
            self.table[keys] = True
        else:
            self.seen = _insert(self.seen, self._places, keys)


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
        # ranked in place: keys are row views up to 16 KiB wide (the C2^12
        # action's 8190 points), and a gather made that closure 40% slower
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
        self.seen = _insert(self.seen, self._places[order], count + order)

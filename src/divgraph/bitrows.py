"""Relations on 0..n-1 held as bit rows, one int per point: bit j of the
i-th row is set iff i is related to j.  The graph, topology and
connectivity modules read, transpose, close and test their relations here."""

from __future__ import annotations

from functools import reduce
from itertools import compress, count
from operator import getitem, or_

_FLAGS = bytes.maketrans(b"01", b"\0\1")


def select(items, mask: int) -> tuple:
    """The items at the set bits of mask, in increasing bit order."""
    # bin(mask) reversed up to its "0b" prefix is one character per bit,
    # bit 0 first, and translated to bytes it is compress's selectors
    return tuple(compress(items, bin(mask)[:1:-1].encode().translate(_FLAGS)))


def bits(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of mask, in increasing order."""
    return select(count(), mask)


def transpose(masks) -> tuple[int, ...]:
    """The transposed bit matrix: bit i of the j-th mask returned is bit j
    of masks[i].  No mask may have a bit at len(masks) or above: such bits
    are dropped without an error."""
    n = len(masks)
    # character j of a padded, reversed binary string is bit j, so zip
    # turns the strings of the masks into those of the transposed ones
    strings = [format(mask, f"0{n}b")[::-1] for mask in masks]
    return tuple(int("".join(col)[::-1], 2) for col in zip(*strings))


def classes(near: list[int]) -> list[int]:
    """Classes of the equivalence on 0..len(near)-1 generated by i ~ j for
    each bit j of near[i] (a symmetric relation), as bit masks in order of
    their lowest member.  A class grows from its lowest bit, and each near[i]
    is read once, when i joins its class."""
    out = []
    left = (1 << len(near)) - 1
    while left:
        grown = todo = left & -left
        while todo:
            low = todo & -todo
            todo ^= low
            new = near[low.bit_length() - 1] & ~grown
            grown |= new
            todo |= new
        left &= ~grown
        out.append(grown)
    return out


def first_escape(masks) -> tuple[int, int, int] | None:
    """The first (i, j, beyond) where bit j of masks[i] is set and beyond, the
    bits of masks[j] outside masks[i], is not 0; None if there is none.  No
    mask may have a bit at len(masks) or above; the callers check that first.

    The test is the Four Russians block table (Arlazarov, Dinic, Kronrod and
    Faradzev, 1970): for each block of 8 masks, the ORs of its 256 subsets,
    so the OR of the masks[j] over the bits j of m is one lookup per byte of
    m.  The table finds the first failing mask, and only that mask's bits
    are scanned one by one, to name j."""
    tables = []
    for k in range(0, len(masks), 8):
        table = [0]  # entry b: the OR of masks[k + t] over the bits t of b
        for m in masks[k : k + 8]:
            table += [t | m for t in table]
        tables.append(table)
    size = len(tables)
    for i, m in enumerate(masks):
        if reduce(or_, map(getitem, tables, m.to_bytes(size, "little")), 0) & ~m:
            j = next(j for j in bits(m) if masks[j] | m != m)
            return i, j, masks[j] & ~m
    return None

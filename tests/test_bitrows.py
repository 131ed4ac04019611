"""Bit-row helpers against per-bit restatements of their definitions.

n runs from 0 to 40, so the rows come in empty, one-row, full and partial
blocks of 8 (the block table's unit)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from divgraph.bitrows import bits, classes, first_escape, select, transpose


@st.composite
def relations(draw, reflexive=False):
    """Bit rows of a random relation on 0..n-1, with a drawn density."""
    n = draw(st.integers(0, 40))
    p = draw(st.floats(0, 0.5))
    rng = draw(st.randoms(use_true_random=True))
    return [
        sum(1 << j for j in range(n) if (reflexive and i == j) or rng.random() < p)
        for i in range(n)
    ]


def naive_transpose(rows):
    n = len(rows)
    return tuple(sum((rows[i] >> j & 1) << i for i in range(n)) for j in range(n))


def naive_closure(rows):
    """Warshall's transitive closure, one pivot k at a time."""
    rows = list(rows)
    for k in range(len(rows)):
        for i in range(len(rows)):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    return rows


def naive_first_escape(rows):
    for i, m in enumerate(rows):
        for j in range(len(rows)):
            if m >> j & 1 and rows[j] & ~m:
                return i, j, rows[j] & ~m
    return None


def naive_classes(near):
    """Union-find over the pairs of a symmetric relation, each class as a
    mask, listed by lowest member."""
    parent = list(range(len(near)))

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, row in enumerate(near):
        for j in range(len(near)):
            if row >> j & 1:
                parent[find(i)] = find(j)
    masks = {}
    for i in range(len(near)):
        masks[find(i)] = masks.get(find(i), 0) | 1 << i
    return sorted(masks.values(), key=lambda m: m & -m)


@given(st.integers(0, 2**40 - 1))
@settings(max_examples=200, deadline=None)
def test_select_and_bits_read_each_set_bit(mask):
    positions = tuple(j for j in range(mask.bit_length()) if mask >> j & 1)
    assert bits(mask) == positions
    items = [f"x{j}" for j in range(40)]
    assert select(items, mask) == tuple(items[j] for j in positions)


@given(relations())
@settings(max_examples=150, deadline=None)
def test_transpose_is_the_naive_transpose_and_its_own_inverse(rows):
    cols = transpose(rows)
    assert cols == naive_transpose(rows)
    assert transpose(cols) == tuple(rows)


@given(relations())
@settings(max_examples=150, deadline=None)
def test_classes_are_the_union_find_partition(rows):
    near = [row | col for row, col in zip(rows, naive_transpose(rows))]
    assert classes(near) == naive_classes(near)


@given(relations())
@settings(max_examples=150, deadline=None)
def test_first_escape_is_the_naive_first_escape(rows):
    assert first_escape(rows) == naive_first_escape(rows)


@given(relations(reflexive=True), st.data())
@settings(max_examples=150, deadline=None)
def test_first_escape_passes_closures_and_names_a_dropped_pair(rows, data):
    closed = naive_closure(rows)
    assert first_escape(closed) is None
    # drop one pair i <= j that some k in between implies: then only row i
    # fails, and j is the one bit beyond it
    dropped = [
        (i, j)
        for i, row in enumerate(closed)
        for j in bits(row)
        if i != j and any(k not in (i, j) and closed[k] >> j & 1 for k in bits(row))
    ]
    if not dropped:
        return
    i, j = data.draw(st.sampled_from(dropped))
    broken = list(closed)
    broken[i] &= ~(1 << j)
    escape = first_escape(broken)
    assert escape == naive_first_escape(broken)
    assert escape[0] == i and escape[2] == 1 << j

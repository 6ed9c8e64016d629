"""Graphs, Laplacians, spanning trees, the subset table, and divisor class groups."""

import random
from itertools import combinations, product
from math import prod

import pytest

from chipalg.exactla import _mat_vec, determinant
from chipalg.multigraph import (
    Multigraph,
    _adjacency,
    _bits,
    _components,
    connected_splits,
    div_class,
    divisor_class_group,
    laplacian,
    parse_graph,
    subset_images,
    tree_count,
)
from conftest import (
    acyclic_orientations_unique_sink,
    c4,
    connected_by_search,
    data_and_seeded_graphs,
    format_graph,
    k4,
    prism,
    random_connected,
)


def test_validation():
    with pytest.raises(ValueError):
        Multigraph.from_edges(2, {})  # disconnected
    with pytest.raises(ValueError):
        Multigraph.from_edges(2, {(1, 1): 1})  # loop
    with pytest.raises(ValueError):
        Multigraph(2, ((0, 1), (2, 0)))  # asymmetric


def test_components_partition_the_mask():
    # seeded random multiplicity matrices, connected or not, and node masks
    rng = random.Random(33)
    split = 0
    for _ in range(400):
        n = rng.randint(1, 8)
        m = [[0] * n for _ in range(n)]
        for i, j in combinations(range(n), 2):
            if rng.random() < 0.3:
                m[i][j] = m[j][i] = rng.randint(1, 2)
        mask = rng.randrange(1 << n)
        comps = _components(_adjacency(m), mask)
        assert sum(comps) == mask and all(c & d == 0 for c, d in combinations(comps, 2))
        assert [c & -c for c in comps] == sorted(c & -c for c in comps)
        for c in comps:
            assert connected_by_search(m, _bits(c))
        for c, d in combinations(comps, 2):
            assert not any(m[u][v] for u in _bits(c) for v in _bits(d))
        split += len(comps) > 1
    assert split > 50


def test_connected_splits_match_search_oracle():
    # every multiplicity matrix with n <= 4 and multiplicity <= 2: Multigraph
    # accepts exactly the connected ones, and their splits are the pairs
    # of the subset table that the search finds connected on both sides
    graphs = 0
    for n in range(1, 5):
        pairs = list(combinations(range(n), 2))
        for mults in product(range(3), repeat=len(pairs)):
            m = [[0] * n for _ in range(n)]
            for (i, j), w in zip(pairs, mults):
                m[i][j] = m[j][i] = w
            mult = tuple(map(tuple, m))
            if not connected_by_search(mult, range(n)):
                with pytest.raises(ValueError, match="connected"):
                    Multigraph(n, mult)
                continue
            g = Multigraph(n, mult)
            graphs += 1
            expect = tuple(
                (I, d)
                for I, d in subset_images(g)
                if not I >> (n - 1)
                and connected_by_search(mult, _bits(I))
                and connected_by_search(mult, [j for j in range(n) if not I >> j & 1])
            )
            assert connected_splits(g) == expect
    assert graphs == 1 + 2 + 20 + 624


def test_basic_invariants(k4_graph, c4_graph, prism_graph):
    assert k4_graph.num_edges == 6 and k4_graph.genus == 3
    assert c4_graph.num_edges == 4 and c4_graph.genus == 1
    assert prism_graph.num_edges == 9 and prism_graph.genus == 4
    assert k4_graph.is_saturated()
    assert not c4_graph.is_saturated()


def test_laplacian_rows_sum_to_zero(prism_graph):
    lam = laplacian(prism_graph)
    for i in range(prism_graph.n):
        assert sum(lam[i]) == 0
        assert lam[i][i] == prism_graph.degree(i + 1)


def test_tree_counts():
    assert tree_count(k4()) == 16
    assert tree_count(c4()) == 4
    assert tree_count(prism()) == 75
    # Cayley's formula on complete graphs
    for n in range(2, 7):
        kn = Multigraph.from_edges(
            n, {(i, j): 1 for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        )
        assert tree_count(kn) == n ** (n - 2)


def test_tree_count_independent_of_deleted_node():
    rng = random.Random(3)
    for _ in range(10):
        g = random_connected(rng, rng.randint(2, 6))
        lam = laplacian(g)
        dets = {
            determinant([row[:i] + row[i + 1 :] for row in lam[:i] + lam[i + 1 :]])
            for i in range(g.n)
        }
        assert dets == {tree_count(g)}


def test_splits_counts():
    # 2^n - 2 proper non-empty subsets of [n], 2^(n-1) - 1 of them avoiding n
    for n in range(2, 6):
        g = random_connected(random.Random(n), n)
        table = subset_images(g)
        assert len(table) == 2**n - 2
        assert sum(not I >> (n - 1) for I, _ in table) == 2 ** (n - 1) - 1
    assert subset_images(parse_graph("nodes 1")) == ()
    assert len(connected_splits(k4())) == 7
    assert len(connected_splits(prism())) == 22


def test_subset_images_are_laplacian_moves():
    """Each entry of the table is L e_I, on the data graphs and seeded
    graphs with n = 1-6."""
    for g in data_and_seeded_graphs(4):
        lam = laplacian(g)
        for I, d in subset_images(g):
            assert d == _mat_vec(lam, tuple(I >> i & 1 for i in range(g.n)))


def test_subset_table_format():
    """The subsets of the table are node bitmasks, bit i - 1 for node i:
    decoded by ``_bits``, they are the proper non-empty subsets of [n] in
    order of size and then lexicographically, for n = 1-8."""
    rng = random.Random(34)
    for n in range(1, 9):
        g = random_connected(rng, n)
        got = [tuple(i + 1 for i in _bits(I)) for I, _ in subset_images(g)]
        assert got == [I for size in range(1, n) for I in combinations(range(1, n + 1), size)]


def _bits_by_shift(m) -> list:
    return [i for i in range(m.bit_length()) if m >> i & 1]


def test_bits_matches_shift_loop():
    """``_bits`` lists the set bits in ascending order, as a shift over
    every position does: on 0, single bits, dense and sparse masks of
    widths that are and are not multiples of 8, and a sparse mask about
    95,000 bits wide, the width of the barycentric complex's face masks
    at n = 8."""
    rng = random.Random(35)
    masks = [0, 1, 1 << 7, 1 << 8, 1 << 1000]
    for width in (1, 3, 7, 8, 9, 15, 16, 63, 64, 65, 100, 257, 1001):
        top = 1 << (width - 1)
        masks.append(top)
        masks.append((1 << width) - 1)
        masks += [rng.getrandbits(width) | top for _ in range(5)]
        masks += [sum(1 << rng.randrange(width) for _ in range(3)) | top for _ in range(5)]
    wide = 94_585
    masks.append(sum(1 << rng.randrange(wide) for _ in range(40)) | 1 << (wide - 1))
    for m in masks:
        assert _bits(m) == _bits_by_shift(m), m
    assert len(_bits(masks[-1])) > 30


def test_divisor_class_group_order_is_tree_count():
    rng = random.Random(11)
    for _ in range(15):
        g = random_connected(rng, rng.randint(2, 5), max_mult=3)
        grp = divisor_class_group(g)
        assert prod(grp.invariant_factors) == tree_count(g)
        # class arithmetic is consistent: classes add modulo the factors
        a = tuple(rng.randint(-3, 3) for _ in range(g.n))
        b = tuple(rng.randint(-3, 3) for _ in range(g.n))
        ca, cb = grp.class_of(a), grp.class_of(b)
        ab = tuple(x + y for x, y in zip(a, b))
        added = tuple((x + y) % d for x, y, d in zip(ca, cb, grp.invariant_factors))
        assert added == grp.class_of(ab)


def test_laplacian_columns_have_trivial_class():
    g = prism()
    grp = divisor_class_group(g)
    lam = laplacian(g)
    zero = grp.class_of((0,) * g.n)
    for j in range(g.n):
        col = tuple(row[j] for row in lam)
        assert grp.class_of(col) == zero
    assert div_class(g, (1, 0, 0, 0, 0)) != zero  # x_1 is not a lattice element


def test_acyclic_orientations():
    assert acyclic_orientations_unique_sink(k4(), 4) == 6
    assert acyclic_orientations_unique_sink(c4(), 4) == 3
    assert acyclic_orientations_unique_sink(prism(), 6) == 26


def test_relabel_sink_preserves_invariants(prism_graph):
    for i in range(1, 7):
        h = prism_graph.relabel_sink(i)
        assert h.num_edges == prism_graph.num_edges
        assert tree_count(h) == tree_count(prism_graph)
    assert prism_graph.relabel_sink(6) == prism_graph


def test_parse_format_roundtrip():
    for g in (k4(), c4(), prism()):
        assert parse_graph(format_graph(g)) == g
    with pytest.raises(ValueError):
        parse_graph("edge 1 2 1")
    with pytest.raises(ValueError):
        parse_graph("nodes 3\nedge 1 1 2")
    with pytest.raises(ValueError):
        parse_graph("nodes 3\nedge 1 2 0")

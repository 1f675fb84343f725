import random
from itertools import combinations

import pytest

from magsets import (
    ForcedRule,
    forced_vertices,
    is_extremal,
    is_mag_set,
    min_meg_set,
    monitors_directed,
    monitors_directed_by_counting,
    pair_monitors,
    pair_table,
)
from magsets.families import (
    construction_gj,
    cycle_c0,
    cycle_c1,
    directed_path,
    transitive_tournament,
)

from helpers import brute_min_mag, deletion_arc_pairs, random_connected_oriented


def test_deletion_test_on_directed_path():
    g = directed_path(4)
    # the endpoints monitor every arc: each arc lies on the unique 0->3 path
    for a in range(g.m):
        assert monitors_directed(g, 0, 3, a)
    # interior pairs monitor only the arcs between them
    assert monitors_directed(g, 1, 2, g.arc_index(1, 2))
    assert not monitors_directed(g, 1, 2, g.arc_index(0, 1))


def test_deletion_matches_path_counting():
    rng = random.Random(3)
    for _ in range(40):
        g = random_connected_oriented(rng, 6)
        for a in range(g.m):
            for x, y in combinations(range(g.n), 2):
                assert monitors_directed(g, x, y, a) == monitors_directed_by_counting(
                    g, x, y, a
                )


def test_pair_is_unordered():
    g = cycle_c0(5)
    for a in range(g.m):
        for x, y in combinations(range(5), 2):
            assert pair_monitors(g, x, y, a) == pair_monitors(g, y, x, a)


def test_antipodal_pair_fails_both_directions():
    # on C_6 with one source and antipodal sink, the two middle vertices of
    # the opposite runs monitor nothing: neither can reach the other
    g = cycle_c1(6)
    for a in range(g.m):
        assert not pair_monitors(g, 1, 5, a)


def test_pair_table_transpose_consistency():
    rng = random.Random(9)
    for _ in range(25):
        g = random_connected_oriented(rng, 6)
        table = pair_table(g)
        arc_pairs = deletion_arc_pairs(g)
        for a in range(g.m):
            covered = arc_pairs[a]
            for x, y in combinations(range(g.n), 2):
                bit = (x, y) in covered
                assert bit == pair_monitors(g, x, y, a)
                assert bit == bool(table[x][y] >> a & 1) == bool(table[y][x] >> a & 1)


def test_is_mag_set_reports_uncovered():
    g = directed_path(4)
    ok, uncovered = is_mag_set(g, (0, 3))
    assert ok and not uncovered
    ok, uncovered = is_mag_set(g, (0, 1))
    assert not ok
    assert uncovered == frozenset({g.arc_index(1, 2), g.arc_index(2, 3)})


def test_forced_sources_and_sinks():
    g = directed_path(5)
    report = forced_vertices(g)
    assert {0, 4} <= report.vertices
    assert report.reasons[0][0] is ForcedRule.SOURCE
    assert report.reasons[4][0] is ForcedRule.SINK


def test_forced_is_sound():
    rng = random.Random(21)
    for _ in range(30):
        g = random_connected_oriented(rng, 6)
        forced = forced_vertices(g).vertices
        _, witness = brute_min_mag(g)
        # forced vertices appear in the lexicographically-first optimum, and
        # more strongly in every optimum
        size = len(witness)
        for combo in combinations(range(g.n), size):
            if is_mag_set(g, combo)[0]:
                assert forced <= set(combo)


def test_extremal_tournament():
    ok, bad = is_extremal(transitive_tournament(5))
    assert ok and bad is None


def test_extremal_matches_brute_size():
    rng = random.Random(5)
    for _ in range(30):
        g = random_connected_oriented(rng, 5)
        size, _ = brute_min_mag(g)
        assert is_extremal(g)[0] == (size == g.n)


def test_min_meg_on_construction():
    for j in (1, 2, 3):
        res = min_meg_set(construction_gj(j))
        assert res.size == j + 2 and res.optimal
        assert is_meg_witness(construction_gj(j), res.witness)


def is_meg_witness(G, witness):
    from magsets.monitoring import edge_monitors_undirected

    return all(
        any(
            edge_monitors_undirected(G, x, y, e)
            for x, y in combinations(sorted(witness), 2)
        )
        for e in range(G.m)
    )

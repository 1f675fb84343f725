import random

import pytest

from magsets import (
    DisconnectedInputError,
    OrientedGraph,
    SolverConfig,
    TooManyEdgesError,
    UndirectedGraph,
    WidthMismatchError,
    mag_plus_at_least_n,
    min_mag_set,
    orient,
    spectrum,
)
from magsets.families import construction_gj

from helpers import random_connected_undirected, random_tree


def undirected_cycle(n):
    return UndirectedGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def undirected_path(n):
    return UndirectedGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def test_orient_mask_semantics():
    G = undirected_path(3)
    g = orient(G, 0)
    assert g.arcs == ((0, 1), (1, 2))
    g = orient(G, 0b10)  # bit i reverses edge i
    assert set(g.arcs) == {(0, 1), (2, 1)}
    with pytest.raises(WidthMismatchError):
        orient(G, 1 << G.m)


def test_cycle_spectrum_closed_form():
    for n in range(3, 9):
        sp = spectrum(undirected_cycle(n))
        expected = {3} | {2 * k for k in range(1, n // 2 + 1)}
        assert sp.spectrum == frozenset(expected)
        assert sp.mag_minus == 2
        assert sp.mag_plus == (3 if n == 3 else n - 1 if n % 2 else n)


def test_tree_spectrum_witnesses_check_out():
    rng = random.Random(13)
    for _ in range(8):
        T = random_tree(rng, 6)
        sp = spectrum(T)
        lo = min_mag_set(orient(T, sp.witness_min)).size
        hi = min_mag_set(orient(T, sp.witness_max)).size
        assert lo == sp.mag_minus and hi == sp.mag_plus
        assert sp.gap == sp.mag_plus - sp.mag_minus


def test_reversal_symmetry_consistency(monkeypatch):
    # the scan only evaluates half of the masks; the reported values must
    # match an honest full enumeration.  It also solves each orientation as
    # one component (every orientation of a connected graph is weakly
    # connected), so it never asks for the components
    rng = random.Random(29)
    graphs = [random_connected_undirected(rng, 6, extra=2) for _ in range(5)]
    expected = [{min_mag_set(orient(G, mask)).size for mask in range(1 << G.m)} for G in graphs]

    def no_split(self):
        raise AssertionError("the spectrum scan split an orientation into components")

    monkeypatch.setattr(OrientedGraph, "components", no_split)
    for G, sizes in zip(graphs, expected):
        sp = spectrum(G)
        assert sp.spectrum == frozenset(sizes)
        assert sp.mag_minus == min(sizes) and sp.mag_plus == max(sizes)
    # no arcs: the single vertex has mag 0, not a forced vertex of its own
    assert spectrum(UndirectedGraph(1, ())).spectrum == frozenset({0})


def test_disconnected_and_oversized_rejected():
    with pytest.raises(DisconnectedInputError):
        spectrum(UndirectedGraph(4, ((0, 1), (2, 3))))
    big = UndirectedGraph(22, tuple((i, i + 1) for i in range(21)))
    with pytest.raises(TooManyEdgesError):
        spectrum(big)
    small = undirected_cycle(5)
    with pytest.raises(TooManyEdgesError):
        spectrum(small, max_edges=4)


def test_early_exit_flags():
    G = undirected_cycle(6)
    sp = spectrum(G, stop_at_two=True)
    assert sp.mag_minus == 2
    sp = spectrum(G, stop_at_n=True)
    assert sp.mag_plus == 6
    # a stopped scan reports the full scan's witness of the extreme it stops at
    G = UndirectedGraph(6, ((0, 1), (1, 2), (1, 3), (1, 5), (2, 4), (2, 5)))
    sp = spectrum(G, stop_at_n=True)
    assert (sp.mag_plus, sp.witness_max) == (6, spectrum(G).witness_max) == (6, 1)
    G = UndirectedGraph(6, ((0, 1), (0, 2), (1, 4), (2, 3), (2, 4), (2, 5), (3, 5)))
    sp = spectrum(G, stop_at_two=True)
    assert (sp.mag_minus, sp.witness_min) == (2, spectrum(G).witness_min) == (2, 37)


def test_threaded_scan_matches_serial():
    G = undirected_cycle(7)
    serial = spectrum(G, threads=1)
    parallel = spectrum(G, threads=2)
    assert serial == parallel


def test_mag_plus_at_least_n():
    # bipartite graphs always admit a mag = n orientation
    assert mag_plus_at_least_n(undirected_cycle(6))
    assert mag_plus_at_least_n(undirected_path(5))
    # odd cycles never do
    assert not mag_plus_at_least_n(undirected_cycle(5))
    assert not mag_plus_at_least_n(undirected_cycle(7))


def test_construction_gap():
    # G_j realizes meg < mag over all orientations
    for j in (1, 2):
        G = construction_gj(j)
        sp = spectrum(G)
        assert sp.mag_minus == j + 3

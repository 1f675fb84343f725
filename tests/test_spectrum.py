import importlib
import random
import sys
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magsets import (
    BadParamError,
    BudgetExceededError,
    DisconnectedInputError,
    OrientedGraph,
    TooManyEdgesError,
    UndirectedGraph,
    WidthMismatchError,
    forced_vertices,
    is_extremal,
    is_mag_set,
    mag_lower_bound,
    mag_plus_at_least_n,
    min_mag_set,
    orient,
    spectrum,
)
from magsets.cover import DEFAULT_BUDGET
from magsets.families import construction_gj
from magsets.monitoring import _neighbourhoods

from helpers import (
    automorphisms_by_permutation,
    brute_spectrum,
    canonical_masks,
    random_connected_undirected,
    random_tree,
    relabelled_mask,
    scan_work,
)

# the modules; ``magsets.spectrum`` is the function
scan = importlib.import_module("magsets.spectrum")
solver = importlib.import_module("magsets.solver")


def undirected_cycle(n):
    return UndirectedGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def undirected_path(n):
    return UndirectedGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def complete_graph(n):
    return UndirectedGraph(n, tuple(combinations(range(n), 2)))


def star(leaves):
    return UndirectedGraph(leaves + 1, tuple((0, v) for v in range(1, leaves + 1)))


def complete_bipartite(a, b):
    return UndirectedGraph(a + b, tuple((u, a + v) for u in range(a) for v in range(b)))


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
    # and counts the masks up to its stop
    looked_up = [mask for mask in canonical_masks(G) if mask <= 37]
    assert (sp.counts["masks_scanned"], sp.counts["masks_symmetric"]) == (38, 38 - len(looked_up))
    # a stopped scan says so; the full one gives the mag-minus it did not reach
    G = UndirectedGraph(6, ((0, 1), (1, 2), (1, 3), (1, 5), (2, 4), (2, 5)))
    sp = spectrum(G, stop_at_n=True)
    assert (sp.mag_plus, sp.mag_minus, sp.complete) == (6, 5, False)
    sp = spectrum(G)
    assert (sp.spectrum, sp.complete) == (frozenset({4, 5, 6}), True)


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
    # a negative cap is a bad parameter, also where no mask is scanned
    for G in (undirected_cycle(6), undirected_cycle(5)):
        with pytest.raises(BadParamError):
            mag_plus_at_least_n(G, max_edges=-1)


def degree_sorted_connected_graphs(n):
    """Every connected graph on vertices 0..n-1 whose degrees do not
    increase with the vertex number: a labelling of each isomorphism class."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        if degree == sorted(degree, reverse=True):
            G = UndirectedGraph(n, tuple(edges))
            if G.is_connected():
                yield G


def test_mag_plus_at_least_n_matches_every_mask_loop():
    # one mask per orbit decides the extremal test as the loop over every
    # mask with the top bit clear did, on every connected graph with n <= 6
    graphs = [G for n in range(2, 7) for G in degree_sorted_connected_graphs(n)]
    assert len(graphs) == 860
    for G in graphs:
        lookup = scan._neighbourhood_lookup(G)
        every_mask = any(scan._first_unbypassed(*list(lookup(mask))[:4]) is None
                         for mask in range(1 << (G.m - 1)))
        assert mag_plus_at_least_n(G) == every_mask, G.edges


PETERSEN = UndirectedGraph(10, (
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (6, 9), (6, 8), (5, 8),
))


def preserves_edges(G, p):
    return {(min(p[u], p[v]), max(p[u], p[v])) for u, v in G.edges} == set(G.edges)


def test_automorphisms_preserve_edges():
    for n in range(3, 13):
        found = list(scan._automorphisms(undirected_cycle(n)))
        assert len(set(found)) == len(found) == 2 * n
        assert all(preserves_edges(undirected_cycle(n), p) for p in found)
    rng = random.Random(17)
    # K6 has 720 automorphisms and the scan keeps the first 128, so the
    # order of the sequence decides which symmetries it tests masks against
    graphs = [complete_graph(4), complete_graph(6), complete_bipartite(2, 3), star(4), undirected_path(5)] + [
        random_connected_undirected(rng, rng.randint(2, 6), extra=rng.randint(0, 4)) for _ in range(20)
    ]
    for G in graphs:
        found = list(scan._automorphisms(G))
        assert all(preserves_edges(G, p) for p in found)
        # each image is tried in increasing order, vertex by vertex in
        # breadth-first order from 0: the brute-force list in that order
        bfs_order = sorted(range(G.n), key=lambda v: G.distance(0, v))
        assert found == sorted(automorphisms_by_permutation(G), key=lambda p: [p[v] for v in bfs_order])
    found = list(scan._automorphisms(PETERSEN))
    assert len(found) == 120 and all(preserves_edges(PETERSEN, p) for p in found)
    # the search goes one level per vertex, so a path longer than the
    # recursion limit needs it to keep its own stack
    n = sys.getrecursionlimit() + 10
    assert list(scan._automorphisms(undirected_path(n))) == [tuple(range(n)), tuple(range(n - 1, -1, -1))]


@pytest.mark.parametrize("G", [
    undirected_cycle(3),
    undirected_cycle(6),
    undirected_cycle(7),
    complete_graph(4),
    complete_bipartite(2, 3),
    complete_bipartite(3, 3),
    star(5),
    undirected_path(6),
    UndirectedGraph(6, ((0, 1), (1, 2), (1, 3), (1, 5), (2, 4), (2, 5))),
], ids=["C3", "C6", "C7", "K4", "K23", "K33", "star5", "P6", "n6"])
def test_canonical_masks_count_the_orbits(G):
    # Burnside: the orbits of Aut(G) x reversal on the 2^m masks number the
    # average count of masks an element fixes.  With all of Aut(G) kept, the
    # scan looks up exactly one mask per orbit, its least
    auts = automorphisms_by_permutation(G)
    assert len(auts) <= scan._MAX_SYMMETRIES + 1
    full = (1 << G.m) - 1
    fixed = 0
    for p in auts:
        for mask in range(1 << G.m):
            image = relabelled_mask(G, p, mask)
            fixed += (image == mask) + (image ^ full == mask)
    orbits, rest = divmod(fixed, 2 * len(auts))
    assert rest == 0
    canonical = list(scan._canonical_masks(scan._mask_symmetries(G), G.m, 0, 1 << (G.m - 1)))
    assert len(canonical) == orbits
    assert canonical == canonical_masks(G)


def test_construction_gap():
    # G_j realizes meg < mag over all orientations
    for j in (1, 2):
        G = construction_gj(j)
        sp = spectrum(G)
        assert sp.mag_minus == j + 3


@st.composite
def connected_graphs(draw, max_n=7, max_m=9):
    """A connected graph: a random spanning tree plus distinct extra edges."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    rest = [e for e in combinations(range(n), 2) if e not in edges]
    if rest:
        edges.update(draw(st.lists(st.sampled_from(rest), unique=True, max_size=max_m - len(edges))))
    return UndirectedGraph(n, tuple(sorted(edges)))


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
@example(complete_graph(2))
@example(complete_graph(3))
@example(complete_graph(4))
@example(complete_graph(5))
@example(star(5))
@example(star(8))  # |Aut| = 8! > the 128 kept
@example(complete_bipartite(2, 3))
@example(undirected_cycle(5))
@example(undirected_cycle(6))
@example(undirected_cycle(7))
@example(undirected_cycle(8))
def test_spectrum_equals_brute_scan(G):
    # values and witnesses, with 1 and 2 workers: a pool chunk skips a mask
    # whose least orbit mate lies in another chunk
    import concurrent.futures

    want = brute_spectrum(G)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        assert spectrum(G) == spectrum(G, threads=2) == want
    # a stop fires on a new value, so the extreme it stops at and that
    # extreme's witness are the full scan's
    two = spectrum(G, stop_at_two=True)
    if 2 in want.spectrum:
        assert (two.mag_minus, two.witness_min, two.complete) == (2, want.witness_min, False)
    else:
        assert two == want
    top = spectrum(G, stop_at_n=True)
    if G.n in want.spectrum:
        assert (top.mag_plus, top.witness_max, top.complete) == (G.n, want.witness_max, False)
    else:
        assert top == want


@pytest.mark.parametrize("G", [
    undirected_cycle(5),
    undirected_cycle(6),
    complete_graph(4),
    UndirectedGraph(5, tuple((0, v) for v in range(1, 5))),
    UndirectedGraph(6, ((0, 1), (1, 2), (1, 3), (1, 5), (2, 4), (2, 5))),
], ids=["C5", "C6", "K4", "star", "n6"])
def test_scan_works_only_on_masks_that_could_add_a_value(G, monkeypatch):
    # the masks whose sources and sinks are counted are the least of their
    # orbits, and those worked on are the ones whose value could be new
    # (`helpers.scan_work`); only those have their neighbourhoods looked up
    total = 1 << (G.m - 1)
    canonical, want_forced, want_extremal, want_searched, want_completed = scan_work(G)
    counted, looked_up, forced, extremal, searched, completed = [], [], [], [], [], []

    def record_ends(G):
        count = ends_of(G)
        return lambda mask: counted.append(mask) or count(mask)

    def record_lookup(G):
        lookup = lookup_of(G)
        return lambda mask: looked_up.append(mask) or lookup(mask)

    def record_forcing(*neighbourhoods):
        forced.append(looked_up[-1])
        return forcing(*neighbourhoods)

    def record_extremal(*neighbourhoods):
        forced.append(looked_up[-1])
        extremal.append(looked_up[-1])
        return extremal_test(*neighbourhoods)

    def record_solve(*args, **kwargs):
        searched.append(looked_up[-1])
        return solve(*args, **kwargs)

    def record_table(rows):
        completed.append(searched[-1])
        return table(rows)

    lookup_of, forcing, extremal_test = scan._neighbourhood_lookup, scan._forced_reasons, scan._first_unbypassed
    ends_of, solve, table = scan._end_count, scan._solve_connected, solver._pair_table
    monkeypatch.setattr(scan, "_end_count", record_ends)
    monkeypatch.setattr(scan, "_neighbourhood_lookup", record_lookup)
    monkeypatch.setattr(scan, "_forced_reasons", record_forcing)
    monkeypatch.setattr(scan, "_first_unbypassed", record_extremal)
    monkeypatch.setattr(scan, "_solve_connected", record_solve)
    monkeypatch.setattr(solver, "_pair_table", record_table)
    sp = spectrum(G)
    assert counted == canonical
    assert looked_up == forced
    assert (forced, extremal) == (want_forced, want_extremal)
    assert (searched, completed) == (want_searched, want_completed)
    assert len(searched) < total
    assert sp.counts == {
        "masks_scanned": total,
        "masks_symmetric": total - len(canonical),
        "masks_forced": len(forced),
        "masks_searched": len(searched),
        "full_matrices": len(completed),
    }


def budget_outcomes(G, budget):
    """The spectrum at ``budget`` with 1 and with 2 workers; None where it
    raised."""
    outcomes = []
    for threads in (1, 2):
        try:
            outcomes.append(spectrum(G, max_nodes=budget, threads=threads))
        except BudgetExceededError:
            outcomes.append(None)
    return outcomes


N7 = UndirectedGraph(7, ((0, 1), (0, 6), (1, 2), (1, 6), (2, 3), (3, 4), (4, 5), (5, 6)))


def test_budget_outcome_same_for_any_worker_count():
    # a pool chunk starts with nothing seen, so it solves masks the serial
    # scan skips; one of them out of budget must not change the outcome
    want = brute_spectrum(N7)
    for budget in (22, 23, 24, 40):
        serial, pooled = budget_outcomes(N7, budget)
        assert serial == pooled and serial in (None, want), budget


C18 = UndirectedGraph(18, tuple((i, i + 1) for i in range(17)) + ((0, 17),))


def test_budget_outcome_same_for_any_worker_count_above_15_free_vertices():
    # mask 0 of C18 is two directed paths from 0 to 17, which leave 16
    # vertices free; the scan still sweeps it, as every search it hands a
    # level to give up at, so its budget semantics are the sweep's: at one
    # node the sweep runs out in level 3 and reports it, mag 3 has no
    # earlier witness, and both scans raise (branch-and-bound would prove
    # mag 3 in that node); from two nodes on both give the whole spectrum
    want = spectrum(C18)
    outcomes = {budget: budget_outcomes(C18, budget) for budget in (1, 2, 3)}
    assert outcomes == {1: [None, None], 2: [want, want], 3: [want, want]}


class InProcessPool:
    """Stands in for the process pool: the same chunks, run in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_chunked_budget_outcome_matches_serial(monkeypatch):
    # the chunk merge of the pool path, over many budgets and graphs; an
    # out-of-budget mask a chunk leaves open must be judged after the merge
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    rng = random.Random(3)
    graphs = [N7] + [random_connected_undirected(rng, 6, extra=rng.randint(1, 3)) for _ in range(6)]
    for G in graphs:
        want = brute_spectrum(G)
        for budget in (1, 3, 8, 15, 21, 22, 23, 30, 60):
            serial, chunked = budget_outcomes(G, budget)
            assert serial == chunked and serial in (None, want), (G.edges, budget)


def test_budget_stop_before_a_first_witness_raises():
    # at 3 nodes mask 4 is left with mag in [2, 3]; the scan first proves
    # mag 2 at mask 38, later than mask 4, whose mag is in fact 2 (the brute
    # witness): a witness_min of 38 would be wrong, so the scan must raise
    G = UndirectedGraph(6, ((0, 1), (0, 3), (0, 5), (1, 2), (2, 4), (3, 4), (4, 5)))
    assert brute_spectrum(G).witness_min == 4
    with pytest.raises(BudgetExceededError):
        spectrum(G, max_nodes=3)


def test_level_stop_and_chunk_budget_agree(monkeypatch):
    # Serially, mask 76 is settled by the level stop: its sweep finds no
    # cover below level 3 in 5 nodes, and every value in [3, 5] has an
    # earlier witness.  Its pool chunk (masks 64-95) has seen less, so its
    # sweep goes on to level 3 and runs out of budget there; it reports the
    # level it reached, so the merge judges the mask as the serial scan did
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    G = UndirectedGraph(6, ((0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (1, 4), (3, 4), (3, 5)))
    solves = []
    looked_up = []

    def record_lookup(G):
        lookup = lookup_of(G)
        return lambda mask: looked_up.append(mask) or lookup(mask)

    def record_solve(*args, stop=None):
        res, rows = solve(*args, stop=stop)
        solves[-1][looked_up[-1]] = (stop, res.optimal, res.lower)
        return res, rows

    lookup_of, solve = scan._neighbourhood_lookup, scan._solve_connected
    monkeypatch.setattr(scan, "_neighbourhood_lookup", record_lookup)
    monkeypatch.setattr(scan, "_solve_connected", record_solve)
    outcomes = []
    for threads in (1, 2):
        solves.append({})
        outcomes.append(spectrum(G, max_nodes=5, threads=threads))
    serial, chunked = solves
    assert serial[76] == (3, False, 3)  # gave up before level 3
    assert chunked[76] == (4, False, 3)  # out of budget in level 3
    assert outcomes[0] == outcomes[1] == brute_spectrum(G)


def test_bad_threads_and_edge_cap_rejected():
    G = undirected_cycle(5)
    for kwargs in ({"threads": 0}, {"threads": -3}, {"max_edges": -1}):
        with pytest.raises(BadParamError):
            spectrum(G, **kwargs)
    assert spectrum(G, max_edges=5).spectrum == spectrum(G).spectrum


def test_chunk_counts_are_summed(monkeypatch):
    # the pool's counts are the sums of its chunks' counts
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    G = undirected_cycle(8)
    symmetries = scan._mask_symmetries(G)
    parts = [scan._scan_masks(G, symmetries, lo, lo + 32)[2] for lo in range(0, 128, 32)]
    pooled = spectrum(G, threads=2).counts
    assert pooled == {key: sum(part[key] for part in parts) for key in parts[0]}
    assert pooled["masks_scanned"] == 128
    serial = spectrum(G).counts
    assert serial["masks_scanned"] == 128 and serial["masks_searched"] <= pooled["masks_searched"]
    # which masks are the least of their orbits does not depend on the chunks
    assert serial["masks_symmetric"] == pooled["masks_symmetric"] == 128 - len(canonical_masks(G))


def test_neighbourhood_lookup_matches_orientations():
    # a vertex with more edges than fit one table (19 at the default edge
    # cap) gets several; the joined neighbourhoods, the out-links the kernel
    # walks, the count of sources and sinks (whose tables split the edges,
    # not a vertex's edges, into chunks) and the forced set equal those of
    # the built orientation
    rng = random.Random(5)
    star = UndirectedGraph(20, tuple((0, v) for v in range(1, 20)))
    wheel = UndirectedGraph(11, tuple((0, v) for v in range(1, 11)) + tuple(
        (v, v % 10 + 1) for v in range(1, 11)))
    for G in (star, wheel, complete_graph(6)):
        lookup, end_count = scan._neighbourhood_lookup(G), scan._end_count(G)
        for mask in [0, (1 << G.m) - 1] + [rng.randrange(1 << G.m) for _ in range(200)]:
            g = orient(G, mask)
            ins, outs, in_list, out_list, links = lookup(mask)
            want = _neighbourhoods(g)
            assert (list(ins), list(outs)) == (want[0], want[1])
            assert [list(x) for x in in_list] == want[2] and [list(x) for x in out_list] == want[3]
            assert [list(x) for x in links] == g.out_links
            assert end_count(mask) == want[0].count(0) + want[1].count(0)
            assert scan._forced_reasons(ins, outs, in_list, out_list) == forced_vertices(g).reasons


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=8, max_m=11))
def test_mag_plus_at_least_n_equals_extremal_scan(G):
    if G.m == 0:
        return  # a lone vertex is vacuously extremal, but its mag is 0
    want = any(is_extremal(orient(G, mask))[0] for mask in range(1 << G.m))
    assert mag_plus_at_least_n(G) == want


@settings(max_examples=80, deadline=None)
@given(connected_graphs(max_n=8, max_m=12), st.data())
def test_solve_from_lookup_equals_solve_of_built_orientation(G, data):
    # the scan solves an orientation from the lookup's out-links and forced
    # set; the same solve of the built orientation gives the same search
    if G.m == 0:
        return
    mask = data.draw(st.integers(0, (1 << G.m) - 1))
    drawn = data.draw(st.integers(1, 60))
    budget = data.draw(st.sampled_from((1, drawn, DEFAULT_BUDGET)))
    stop = data.draw(st.sampled_from((None,) + tuple(range(2, G.n + 1))))
    ins, outs, in_list, out_list, links = scan._neighbourhood_lookup(G)(mask)
    reasons = scan._forced_reasons(ins, outs, in_list, out_list)
    floor = max(2, G.n - 1) if G.m == G.n * (G.n - 1) // 2 else 2
    lower = max(floor, len(reasons))
    got, got_rows = solver._solve_connected(G.n, G.m, links, frozenset(reasons), lower, budget, stop)
    g = orient(G, mask)
    forced = forced_vertices(g).vertices
    lower = mag_lower_bound(g, forced)
    want, want_rows = solver._solve_connected(g.n, g.m, g.out_links, forced, lower, budget, stop)
    assert (got.size, got.optimal, got.lower, got.nodes) == (want.size, want.optimal, want.lower,
                                                             want.nodes)
    assert (got.witness, got_rows) == (want.witness, want_rows)


def test_spectrum_builds_no_oriented_graph(monkeypatch):
    # every orientation is solved from its mask: no orientation is built,
    # whether a mask is skipped, forced, settled by its forced rows or
    # searched in full
    def refuse(*args, **kwargs):
        raise AssertionError("an OrientedGraph was built")

    monkeypatch.setattr(OrientedGraph, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        orient(PETERSEN, 0)
    for G in (PETERSEN, undirected_cycle(9), N7, complete_graph(5)):
        sp = spectrum(G)
        assert sp.counts["full_matrices"] > 0


def test_mag_plus_at_least_n_builds_symmetries_only_when_needed(monkeypatch):
    # the first 2^_SYM_CHUNK masks are tested as they come; the symmetries
    # are built only when none of them is extremal
    built = []
    symmetries = scan._mask_symmetries
    monkeypatch.setattr(scan, "_mask_symmetries", lambda G: built.append(G) or symmetries(G))
    # mask 0 orients K5 as the transitive tournament; C5 has 16 masks in all
    assert mag_plus_at_least_n(complete_graph(5)) and not mag_plus_at_least_n(undirected_cycle(5))
    assert built == []
    assert not mag_plus_at_least_n(PETERSEN)  # mag+ = 8
    assert built == [PETERSEN]

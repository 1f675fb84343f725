"""A first tour: which vertex pairs watch which arcs, and why.

A pair {x, y} monitors an arc when the arc lies on every shortest directed
path from x to y (or from y to x).  Deleting a monitored arc therefore
strictly increases that distance -- that is the whole detection idea.
"""
from itertools import combinations

from magsets import OrientedGraph, is_mag_set, min_mag_set, pair_monitors, pair_table

g = OrientedGraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)))
print("graph:", g.arcs)

table = pair_table(g)  # table[x][y]: the arcs the pair {x, y} monitors, as a bitmask
for a, arc in enumerate(g.arcs):
    watchers = [(x, y) for x, y in combinations(range(g.n), 2) if table[x][y] >> a & 1]
    print(f"arc {arc} is monitored by {watchers}")

res = min_mag_set(g)
print("\nminimum MAG-set:", sorted(res.witness), f"(size {res.size})")
print("forced vertices:", sorted(res.forced))
for a, pair in sorted(res.coverage.items()):
    print(f"  arc {g.arcs[a]} certified by pair {pair}")

ok, uncovered = is_mag_set(g, res.witness)
assert ok and not uncovered
print("\nsanity: a pair of isolated-looking middle vertices usually fails --")
print("  {1, 4} monitors arc (2,3)?", pair_monitors(g, 1, 4, g.arc_index(2, 3)))

"""Lower bounds for kappa_3 of products versus exact values.

Compares the three-way-minimum bound and the factor-connectivity range
bound against exact search on products small enough to search, and shows
the connectivity sandwich that holds for every graph.
"""

from treeconn.certificates import (
    factor_kappa3,
    lower_bound_theorem14,
    lower_bound_theorem15,
)
from treeconn.connectivity import kappa3_range_from_kappa, vertex_connectivity
from treeconn.graphs import cartesian_product, complete, cycle, path
from treeconn.packing import kappa_k

pairs = [
    ("K3", complete(3), "K3", complete(3)),
    ("C3", cycle(3), "C4", cycle(4)),
    ("P2", path(2), "K4", complete(4)),
    ("C4", cycle(4), "C4", cycle(4)),
]

for gname, g, hname, h in pairs:
    prod = cartesian_product(g, h)
    # each factor's kappa, kappa_3 and minimum degree, computed once
    ng, nh = [(vertex_connectivity(f), factor_kappa3(f), f.min_degree()) for f in (g, h)]
    lb = lower_bound_theorem14(*ng, *nh)
    exact = kappa_k(prod, 3, use_symmetry=True)[0]
    verdict = "tight" if exact == lb else f"slack by {exact - lb}"
    print(f"{gname} x {hname}: bound {lb}, exact {exact} ({verdict})")
    for (kb, k3b, _), bname, (l, _, _) in ((ng, gname, nh), (nh, hname, ng)):
        rb = lower_bound_theorem15(kb, k3b, l)
        if rb is not None:
            print(f"  range bound via {bname} (l={l}): {rb}")
            assert exact >= rb
print()

print("connectivity sandwich: kappa3 always between the floor formula and kappa")
for name, g in [("K5", complete(5)), ("C6", cycle(6)), ("C4xC4",
                cartesian_product(cycle(4), cycle(4)))]:
    kappa = vertex_connectivity(g)
    lo, hi = kappa3_range_from_kappa(kappa)
    k3 = factor_kappa3(g)
    print(f"{name}: {lo} <= kappa3 = {k3} <= {hi} (kappa = {kappa})")
    assert lo <= k3 <= hi

"""Constructive lower-bound certificates on a Cartesian product.

For each way a 3-set S can sit across the two coordinates of K4 box C4,
build an explicit family of internally disjoint S-trees witnessing the
applicable lower bound, then re-verify the family structurally.
"""

from treeconn.certificates import certify, classify_position
from treeconn.graphs import cartesian_product, complete, cycle, flat_id

g, h = complete(4), cycle(4)
prod = cartesian_product(g, h)
print(f"G = K4, H = C4, product: {prod.n} vertices, {prod.m} edges")
print()

positions = [
    [(0, 0), (1, 1), (2, 2)],   # coordinates all distinct
    [(0, 0), (0, 1), (1, 0)],   # an L-corner
    [(0, 0), (1, 0), (2, 1)],   # two share an H-coordinate
    [(0, 0), (1, 0), (2, 0)],   # one H-layer
    [(0, 0), (0, 1), (0, 2)],   # one G-fiber
]

for pairs in positions:
    s = tuple(sorted(flat_id(u, v, h.n) for u, v in pairs))
    pos = classify_position(g, h, s)
    cert = certify(g, h, s)
    err = cert.verify()
    assert err is None, err
    print(f"S = {pairs}  [{pos.label}]")
    print(f"  construction {cert.provenance}: {len(cert.bundle)} disjoint "
          f"S-trees, so kappa(S) >= {cert.claimed_bound}")
    tree = cert.bundle.trees[0]
    rendered = [
        f"{divmod(a, h.n)}-{divmod(b, h.n)}" for a, b in sorted(tree.edges)
    ]
    print(f"  first tree: {', '.join(rendered)}")
    print()

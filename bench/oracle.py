"""Output checks that share no code with treeconn.

Everything here works on plain ints, tuples and the JSON certificate
document, so a defect in the library cannot hide itself by also breaking
the check.  The definitions are the paper's: an S-tree is a tree of the
graph whose vertex set contains S; a packing is a family of S-trees that
pairwise share no edge and no vertex outside S.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

Edge = tuple[int, int]


def norm(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


def product_adjacent(g_edges: set[Edge], h_edges: set[Edge], hn: int) -> Callable[[int, int], bool]:
    """Adjacency of G □ H on flat ids (u, v) -> u * |V(H)| + v, by arithmetic."""

    def adjacent(x: int, y: int) -> bool:
        (u1, v1), (u2, v2) = divmod(x, hn), divmod(y, hn)
        if u1 == u2:
            return norm(v1, v2) in h_edges
        return v1 == v2 and norm(u1, u2) in g_edges

    return adjacent


def packing_error(
    n: int,
    adjacent: Callable[[int, int], bool],
    s: Sequence[int],
    trees: Iterable[Iterable[Sequence[int]]],
    need: int,
) -> str | None:
    """None when `trees` are at least `need` internally disjoint S-trees."""
    terms = set(s)
    if len(terms) != 3 or len(s) != 3:
        return f"terminal set {list(s)} is not three distinct vertices"
    if not all(isinstance(x, int) and 0 <= x < n for x in terms):
        return f"terminal set {list(s)} leaves the graph"
    used_edges: set[Edge] = set()
    used_inner: set[int] = set()
    count = 0
    for i, raw in enumerate(trees):
        edges = {norm(int(a), int(b)) for a, b in raw}
        verts = {x for e in edges for x in e}
        if any(not 0 <= x < n for x in verts) or any(a == b for a, b in edges):
            return f"tree {i}: vertex out of range or loop"
        if not all(adjacent(a, b) for a, b in edges):
            return f"tree {i}: uses a non-edge"
        if not terms <= verts or len(edges) != len(verts) - 1 or not _connected(verts, edges):
            return f"tree {i}: not a tree spanning the terminals"
        if edges & used_edges:
            return f"tree {i}: shares an edge"
        inner = verts - terms
        if inner & used_inner:
            return f"tree {i}: shares a non-terminal vertex"
        used_edges |= edges
        used_inner |= inner
        count += 1
    if count < need:
        return f"{count} trees, {need} needed"
    return None


def _connected(verts: set[int], edges: set[Edge]) -> bool:
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    start = next(iter(verts))
    seen = {start}
    stack = [start]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(verts)


def document_error(doc: dict, gn: int, g_edges: set[Edge], hn: int, h_edges: set[Edge]) -> str | None:
    """None when a certificate document is sound for the factors G and H."""
    factors = doc["factors"]
    for entry, n, edges in ((factors["g"], gn, g_edges), (factors["h"], hn, h_edges)):
        if entry["n"] != n or {norm(a, b) for a, b in entry["edges"]} != edges:
            return "factor differs from the input"
    claimed = doc["claimed_bound"]
    if not isinstance(claimed, int) or claimed < 1:
        return f"claimed bound {claimed!r} is not a positive integer"
    adjacent = product_adjacent(g_edges, h_edges, hn)
    return packing_error(gn * hn, adjacent, doc["s"]["flat"], doc["trees"], claimed)


def spacapan_kappa(kappa_g: int, n_g: int, delta_g: int, kappa_h: int, n_h: int, delta_h: int) -> int:
    """Vertex connectivity of G □ H (Špacapan, Appl. Math. Lett. 21, 2008)."""
    return min(kappa_g * n_h, kappa_h * n_g, delta_g + delta_h)


def kappa3_sandwich(kappa: int) -> tuple[int, int]:
    """The range of κ3 that κ = 4k + r implies, as `kappa3 --mode bounds` prints it."""
    k, r = divmod(kappa, 4)
    return 3 * k + (r + 1) // 2, kappa

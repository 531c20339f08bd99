import hashlib
from itertools import combinations, permutations

import pytest

from treeconn.bundles import (
    OriginalPathBundle,
    ReducedPathBundle,
    find_cycle_through_edges,
    find_reduced_bundle,
    verify_original_bundle,
    verify_reduced_bundle,
)
from treeconn.connectivity import vertex_connectivity
from treeconn.errors import Budget, BudgetExhausted
from treeconn.graphs import (
    Graph,
    cartesian_product,
    complete,
    complete_bipartite,
    complete_tripartite,
    cycle,
    path,
)


def test_verify_original_accepts_hand_built():
    g = complete(5)
    b = OriginalPathBundle(0, 1, 2, 1, ((0, 2, 1), (0, 3, 1), (0, 4, 1)))
    assert verify_original_bundle(g, b) is None


def test_verify_original_rejects_violations():
    g = complete(5)
    # through path misses u3
    b = OriginalPathBundle(0, 1, 2, 1, ((0, 3, 1), (0, 4, 1)))
    assert verify_original_bundle(g, b) is not None
    # u3 internal to a non-designated path
    b = OriginalPathBundle(0, 1, 2, 0, ((0, 2, 1), (0, 3, 1)))
    assert verify_original_bundle(g, b) == "u3 on non-designated path"
    # shared internal vertex
    b = OriginalPathBundle(0, 1, 2, 0, ((0, 3, 1), (0, 3, 4, 1)))
    assert "shared" in verify_original_bundle(g, b)
    # wrong endpoints
    b = OriginalPathBundle(0, 1, 2, 0, ((0, 3, 4),))
    assert verify_original_bundle(g, b) is not None


O, R = OriginalPathBundle, ReducedPathBundle


@pytest.mark.parametrize(
    "bundle,message",
    [
        (O(0, 0, 2, 0, ((0, 3, 0),)), "anchor vertices not distinct"),
        (O(0, 1, 2, 2, ((0, 2, 1), (0, 2, 3, 1))), "invalid (s,t) = (2,2)"),
        (O(0, 1, 2, 0, ((0, 3, 3, 1),)), "path 1: path [0, 3, 3, 1] repeats a vertex"),
        (
            O(0, 1, 2, 2, ((0, 2, 1), (0, 2, 1), (0, 3, 1))),
            "edge (0, 2) shared between paths",
        ),
    ],
)
def test_verify_original_rejections(bundle, message):
    assert verify_original_bundle(complete(5), bundle) == message


FREE2 = O(0, 1, 2, 0, ((0, 3, 1), (0, 4, 1)))


@pytest.mark.parametrize(
    "n,bundle,message",
    [
        (6, R(FREE2, ((2, 3), (2, 2, 4))), "connector 2: path [2, 2, 4] repeats a vertex"),
        (6, R(FREE2, ((5, 3), (2, 4))), "connector 1 does not start at u3"),
        (6, R(FREE2, ((2, 5), (2, 4))), "connector 1 does not terminate on a u3-free path"),
        (6, R(FREE2, ((2, 4, 3), (2, 4))), "connector 1 passes through a u3-free path"),
        (
            7,
            R(FREE2, ((2, 5, 3), (2, 5, 4))),
            "connector 2 shares an internal vertex with another connector",
        ),
        (
            7,
            R(O(0, 1, 2, 1, ((0, 5, 2, 1), (0, 3, 1), (0, 4, 1))), ((2, 5, 3),)),
            "connector 1 touches a designated path internally",
        ),
        (
            7,
            R(O(0, 1, 2, 1, ((0, 2, 1), (0, 3, 1), (0, 4, 1))), ((2, 0),)),
            "connector 1 reuses edge (0, 2)",
        ),
        # the base bundle's own error comes first
        (7, R(O(0, 1, 2, 0, ((0, 2, 1),)), ((2, 0),)), "u3 on non-designated path"),
    ],
)
def test_verify_reduced_rejections(n, bundle, message):
    assert verify_reduced_bundle(complete(n), bundle) == message


def test_verify_reduced_alignment():
    g = complete(6)
    base = OriginalPathBundle(0, 1, 2, 0, ((0, 3, 1), (0, 4, 1)))
    good = ReducedPathBundle(base, ((2, 3), (2, 4)))
    assert verify_reduced_bundle(g, good) is None
    # connector 1 lands on free path 2 -> misaligned
    bad = ReducedPathBundle(base, ((2, 4), (2, 3)))
    assert "misaligned" in verify_reduced_bundle(g, bad)
    # wrong connector count
    short = ReducedPathBundle(base, ((2, 3),))
    assert "connectors" in verify_reduced_bundle(g, short)


def test_find_reduced_bundle_smallest_t_first():
    # only 3 paths 0-1 avoid vertex 2 in K5, so t=0 fails and t=1 is minimal
    g = complete(5)
    rb = find_reduced_bundle(g, 4, 0, 1, 2, budget=Budget())
    assert rb is not None
    assert rb.base.t == 1
    assert rb.base.s == 4
    assert len(rb.connectors) == 2


def test_find_reduced_bundle_forced_t():
    g = complete(6)
    for t in (0, 1, 2):
        rb = find_reduced_bundle(g, 4, 0, 1, 2, t=t, budget=Budget())
        assert rb is not None and rb.base.t == t
        assert len(rb.connectors) == 4 - 2 * t
        assert verify_reduced_bundle(g, rb) is None


def test_find_reduced_bundle_cycle():
    # C6: exactly 2 disjoint u1-u2 paths, u3 on one of them -> (2,1)-bundle
    g = cycle(6)
    rb = find_reduced_bundle(g, 2, 0, 3, 1, budget=Budget())
    assert rb is not None
    assert rb.base.t == 1 and len(rb.connectors) == 0


def test_find_reduced_bundle_infeasible():
    g = path(4)
    assert find_reduced_bundle(g, 2, 0, 3, 1, budget=Budget()) is None


def test_find_reduced_bundle_deterministic():
    g = complete_bipartite(3, 4)
    a = find_reduced_bundle(g, 3, 3, 4, 5, budget=Budget())
    b = find_reduced_bundle(g, 3, 3, 4, 5, budget=Budget())
    assert a == b


def test_budget_exhaustion_raises():
    g = complete(7)
    with pytest.raises(BudgetExhausted):
        find_reduced_bundle(g, 6, 0, 1, 2, budget=Budget(10))


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def test_find_reduced_bundle_pinned():
    # every ordered anchor triple and every t of four factors with kappa 3
    # or 4: 2,670 searches, 1,698 of them successful.  A changed digest
    # means a changed bundle or a changed tick count.
    digest = hashlib.sha256()
    graphs = (_petersen(), complete_bipartite(3, 4), complete_tripartite(2, 2, 3), complete(5))
    for g in graphs:
        k = vertex_connectivity(g)
        for u1, u2, u3 in permutations(range(g.n), 3):
            for t in range(k // 2 + 1):
                budget = Budget()
                rb = find_reduced_bundle(g, k, u1, u2, u3, t=t, budget=budget)
                digest.update(repr((rb, budget.used)).encode())
    assert digest.hexdigest() == (
        "07c5efb8e0dda89b06f8ad3a912f4c87e6f520433eee76d8c75e5d2cab5ad683"
    )


# -- cycle through three independent edges ---------------------------------


def _component_count(g: Graph, removed: set) -> int:
    seen: set[int] = set()
    comps = 0
    for v in range(g.n):
        if v in seen:
            continue
        comps += 1
        stack = [v]
        seen.add(v)
        while stack:
            x = stack.pop()
            for y in g.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return comps  # caller passes g with edges already removed


def _edges_removed(g: Graph, triple) -> Graph:
    drop = {tuple(sorted(e)) for e in triple}
    return Graph(g.n, [e for e in g.edges if e not in drop])


def _is_edge_cut(g: Graph, triple) -> bool:
    return not _edges_removed(g, triple).is_connected()


def _independent_triples(g: Graph):
    for triple in combinations(g.sorted_edges(), 3):
        ends = [v for e in triple for v in e]
        if len(set(ends)) == 6:
            yield triple


@pytest.mark.parametrize(
    "g",
    [
        cartesian_product(cycle(3), path(2)),  # triangular prism, 3-connected
        cartesian_product(path(2), cartesian_product(path(2), path(2))),  # Q3
        complete_bipartite(3, 3),
    ],
    ids=["prism", "cube", "k33"],
)
def test_cycle_exists_iff_not_edge_cut(g):
    for triple in _independent_triples(g):
        cyc = find_cycle_through_edges(g, *triple)
        if _is_edge_cut(g, triple):
            assert cyc is None
        else:
            assert cyc is not None
            # the cycle really is a cycle containing the three edges
            assert len(set(cyc)) == len(cyc)
            ring = list(zip(cyc, cyc[1:] + cyc[:1]))
            ring_edges = {tuple(sorted(e)) for e in ring}
            assert all(g.has_edge(a, b) for a, b in ring)
            for e in triple:
                assert tuple(sorted(e)) in ring_edges


def test_cycle_finder_validates_input():
    g = complete(6)
    with pytest.raises(ValueError):
        find_cycle_through_edges(g, (0, 1), (1, 2), (3, 4))  # adjacent pair
    with pytest.raises(ValueError):
        find_cycle_through_edges(cycle(6), (0, 1), (2, 3), (4, 5))  # kappa 2


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: find_reduced_bundle(complete(6), 4, 0, 0, 1, budget=Budget()), "anchor vertices must be distinct"),
        # (0, 1) joins two vertices of one side of K3,3
        (
            lambda: find_cycle_through_edges(complete_bipartite(3, 3), (0, 1), (2, 3), (4, 5)),
            r"\(0,1\) is not an edge",
        ),
    ],
    ids=["repeated-anchor", "non-edge"],
)
def test_bundles_refuse_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_cycle_canonical_form():
    g = cartesian_product(cycle(3), path(2))
    for triple in _independent_triples(g):
        cyc = find_cycle_through_edges(g, *triple)
        if cyc is not None:
            assert cyc[0] == min(cyc)
            assert cyc[1] <= cyc[-1]

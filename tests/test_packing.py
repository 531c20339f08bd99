from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

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
from treeconn.packing import (
    STree,
    STreeBundle,
    automorphisms,
    iter_minimal_s_trees,
    kappa_k,
    kappa3_formula,
    max_internally_disjoint_trees,
    pack_trees,
    subset_orbit_reps,
    verify_bundle,
)


def kappa3(g, **kw):
    return kappa_k(g, 3, **kw)[0]


# -- S-tree and bundle checkers --------------------------------------------


def test_stree_check_catches_violations():
    g = cycle(5)
    assert STree(frozenset({(0, 1), (1, 2)})).check(g, [0, 2]) is None
    assert STree(frozenset()).check(g, [0, 2]) is not None
    assert STree(frozenset({(0, 2)})).check(g, [0, 2]) is not None  # non-edge
    assert STree(frozenset({(0, 1)})).check(g, [0, 2]) is not None  # misses 2
    # degree-1 vertex outside S
    assert STree(frozenset({(0, 1), (1, 2), (2, 3)})).check(g, [0, 2]) is not None
    # cycle, not a tree
    all_edges = STree(frozenset(g.edges))
    assert all_edges.check(g, [0, 2]) is not None


def test_verify_bundle_disjointness():
    g = complete(4)
    t1 = STree(frozenset({(0, 1), (1, 2)}))
    t2 = STree(frozenset({(0, 3), (1, 3), (2, 3)}))
    s = (0, 1, 2)
    assert verify_bundle(g, STreeBundle(s, (t1, t2))) is None
    overlap = STree(frozenset({(0, 1), (1, 3), (2, 3)}))
    err = verify_bundle(g, STreeBundle(s, (t1, overlap)))
    assert "share edge" in err


def test_verify_bundle_internal_vertex_clash():
    g = complete(6)
    t1 = STree(frozenset({(0, 3), (1, 3), (2, 3)}))
    # shares non-terminal vertex 3 with t1 but no edge
    t2 = STree(frozenset({(0, 4), (2, 4), (3, 4), (3, 5), (1, 5)}))
    err = verify_bundle(g, STreeBundle((0, 1, 2), (t1, t2)))
    assert "share non-terminal vertex 3" in err


# -- minimal S-tree enumeration --------------------------------------------


def _brute_minimal_trees(g, s):
    """All minimal S-trees by filtering every edge subset (tiny graphs)."""
    sset = set(s)
    out = set()
    edges = g.sorted_edges()
    for r in range(len(s) - 1, g.n):
        for sub in combinations(edges, r):
            t = STree(frozenset(sub))
            if t.check(g, s) is None:
                out.add(t.edges)
    return out


@pytest.mark.parametrize(
    "g,s",
    [
        (complete(4), (0, 1, 2)),
        (cycle(5), (0, 2, 3)),
        (complete_bipartite(2, 3), (0, 1, 2)),
        (path(4), (0, 1, 3)),
        (cycle(4), (0, 1)),
    ],
)
def test_enumeration_matches_brute_force(g, s):
    enumerated = [t.edges for t in iter_minimal_s_trees(g, s, budget=Budget(10**6))]
    assert len(enumerated) == len(set(enumerated)), "duplicates emitted"
    assert set(enumerated) == _brute_minimal_trees(g, s)


def test_enumeration_respects_bans():
    g = complete(4)
    trees = list(
        iter_minimal_s_trees(
            g, (0, 1, 2), banned_v=frozenset({3}), budget=Budget(10**6)
        )
    )
    assert all(3 not in t.vertices for t in trees)
    trees = list(
        iter_minimal_s_trees(
            g, (0, 1, 2), banned_e=frozenset({(0, 1)}), budget=Budget(10**6)
        )
    )
    assert all((0, 1) not in t.edges for t in trees)


# -- packing and kappa_k ----------------------------------------------------


def test_pack_trees_exact_decision():
    g = complete(4)
    assert pack_trees(g, (0, 1, 2), 2, Budget(10**6)) is not None
    assert pack_trees(g, (0, 1, 2), 3, Budget(10**6)) is None


def test_pack_trees_budget():
    g = cartesian_product(cycle(4), cycle(4))
    with pytest.raises(BudgetExhausted):
        pack_trees(g, (0, 5, 10), 3, Budget(5))


KNOWN_KAPPA3 = [
    (complete(3), 1),
    (complete(4), 2),
    (complete(5), 3),
    (complete(6), 4),  # b - 2
    (complete_bipartite(2, 2), 1),
    (complete_bipartite(2, 3), 2),
    (complete_bipartite(3, 3), 2),
    (complete_bipartite(2, 4), 2),
    (complete_bipartite(4, 4), 3),  # a - 1 / a rules
    (cycle(6), 1),
    (path(5), 1),
    (complete_tripartite(1, 1, 2), 2),
    (complete_tripartite(1, 2, 3), 3),
]


@pytest.mark.parametrize("g,expected", KNOWN_KAPPA3, ids=lambda x: str(x))
def test_kappa3_known_values(g, expected):
    if isinstance(g, Graph):
        assert kappa3(g) == expected


def test_kappa_k_witness_is_valid():
    g = complete_bipartite(3, 3)
    val, s, bundle = kappa_k(g, 3)
    assert val == 2
    assert bundle.s == s and len(bundle) == 2
    assert verify_bundle(g, bundle) is None


def test_kappa_k_symmetry_agrees():
    for g in (complete(5), cycle(6), complete_bipartite(2, 3)):
        assert kappa_k(g, 3)[0] == kappa_k(g, 3, use_symmetry=True)[0]


def test_max_trees_monotone_under_edge_removal():
    g = complete(5)
    sub = Graph(5, set(g.edges) - {(0, 1)})
    s = (0, 1, 2)
    assert (
        max_internally_disjoint_trees(sub, s)[0]
        <= max_internally_disjoint_trees(g, s)[0]
    )


def test_kappa_2_equals_kappa_cross_check():
    for g in (complete(5), cycle(7), complete_bipartite(2, 4),
              cartesian_product(path(3), path(3))):
        assert kappa_k(g, 2)[0] == vertex_connectivity(g)


# -- automorphisms ----------------------------------------------------------


def test_automorphism_counts():
    assert len(automorphisms(complete(4))) == 24
    assert len(automorphisms(cycle(5))) == 10  # dihedral
    assert len(automorphisms(path(4))) == 2
    assert len(automorphisms(complete_bipartite(2, 3))) == 12


def test_orbit_reps_cover_all_subsets():
    g = cycle(6)
    autos = automorphisms(g)
    reps = subset_orbit_reps(g, 3, autos)
    # every 3-subset maps to some rep
    covered = set()
    for rep in reps:
        for p in autos:
            covered.add(tuple(sorted(p[v] for v in rep)))
    assert covered == set(combinations(range(6), 3))


# -- closed-form oracles ----------------------------------------------------


def test_formula_matches_search_bipartite():
    for a in range(2, 4):
        for b in range(a, 4):
            assert kappa3_formula("complete_bipartite", [a, b]) == kappa3(
                complete_bipartite(a, b)
            )


def test_formula_matches_search_tripartite():
    for parts in [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3), (2, 2, 2)]:
        assert kappa3_formula("complete_tripartite", parts) == kappa3(
            complete_tripartite(*parts)
        )


def test_formula_complete_and_cycle_product():
    for b in range(3, 7):
        assert kappa3_formula("complete", [b]) == b - 2
    assert kappa3_formula("cycle_product", [1]) == 1
    assert kappa3_formula("cycle_product", [2]) == 3
    assert kappa3_formula("complete_times_complete", [2, 3]) == 3


def test_formula_rejects_bad_input():
    with pytest.raises(ValueError):
        kappa3_formula("complete", [2])
    with pytest.raises(ValueError):
        kappa3_formula("unknown", [1])


# -- invariants under relabeling -------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(range(5))))
def test_kappa3_invariant_under_relabeling(perm):
    g = complete_bipartite(2, 3)
    relabeled = Graph(5, [(perm[a], perm[b]) for a, b in g.edges])
    assert kappa3(relabeled) == 2

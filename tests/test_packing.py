import hashlib
import inspect
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from treeconn import bundles, certificates, packing
from treeconn.bundles import find_reduced_bundle
from treeconn.connectivity import (
    kappa3_range_from_kappa,
    kappa3_upper_adjacent_min_degree,
    vertex_connectivity,
)
from treeconn.errors import Budget, BudgetExhausted
from treeconn.graphs import (
    Graph,
    cartesian_product,
    complete,
    complete_bipartite,
    complete_tripartite,
    cycle,
    join_complete_empty2,
    path,
)
from treeconn.packing import (
    STree,
    STreeBundle,
    automorphism_generators,
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


def _tree_error(g, tree, s):
    """verify_bundle on the one-tree bundle of `tree`."""
    return verify_bundle(g.has_edge, STreeBundle(tuple(sorted(s)), (tree,)))


def test_stree_check_catches_violations():
    g = cycle(5)
    assert _tree_error(g, STree(frozenset({(0, 1), (1, 2)})), [0, 2]) is None
    assert _tree_error(g, STree(frozenset()), [0, 2]) is not None
    assert _tree_error(g, STree(frozenset({(0, 2)})), [0, 2]) is not None  # non-edge
    assert _tree_error(g, STree(frozenset({(0, 1)})), [0, 2]) is not None  # misses 2
    # degree-1 vertex outside S
    assert _tree_error(g, STree(frozenset({(0, 1), (1, 2), (2, 3)})), [0, 2]) is not None
    # cycle, not a tree
    all_edges = STree(frozenset(g.edges))
    assert _tree_error(g, all_edges, [0, 2]) is not None


def test_verify_bundle_disjointness():
    g = complete(4)
    t1 = STree(frozenset({(0, 1), (1, 2)}))
    t2 = STree(frozenset({(0, 3), (1, 3), (2, 3)}))
    s = (0, 1, 2)
    assert verify_bundle(g.has_edge, STreeBundle(s, (t1, t2))) is None
    overlap = STree(frozenset({(0, 1), (1, 3), (2, 3)}))
    err = verify_bundle(g.has_edge, STreeBundle(s, (t1, overlap)))
    assert "share edge" in err


def test_verify_bundle_internal_vertex_clash():
    g = complete(6)
    t1 = STree(frozenset({(0, 3), (1, 3), (2, 3)}))
    # shares non-terminal vertex 3 with t1 but no edge
    t2 = STree(frozenset({(0, 4), (2, 4), (3, 4), (3, 5), (1, 5)}))
    err = verify_bundle(g.has_edge, STreeBundle((0, 1, 2), (t1, t2)))
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
            if _tree_error(g, t, s) is None:
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
    assert verify_bundle(g.has_edge, bundle) is None


def test_kappa_k_symmetry_agrees():
    for g in (complete(5), cycle(6), complete_bipartite(2, 3)):
        assert kappa_k(g, 3)[0] == kappa_k(g, 3, use_symmetry=True)[0]


def test_kappa_k_skips_automorphisms_at_the_floor(monkeypatch):
    calls = []
    flows = []
    real = packing.automorphism_generators
    real_kappa = packing.vertex_connectivity

    def counting(g, *args, **kwargs):
        calls.append(g)
        return real(g, *args, **kwargs)

    def counting_kappa(g):
        flows.append(g)
        return real_kappa(g)

    monkeypatch.setattr(packing, "automorphism_generators", counting)
    monkeypatch.setattr(packing, "vertex_connectivity", counting_kappa)
    value, witness, bundle = kappa_k(cycle(8), 3, use_symmetry=True)
    assert (value, witness, bundle.s) == (1, (0, 1, 2), (0, 1, 2))
    assert calls == [] and flows == []
    # the least subset meets the Li-Li-Zhou floor (kappa 3 gives 2, kappa 4
    # gives 3), and kappa(G) is computed once
    cases = (
        (complete(4), 2),
        (complete_tripartite(2, 2, 2), 3),
        (cartesian_product(complete(3), complete(3)), 3),
    )
    for g, value in cases:
        assert kappa_k(g, 3, use_symmetry=True)[0] == value
    assert calls == [] and flows == [g for g, _ in cases]
    # K3,4: the least subset {0, 1, 2} has kappa 4, above the floor 2 of
    # kappa = 3, so kappa(G) is computed once and the orbits are searched
    assert kappa_k(complete_bipartite(3, 4), 3, use_symmetry=True)[0] == 3
    assert calls == [complete_bipartite(3, 4)]
    assert flows == [g for g, _ in cases] + [complete_bipartite(3, 4)]


def _least_min_subset(g):
    """The least 3-set of least kappa(S), each kappa(S) searched from its own
    upper bound."""
    best = None
    for s in combinations(range(g.n), 3):
        value = packing._kappa_value(g, s, packing._room(g, s), Budget())[0]
        if best is None or value < best[0]:
            best = value, s
    return best


def test_kappa_k_agrees_with_every_subset_and_meets_the_floor():
    # every connected graph on 3 to 5 vertices, two K4 blocks sharing the
    # cut vertex 3 (the least subset's kappa 2 meets the floor of delta = 3,
    # but kappa = 1 leaves the floor at 1 and the minimum is 1), and 60
    # seeded draws on 6 to 8 vertices
    blocks = Graph(7, [*combinations(range(4), 2), *combinations(range(3, 7), 2)])
    rng = random.Random(22)
    drawn = []
    while len(drawn) < 60:
        n = rng.randint(6, 8)
        p = rng.choice((0.5, 0.7, 0.9))
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        if g.is_connected():
            drawn.append(g)
    for g in (*_connected_graphs_up_to_5(), blocks, *drawn):
        value, witness, _ = kappa_k(g, 3, use_symmetry=True)
        assert (value, witness) == _least_min_subset(g), g.edges
        assert kappa3_range_from_kappa(vertex_connectivity(g))[0] <= value


def _sweep_factors():
    """Every factor of the bench's certify-sweep products, Petersen first."""
    yield _petersen()
    yield from (complete(3), cycle(5), complete(5), cycle(6), cycle(4), cycle(8),
                cycle(9), complete_bipartite(4, 4), complete_bipartite(2, 3),
                complete_bipartite(3, 3))


def _connected_graphs_up_to_5():
    """Every connected labelled graph with 3 to 5 vertices (k = 3 needs 3)."""
    for n in range(3, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [e for b, e in enumerate(pairs) if mask >> b & 1])
            if g.is_connected():
                yield g


def test_kappa_k_symmetry_returns_the_same_witness_and_bundle():
    for g in (*_connected_graphs_up_to_5(), *_sweep_factors()):
        assert kappa_k(g, 3) == kappa_k(g, 3, use_symmetry=True), g.edges


def test_pack_trees_counting_bound_decides_at_root():
    # K7, S = {0,1,2}, r = 6: degrees allow 6, but 3 inner + 12 cross edges
    # + 3 // 2 give 16 < 6 * 3, so no tree is ever enumerated
    assert pack_trees(complete(7), (0, 1, 2), 6, Budget(0)) is None
    # K4,4, S across both parts, r = 4: degrees allow 4; 2 inner + 8 cross
    # + 2 // 2 = 11 < 4 * 3
    assert pack_trees(complete_bipartite(4, 4), (0, 1, 4), 4, Budget(0)) is None
    budget = Budget(10**6)
    assert kappa_k(complete(7), 3, budget, use_symmetry=True)[0] == 5
    # 1,375 before the counting bound; 135 while pack_trees, not the
    # greedy packer, went first at the counting bound's r = 5; 178 while
    # pack_trees packed the witness again at the end; 76 while the greedy
    # packer tried every vertex as a tree's centre; 66 while twins were
    # found by backtracking, not by the twin test at the root
    assert budget.used == 39


def test_kappa_k_of_k4_box_k4_pinned():
    # the 16-vertex product whose kappa3 `treeconn bounds` searches for K4
    # and K4; 691,679 ticks while pack_trees packed the witness again at
    # the end; 28,953 while the greedy packer tried every vertex as a
    # tree's centre
    budget = Budget()
    g = cartesian_product(complete(4), complete(4))
    value, witness, bundle = kappa_k(g, 3, budget, use_symmetry=True)
    assert (value, witness) == (5, (0, 1, 2))
    assert bundle.s == witness and len(bundle) == value
    assert verify_bundle(g.has_edge, bundle) is None
    assert budget.used == 28_134


def test_pack_trees_pairwise_flow_prune_pinned():
    # two K6 blocks {0..5} and {6..11} and two cut vertices 12 and 13, each
    # adjacent to all twelve block vertices.  S = {0, 1, 6} has 7 + 7 + 7
    # free edges at S, but every 0-6 path passes 12 or 13, so no third tree
    # exists; only the pairwise flow check sees it before any tree is listed
    blocks = [(a, b) for lo in (0, 6) for a in range(lo, lo + 6) for b in range(a + 1, lo + 6)]
    g = Graph(14, blocks + [(x, c) for c in (12, 13) for x in range(12)])
    assert pack_trees(g, (0, 1, 6), 3, Budget(0)) is None
    budget = Budget(58)  # without the check, 5 * 10**6 ticks do not decide it
    assert max_internally_disjoint_trees(g, (0, 1, 6), budget)[0] == 2
    # 12 while pack_trees went down from r = 7; the greedy packer now
    # places two trees and tries every terminal for a third (253 while it
    # tried every vertex as a centre)
    assert budget.used == 58


# 201 with symmetry while twins were found by backtracking
@pytest.mark.parametrize("use_symmetry, ticks", [(False, 163), (True, 126)])
def test_kappa_k_pairwise_flow_prune_on_a_bridge(use_symmetry, ticks):
    # two copies of K7 joined by the edge 0-7: every 3-set across the bridge
    # admits one tree, which only the pairwise flow check of `_feasible`
    # proves before trees are listed; without it 5 * 10**6 ticks do not
    # decide the graph
    k7 = list(combinations(range(7), 2))
    g = Graph(14, k7 + [(a + 7, b + 7) for a, b in k7] + [(0, 7)])
    budget = Budget(10**4)
    value, witness, _ = kappa_k(g, 3, budget, use_symmetry=use_symmetry)
    assert (value, witness) == (1, (0, 1, 7))
    assert budget.used == ticks


def test_pack_trees_k223_exhaustion_ticks_pinned():
    # one of the K2,2,3 exhaustion proofs of the kappa3-exact bench: the
    # root passes the degree, counting and flow checks, and the search must
    # list trees to rule r = 4 out (897 ticks with the sorted-key filter
    # the least-edge floor replaced)
    budget = Budget()
    assert pack_trees(complete_tripartite(2, 2, 3), (0, 2, 4), 4, budget) is None
    assert budget.used == 485


def _seeded_connected_graphs():
    """100 seeded random connected graphs on 4 to 9 vertices."""
    rng = random.Random(15)
    found = []
    while len(found) < 100:
        n = rng.randint(4, 9)
        p = rng.choice((0.4, 0.55, 0.7, 0.85))
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        if g.is_connected():
            found.append(g)
    return found


def _pack_trees_digest_inputs():
    """The (g, s, r) of test_pack_trees_outputs_digest_pinned, in order."""
    rng = random.Random(16)
    for g in _seeded_connected_graphs():
        for k in (2, 3, 4):
            s = tuple(sorted(rng.sample(range(g.n), k)))
            for r in range(1, min(g.degree(t) for t in s) + 1):
                yield g, s, r


def _trees(bundle):
    return None if bundle is None else [sorted(t.edges) for t in bundle.trees]


def test_pack_trees_outputs_digest_pinned():
    # (r, bundle or None) of pack_trees on one seeded k-set per k in
    # {2, 3, 4} of each graph, for every r up to the set's least terminal
    # degree (874 calls).  Lemma 3.4 and the exact fallback copy these
    # bundles into certificate bytes.  Recorded with the sorted-key filter,
    # before the least-edge floor replaced it: the floor drops only trees
    # the filter skipped, so the same first packing is returned.
    digest = hashlib.sha256()
    for g, s, r in _pack_trees_digest_inputs():
        bundle = pack_trees(g, s, r, Budget())
        digest.update(repr((g.n, g.sorted_edges(), s, r, _trees(bundle))).encode())
    assert digest.hexdigest() == (
        "578629077f7913f24929476a0b57991535e86c8bf2ec35a34e5d004aa016da61"
    )


def test_kappa_k_outputs_on_the_digest_graphs_pinned():
    # (value, witness) and (value, witness, bundle) of kappa_k(g, 3) with
    # and without use_symmetry on the graphs of the pack_trees digest.  The
    # first digest was recorded while pack_trees packed the witness again
    # at the end; the second since the bundle is the one of the search
    # that set the value, and re-recorded (from 39ea66e...) when the
    # greedy packer began rooting each tree at a terminal
    values, bundles = hashlib.sha256(), hashlib.sha256()
    for g in _seeded_connected_graphs():
        for sym in (False, True):
            value, witness, bundle = kappa_k(g, 3, use_symmetry=sym)
            assert bundle.s == witness and len(bundle) == value
            assert verify_bundle(g.has_edge, bundle) is None
            values.update(repr((sym, value, witness)).encode())
            bundles.update(repr((sym, value, witness, _trees(bundle))).encode())
    assert values.hexdigest() == (
        "b5bd757a171dd969d232210fca879762afdbb608a22235d9197555079420002d"
    )
    assert bundles.hexdigest() == (
        "f95a492e7fe027cff038122dd89836a60e6da65d368246f248967d670b15eb5b"
    )


def _assert_decide_agrees(g, s, r):
    """_decide packs r trees exactly when pack_trees does, and its packing
    passes verify_bundle."""
    bundle = packing._decide(g, s, r, Budget())
    assert (bundle is not None) == (pack_trees(g, s, r, Budget()) is not None), (g.edges, s, r)
    if bundle is not None:
        assert bundle.s == s and len(bundle) == r, (g.edges, s, r)
        assert verify_bundle(g.has_edge, bundle) is None, (g.edges, s, r)


def test_decide_agrees_with_pack_trees_on_the_digest_inputs():
    for g, s, r in _pack_trees_digest_inputs():
        _assert_decide_agrees(g, s, r)


def test_decide_agrees_with_pack_trees_on_all_small_graphs():
    # every 3-set and 4-set of every connected labelled graph on 3-5
    # vertices, every r up to the least terminal degree
    for g in _connected_graphs_up_to_5():
        for k in (3, 4):
            for s in combinations(range(g.n), k):
                for r in range(1, min(g.degree(t) for t in s) + 1):
                    _assert_decide_agrees(g, s, r)


def test_decide_k223_proof_ticks_pinned():
    # the K2,2,3 proof of test_pack_trees_k223_exhaustion_ticks_pinned,
    # where pack_trees takes 485 ticks
    budget = Budget()
    assert not packing._decide(complete_tripartite(2, 2, 3), (0, 2, 4), 4, budget)
    assert budget.used == 115


def test_k223_proofs_build_no_graph(monkeypatch):
    # the pair flows of `_feasible` skip the banned edges as they read g,
    # so neither K2,2,3 proof above builds a residual graph at its nodes,
    # and both keep their ticks
    builds = []
    real = packing.Graph

    def counting(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(packing, "Graph", counting)
    g = complete_tripartite(2, 2, 3)
    budget = Budget()
    assert pack_trees(g, (0, 2, 4), 4, budget) is None
    assert budget.used == 485
    budget = Budget()
    assert not packing._decide(g, (0, 2, 4), 4, budget)
    assert budget.used == 115
    assert builds == []


def test_decide_p3_k5_minus_edge_proof_ticks_pinned():
    # P3 box (K5 - (3, 4)): every terminal of S = {3, 4, 13} has degree 4,
    # and no 4 trees exist; pack_trees takes 268,946 ticks to say so
    k5e = Graph(5, [e for e in complete(5).edges if e != (3, 4)])
    budget = Budget()
    assert not packing._decide(cartesian_product(path(3), k5e), (3, 4, 13), 4, budget)
    assert budget.used == 73_039


def test_decide_ticks_the_budget():
    with pytest.raises(BudgetExhausted):
        packing._decide(complete_tripartite(2, 2, 3), (0, 2, 4), 4, Budget(114))


def _brute_max_packing(g, s):
    """Largest family of pairwise internally disjoint minimal S-trees: no
    shared edge, no shared vertex outside S."""
    sset = set(s)
    trees = [(t.edges, t.vertices - sset) for t in iter_minimal_s_trees(g, s, budget=Budget())]
    best = 0

    def rec(start, used_e, used_v, count):
        nonlocal best
        best = max(best, count)
        for i in range(start, len(trees)):
            edges, inner = trees[i]
            if used_e.isdisjoint(edges) and used_v.isdisjoint(inner):
                rec(i + 1, used_e | edges, used_v | inner, count + 1)

    rec(0, frozenset(), frozenset(), 0)
    return best


def test_max_trees_match_brute_force_on_all_small_graphs():
    # every 3-set and 4-set of every connected labelled graph on 3-5
    # vertices; k = 4 exercises the inner // (k - 1) term of the counting
    # bound.  The flow check must let the trees' paths pass through
    # another terminal: on 0-1, 0-2, 0-3, 0-4, 1-4, 2-3 with S = {0, 1, 2}
    # both trees {01, 02} and {03, 23, 04, 14} have their 1-2 path
    # through 0.
    for g in _connected_graphs_up_to_5():
        for k in (3, 4):
            for s in combinations(range(g.n), k):
                assert max_internally_disjoint_trees(g, s, Budget())[0] == _brute_max_packing(
                    g, s
                ), (g.edges, s)


def test_greedy_pack_is_sound_on_all_small_graphs():
    # every 3-set and 4-set of every connected labelled graph on 3-5
    # vertices, every r up to the least terminal degree: at most r trees
    # that verify_bundle accepts and the brute-force maximum allows
    reached = 0
    for g in _connected_graphs_up_to_5():
        for k in (3, 4):
            for s in combinations(range(g.n), k):
                most = _brute_max_packing(g, s)
                for r in range(1, min(g.degree(t) for t in s) + 1):
                    bundle = packing._greedy_pack(g, s, r, Budget())
                    assert bundle.s == s and len(bundle) <= min(r, most), (g.edges, s, r)
                    assert verify_bundle(g.has_edge, bundle) is None
                    reached += len(bundle) == r
    assert reached > 0


def test_greedy_pack_ticks_the_budget(monkeypatch):
    with pytest.raises(BudgetExhausted):
        packing._greedy_pack(complete(4), (0, 1, 2), 1, Budget(0))
    # inside kappa_k the greedy packer ticks the caller's budget: a limit
    # of the ticks spent before its first call runs out in it
    entered = []
    real = packing._greedy_pack

    def recording(g, s, r, budget):
        entered.append(budget.used)
        return real(g, s, r, budget)

    monkeypatch.setattr(packing, "_greedy_pack", recording)
    g = complete_bipartite(3, 4)
    kappa_k(g, 3)
    with pytest.raises(BudgetExhausted):
        kappa_k(g, 3, Budget(entered[0]))
    assert entered[-1] == entered[0]


def _graphs_meeting_adjacent_min_degree():
    yield from _connected_graphs_up_to_5()
    # a seeded sample of 6-vertex graphs (all 26,704 connected labelled
    # ones take about a minute)
    rng = random.Random(6)
    pairs = list(combinations(range(6), 2))
    for _ in range(1000):
        g = Graph(6, [e for e in pairs if rng.random() < 0.6])
        if g.is_connected():
            yield g


def test_kappa3_at_most_delta_minus_1_with_adjacent_min_degree_pair():
    checked = 0
    for g in _graphs_meeting_adjacent_min_degree():
        upper = kappa3_upper_adjacent_min_degree(g)
        if upper is not None:
            assert kappa3(g) <= upper, g.edges
            checked += 1
    assert checked == 108 + 173  # graphs on 3-5 vertices, then the sample


def test_max_trees_monotone_under_edge_removal():
    g = complete(5)
    sub = Graph(5, set(g.edges) - {(0, 1)})
    s = (0, 1, 2)
    assert (
        max_internally_disjoint_trees(sub, s, Budget())[0]
        <= max_internally_disjoint_trees(g, s, Budget())[0]
    )


def test_kappa_2_equals_kappa_cross_check():
    for g in (complete(5), cycle(7), complete_bipartite(2, 4),
              cartesian_product(path(3), path(3))):
        assert kappa_k(g, 2)[0] == vertex_connectivity(g)


# -- automorphisms ----------------------------------------------------------


def _group(n, gens):
    """Every composition of the generators, by BFS from the identity."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for q in gens:
            r = tuple(q[x] for x in p)
            if r not in seen:
                seen.add(r)
                frontier.append(r)
    return seen


def test_automorphism_counts():
    # K2,2,3's swap of its 2-parts moves four vertices, so only the
    # backtracking finds it; K3 joined to two independent vertices has true
    # twins 0, 1, 2 and false twins 3, 4
    for g, order in ((complete(4), 24), (cycle(5), 10), (path(4), 2),
                     (complete_bipartite(2, 3), 12),
                     (complete_tripartite(2, 2, 3), 48),
                     (join_complete_empty2(3), 12)):
        assert len(_group(g.n, automorphism_generators(g, Budget()))) == order


def test_orbit_reps_cover_all_subsets():
    g = cycle(6)
    gens = automorphism_generators(g, Budget())
    autos = _group(g.n, gens)
    reps = subset_orbit_reps(g, 3, gens)
    # every 3-subset maps to some rep
    covered = set()
    for rep in reps:
        for p in autos:
            covered.add(tuple(sorted(p[v] for v in rep)))
    assert covered == set(combinations(range(6), 3))


def test_orbit_reps_match_full_group_on_all_small_graphs():
    # reference: the least image of each k-subset under every automorphism,
    # the automorphisms listed by brute force over all permutations
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [e for b, e in enumerate(pairs) if mask >> b & 1])
            autos = [
                p for p in permutations(range(n))
                if all(g.has_edge(p[a], p[b]) for a, b in g.edges)
            ]
            gens = automorphism_generators(g, Budget())
            assert _group(n, gens) == set(autos)
            for k in range(1, n + 1):
                ref = [
                    sub for sub in combinations(range(n), k)
                    if min(tuple(sorted(p[v] for v in sub)) for p in autos) == sub
                ]
                assert subset_orbit_reps(g, k, gens) == ref


def test_orbit_reps_of_k9():
    k9 = complete(9)
    assert subset_orbit_reps(k9, 3, automorphism_generators(k9, Budget())) == [(0, 1, 2)]


def test_automorphism_generators_of_relabelled_torus():
    # |Aut(C8 □ C9)| = 16 * 18.  With the distance filter the search takes
    # about 4,000 nodes on this labelling; degree and adjacency alone take
    # over 6 million.
    g = cartesian_product(cycle(8), cycle(9))
    perm = list(range(g.n))
    random.Random(3).shuffle(perm)
    g = Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges])
    gens = automorphism_generators(g, Budget(20_000))
    assert all(g.has_edge(p[a], p[b]) for p in gens for a, b in g.edges)
    assert len(_group(g.n, gens)) == 288


def test_automorphism_search_ticks_budget():
    g = cartesian_product(cycle(4), cycle(4))
    with pytest.raises(BudgetExhausted):
        automorphism_generators(g, Budget(5))


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges])


def test_automorphism_generators_pinned():
    # the generators, and the search nodes spent on them (one tick each),
    # for two seeded relabelings of the kappa3-exact families, Petersen and
    # C8 □ C9.  A changed digest means a changed generator or candidate
    # order; a changed tick list means changed work.  The ticks were
    # 25 25 33 33 42 41 60 60 29 24 45 40 40 40 51 61 51 59 70 70 3767 3602
    # while twins were found by backtracking like any other pair
    rng = random.Random(21)
    graphs = _kappa3_exact_families() + [
        _petersen(), cartesian_product(cycle(8), cycle(9))
    ]
    digest, ticks = hashlib.sha256(), []
    for g in graphs:
        for _ in range(2):
            lab = _relabelled(g, rng)
            budget = Budget()
            gens = automorphism_generators(lab, budget)
            digest.update(repr((lab.n, gens)).encode())
            ticks.append(budget.used)
    assert digest.hexdigest() == (
        "047f1f1ba77305e9485f4c09a4ed1192d3391072e12c13546eefd4363ddce306"
    )
    assert ticks == [
        5, 5, 6, 6, 17, 17, 27, 27, 20, 20, 26, 25, 18, 18, 30, 32, 51, 59,
        70, 70, 3767, 3602,
    ]


def _reference_orbit_reps(g, k, gens):
    """Orbit representatives as an orbit closure over sorted tuples."""
    reps, seen = [], set()
    for sub in combinations(range(g.n), k):
        if sub not in seen:
            reps.append(sub)
            orbit, frontier = {sub}, [sub]
            for s in frontier:
                for p in gens:
                    t = tuple(sorted(p[v] for v in s))
                    if t not in orbit:
                        orbit.add(t)
                        frontier.append(t)
            seen |= orbit
    return reps


def test_orbit_reps_match_reference_on_larger_graphs():
    rigid = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (3, 5)])
    assert automorphism_generators(rigid, Budget()) == []
    graphs = [
        rigid, cycle(6), complete_tripartite(2, 2, 2), complete_bipartite(3, 4),
        cartesian_product(cycle(4), path(2)), path(8),
        cartesian_product(complete(3), complete(3)), _petersen(),
    ]
    rng = random.Random(4)
    for g in graphs:
        for _ in range(2):
            lab = _relabelled(g, rng)
            gens = automorphism_generators(lab, Budget())
            for k in (2, 3, 4):
                assert subset_orbit_reps(lab, k, gens) == _reference_orbit_reps(
                    lab, k, gens
                )


def test_twins_get_their_transposition_at_the_root():
    # every pair in K9 is a pair of twins: each level answers its first c
    # with (i i+1) at the root, one tick each, and builds no search
    budget = Budget()
    gens = automorphism_generators(complete(9), budget)
    assert gens == [
        tuple(i + 1 if x == i else i if x == i + 1 else x for x in range(9))
        for i in range(7, -1, -1)
    ]
    assert budget.used == 8
    # the budget still bounds the orbit step when every answer is a twin
    with pytest.raises(BudgetExhausted):
        automorphism_generators(complete(9), Budget(7))


def test_twin_levels_compute_no_distances(monkeypatch):
    # a distance row is computed the first time a search past the twin test
    # reads it, once: K9's levels are all answered by twins and run no BFS,
    # Petersen (no twins) backtracks and runs one BFS per vertex.  Computing
    # rows on demand must not change the generators
    calls = []
    real = packing._distances

    def counting(g, v):
        calls.append(v)
        return real(g, v)

    monkeypatch.setattr(packing, "_distances", counting)
    assert automorphism_generators(complete(9), Budget()) == [
        tuple(i + 1 if x == i else i if x == i + 1 else x for x in range(9))
        for i in range(7, -1, -1)
    ]
    assert calls == []
    assert automorphism_generators(_petersen(), Budget()) == [
        (0, 1, 2, 7, 5, 4, 6, 3, 9, 8), (0, 1, 6, 8, 5, 4, 2, 9, 3, 7),
        (0, 4, 3, 2, 1, 5, 9, 8, 7, 6), (1, 0, 4, 3, 2, 6, 5, 9, 8, 7),
    ]
    assert sorted(calls) == list(range(10))


def _with_planted_twins(rng):
    """A seeded graph on at most 7 vertices: a random graph, then a false
    twin of one of its vertices (same neighbours, not adjacent) and a true
    twin of another (same neighbours, adjacent), relabelled."""
    m = rng.randint(2, 5)
    edges = [e for e in combinations(range(m), 2) if rng.random() < 0.5]
    a, b = rng.sample(range(m), 2)
    edges += [(x, m) for x in range(m) if (min(a, x), max(a, x)) in edges]
    edges += [(x, m + 1) for x in range(m + 1) if (min(b, x), max(b, x)) in edges]
    edges.append((b, m + 1))
    return _relabelled(Graph(m + 2, edges), rng)


def test_orbit_step_matches_brute_force_on_graphs_with_twins():
    rng = random.Random(30)
    for _ in range(40):
        g = _with_planted_twins(rng)
        autos = {
            p for p in permutations(range(g.n))
            if all(g.has_edge(p[a], p[b]) for a, b in g.edges)
        }
        gens = automorphism_generators(g, Budget())
        assert _group(g.n, gens) == autos
        for k in (2, 3, 4):
            assert subset_orbit_reps(g, k, gens) == _reference_orbit_reps(g, k, gens)


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


def test_formula_matches_search_complete_times_tripartite():
    # K_b box K_{a,a,a} and K_b box K_{a,a+1,a+1}
    for family, (a, b), parts in [
        ("complete_times_tripartite_aaa", (1, 2), (1, 1, 1)),
        ("complete_times_tripartite_aaa", (1, 3), (1, 1, 1)),
        ("complete_times_tripartite_aaa", (2, 2), (2, 2, 2)),
        ("complete_times_tripartite_a_a1_a1", (1, 2), (1, 2, 2)),
        ("complete_times_tripartite_a_a1_a1", (1, 3), (1, 2, 2)),
    ]:
        g = cartesian_product(complete(b), complete_tripartite(*parts))
        assert kappa3_formula(family, [a, b]) == kappa3(g, use_symmetry=True)


def test_formula_rejects_bad_input():
    with pytest.raises(ValueError):
        kappa3_formula("complete", [2])
    with pytest.raises(ValueError):
        kappa3_formula("unknown", [1])


_SPLIT = Graph(4, [(0, 1), (2, 3)])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: list(iter_minimal_s_trees(complete(3), (0,), budget=Budget())), "at least two terminals"),
        (lambda: pack_trees(complete(3), (0,), 1, Budget()), "at least two terminals"),
        (lambda: pack_trees(complete(3), (0, 1, 2), 0, Budget()), "r must be positive"),
        (lambda: max_internally_disjoint_trees(complete(3), (1, 1), Budget()), "at least two terminals"),
        (lambda: max_internally_disjoint_trees(_SPLIT, (0, 1, 2), Budget()), "must be connected"),
        (lambda: kappa_k(complete(3), 1), r"need 2 <= k <= n"),
        (lambda: kappa_k(complete(3), 4), r"need 2 <= k <= n"),
        (lambda: kappa_k(_SPLIT, 3), "must be connected"),
        (lambda: kappa3_formula("complete_bipartite", [1, 1]), r"a \+ b >= 3"),
        (lambda: kappa3_formula("complete_tripartite", [0, 1, 2]), "parts must be positive"),
        (lambda: kappa3_formula("cycle", [2]), "a cycle needs n >= 3"),
        (lambda: kappa3_formula("cycle_product", [0]), "at least one cycle factor"),
        (lambda: kappa3_formula("complete_times_complete", [1, 1]), "b >= 2"),
        (lambda: kappa3_formula("complete_times_tripartite_aaa", [0, 2]), "a >= 1"),
        (lambda: kappa3_formula("complete_times_tripartite_a_a1_a1", [1, 1]), "b >= 2"),
    ],
    ids=[
        "trees-one-terminal", "pack-one-terminal", "pack-r-0", "max-one-terminal",
        "max-disconnected", "kappa-k-1", "kappa-k-above-n", "kappa-disconnected",
        "formula-bipartite", "formula-tripartite", "formula-cycle", "formula-cycle-product",
        "formula-kk", "formula-k-aaa", "formula-k-a-a1-a1",
    ],
)
def test_packing_refuses_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# -- invariants under relabeling -------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(range(5))))
def test_kappa3_invariant_under_relabeling(perm):
    g = complete_bipartite(2, 3)
    relabeled = Graph(5, [(perm[a], perm[b]) for a, b in g.edges])
    assert kappa3(relabeled) == 2


def _kappa3_exact_families():
    """The nine graph families of the kappa3-exact bench workload."""
    return [
        complete(6), complete(7), complete_bipartite(3, 4),
        complete_bipartite(4, 4), complete_tripartite(2, 2, 2),
        complete_tripartite(2, 2, 3), complete_tripartite(1, 2, 4),
        complete_tripartite(2, 3, 3), cartesian_product(complete(3), complete(3)),
    ]


def _pinned_kappa_k_graphs():
    """The nine kappa3-exact bench families under three seeded relabelings
    each, then the acceptance-grid products with n <= 12, each unordered
    pair of grid factors once."""
    rng = random.Random(12)
    for g in _kappa3_exact_families():
        for _ in range(3):
            yield _relabelled(g, rng)
    grid = [path(2), path(3), cycle(3), cycle(4), cycle(5), complete(3),
            complete(4), complete(5), complete_bipartite(2, 3),
            complete_bipartite(3, 3), join_complete_empty2(2)]
    for i, g in enumerate(grid):
        for h in grid[i:]:
            if g.n * h.n <= 12:
                yield cartesian_product(g, h)


def test_kappa_k_triples_pinned():
    # (value, witness) and (value, witness, bundle) of the orbit-pruned
    # kappa_k.  The first digest was recorded while pack_trees packed the
    # witness again at the end; the second since the bundle is the one of
    # the search that set the value (the greedy packer's or _decide's).
    # The third adds each call's budget ticks, so it pins the work as well
    # (re-recorded from b11141f1... when twins got their transposition at
    # the root of the orbit step)
    values, bundles, ticks = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for g in _pinned_kappa_k_graphs():
        budget = Budget()
        value, witness, bundle = kappa_k(g, 3, budget, use_symmetry=True)
        assert bundle.s == witness and len(bundle) == value
        assert verify_bundle(g.has_edge, bundle) is None
        values.update(repr((g.n, value, witness)).encode())
        bundles.update(repr((g.n, value, witness, _trees(bundle))).encode())
        ticks.update(repr((g.n, value, witness, budget.used)).encode())
    assert values.hexdigest() == (
        "9d82cb81a879134ab39c3bf44115e23b2295c2af5eef6a564819c6f980e51bf5"
    )
    assert bundles.hexdigest() == (
        "2a0ecbd22a4230751d9c72a02d9a12cd0d37594895158dc98b147a76a02f8542"
    )
    assert ticks.hexdigest() == (
        "9bede24e1cb7dd1a1308d7e7ccec2503a90088a6debc243fc1835f6fdf6f1d53"
    )


# -- the budget rule ---------------------------------------------------------


def test_searches_take_their_callers_budget():
    # a search below the entry points never makes a default budget of its
    # own, so one caller's budget bounds the whole call
    for search in (pack_trees, max_internally_disjoint_trees, automorphism_generators,
                   find_reduced_bundle, iter_minimal_s_trees):
        param = inspect.signature(search).parameters["budget"]
        assert param.default is inspect.Parameter.empty, search.__name__
    # only the entry points make the default; factor_kappa3 hands its None
    # on to kappa_k
    public = {
        name: fn
        for mod in (packing, bundles, certificates)
        for name, fn in vars(mod).items()
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__
        and not name.startswith("_")
        and "budget" in inspect.signature(fn).parameters
    }
    defaults = {
        name for name, fn in public.items()
        if inspect.signature(fn).parameters["budget"].default is None
    }
    makers = {name for name, fn in public.items() if "Budget()" in inspect.getsource(fn)}
    assert makers == {"certify", "construct_lemma41", "kappa_k", "find_cycle_through_edges"}
    assert defaults == makers | {"factor_kappa3"}

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from treeconn import connectivity
from treeconn.bundles import find_reduced_bundle
from treeconn.connectivity import (
    Fan,
    check_path,
    count_disjoint_paths,
    fan,
    kappa3_range_from_kappa,
    kappa3_upper_adjacent_min_degree,
    max_disjoint_paths,
    vertex_connectivity,
)
from treeconn.errors import Budget
from treeconn.graphs import (
    Graph,
    cartesian_product,
    complete,
    complete_bipartite,
    complete_tripartite,
    cycle,
    path,
)
from treeconn.packing import kappa_k


# -- independent oracle: smallest vertex cut by exhaustive enumeration -----


def cut_oracle_local(g: Graph, u: int, v: int) -> int:
    """min |C|, C a u-v separator avoiding both ends (Menger: = #paths)."""
    assert not g.has_edge(u, v)
    others = [x for x in range(g.n) if x not in (u, v)]
    for size in range(len(others) + 1):
        for cut in combinations(others, size):
            if not _reachable(g, u, v, set(cut)):
                return size
    raise AssertionError("u and v must be separated by removing all others")


def cut_oracle_global(g: Graph) -> int:
    if not g.is_connected():
        return 0
    if g.is_complete():
        return g.n - 1
    return min(
        cut_oracle_local(g, a, b)
        for a in range(g.n)
        for b in range(a + 1, g.n)
        if not g.has_edge(a, b)
    )


def _reachable(g: Graph, u: int, v: int, removed: set) -> bool:
    seen = {u}
    stack = [u]
    while stack:
        x = stack.pop()
        for y in g.neighbors(x):
            if y == v:
                return True
            if y not in removed and y not in seen:
                seen.add(y)
                stack.append(y)
    return False


SMALL_GRAPHS = [
    path(2),
    path(5),
    cycle(4),
    cycle(7),
    complete(5),
    complete_bipartite(2, 3),
    complete_bipartite(3, 3),
    # many common neighbours, so the seeded length-2 paths of
    # count_disjoint_paths decide most of their flows
    complete_bipartite(3, 4),
    complete_tripartite(2, 2, 3),
    cartesian_product(path(3), path(3)),
    cartesian_product(cycle(3), path(2)),
    Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]),
    Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]),  # bridge
    # Two K5s joined through vertex 0, the lowest-id vertex of minimum
    # degree: it lies in every minimum cut, so kappa = 1 is found only by a
    # flow between two of its neighbours.
    Graph(
        11,
        [(a, b) for a in range(1, 6) for b in range(a + 1, 6)]
        + [(a, b) for a in range(6, 11) for b in range(a + 1, 11)]
        + [(0, 1), (0, 2), (0, 6), (0, 7)],
    ),
    # disconnected, so kappa = 0: vertex 0, of minimum degree, is isolated
    # beside a K3; then it lies in a C4 beside a K4, and its first
    # non-neighbour, 2, is in its own component (two paths) before 4 gives 0
    Graph(4, [(1, 2), (2, 3), (1, 3)]),
    Graph(
        8,
        [(0, 1), (1, 2), (2, 3), (0, 3)]
        + [(a, b) for a in range(4, 8) for b in range(a + 1, 8)],
    ),
]


@pytest.mark.parametrize("g", SMALL_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_vertex_connectivity_matches_cut_oracle(g):
    assert vertex_connectivity(g) == cut_oracle_global(g)


def _without(g: Graph, avoid=frozenset(), edge=None) -> Graph:
    """g minus the vertices of `avoid` (kept, isolated, so ids stay put) and
    minus `edge`."""
    return Graph(g.n, [e for e in g.edges if e != edge and not avoid.intersection(e)])


def _oracle_count(g: Graph, u: int, v: int) -> int:
    """Menger's count of internally disjoint u-v paths: the edge uv, if
    present, is one path, and the rest cross a minimum cut of g - uv."""
    if not g.has_edge(u, v):
        return cut_oracle_local(g, u, v)
    return 1 + cut_oracle_local(_without(g, edge=(u, v)), u, v)


@pytest.mark.parametrize("g", SMALL_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_local_connectivity_matches_cut_oracle(g):
    # and with one seeded vertex set A avoided: the flow on g must count
    # the paths of g - A
    rng = random.Random(g.n * 1000 + g.m)
    avoid = frozenset(rng.sample(range(g.n), g.n // 4))
    g_minus = _without(g, avoid)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            want = _oracle_count(g, u, v)
            assert len(max_disjoint_paths(g, u, v)) == want, (u, v)
            assert count_disjoint_paths(g, u, v) == want, (u, v)
            if u not in avoid and v not in avoid:
                want = _oracle_count(g_minus, u, v)
                assert len(max_disjoint_paths(g, u, v, avoid=avoid)) == want, (u, v, avoid)
                assert count_disjoint_paths(g, u, v, avoid=avoid) == want, (u, v, avoid)


@pytest.mark.parametrize("g", SMALL_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_count_disjoint_paths_stops_at_need(g):
    # `need` at and below the number of common neighbours, where the seeded
    # length-2 paths alone reach it
    for u, v in combinations(range(g.n), 2):
        full = _oracle_count(g, u, v)
        common = len(set(g.neighbors(u)) & set(g.neighbors(v)))
        for need in range(common + 2):
            assert count_disjoint_paths(g, u, v, need=need) == min(need, full), (u, v, need)


def test_count_disjoint_paths_avoids_common_neighbours():
    # K3,4: 0 and 1 share the neighbours 3, 4, 5, 6 and nothing else
    g = complete_bipartite(3, 4)
    for avoid in ({3}, {3, 4}, {3, 4, 5}, {3, 4, 5, 6}, {2, 4}):
        avoid = frozenset(avoid)
        want = cut_oracle_local(_without(g, avoid), 0, 1)
        assert want == 4 - len(avoid - {2})
        assert count_disjoint_paths(g, 0, 1, avoid=avoid) == want
        assert count_disjoint_paths(g, 0, 1, need=3, avoid=avoid) == min(3, want)
    # adjacent ends in K2,2,3: the edge 0-2 and one path through each of
    # the three common neighbours 4, 5, 6; avoiding two of them leaves the
    # edge, the third and the detour 0-3-1-2
    g = complete_tripartite(2, 2, 3)
    assert count_disjoint_paths(g, 0, 2) == _oracle_count(g, 0, 2) == 5
    assert count_disjoint_paths(g, 0, 2, avoid=frozenset({4, 5})) == 3


def test_known_connectivities():
    assert vertex_connectivity(complete(6)) == 5
    assert vertex_connectivity(cycle(9)) == 2
    assert vertex_connectivity(complete_bipartite(2, 5)) == 2
    assert vertex_connectivity(path(4)) == 1
    assert vertex_connectivity(Graph(4, [(0, 1), (2, 3)])) == 0


def test_path_systems_check_and_count():
    g = complete_bipartite(3, 3)
    paths = max_disjoint_paths(g, 0, 1, need=3)
    assert len(paths) == 3
    inner = [x for p in paths for x in p[1:-1]]
    assert all(check_path(g, p) is None and (p[0], p[-1]) == (0, 1) for p in paths)
    assert len(inner) == len(set(inner))
    assert len(max_disjoint_paths(g, 0, 1, need=4)) == 3


def test_max_disjoint_paths_avoid():
    g = cycle(6)
    assert len(max_disjoint_paths(g, 0, 3)) == 2
    assert len(max_disjoint_paths(g, 0, 3, avoid=frozenset({1}))) == 1


def test_max_disjoint_paths_shared():
    # both 1-2 paths pass through 0: 1-0-2 and 1-4-0-3-2, edge-disjoint
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 3)])
    assert count_disjoint_paths(g, 1, 2) == 1
    assert count_disjoint_paths(g, 1, 2, shared=frozenset({0})) == 2
    # a shared vertex still passes each edge once: K1,3's centre
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert count_disjoint_paths(star, 1, 2, shared=frozenset({0})) == 1
    # ... also the edge of a seeded path 1-0-2, which 1-3-0-2 cannot reuse
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 3)])
    assert count_disjoint_paths(g, 1, 2, shared=frozenset({0})) == 1
    # ... and no greedy seed passes a shared vertex: every 0-5 path
    # passes the shared 1, which has two edges on, 1-2 and 1-3; a seed
    # 0-1-2-5 that split 1 would give it a second node with arcs of its
    # own, and 1-3 would carry two paths
    g = Graph(8, [(0, 1), (0, 4), (0, 7), (1, 4), (1, 7), (1, 2), (2, 5),
                  (1, 3), (3, 5), (3, 6), (5, 6)])
    for need in (None, 2, 3):
        assert count_disjoint_paths(g, 0, 5, need, shared=frozenset({1, 3})) == 2


DIGEST_CALLS = 4839
FLOW_DIGEST = "5292ee1fee6fbaf00ce3d1d577b60ed3e267282224ff8c7da1d2952324b84654"


def _seeded_flow_outputs() -> list:
    """Paths of max_disjoint_paths and fan on seeded random graphs (n <= 16)
    with `need`, `avoid` and fan targets varied, and the path count of
    count_disjoint_paths with `shared` non-empty."""
    rng = random.Random(14)
    out = []
    for _ in range(300):
        n = rng.randint(4, 16)
        p = rng.choice((0.25, 0.4, 0.6))
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        for _ in range(6):
            u, v = rng.sample(range(n), 2)
            rest = [w for w in range(n) if w not in (u, v)]
            avoid = frozenset(w for w in rest if rng.random() < 0.15)
            need = rng.choice((None, 1, 2, 3, 5))
            out.append(("paths", max_disjoint_paths(g, u, v, need, avoid)))
            shared = frozenset(w for w in rest if w not in avoid and rng.random() < 0.2)
            if shared:
                out.append(("shared", count_disjoint_paths(g, u, v, need, avoid, shared)))
            x = rng.randrange(n)
            others = [w for w in range(n) if w != x]
            ys = rng.sample(others, rng.randint(1, len(others)))
            fan_avoid = frozenset(w for w in others if w not in ys and rng.random() < 0.15)
            f = fan(g, x, ys, rng.randint(1, len(ys)), fan_avoid)
            out.append(("fan", None if f is None else f.paths))
    return out


def test_flow_outputs_digest_pinned():
    # Recorded on the earlier kernel that kept its flow in one set of arcs,
    # so it pins that the per-node kernel returns the same flows.  Reversing
    # a node's arc order changes it.
    outputs = _seeded_flow_outputs()
    assert len(outputs) == DIGEST_CALLS
    digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
    assert digest == FLOW_DIGEST


def test_fan_basic():
    g = complete(5)
    f = fan(g, 0, [1, 2, 3], 3)
    assert f is not None
    assert f.check(g) is None
    assert sorted(p[-1] for p in f.paths) == [1, 2, 3]


def test_fan_respects_avoid():
    g = cycle(6)
    # 0 reaches {2, 4} two ways normally; removing 1 kills one side
    assert fan(g, 0, [2, 4], 2) is not None
    assert fan(g, 0, [2, 4], 2, avoid=frozenset({5})) is None
    f = fan(g, 0, [2, 4], 1, avoid=frozenset({5}))
    assert f is not None and 5 not in {v for p in f.paths for v in p}


def test_fan_input_validation():
    g = complete(4)
    with pytest.raises(ValueError):
        fan(g, 0, [0, 1], 2)
    with pytest.raises(ValueError):
        fan(g, 0, [1, 2], 2, avoid=frozenset({1}))


def test_fan_targets_not_passed_through():
    # fan paths may end at a target but never cross one
    g = cartesian_product(path(3), path(3))
    f = fan(g, 4, [0, 2, 6, 8], 4)
    assert f is not None
    for p in f.paths:
        assert all(x not in (0, 2, 6, 8) for x in p[1:-1])



def test_fan_never_reads_a_target_adjacency():
    # a target's out-node has one arc, to the auxiliary sink; the BFS would
    # reach the sink from it first anyway, so only the reads show the arcs
    read = set()

    class RecordingAdj(tuple):
        def __getitem__(self, v):
            read.add(v)
            return tuple.__getitem__(self, v)

    g = cartesian_product(path(3), path(3))
    g.adj = RecordingAdj(g.adj)
    f = fan(g, 4, [0, 2, 6, 8], 4)
    assert f is not None and {p[-1] for p in f.paths} == {0, 2, 6, 8}
    assert read and not read & {0, 2, 6, 8}


def _fan_cut_exists(g: Graph, x: int, ys, r: int, avoid: frozenset) -> bool:
    """Some C in V - x - avoid with |C| < r leaves no path from x to Y - C."""
    others = [v for v in range(g.n) if v != x and v not in avoid]
    for size in range(r):
        for cut in combinations(others, size):
            removed = avoid | set(cut)
            if not any(_reachable(g, x, y, removed) for y in ys if y not in removed):
                return True
    return False


def test_fan_is_none_exactly_when_a_small_cut_exists():
    # Fan lemma: an r-fan from x to Y exists unless fewer than r vertices
    # other than x (members of Y among them) separate x from Y
    rng = random.Random(7)
    outcomes = set()
    for _ in range(400):
        n = rng.randint(2, 7)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
        x = rng.randrange(n)
        rest = [v for v in range(n) if v != x]
        ys = rng.sample(rest, rng.randint(1, len(rest)))
        avoid = frozenset(v for v in rest if v not in ys and rng.random() < 0.3)
        r = rng.randint(1, len(ys) + 1)
        f = fan(g, x, ys, r, avoid)
        assert (f is None) == _fan_cut_exists(g, x, ys, r, avoid), (g, x, ys, r, avoid)
        if f is not None:
            assert f.check(g) is None and len(f.paths) == r
            assert not avoid & {v for p in f.paths for v in p}
        outcomes.add(f is None)
    assert outcomes == {True, False}

def test_checkers_catch_violations():
    g = cycle(4)
    bad_fan = Fan(0, (2,), ((0, 3, 2, 1),))
    assert bad_fan.check(g) is not None


@pytest.mark.parametrize(
    "paths,message",
    [
        (((0, 0),), "path [0, 0] repeats a vertex"),
        (((4, 1),), "path (4, 1) does not start at 0"),
        (((0, 1), (0, 4, 1)), "terminal 1 repeated"),
        (((0, 2, 1),), "internal vertex 2 lies in target set"),
        (((0, 4, 1), (0, 4, 2)), "internal vertex 4 shared between fan paths"),
    ],
)
def test_fan_check_rejections(paths, message):
    assert Fan(0, (1, 2, 3), paths).check(complete(5)) == message


@pytest.mark.parametrize(
    "g,p,message",
    [(complete(5), (), "empty path"), (cycle(5), (0, 2), "missing edge (0,2)")],
)
def test_check_path_rejections(g, p, message):
    assert check_path(g, p) == message


def test_kappa3_upper_adjacent_min_degree():
    assert kappa3_upper_adjacent_min_degree(complete(4)) == 2
    assert kappa3_upper_adjacent_min_degree(cycle(5)) == 1
    # star: the two leaves are nonadjacent
    assert kappa3_upper_adjacent_min_degree(complete_bipartite(1, 2)) is None
    with pytest.raises(ValueError):
        kappa3_upper_adjacent_min_degree(path(2))


@pytest.mark.parametrize(
    "kappa,expected",
    [(0, (0, 0)), (1, (1, 1)), (2, (1, 2)), (3, (2, 3)), (4, (3, 4)),
     (5, (4, 5)), (6, (4, 6)), (8, (6, 8))],
)
def test_kappa3_range_table(kappa, expected):
    assert kappa3_range_from_kappa(kappa) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=4, max_value=7), st.data())
def test_random_graph_connectivity_property(n, data):
    edges = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if data.draw(st.booleans())
    ]
    g = Graph(n, edges)
    assert vertex_connectivity(g) == cut_oracle_global(g)


# -- pinned outputs of the flow layer ----------------------------------------
# Literal expected values.  Certificates are built from these exact paths,
# so a change to arc order, BFS order or flow decomposition must fail here,
# not only in the certificate digests.


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def test_flow_outputs_pinned_k33():
    g = complete_bipartite(3, 3)
    assert max_disjoint_paths(g, 0, 1) == [[0, 3, 1], [0, 4, 1], [0, 5, 1]]
    assert max_disjoint_paths(g, 0, 2, need=2) == [[0, 3, 2], [0, 4, 2]]
    assert fan(g, 0, [1, 2, 4], 3) == Fan(
        0, (1, 2, 4), ((0, 3, 1), (0, 4), (0, 5, 2))
    )


def test_flow_outputs_pinned_c4_c4():
    g = cartesian_product(cycle(4), cycle(4))
    assert max_disjoint_paths(g, 0, 10) == [
        [0, 1, 2, 6, 10],
        [0, 3, 7, 11, 10],
        [0, 4, 5, 9, 10],
        [0, 12, 13, 14, 10],
    ]
    assert max_disjoint_paths(g, 0, 5, need=4) == [
        [0, 1, 5], [0, 3, 2, 6, 5], [0, 4, 5], [0, 12, 8, 9, 5]
    ]
    assert fan(g, 0, [2, 8, 10, 15], 4) == Fan(
        0,
        (2, 8, 10, 15),
        ((0, 1, 2), (0, 3, 15), (0, 4, 8), (0, 12, 13, 9, 10)),
    )
    # Here the BFS scans residual reverse arcs.  Their order has not been
    # seen to change the paths: 60,000 seeded flows and fans with n <= 14
    # give the same paths with the reverse arcs scanned first or last.
    assert fan(g, 0, [1, 2, 6, 8], 4) == Fan(
        0, (1, 2, 6, 8), ((0, 1), (0, 3, 2), (0, 4, 5, 6), (0, 12, 8))
    )


def test_flow_outputs_pinned_petersen_avoid():
    g = _petersen()
    five = frozenset({5})
    assert max_disjoint_paths(g, 0, 7, avoid=five) == [[0, 1, 2, 7], [0, 4, 9, 7]]
    assert max_disjoint_paths(g, 0, 8, need=2, avoid=five) == [
        [0, 1, 6, 8], [0, 4, 3, 8]
    ]
    assert fan(g, 0, [3, 7, 8], 3, avoid=five) is None
    assert fan(g, 0, [3, 7, 8], 3, avoid=frozenset({2})) == Fan(
        0, (3, 7, 8), ((0, 1, 6, 8), (0, 4, 3), (0, 5, 7))
    )


def test_vertex_connectivity_flow_count(monkeypatch):
    # Esfahanian-Hakimi: at most (n - delta - 1) + delta(delta - 1)/2 flows;
    # one flow per nonadjacent pair would be 1,824 here.
    g = cartesian_product(complete_bipartite(4, 4), cycle(8))
    calls = 0
    real = connectivity.count_disjoint_paths

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(connectivity, "count_disjoint_paths", counting)
    assert vertex_connectivity(g) == 6
    n, delta = g.n, g.min_degree()
    bound = (n - delta - 1) + delta * (delta - 1) // 2
    assert bound == 72
    assert 0 < calls <= bound


def test_count_disjoint_paths_matches_path_count():
    rng = random.Random(19)
    for _ in range(150):
        n = rng.randint(4, 16)
        p = rng.choice((0.25, 0.4, 0.6))
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        for _ in range(4):
            u, v = rng.sample(range(n), 2)
            # avoid may name u or v: both functions drop them
            avoid = frozenset(w for w in range(n) if rng.random() < 0.15)
            need = rng.choice((None, 1, 2, 3, 5))
            want = len(max_disjoint_paths(g, u, v, need, avoid))
            assert count_disjoint_paths(g, u, v, need, avoid) == want


def test_count_disjoint_paths_banned_edges_match_the_graph_without_them():
    # the edge filter of `_feasible` against the residual graph it replaces
    rng = random.Random(27)
    for _ in range(150):
        n = rng.randint(4, 16)
        p = rng.choice((0.25, 0.4, 0.6))
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        for _ in range(4):
            banned = frozenset(e for e in g.edges if rng.random() < 0.3)
            residual = Graph(n, g.edges - banned)
            u, v = rng.sample(range(n), 2)
            avoid = frozenset(w for w in range(n) if rng.random() < 0.15)
            shared = frozenset(w for w in range(n) if w not in avoid and rng.random() < 0.2)
            need = rng.choice((None, 1, 2, 3, 5))
            want = count_disjoint_paths(residual, u, v, need, avoid, shared)
            got = count_disjoint_paths(g, u, v, need, avoid, shared, banned)
            assert got == want, (g.edges, banned, u, v, need, avoid, shared)


def _unseeded_count(g, u, v, need, avoid, shared, banned) -> int:
    """The value of a flow that starts empty, on the same split digraph."""
    s = 2 * u + 1
    fwd = connectivity._max_flow(
        g, s, 2 * v, need, avoid - {u, v}, shared=shared - {u, v}, banned=banned
    )
    return len(fwd[s] or ())


def test_count_disjoint_paths_matches_an_unseeded_flow():
    # the seed routes against a flow that never sees them
    rng = random.Random(28)
    for _ in range(120):
        n = rng.randint(4, 16)
        p = rng.choice((0.2, 0.3, 0.45, 0.6))
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        for _ in range(3):
            u, v = rng.sample(range(n), 2)
            avoid = frozenset(w for w in range(n) if rng.random() < rng.choice((0, 0.15)))
            shared = frozenset(
                w for w in range(n) if w not in avoid and rng.random() < rng.choice((0, 0.2))
            )
            banned = frozenset(e for e in g.edges if rng.random() < rng.choice((0, 0.3)))
            for need in (None, 1, 2, 3, 5):
                want = _unseeded_count(g, u, v, need, avoid, shared, banned)
                got = count_disjoint_paths(g, u, v, need, avoid, shared, banned)
                assert got == want, (g.edges, u, v, need, avoid, shared, banned)


def test_count_disjoint_paths_reroutes_a_seeded_path():
    # the first seed route for 0 and 5 is 0-1-2-5, which blocks 0-3-2: the
    # flow must send 0-3-2 on through the seed's reverse arc 2 -> 1 to 4
    g = Graph(6, [(0, 1), (1, 2), (2, 5), (0, 3), (3, 2), (1, 4), (4, 5)])
    assert len(max_disjoint_paths(g, 0, 5)) == 2
    for need in (None, 2, 3):
        assert count_disjoint_paths(g, 0, 5, need) == 2


def test_count_disjoint_paths_returns_at_once_when_short_paths_reach_need(monkeypatch):
    # every pair of K4,4 has 4 common neighbours, so vertex_connectivity's
    # flows are all decided by their seed routes and none runs
    def refuse(*args, **kwargs):
        raise AssertionError("a flow ran")

    monkeypatch.setattr(connectivity, "_max_flow", refuse)
    assert vertex_connectivity(complete_bipartite(4, 4)) == 4


def test_vertex_connectivity_runs_no_flow_on_cycles_and_their_products(monkeypatch):
    # the greedy seed routes reach every `need` that the maximum reaches
    def refuse(*args, **kwargs):
        raise AssertionError("a flow ran")

    monkeypatch.setattr(connectivity, "_max_flow", refuse)
    assert vertex_connectivity(cycle(9)) == 2
    assert vertex_connectivity(cartesian_product(cycle(6), cycle(6))) == 4
    assert vertex_connectivity(cartesian_product(complete(4), cycle(8))) == 5
    assert vertex_connectivity(cartesian_product(cycle(8), cycle(9))) == 4


def test_count_disjoint_paths_reroutes_a_greedy_route(monkeypatch):
    # every 0-5 path has length 4, so no route is seeded before the greedy
    # pass; its first route, 0-1-2-6-5, blocks both 0-3-2-6-5 and
    # 0-1-4-7-5, and the flow must reroute it to reach 2
    g = Graph(8, [(0, 1), (1, 2), (2, 6), (6, 5), (0, 3), (3, 2), (1, 4), (4, 7), (7, 5)])
    assert connectivity._seed_routes(g, 0, 5, None, frozenset(), frozenset(), frozenset()) == [
        (1, 2, 3, 4, 5, 12, 13, 10)
    ]
    flows = 0
    real = connectivity._max_flow

    def counting(*args, **kwargs):
        nonlocal flows
        flows += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(connectivity, "_max_flow", counting)
    for need in (None, 2, 3):
        assert count_disjoint_paths(g, 0, 5, need) == _oracle_count(g, 0, 5) == 2
    assert flows == 3
    assert count_disjoint_paths(g, 0, 5, need=1) == 1
    assert flows == 3


def test_count_disjoint_paths_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        count_disjoint_paths(complete(3), 0, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: max_disjoint_paths(complete(3), 1, 1), "endpoints must differ"),
        (lambda: kappa3_range_from_kappa(-1), "kappa must be nonnegative"),
    ],
    ids=["paths-u-to-u", "negative-kappa"],
)
def test_connectivity_refuses_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_count_only_callers_never_decompose(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a count-only caller decomposed a flow")

    monkeypatch.setattr(connectivity, "_decompose", refuse)
    g = cartesian_product(complete_bipartite(4, 4), cycle(8))
    assert vertex_connectivity(g) == 6
    assert kappa_k(cartesian_product(complete(3), complete(3)), 3)[0] == 3
    assert find_reduced_bundle(_petersen(), 3, 0, 1, 2, budget=Budget()) is not None

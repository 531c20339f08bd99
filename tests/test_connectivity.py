from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from treeconn import connectivity
from treeconn.connectivity import (
    Fan,
    PathSystem,
    disjoint_paths,
    fan,
    kappa3_range_from_kappa,
    kappa3_upper_adjacent_min_degree,
    max_disjoint_paths,
    vertex_connectivity,
)
from treeconn.graphs import (
    Graph,
    cartesian_product,
    complete,
    complete_bipartite,
    cycle,
    path,
)


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
]


@pytest.mark.parametrize("g", SMALL_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_vertex_connectivity_matches_cut_oracle(g):
    assert vertex_connectivity(g) == cut_oracle_global(g)


@pytest.mark.parametrize("g", SMALL_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_local_connectivity_matches_cut_oracle(g):
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                assert len(max_disjoint_paths(g, u, v)) == cut_oracle_local(g, u, v)


def test_known_connectivities():
    assert vertex_connectivity(complete(6)) == 5
    assert vertex_connectivity(cycle(9)) == 2
    assert vertex_connectivity(complete_bipartite(2, 5)) == 2
    assert vertex_connectivity(path(4)) == 1
    assert vertex_connectivity(Graph(4, [(0, 1), (2, 3)])) == 0


def test_path_systems_check_and_count():
    g = complete_bipartite(3, 3)
    sys_ = disjoint_paths(g, 0, 1, 3)
    assert sys_ is not None and len(sys_.paths) == 3
    assert sys_.check(g) is None
    assert disjoint_paths(g, 0, 1, 4) is None


def test_max_disjoint_paths_avoid():
    g = cycle(6)
    assert len(max_disjoint_paths(g, 0, 3)) == 2
    assert len(max_disjoint_paths(g, 0, 3, avoid=frozenset({1}))) == 1


def test_disjoint_paths_deterministic():
    g = complete(5)
    a = disjoint_paths(g, 0, 4, 4)
    b = disjoint_paths(g, 0, 4, 4)
    assert a == b


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


def test_checkers_catch_violations():
    g = cycle(4)
    bad = PathSystem(0, 2, ((0, 1, 2), (0, 1, 2)))
    assert bad.check(g) is not None
    bad_fan = Fan(0, (2,), ((0, 3, 2, 1),))
    assert bad_fan.check(g) is not None


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
    assert disjoint_paths(g, 0, 2, 2) == PathSystem(0, 2, ((0, 3, 2), (0, 4, 2)))
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
    assert disjoint_paths(g, 0, 5, 4) == PathSystem(
        0, 5, ((0, 1, 5), (0, 3, 2, 6, 5), (0, 4, 5), (0, 12, 8, 9, 5))
    )
    assert fan(g, 0, [2, 8, 10, 15], 4) == Fan(
        0,
        (2, 8, 10, 15),
        ((0, 1, 2), (0, 3, 15), (0, 4, 8), (0, 12, 13, 9, 10)),
    )
    # Here the BFS scans residual reverse arcs and their order decides the
    # paths.
    assert fan(g, 0, [1, 2, 6, 8], 4) == Fan(
        0, (1, 2, 6, 8), ((0, 1), (0, 3, 2), (0, 4, 5, 6), (0, 12, 8))
    )


def test_flow_outputs_pinned_petersen_avoid():
    g = _petersen()
    five = frozenset({5})
    assert max_disjoint_paths(g, 0, 7, avoid=five) == [[0, 1, 2, 7], [0, 4, 9, 7]]
    assert disjoint_paths(g, 0, 8, 2, avoid=five) == PathSystem(
        0, 8, ((0, 1, 6, 8), (0, 4, 3, 8))
    )
    assert fan(g, 0, [3, 7, 8], 3, avoid=five) is None
    assert fan(g, 0, [3, 7, 8], 3, avoid=frozenset({2})) == Fan(
        0, (3, 7, 8), ((0, 1, 6, 8), (0, 4, 3), (0, 5, 7))
    )


def test_vertex_connectivity_flow_count(monkeypatch):
    # Esfahanian-Hakimi: at most (n - delta - 1) + delta(delta - 1)/2 flows;
    # one flow per nonadjacent pair would be 1,824 here.
    g = cartesian_product(complete_bipartite(4, 4), cycle(8))
    calls = 0
    real = connectivity.max_disjoint_paths

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(connectivity, "max_disjoint_paths", counting)
    assert vertex_connectivity(g) == 6
    n, delta = g.n, g.min_degree()
    bound = (n - delta - 1) + delta * (delta - 1) // 2
    assert bound == 72
    assert calls <= bound

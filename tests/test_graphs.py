import pytest
from hypothesis import given, strategies as st

from treeconn import graphs
from treeconn.errors import GraphFormatError
from treeconn.graphs import (
    Graph,
    cartesian_product,
    complete,
    complete_tripartite,
    cycle,
    flat_id,
    format_edge_list,
    join_complete_empty2,
    parse_edge_list,
    path,
)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])  # duplicate after normalization
    with pytest.raises(ValueError):
        Graph(0, [])


def test_basic_queries():
    g = cycle(5)
    assert g.n == 5 and g.m == 5
    assert g.degree(0) == 2
    assert g.neighbors(0) == (1, 4)
    assert g.has_edge(4, 0)
    assert not g.has_edge(0, 2)
    assert g.is_connected()
    assert not g.is_complete()
    assert complete(4).is_complete()


@pytest.mark.parametrize(
    "family,params,n,m",
    [
        ("complete", [5], 5, 10),
        ("complete_bipartite", [2, 3], 5, 6),
        ("complete_tripartite", [2, 2, 2], 6, 12),
        ("cycle", [6], 6, 6),
        ("path", [4], 4, 3),
        ("join_complete_empty2", [2], 4, 5),
    ],
)
def test_generators_sizes(family, params, n, m):
    g = graphs.generate(family, params)
    assert (g.n, g.m) == (n, m)


def test_generate_validates():
    with pytest.raises(ValueError):
        graphs.generate("nope", [3])
    with pytest.raises(ValueError):
        graphs.generate("complete", [3, 3])
    with pytest.raises(ValueError):
        graphs.generate("cycle", [2])


@pytest.mark.parametrize(
    "build, args, message",
    [
        (complete, (0,), "complete graph needs n >= 1"),
        (graphs.complete_multipartite, (2, 0), "part sizes must be positive"),
        (graphs.complete_multipartite, (), "part sizes must be positive"),
        (cycle, (2,), "cycle needs n >= 3"),
        (path, (0,), "path needs n >= 1"),
        (join_complete_empty2, (0,), "need a >= 1"),
        # 1001 * 1001 vertices exceed MAX_PRODUCT_VERTICES
        (cartesian_product, (Graph(1001, []), Graph(1001, [])), "product too large"),
    ],
    ids=["complete", "part", "no-parts", "cycle", "path", "join", "product"],
)
def test_generators_refuse_bad_sizes(build, args, message):
    with pytest.raises(ValueError, match=message):
        build(*args)


def test_join_complete_empty2_structure():
    # K_a + two pairwise nonadjacent extras, each joined to all of K_a
    g = join_complete_empty2(3)
    assert not g.has_edge(3, 4)
    assert all(g.has_edge(i, 3) and g.has_edge(i, 4) for i in range(3))


def test_k4_is_join_k2_empty2_product_free():
    assert join_complete_empty2(2).m == 5  # K2 join empty2 = K4 minus an edge


def test_flat_ids_roundtrip():
    m = 7
    for u in range(5):
        for v in range(m):
            assert divmod(flat_id(u, v, m), m) == (u, v)


def test_cartesian_product_known_sizes():
    # |E(GxH)| = |E(G)||V(H)| + |V(G)||E(H)|
    g, h = cycle(3), path(4)
    p = cartesian_product(g, h)
    assert p.n == 12
    assert p.m == g.m * h.n + g.n * h.m


def test_cartesian_product_adjacency_rule():
    g, h = path(3), cycle(4)
    p = cartesian_product(g, h)
    for x in range(p.n):
        for y in range(x + 1, p.n):
            ux, vx = divmod(x, h.n)
            uy, vy = divmod(y, h.n)
            expected = (ux == uy and h.has_edge(vx, vy)) or (
                vx == vy and g.has_edge(ux, uy)
            )
            assert p.has_edge(x, y) == expected


def test_product_of_paths_is_grid():
    p = cartesian_product(path(2), path(2))
    assert p.n == 4 and p.m == 4  # C4


def test_edge_list_roundtrip():
    g = complete_tripartite(1, 2, 3)
    assert parse_edge_list(format_edge_list(g)) == g


def test_parse_rejects_malformed():
    for text in [
        "",
        "3 1\n0 1\n0 2\n",  # wrong edge count
        "3 1\n0 3\n",  # out of range
        "3 1\n1 1\n",  # self-loop
        "3 2\n0 1\n0 1\n",  # duplicate
        "3 x\n",
        "3\n",
        "0 0\n",  # no vertex
        "3 -1\n",  # negative edge count
    ]:
        with pytest.raises(GraphFormatError):
            parse_edge_list(text)


def test_parse_names_line_of_late_duplicate():
    edges = [(a, b) for a in range(100) for b in range(a + 1, 100)][:3000]
    lines = [f"100 {len(edges) + 1}"] + [f"{a} {b}" for a, b in edges]
    lines.append(f"{edges[0][1]} {edges[0][0]}")
    with pytest.raises(GraphFormatError) as err:
        parse_edge_list("\n".join(lines) + "\n")
    assert str(err.value) == f"line 3002: duplicate edge ({edges[0][1]},{edges[0][0]})"


def test_parse_comments_and_blanks():
    g = parse_edge_list("# header\n3 2\n\n0 1  # an edge\n1 2\n")
    assert g.n == 3 and g.m == 2


def test_sha256_stable_under_edge_order():
    a = Graph(4, [(0, 1), (2, 3), (1, 2)])
    b = Graph(4, [(2, 3), (1, 2), (0, 1)])
    assert a.sha256() == b.sha256()
    assert a.sha256() != Graph(4, [(0, 1), (2, 3)]).sha256()


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
def test_product_sizes_property(a, b):
    g, h = path(a), path(b)
    p = cartesian_product(g, h)
    assert p.n == a * b
    assert p.m == g.m * b + a * h.m

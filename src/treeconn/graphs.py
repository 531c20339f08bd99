"""Immutable simple graphs, standard generators, and product constructions.

Vertices are dense integer ids 0..n-1.  The Cartesian product uses the flat
encoding (u, v) -> u * |V(H)| + v, so fiber arithmetic is O(1) and
certificate edge lists stay human-decodable.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Sequence

from .errors import GraphFormatError

# Graphs and products larger than this are rejected (dense id arrays assumed).
MAX_PRODUCT_VERTICES = 10**6

Edge = tuple[int, int]


def norm_edge(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[Edge]):
        if n < 1:
            raise ValueError(f"need at least one vertex, got n={n}")
        if n > MAX_PRODUCT_VERTICES:
            raise ValueError(f"n={n} too large: at most {MAX_PRODUCT_VERTICES} vertices")
        seen: set[Edge] = set()
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range for n={n}")
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            e = norm_edge(a, b)
            if e in seen:
                raise ValueError(f"duplicate edge ({a},{b})")
            seen.add(e)
        self.n = n
        self.edges = frozenset(seen)
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for a, b in seen:
            nbrs[a].append(b)
            nbrs[b].append(a)
        self.adj = tuple(tuple(sorted(ns)) for ns in nbrs)

    # -- basic queries ----------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def min_degree(self) -> int:
        return min(self.degree(v) for v in range(self.n))

    def has_edge(self, a: int, b: int) -> bool:
        return norm_edge(a, b) in self.edges

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def is_connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            for y in self.adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == self.n

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def sha256(self) -> str:
        payload = f"{self.n}\n" + "\n".join(f"{a} {b}" for a, b in self.sorted_edges())
        return hashlib.sha256(payload.encode()).hexdigest()


# -- generators -----------------------------------------------------------


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_multipartite(*parts: int) -> Graph:
    if any(p < 1 for p in parts) or not parts:
        raise ValueError("part sizes must be positive")
    bounds = []
    start = 0
    for p in parts:
        bounds.append(range(start, start + p))
        start += p
    edges = [
        (a, b)
        for i in range(len(parts))
        for j in range(i + 1, len(parts))
        for a in bounds[i]
        for b in bounds[j]
    ]
    return Graph(start, edges)


def complete_bipartite(a: int, b: int) -> Graph:
    return complete_multipartite(a, b)


def complete_tripartite(a: int, b: int, c: int) -> Graph:
    return complete_multipartite(a, b, c)


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def join(g: Graph, h: Graph) -> Graph:
    """Join: disjoint union of g and h plus all cross edges.

    g keeps its ids; h is shifted by g.n.
    """
    off = g.n
    edges = list(g.edges)
    edges += [(a + off, b + off) for a, b in h.edges]
    edges += [(a, b + off) for a in range(g.n) for b in range(h.n)]
    return Graph(g.n + h.n, edges)


def join_complete_empty2(a: int) -> Graph:
    """K_a joined with the 2-vertex empty graph (ids a and a+1 are the pair)."""
    if a < 1:
        raise ValueError("need a >= 1")
    return join(complete(a), Graph(2, []))


_FAMILIES = {
    "complete": (complete, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "complete_tripartite": (complete_tripartite, 3),
    "cycle": (cycle, 1),
    "path": (path, 1),
    "join_complete_empty2": (join_complete_empty2, 1),
}


def generate(family: str, params: Sequence[int]) -> Graph:
    """Build a named-family graph with canonical ascending-id labeling."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(_FAMILIES)}")
    fn, arity = _FAMILIES[family]
    params = list(params)
    if len(params) != arity:
        raise ValueError(f"family {family!r} takes {arity} parameter(s), got {len(params)}")
    return fn(*params)


# -- Cartesian product ---------------------------------------------------


def flat_id(u: int, v: int, m: int) -> int:
    return u * m + v


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian (square) product; (u,v)~(u',v') iff equal in one coordinate
    and adjacent in the other."""
    if g.n * h.n > MAX_PRODUCT_VERTICES:
        raise ValueError("product too large for dense vertex ids")
    m = h.n
    edges: list[Edge] = []
    for u in range(g.n):
        for a, b in h.edges:
            edges.append((flat_id(u, a, m), flat_id(u, b, m)))
    for v in range(h.n):
        for a, b in g.edges:
            edges.append((flat_id(a, v, m), flat_id(b, v, m)))
    return Graph(g.n * m, edges)


# -- edge-list text format ------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the "n m" header + "u v" lines format; '#' starts a comment.

    Graph() alone checks the edges; a ValueError it raises names the line of
    the edge being read."""
    lineno = 0

    def rows() -> Iterator[Edge]:
        nonlocal lineno
        for lineno, raw in enumerate(text.splitlines(), start=1):
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected two integers, got {raw!r}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer token in {raw!r}") from None
            yield a, b

    edges = rows()
    header = next(edges, None)
    if header is None:
        raise GraphFormatError("empty input: missing 'n m' header")
    n, expect_m = header
    if n < 1:
        raise GraphFormatError(f"line {lineno}: vertex count must be >= 1")
    if expect_m < 0:
        raise GraphFormatError(f"line {lineno}: edge count must be >= 0")
    try:
        g = Graph(n, edges)
    except ValueError as exc:
        raise GraphFormatError(f"line {lineno}: {exc}") from None
    if g.m != expect_m:
        raise GraphFormatError(f"header declared {expect_m} edges but found {g.m}")
    return g


def format_edge_list(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out += [f"{a} {b}" for a, b in g.sorted_edges()]
    return "\n".join(out) + "\n"

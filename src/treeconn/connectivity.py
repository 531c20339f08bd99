"""Menger-style primitives: vertex connectivity, internally disjoint path
systems, and fans, all driven by one unit-capacity flow routine on the
vertex-split digraph; plus `simple_paths`, the one simple-path enumerator
that the bundle, packing and certificate searches share.

The flow indexes, per node, the tails of the flow-carrying arcs into it, so
its residual reverse arcs are read without scanning the whole flow.  Vertex
connectivity follows Esfahanian and Hakimi (Networks 14, 1984): flows run
only from a minimum-degree vertex v to its non-neighbours and between
non-adjacent neighbours of v, (n - delta - 1) + delta(delta - 1)/2 at most.

Determinism contract: augmenting paths are found by BFS exploring the
residual arcs of each node in ascending node order, and flow decomposition
always follows the lowest available successor, so identical inputs give
identical path systems and fans.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from .errors import Budget
from .graphs import Graph

# Split-node helpers: vertex v becomes in-node 2v and out-node 2v+1.


def _node_in(v: int) -> int:
    return 2 * v


def _node_out(v: int) -> int:
    return 2 * v + 1


def _build_arcs(
    g: Graph,
    avoid: frozenset[int],
    no_exit: frozenset[int] = frozenset(),
    extra_arcs: Iterable[tuple[int, int]] = (),
) -> dict[int, list[int]]:
    """Unit-capacity arcs of the vertex-split digraph.

    avoid: vertices removed entirely.
    no_exit: vertices that may terminate a path but not be passed through
        (their out-arcs are dropped; extra_arcs may still leave them).
    extra_arcs: additional (split-node, split-node) arcs, e.g. to an
        auxiliary sink.
    """
    arcs: dict[int, list[int]] = {}

    def add(x: int, y: int) -> None:
        arcs.setdefault(x, []).append(y)

    for v in range(g.n):
        if v in avoid:
            continue
        add(_node_in(v), _node_out(v))
    for a, b in g.edges:
        if a in avoid or b in avoid:
            continue
        if a not in no_exit:
            add(_node_out(a), _node_in(b))
        if b not in no_exit:
            add(_node_out(b), _node_in(a))
    for x, y in extra_arcs:
        add(x, y)
    for x in arcs:
        arcs[x] = sorted(set(arcs[x]))
    return arcs


def _max_flow(
    arcs: dict[int, list[int]], s: int, t: int, need: Optional[int]
) -> set[tuple[int, int]]:
    """Unit-capacity max flow via BFS augmentation; returns the arcs that
    carry flow."""
    flow: set[tuple[int, int]] = set()
    # back[x]: tails y of arcs (y, x) carrying flow, i.e. the residual
    # reverse arcs out of x.
    back: dict[int, set[int]] = {}
    value = 0
    while need is None or value < need:
        # BFS over residual arcs, ascending node order.
        parent: dict[int, int] = {s: s}
        queue = [s]
        qi = 0
        while qi < len(queue) and t not in parent:
            x = queue[qi]
            qi += 1
            residual = [y for y in arcs.get(x, ()) if (x, y) not in flow]
            if back.get(x):
                residual = sorted(back[x].union(residual))
            for y in residual:
                if y not in parent:
                    parent[y] = x
                    queue.append(y)
        if t not in parent:
            break
        node = t
        while node != s:
            prev = parent[node]
            if (node, prev) in flow:
                flow.discard((node, prev))
                back[prev].discard(node)
            else:
                flow.add((prev, node))
                back.setdefault(node, set()).add(prev)
            node = prev
        value += 1
    return flow


def _decompose(flow: set[tuple[int, int]], s: int, t: int) -> list[list[int]]:
    """Split-node flow -> list of original-vertex paths, lex-lowest first."""
    succ: dict[int, list[int]] = {}
    for x, y in flow:
        succ.setdefault(x, []).append(y)
    for x in succ:
        succ[x].sort()
    paths = []
    while succ.get(s):
        node = succ[s].pop(0)
        split_path = [s, node]
        while node != t:
            nxt = succ[node].pop(0)
            split_path.append(nxt)
            node = nxt
        # Collapse split nodes to original vertices.
        verts = []
        for sn in split_path:
            v = sn // 2
            if not verts or verts[-1] != v:
                verts.append(v)
        paths.append(verts)
    return sorted(paths)


def max_disjoint_paths(
    g: Graph,
    u: int,
    v: int,
    need: Optional[int] = None,
    avoid: frozenset[int] = frozenset(),
) -> list[list[int]]:
    """Maximum family of internally disjoint u-v paths (capped at `need`),
    avoiding the given internal vertices entirely."""
    if u == v:
        raise ValueError("endpoints must differ")
    arcs = _build_arcs(g, avoid - {u, v})
    flow = _max_flow(arcs, _node_out(u), _node_in(v), need)
    return _decompose(flow, _node_out(u), _node_in(v))


def vertex_connectivity(g: Graph) -> int:
    """kappa(G); n-1 for complete graphs, 0 when disconnected."""
    if not g.is_connected():
        return 0
    if g.is_complete():
        return g.n - 1
    # A minimum cut C either misses v, and then separates v from some
    # non-neighbour, or contains v, and then separates two neighbours of v
    # (v has a neighbour in every component of G - C).
    v = min(range(g.n), key=g.degree)
    nbrs = g.neighbors(v)
    pairs = [(v, w) for w in range(g.n) if w != v and not g.has_edge(v, w)]
    pairs += [(a, b) for a, b in combinations(nbrs, 2) if not g.has_edge(a, b)]
    best = len(nbrs)
    for a, b in pairs:
        best = min(best, len(max_disjoint_paths(g, a, b, need=best)))
    return best


# -- simple-path enumeration ----------------------------------------------


def simple_paths(
    g: Graph,
    start: int,
    goals: frozenset[int],
    banned: frozenset[int],
    budget: Budget,
) -> Iterator[list[int]]:
    """Simple paths from start to any goal, internal vertices outside banned
    and goals; depth-first, at each vertex its goal neighbours first, then
    the other neighbours ascending; one budget tick per vertex expanded."""
    path = [start]
    on_path = {start}

    def rec() -> Iterator[list[int]]:
        budget.tick()
        last = path[-1]
        for y in g.neighbors(last):
            if y not in on_path and y in goals:
                yield path + [y]
        for y in g.neighbors(last):
            if y in on_path or y in goals or y in banned:
                continue
            path.append(y)
            on_path.add(y)
            yield from rec()
            path.pop()
            on_path.remove(y)

    yield from rec()


# -- structured path systems ----------------------------------------------


@dataclass(frozen=True)
class PathSystem:
    """Internally disjoint paths with common endpoints u, v."""

    u: int
    v: int
    paths: tuple[tuple[int, ...], ...]

    def check(self, g: Graph) -> Optional[str]:
        internal_seen: set[int] = set()
        edge_seen: set[tuple[int, int]] = set()
        for p in self.paths:
            err = check_path(g, p)
            if err:
                return err
            if p[0] != self.u or p[-1] != self.v:
                return f"path {p} does not run from {self.u} to {self.v}"
            for x in p[1:-1]:
                if x in internal_seen:
                    return f"internal vertex {x} shared between paths"
                internal_seen.add(x)
            for e in path_edges(p):
                if e in edge_seen:
                    return f"edge {e} shared between paths"
                edge_seen.add(e)
        return None


@dataclass(frozen=True)
class Fan:
    """Internally disjoint (x, Y)-paths with distinct terminals."""

    x: int
    targets: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]

    def check(self, g: Graph) -> Optional[str]:
        terms: set[int] = set()
        internal_seen: set[int] = set()
        yset = set(self.targets)
        for p in self.paths:
            err = check_path(g, p)
            if err:
                return err
            if p[0] != self.x:
                return f"path {p} does not start at {self.x}"
            if p[-1] not in yset:
                return f"terminal {p[-1]} not in target set"
            if p[-1] in terms:
                return f"terminal {p[-1]} repeated"
            terms.add(p[-1])
            for q in p[1:-1]:
                if q in yset:
                    return f"internal vertex {q} lies in target set"
                if q in internal_seen:
                    return f"internal vertex {q} shared between fan paths"
                internal_seen.add(q)
        return None


def check_path(g: Graph, p: Sequence[int]) -> Optional[str]:
    """Simple-path validity over g, or a violation message."""
    if len(p) < 1:
        return "empty path"
    if len(set(p)) != len(p):
        return f"path {list(p)} repeats a vertex"
    for a, b in zip(p, p[1:]):
        if not g.has_edge(a, b):
            return f"missing edge ({a},{b})"
    return None


def path_edges(p: Sequence[int]) -> list[tuple[int, int]]:
    return [(a, b) if a < b else (b, a) for a, b in zip(p, p[1:])]


def disjoint_paths(
    g: Graph,
    u: int,
    v: int,
    r: int,
    avoid: frozenset[int] = frozenset(),
) -> Optional[PathSystem]:
    """r internally disjoint u-v paths if they exist, else None."""
    paths = max_disjoint_paths(g, u, v, need=r, avoid=avoid)
    if len(paths) < r:
        return None
    sys = PathSystem(u, v, tuple(tuple(p) for p in paths))
    err = sys.check(g)
    assert err is None, f"internal error: flow produced invalid system: {err}"
    return sys


def fan(
    g: Graph,
    x: int,
    targets: Iterable[int],
    r: int,
    avoid: frozenset[int] = frozenset(),
) -> Optional[Fan]:
    """An r-fan from x to Y via an auxiliary sink adjacent to all of Y.

    Vertices in `avoid` are removed from the graph entirely."""
    y = tuple(sorted(set(targets)))
    if x in y:
        raise ValueError("fan source must not lie in target set")
    if x in avoid or set(y) & avoid:
        raise ValueError("fan source/targets must not be avoided")
    if len(y) < r:
        return None
    aux_in = 2 * g.n  # single auxiliary sink node (no split needed)
    extra = [(_node_out(t), aux_in) for t in y]
    # Members of Y may terminate paths but not be passed through; their only
    # exit is the arc to the auxiliary sink.
    arcs = _build_arcs(g, avoid=avoid, no_exit=frozenset(y) - {x}, extra_arcs=extra)
    flow = _max_flow(arcs, _node_out(x), aux_in, r)
    # Every path ends in the auxiliary sink; dropping it keeps the order,
    # since no path runs through another's terminal.
    paths = [p[:-1] for p in _decompose(flow, _node_out(x), aux_in)]
    if len(paths) < r:
        return None
    result = Fan(x, y, tuple(tuple(p) for p in paths))
    err = result.check(g)
    assert err is None, f"internal error: flow produced invalid fan: {err}"
    return result


# -- scalar bounds --------------------------------------------------------


def kappa3_upper_adjacent_min_degree(g: Graph) -> Optional[int]:
    """delta-1 when two adjacent minimum-degree vertices exist, else None."""
    if g.n < 3:
        raise ValueError("needs at least three vertices")
    delta = g.min_degree()
    mins = [v for v in range(g.n) if g.degree(v) == delta]
    for i, a in enumerate(mins):
        for b in mins[i + 1:]:
            if g.has_edge(a, b):
                return delta - 1
    return None


def kappa3_range_from_kappa(kappa: int) -> tuple[int, int]:
    """The (lower, upper) sandwich for kappa3 given kappa = 4k + r."""
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    k, r = divmod(kappa, 4)
    return (3 * k + (r + 1) // 2, kappa)

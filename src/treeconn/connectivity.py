"""Menger-style primitives: vertex connectivity, internally disjoint path
systems and their count, and fans, all driven by one unit-capacity flow
routine on the vertex-split digraph; plus `simple_paths`, the one simple-path
enumerator that the bundle, packing and certificate searches share.

No digraph is built: the flow reads each split node's arcs from the
graph's sorted adjacency the first time a BFS reaches the node and keeps
them for the rest of the call.  Its residual state is two lists indexed by
split node, the heads and the tails of the flow-carrying arcs at each node,
so a BFS skips saturated arcs and reads residual reverse arcs by set lookups
at the node, without scanning the whole flow.  The flow is returned as the
list of heads: its value is the number of heads at the source, so
`count_disjoint_paths` (and through it `vertex_connectivity`) reads only
that, and only `max_disjoint_paths` and `fan` decompose the flow into paths.
Vertex connectivity follows Esfahanian and Hakimi (Networks 14, 1984): flows
run only from a minimum-degree vertex v to its non-neighbours and between
non-adjacent neighbours of v, (n - delta - 1) + delta(delta - 1)/2 at most.

Count-only flows (`count_disjoint_paths`) first route one unit along each
u-v path of length <= 2, then along greedy BFS shortest u-v paths through
the vertices left free, up to `need`.  When these reach `need` they are the
answer and no flow runs; otherwise BFS rounds on the residual digraph go
only to rerouting.  Augmenting from any feasible flow ends at a maximum flow,
so the count, min(maximum, need), is the one an empty start gives; only the
flow itself differs, and no caller reads it.  A count may skip a set of
banned edges, which the seed routes and the flow's arcs both leave out, so
`packing._feasible` counts in its residual graph without building it.

Determinism contract: augmenting paths are found by BFS exploring the
residual arcs of each node in ascending node order, and flow decomposition
always follows the lowest available successor, so identical inputs give
identical path systems and fans.  The flows of `max_disjoint_paths` and
`fan` start empty and are the ones pinned; a count-only flow is pinned only
by its value.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import AbstractSet, Iterable, Iterator, Optional, Sequence

from .errors import Budget
from .graphs import Edge, Graph, norm_edge


def _max_flow(
    g: Graph,
    s: int,
    t: int,
    need: Optional[int],
    avoid: frozenset[int],
    ends: frozenset[int] = frozenset(),
    shared: frozenset[int] = frozenset(),
    banned: AbstractSet[Edge] = frozenset(),
    seed: Sequence[Sequence[int]] = (),
) -> list[Optional[set[int]]]:
    """Unit-capacity max flow via BFS augmentation on the vertex-split
    digraph of g minus `avoid` and the `banned` edges; returns `fwd`, the
    heads of the flow arcs out of each split node (None where there are
    none).  The flow value is len(fwd[s] or ()); only callers that need the
    paths `_decompose` it.

    Vertex v has in-node 2v and out-node 2v+1, and node 2n is free for a
    fan's auxiliary sink.  Each node's arcs are read from g.adj once per
    call, when a BFS first reaches it: in(v) -> out(v); out(v) -> t when v
    is in `ends` (a fan terminal, never passed through); otherwise
    out(v) -> in(w) for each neighbour w outside `avoid`, ascending, whose
    edge vw is not banned.  A vertex in `shared` is not split: its in-node
    takes the out-node's arcs, so only its edges bound the flow through it.
    The flow is kept per node: fwd[x] holds the heads of the flow arcs out
    of x, whose residual arcs are saturated, and back[x] their tails, the
    residual reverse arcs out of x.  Each BFS stops when it reaches t.

    The flow starts with one unit along each `seed` route, a list of split
    nodes from s to t (`_seed_routes`; count-only callers only, never with
    `ends`); the routes must be internally disjoint, at most `need` of
    them."""
    size = 2 * g.n + 1
    arcs: list = [None] * size
    fwd: list = [None] * size
    back: list = [None] * size
    for route in seed:
        for x, y in zip(route, route[1:]):
            if fwd[x] is None:
                fwd[x] = set()
            if back[y] is None:
                back[y] = set()
            fwd[x].add(y)
            back[y].add(x)
    value = len(seed)
    while need is None or value < need:
        # BFS over residual arcs, ascending node order.
        parent = [-1] * size
        parent[s] = s
        queue = [s]
        for x in queue:
            out = arcs[x]
            if out is None:
                v, odd = divmod(x, 2)
                if not odd and v not in shared:
                    out = (x + 1,)
                elif v in ends:
                    out = (t,)
                else:
                    out = [2 * w for w in g.adj[v] if w not in avoid]
                    if banned:
                        out = [y for y in out if norm_edge(v, y // 2) not in banned]
                arcs[x] = out
            heads, tails = fwd[x], back[x]
            if heads:
                out = [y for y in out if y not in heads]
            if tails:
                out = sorted(tails.union(out))
            for y in out:
                if parent[y] < 0:
                    parent[y] = x
                    queue.append(y)
            if parent[t] >= 0:
                break
        else:
            break  # t is unreachable: the flow is maximum
        y = t
        while y != s:
            x = parent[y]
            if back[x] and y in back[x]:
                # (y, x) carries flow: cancel it.
                back[x].discard(y)
                fwd[y].discard(x)
            else:
                if fwd[x] is None:
                    fwd[x] = set()
                if back[y] is None:
                    back[y] = set()
                fwd[x].add(y)
                back[y].add(x)
            y = x
        value += 1
    return fwd


def _decompose(fwd: list[Optional[set[int]]], s: int, t: int) -> list[list[int]]:
    """The flow `fwd` from s to t as original-vertex paths, lex-lowest
    first: each walk leaves a split node by its lowest unused flow arc."""
    succ: dict[int, list[int]] = {}  # unused heads per node, descending
    paths = []
    for node in sorted(fwd[s] or ()):
        verts = [s // 2]
        while True:
            if node // 2 != verts[-1]:  # collapse in(v), out(v) to v
                verts.append(node // 2)
            if node == t:
                break
            if node not in succ:
                succ[node] = sorted(fwd[node], reverse=True)
            node = succ[node].pop()
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
    avoiding the given internal vertices entirely; with `fan`, the only
    caller that decomposes the flow."""
    if u == v:
        raise ValueError("endpoints must differ")
    fwd = _max_flow(g, 2 * u + 1, 2 * v, need, avoid - {u, v})
    return _decompose(fwd, 2 * u + 1, 2 * v)


def count_disjoint_paths(
    g: Graph,
    u: int,
    v: int,
    need: Optional[int] = None,
    avoid: frozenset[int] = frozenset(),
    shared: frozenset[int] = frozenset(),
    banned: AbstractSet[Edge] = frozenset(),
) -> int:
    """len(max_disjoint_paths(g', u, v, need, avoid)), g' being g without
    the `banned` edges (each as (a, b), a < b), read from the flow value
    without decomposing it.  Vertices in `shared` are not split: they may
    lie on any number of the paths, each of their edges on one, so only
    their edges bound the count.

    The flow starts from the disjoint routes of `_seed_routes`, those of
    length <= 2 first and then greedy shortest ones; when they reach
    `need` they are the answer and no flow runs, and otherwise BFS
    augmentation reroutes them to find the rest.  Augmenting from any
    feasible flow reaches a maximum one, so the count is the one an empty
    start gives, although the flow differs from the one
    `max_disjoint_paths` decomposes."""
    if u == v:
        raise ValueError("endpoints must differ")
    avoid = avoid - {u, v}
    shared = shared - {u, v}
    routes = _seed_routes(g, u, v, need, avoid, shared, banned)
    if len(routes) == need:
        return need
    fwd = _max_flow(g, 2 * u + 1, 2 * v, need, avoid, shared=shared, banned=banned, seed=routes)
    return len(fwd[2 * u + 1] or ())


def _seed_routes(
    g: Graph,
    u: int,
    v: int,
    need: Optional[int],
    avoid: frozenset[int],
    shared: frozenset[int],
    banned: AbstractSet[Edge],
) -> list[tuple[int, ...]]:
    """Internally disjoint u-v routes, as split nodes from out(u) to in(v),
    at most `need` of them, through no avoided vertex or banned edge: the
    edge uv; u-c-v through each common neighbour c, in g.adj[u] order (a
    shared c unsplit); then, while fewer than `need`, greedy BFS shortest
    u-v paths in ascending adjacency order, each through no shared vertex
    and no vertex on a route, until v is out of reach.  A greedy route may
    block a maximum system; the flow that starts from them reroutes it."""
    def free(a: int, b: int) -> bool:
        return not banned or ((a, b) if a < b else (b, a)) not in banned

    s, t = 2 * u + 1, 2 * v
    near_v = {w for w in g.adj[v] if w not in avoid and free(w, v)}
    routes: list[tuple[int, ...]] = [(s, t)] if u in near_v else []
    used = {u}
    for c in g.adj[u]:
        if c in near_v and free(u, c):
            routes.append((s, 2 * c, t) if c in shared else (s, 2 * c, 2 * c + 1, t))
            used.add(c)
    if need is not None and len(routes) >= need:
        return routes[:need]
    # the longer routes: `used` holds u and every vertex on a route, and v
    # ends a route, so none of them is expanded
    blocked = used.union(avoid, shared, (v,))
    while len(routes) != need:
        parent = {c: u for c in g.adj[u] if c not in blocked and free(u, c)}
        queue = list(parent)
        for x in queue:
            if x in near_v:
                break
            for y in g.adj[x]:
                if y not in blocked and y not in parent and (not banned or free(x, y)):
                    parent[y] = x
                    queue.append(y)
        else:
            break  # v is out of reach
        route = [t]
        while x != u:
            blocked.add(x)
            route += (2 * x + 1, 2 * x)
            x = parent[x]
        route.append(s)
        routes.append(tuple(reversed(route)))
    return routes


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
        best = min(best, count_disjoint_paths(g, a, b, need=best))
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
    sink = 2 * g.n  # single auxiliary sink node (no split needed)
    # Members of Y may terminate paths but not be passed through; their only
    # exit is the arc to the auxiliary sink.
    fwd = _max_flow(g, 2 * x + 1, sink, r, avoid, ends=frozenset(y))
    # Every path ends in the auxiliary sink; dropping it keeps the order,
    # since no path runs through another's terminal.
    paths = [p[:-1] for p in _decompose(fwd, 2 * x + 1, sink)]
    if len(paths) < r:
        return None
    result = Fan(x, y, tuple(tuple(p) for p in paths))
    err = result.check(g)
    if err is not None:
        raise AssertionError(f"internal error: flow produced invalid fan: {err}")
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
    """The (lower, upper) sandwich for kappa3 given kappa = 4k + r.

    The lower side, 3k + ceil(r/2), is the bound of S. Li, X. Li and
    W. Zhou ("Sharp bounds for the generalized connectivity kappa3(G)",
    Discrete Math. 310, 2010); `packing.kappa_k` stops its search for
    kappa3 once the minimum meets it."""
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    k, r = divmod(kappa, 4)
    return (3 * k + (r + 1) // 2, kappa)

"""Original/reduced path bundles and the cycle-through-three-edges finder.

A (s, t)-original-path-bundle with respect to (u1, u2, u3) is a family of s
u1-u2 paths sharing no internal vertices except u3, with u3 internal to
exactly the first t of them.  A reduced bundle adds s - 2t connector paths
from u3 to the u3-free paths, aligned so connector i terminates on path
t + i.

The finders are bounded exhaustive searches over `connectivity.simple_paths`
(smallest t first); they produce witnesses for certificate generation at
desk scale, not efficient algorithms.  `_segments_triple`, the search for
three vertex-disjoint segments behind the cycle finder, also threads the
Lemma 4.1 trees in `certificates`, there in H with v1, v2 and v3 avoided.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, Optional

from .connectivity import (
    check_path,
    count_disjoint_paths,
    path_edges,
    simple_paths,
    vertex_connectivity,
)
from .errors import Budget
from .graphs import Graph

@dataclass(frozen=True)
class OriginalPathBundle:
    u1: int
    u2: int
    u3: int
    t: int
    paths: tuple[tuple[int, ...], ...]

    @property
    def s(self) -> int:
        return len(self.paths)


@dataclass(frozen=True)
class ReducedPathBundle:
    base: OriginalPathBundle
    connectors: tuple[tuple[int, ...], ...]


def verify_original_bundle(g: Graph, b: OriginalPathBundle) -> Optional[str]:
    """Re-check every invariant structurally; returns the first violation."""
    if len({b.u1, b.u2, b.u3}) != 3:
        return "anchor vertices not distinct"
    if b.t < 0 or (b.t >= 1 and b.s < b.t + 1):
        return f"invalid (s,t) = ({b.s},{b.t})"
    internal_seen: set[int] = set()
    edge_seen: set[tuple[int, int]] = set()
    for i, p in enumerate(b.paths):
        err = check_path(g, p)
        if err:
            return f"path {i + 1}: {err}"
        if p[0] != b.u1 or p[-1] != b.u2:
            return f"path {i + 1} does not run from u1 to u2"
        inner = set(p[1:-1])
        if i < b.t:
            if b.u3 not in inner:
                return f"path {i + 1} designated through u3 but misses it"
        else:
            if b.u3 in inner:
                return "u3 on non-designated path"
        for x in inner - {b.u3}:
            if x in internal_seen:
                return f"internal vertex {x} shared between paths"
            internal_seen.add(x)
        for e in path_edges(p):
            if e in edge_seen:
                return f"edge {e} shared between paths"
            edge_seen.add(e)
    return None


def verify_reduced_bundle(g: Graph, rb: ReducedPathBundle) -> Optional[str]:
    b = rb.base
    err = verify_original_bundle(g, b)
    if err:
        return err
    free_paths = b.paths[b.t:]
    x_all = set().union(*(set(p) for p in free_paths)) if free_paths else set()
    through_internal = set()
    for p in b.paths[: b.t]:
        through_internal |= set(p[1:-1])
    through_internal -= {b.u3}
    if len(rb.connectors) != b.s - 2 * b.t:
        return f"expected {b.s - 2 * b.t} connectors, found {len(rb.connectors)}"
    conn_internal: set[int] = set()
    edge_seen: set[tuple[int, int]] = set()
    for p in b.paths:
        edge_seen.update(path_edges(p))
    for i, mp in enumerate(rb.connectors):
        err = check_path(g, mp)
        if err:
            return f"connector {i + 1}: {err}"
        if mp[0] != b.u3:
            return f"connector {i + 1} does not start at u3"
        if mp[-1] not in x_all:
            return f"connector {i + 1} does not terminate on a u3-free path"
        if mp[-1] not in set(free_paths[i]):
            return f"connector {i + 1} misaligned: terminal not on path {b.t + i + 1}"
        inner = set(mp[1:-1])
        if inner & x_all:
            return f"connector {i + 1} passes through a u3-free path"
        if inner & through_internal:
            return f"connector {i + 1} touches a designated path internally"
        if inner & conn_internal:
            return f"connector {i + 1} shares an internal vertex with another connector"
        conn_internal |= inner
        for e in path_edges(mp):
            if e in edge_seen:
                return f"connector {i + 1} reuses edge {e}"
            edge_seen.add(e)
    return None


# -- bundle search -------------------------------------------------------


def find_reduced_bundle(
    g: Graph,
    k: int,
    u1: int,
    u2: int,
    u3: int,
    t: Optional[int] = None,
    *,
    budget: Budget,
) -> Optional[ReducedPathBundle]:
    """Search for a (k, t)-reduced-path-bundle, smallest t first.

    With t given, only that value is tried.  Returns None when the search
    space is exhausted without a witness; raises BudgetExhausted when the
    node cap is hit first.
    """
    if len({u1, u2, u3}) != 3:
        raise ValueError("anchor vertices must be distinct")
    t_values = range(0, k // 2 + 1) if t is None else [t]
    for tv in t_values:
        rb = _search_bundle(g, k, u1, u2, u3, tv, budget)
        if rb is not None:
            err = verify_reduced_bundle(g, rb)
            if err is not None:
                raise AssertionError(f"internal error: invalid bundle found: {err}")
            return rb
    return None


def _search_bundle(
    g: Graph, k: int, u1: int, u2: int, u3: int, t: int, budget: Budget
) -> Optional[ReducedPathBundle]:
    if t > k // 2 or t < 0:
        return None

    def candidates(i: int, used: set[int]) -> Iterator[list[int]]:
        """Path i: u1-u3-u2 concatenations while i < t, then u3-free paths."""
        banned = frozenset(used | {u1, u2})
        if i >= t:
            yield from simple_paths(g, u1, frozenset({u2}), banned | {u3}, budget)
            return
        for p1 in simple_paths(g, u1, frozenset({u3}), banned, budget):
            for p2 in simple_paths(g, u3, frozenset({u2}), banned | set(p1[1:-1]), budget):
                yield p1 + p2[1:]

    def choose(
        paths: list[list[int]], used: set[int], used_edges: set[tuple[int, int]]
    ) -> Optional[ReducedPathBundle]:
        i = len(paths)
        if i == k:
            return choose_connectors(paths, used_edges)
        need, avoid = k - max(i, t), frozenset(used | {u3})
        if count_disjoint_paths(g, u1, u2, need, avoid) < need:
            return None
        # ascending order within the through and the free paths kills
        # permutations
        prev = tuple(paths[-1]) if i not in (0, t) else None
        for p in candidates(i, used):
            if prev is not None and tuple(p) <= prev:
                continue
            pedges = set(path_edges(p))
            if pedges & used_edges:
                continue
            res = choose(paths + [p], used | set(p[1:-1]) - {u3}, used_edges | pedges)
            if res is not None:
                return res
        return None

    def choose_connectors(
        paths: list[list[int]], path_edge_set: set[tuple[int, int]]
    ) -> Optional[ReducedPathBundle]:
        through, free = paths[:t], paths[t:]
        n_conn = k - 2 * t
        if n_conn == 0:
            base = OriginalPathBundle(u1, u2, u3, t, tuple(map(tuple, paths)))
            return ReducedPathBundle(base, ())
        x_all = set().union(*free)
        through_internal = set().union(*(p[1:-1] for p in through)) - {u3}
        for lead in permutations(range(len(free)), n_conn):
            budget.tick()
            tail = [i for i in range(len(free)) if i not in lead]
            ordered = [free[i] for i in list(lead) + tail]
            conns = _assign_connectors(
                g, u3, ordered, n_conn, x_all, through_internal, path_edge_set, budget
            )
            if conns is not None:
                base = OriginalPathBundle(
                    u1, u2, u3, t, tuple(tuple(p) for p in through + ordered)
                )
                return ReducedPathBundle(base, tuple(tuple(c) for c in conns))
        return None

    return choose([], set(), set())


def _assign_connectors(
    g: Graph,
    u3: int,
    free: list[list[int]],
    n_conn: int,
    x_all: set[int],
    through_internal: set[int],
    path_edge_set: set[tuple[int, int]],
    budget: Budget,
) -> Optional[list[list[int]]]:
    """Connector i must terminate on free[i]; internal vertices avoid all
    free paths (the other free paths are banned, and `simple_paths` never
    passes through its goals), the designated paths' interiors, and each
    other."""

    def rec(i: int, used_internal: set[int], used_edges: set[tuple[int, int]]):
        if i == n_conn:
            return []
        target = frozenset(free[i])
        banned = frozenset(
            (x_all - target) | through_internal | used_internal
        )
        for mp in simple_paths(g, u3, target, banned, budget):
            inner = set(mp[1:-1])
            medges = set(path_edges(mp))
            if medges & used_edges or medges & path_edge_set:
                continue
            rest = rec(i + 1, used_internal | inner, used_edges | medges)
            if rest is not None:
                return [mp] + rest
        return None

    return rec(0, set(), set())


# -- cycle through three pairwise-nonadjacent edges ------------------------


def find_cycle_through_edges(
    g: Graph,
    e1: tuple[int, int],
    e2: tuple[int, int],
    e3: tuple[int, int],
    budget: Optional[Budget] = None,
) -> Optional[tuple[int, ...]]:
    """A simple cycle containing all three edges, or None.

    For a 3-connected graph, None happens exactly when the triple is an
    edge cut (the search is exhaustive).  Cycles are canonicalized to start
    at their lowest vertex, ascending second vertex.
    """
    if budget is None:
        budget = Budget()
    edges = [tuple(e1), tuple(e2), tuple(e3)]
    ends = [v for e in edges for v in e]
    if len(set(ends)) != 6:
        raise ValueError("edges must be pairwise nonadjacent")
    for a, b in edges:
        if not g.has_edge(a, b):
            raise ValueError(f"({a},{b}) is not an edge")
    if vertex_connectivity(g) < 3:
        raise ValueError("graph must be 3-connected")

    a1, b1 = edges[0]
    for second, third in ((edges[1], edges[2]), (edges[2], edges[1])):
        for x0, x1 in (second, second[::-1]):
            for y0, y1 in (third, third[::-1]):
                segs = _segments_triple(g, b1, x0, x1, y0, y1, a1, budget)
                if segs is not None:
                    p, q, r = segs
                    return _canonical_cycle([a1] + p + q + r[:-1])
    return None


def _segments_triple(
    g: Graph, a: int, b: int, c: int, d: int, e: int, f: int, budget: Budget,
    avoid: frozenset[int] = frozenset(),
) -> Optional[tuple[list[int], list[int], list[int]]]:
    """Vertex-disjoint paths a->b, c->d, e->f avoiding all six endpoints
    and the vertices in `avoid` internally; the first found in
    `simple_paths` order."""
    ends = avoid | {a, b, c, d, e, f}
    for p in simple_paths(g, a, frozenset({b}), ends, budget):
        used_p = frozenset(p)
        for q in simple_paths(g, c, frozenset({d}), ends | used_p, budget):
            used_q = used_p | frozenset(q)
            for r in simple_paths(g, e, frozenset({f}), ends | used_q, budget):
                return p, q, r
    return None


def _canonical_cycle(cyc: list[int]) -> tuple[int, ...]:
    i = cyc.index(min(cyc))
    rot = cyc[i:] + cyc[:i]
    fwd = rot
    bwd = [rot[0]] + rot[1:][::-1]
    return tuple(fwd if fwd[1] <= bwd[1] else bwd)

"""Exact Steiner-tree packing: kappa(S) as the maximum number of internally
disjoint S-trees, by bounded exhaustive search, plus every closed-form
kappa_3 formula used as an oracle.

Search strategy: a value is decided before any bundle is built.
`_decide` answers "r trees?" by branching on one edge at a time at the
terminal with the fewest free edges, where a tight terminal forces every
remaining tree to end in it (see its docstring).  The greedy packer
(`_greedy_pack`: each tree a union of BFS paths from a terminal root)
run at the upper bound gives a lower bound, and `_decide` runs from the
upper bound down to it.  `kappa_k` returns the trees of the search that
set the value, so nothing is packed twice, and stops at a floor that no
k-subset goes below: 1, and for k = 3 the bound of S. Li, X. Li and
W. Zhou on kappa(G), so a graph whose least subset meets it needs no
automorphism search.  `max_internally_disjoint_trees` packs its value
again with `pack_trees`, because Lemma 3.4 and the exact fallback copy
that search's first packing into certificate bytes.
`pack_trees` packs trees one at a time in ascending order of their least
edge (killing permutation symmetry), so once a tree is chosen every edge
up to its least edge is closed to the trees after it, as its own edges
are; every bundle lists its trees in that order.  Both exact searches
enumerate minimal S-trees lazily in the residual graph, their paths by
`connectivity.simple_paths`, and prune with the same `_feasible`: by
terminal degrees and by counting the free edges at S (`_room`, which on
the whole graph is the upper bound; a tree on S alone has |S|-1 edges
inside S, any other tree at least |S| edges at S, since its non-terminals
span a forest), and by pairwise flows in which the trees' paths may share
terminals.

`verify_bundle` is the one checker of a packing.  It sees the graph only
through an edge test, so a certificate is checked against G box H by
arithmetic on the factors, without building the product.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, combinations, islice
from typing import AbstractSet, Callable, Iterator, Optional, Sequence

from .connectivity import (
    count_disjoint_paths,
    kappa3_range_from_kappa,
    path_edges,
    simple_paths,
    vertex_connectivity,
)
from .errors import Budget
from .graphs import Edge, Graph, norm_edge

@dataclass(frozen=True)
class STree:
    """A tree whose vertex set contains the terminal set."""

    edges: frozenset[Edge]

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)


@dataclass(frozen=True)
class STreeBundle:
    s: tuple[int, ...]
    trees: tuple[STree, ...]

    def __len__(self) -> int:
        return len(self.trees)


def verify_bundle(
    has_edge: Callable[[int, int], bool], bundle: STreeBundle
) -> Optional[str]:
    """The one packing checker: every tree is a tree of the graph (each edge
    (a, b) passes `has_edge(a, b)`) whose vertices contain S and whose
    leaves lie in S, and no two trees share an edge or a vertex outside S.

    One pass over each tree's sorted edges builds its adjacency; `owner`
    maps every edge and non-terminal vertex seen so far to its tree.
    Returns the first violation found, tree by tree."""
    sset = set(bundle.s)
    owner: dict[Edge | int, int] = {}
    for i, t in enumerate(bundle.trees, 1):
        adj: dict[int, list[int]] = {}
        for e in sorted(t.edges):
            a, b = e
            if not has_edge(a, b):
                return f"tree {i}: edge {e} not in graph"
            if owner.setdefault(e, i) != i:
                return f"trees {owner[e]},{i} share edge {e}"
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        if not adj:
            return f"tree {i}: tree has no edges"
        if not sset <= adj.keys():
            return f"tree {i}: terminals {sorted(sset - adj.keys())} missing from tree"
        if len(t.edges) != len(adj) - 1:
            return f"tree {i}: edge count does not match tree on its vertex set"
        seen = {a}  # a: an end of the tree's last edge
        stack = [a]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != len(adj):
            return f"tree {i}: tree is disconnected"
        for v in sorted(adj.keys() - sset):
            if len(adj[v]) == 1:
                return f"tree {i}: degree-1 vertex {v} outside terminal set"
            if owner.setdefault(v, i) != i:
                return f"trees {owner[v]},{i} share non-terminal vertex {v}"
    return None


# -- minimal S-tree enumeration -------------------------------------------


def iter_minimal_s_trees(
    g: Graph,
    s: Sequence[int],
    banned_v: frozenset[int] = frozenset(),
    banned_e: frozenset[Edge] = frozenset(),
    budget: Optional[Budget] = None,
) -> Iterator[STree]:
    """All minimal S-trees (no non-terminal leaves) avoiding the given
    internal vertices and edges.

    Recursively: a minimal tree for the first k-1 terminals plus an
    attachment path from the last terminal.  The decomposition is unique,
    so no tree is produced twice.
    """
    if budget is None:
        budget = Budget()
    terms = sorted(set(s))
    if len(terms) < 2:
        raise ValueError("need at least two terminals")
    yield from _iter_trees(g, terms, frozenset(banned_v) - set(terms), frozenset(banned_e), budget)


def _iter_trees(
    g: Graph,
    terms: list[int],
    banned_v: frozenset[int],
    banned_e: frozenset[Edge],
    budget: Budget,
) -> Iterator[STree]:
    if len(terms) == 2:
        a, b = terms
        for p in simple_paths(g, a, frozenset({b}), banned_v | frozenset({a}), budget):
            pe = path_edges(p)
            if banned_e.isdisjoint(pe):
                yield STree(frozenset(pe))
        return
    last = terms[-1]
    rest = terms[:-1]
    for sub in _iter_trees(g, rest, banned_v, banned_e, budget):
        tree_verts = sub.vertices
        if last in tree_verts:
            # `last` is internal to the smaller tree (never a leaf there, or
            # the smaller tree would not be minimal); already an S-tree.
            yield sub
            continue
        # attach `last` by a path meeting the subtree at exactly one vertex
        for p in simple_paths(
            g,
            last,
            frozenset(tree_verts),
            banned_v | frozenset(rest),
            budget,
        ):
            pe = path_edges(p)
            if banned_e.isdisjoint(pe):
                yield STree(sub.edges | frozenset(pe))


# -- exact packing ---------------------------------------------------------


def _room(
    g: Graph,
    terms: tuple[int, ...],
    banned_v: AbstractSet[int] = frozenset(),
    banned_e: AbstractSet[Edge] = frozenset(),
) -> int:
    """How many S-trees the free edges at S (S = `terms`, sorted and
    distinct) leave room for, without the banned non-terminals and edges.

    Each tree holds a free edge at every terminal.  Counting bound: a tree
    on S alone has k-1 edges inside S; any other tree has k+|X|-1 edges (X
    its non-terminals), at most |X|-1 of them inside X (a forest), so at
    least k at S.  The trees are edge-disjoint and at most inner // (k-1)
    of them lie on S alone.  The result is never above m // (k-1), since
    at most m edges meet S."""
    sset = frozenset(terms)
    k = len(terms)
    least = g.n
    inner = cross = 0
    for t in terms:
        deg = 0
        for y in g.neighbors(t):
            if y in banned_v or ((t, y) if t < y else (y, t)) in banned_e:
                continue
            deg += 1
            if y in sset:
                inner += 1
            else:
                cross += 1
        least = min(least, deg)
    inner //= 2
    return min(least, (inner + cross + inner // (k - 1)) // k)


def _feasible(
    g: Graph,
    terms: tuple[int, ...],
    rem: int,
    banned_v: AbstractSet[int],
    banned_e: AbstractSet[Edge],
) -> bool:
    """False when `rem` more S-trees provably do not fit in g without the
    banned non-terminals and edges (S = `terms`, sorted and distinct)."""
    if _room(g, terms, banned_v, banned_e) < rem:
        return False
    if rem >= 2:
        # each tree holds an a-b path; the paths share no edge and no vertex
        # outside S, but may pass through the other terminals; the flows
        # skip the banned edges as they read g, so no residual graph is built
        avoid = frozenset(banned_v)
        sset = frozenset(terms)
        for a, b in combinations(terms, 2):
            if count_disjoint_paths(g, a, b, rem, avoid, sset, banned_e) < rem:
                return False
    return True


def pack_trees(
    g: Graph,
    s: Sequence[int],
    r: int,
    budget: Optional[Budget] = None,
) -> Optional[STreeBundle]:
    """r pairwise internally disjoint S-trees, or None after exhaustion."""
    if budget is None:
        budget = Budget()
    terms = tuple(sorted(set(s)))
    if r < 1:
        raise ValueError("r must be positive")
    if len(terms) < 2:
        raise ValueError("need at least two terminals")
    sset = frozenset(terms)
    edges = g.sorted_edges()

    def rec(
        chosen: list[STree], banned_v: frozenset[int], banned_e: frozenset[Edge]
    ) -> Optional[list[STree]]:
        if len(chosen) == r:
            return chosen
        rem = r - len(chosen)
        if not _feasible(g, terms, rem, banned_v, banned_e):
            return None
        for tree in _iter_trees(g, list(terms), banned_v, banned_e, budget):
            # edge-disjoint trees differ in their least edge, and they come
            # in its ascending order: later trees avoid every edge up to it
            floor = bisect_right(edges, min(tree.edges))
            res = rec(
                chosen + [tree],
                banned_v | (tree.vertices - sset),
                banned_e.union(tree.edges, edges[:floor]),
            )
            if res is not None:
                return res
        return None

    found = rec([], frozenset(), frozenset())
    return None if found is None else _checked_bundle(g, terms, found)


def _checked_bundle(
    g: Graph, terms: tuple[int, ...], trees: list[STree]
) -> STreeBundle:
    """The bundle of `trees` on S = `terms`, listed in ascending order of
    their least edge (the order `pack_trees` finds them in); AssertionError
    unless it passes `verify_bundle`."""
    bundle = STreeBundle(terms, tuple(sorted(trees, key=lambda t: min(t.edges))))
    err = verify_bundle(g.has_edge, bundle)
    if err is not None:
        raise AssertionError(f"internal error: packed bundle invalid: {err}")
    return bundle


def _decide(
    g: Graph, s: Sequence[int], r: int, budget: Budget
) -> Optional[STreeBundle]:
    """r internally disjoint S-trees, or None when there are none.

    At each node the terminal t with the fewest free edges is taken, with
    f = (t, y) its least free edge.  If t has exactly as many free edges as
    trees remain, each remaining tree uses one of them, so t is a leaf of
    every remaining tree and only the trees f + T are tried, T a minimal
    tree of G - t on the other terminals and y.  Otherwise the minimal
    S-trees that contain f are tried, and then f is banned.  Every packing
    is reached, so None is a proof.  The trees of the first packing reached
    are returned in ascending order of their least edge, as `pack_trees`
    lists its own; they need not be the trees `pack_trees` finds."""
    terms = tuple(sorted(set(s)))
    sset = frozenset(terms)

    def rec(
        rem: int, banned_v: frozenset[int], banned_e: frozenset[Edge]
    ) -> Optional[list[STree]]:
        if not rem:
            return []
        if not _feasible(g, terms, rem, banned_v, banned_e):
            return None
        free = {
            x: [y for y in g.neighbors(x)
                if y not in banned_v and norm_edge(x, y) not in banned_e]
            for x in terms
        }
        t = min(terms, key=lambda x: len(free[x]))
        y = free[t][0]
        f = norm_edge(t, y)
        if len(free[t]) == rem:
            rest = sorted(sset - {t} | {y})
            subs = (
                _iter_trees(g, rest, banned_v | {t}, banned_e, budget)
                if len(rest) > 1
                else [STree(frozenset())]  # y is the one other terminal
            )
            trees = (sub.edges | {f} for sub in subs)
        else:
            trees = (
                tree.edges
                for tree in _iter_trees(g, list(terms), banned_v, banned_e, budget)
                if f in tree.edges
            )
        for edges in trees:
            inner = frozenset(v for e in edges for v in e) - sset
            found = rec(rem - 1, banned_v | inner, banned_e | edges)
            if found is not None:
                found.append(STree(edges))
                return found
        return rec(rem, banned_v, banned_e | {f}) if len(free[t]) > rem else None

    found = rec(r, frozenset(), frozenset())
    return None if found is None else _checked_bundle(g, terms, found)


def _greedy_pack(g: Graph, s: Sequence[int], r: int, budget: Budget) -> STreeBundle:
    """Up to r internally disjoint S-trees placed one at a time, stopping
    at the first that does not fit (fewer than r trees prove nothing).

    For each tree, every terminal c is tried as the root: a BFS from c, in
    ascending adjacency order, over the unused edges and unused
    non-terminals (terminals may be passed through) stops once S is
    reached, and the union of the BFS-parent paths from S back to c (every
    leaf a terminal) is the candidate.  The one with the fewest edges (so
    the fewest non-terminals), then the least c, is placed.  A BFS that
    misses a terminal ends the packing: S is cut apart in the free graph.
    One budget tick per BFS node expanded."""
    terms = tuple(sorted(set(s)))
    sset = frozenset(terms)
    used_v: set[int] = set()
    used_e: set[Edge] = set()
    trees: list[STree] = []
    for _ in range(r):
        best: list[Edge] = []
        for c in terms:
            parent = {c: c}
            queue = [c]
            missing = len(terms) - 1
            for x in queue:
                if not missing:
                    break
                budget.tick()
                for y in g.neighbors(x):
                    if y in parent or y in used_v:
                        continue
                    if ((x, y) if x < y else (y, x)) in used_e:
                        continue
                    parent[y] = x
                    queue.append(y)
                    missing -= y in sset
            if missing:
                return _checked_bundle(g, terms, trees)
            tree = {c}
            edges: list[Edge] = []
            for x in terms:
                while x not in tree:
                    tree.add(x)
                    y = parent[x]
                    edges.append((x, y) if x < y else (y, x))
                    x = y
            if not best or len(edges) < len(best):
                best = edges
                if len(edges) == len(terms) - 1:
                    break  # a tree on S alone: no candidate is cheaper
        used_e.update(best)
        used_v.update(v for e in best for v in e if v not in sset)
        trees.append(STree(frozenset(best)))
    return _checked_bundle(g, terms, trees)


def _kappa_value(
    g: Graph, terms: tuple[int, ...], upper: int, budget: Budget
) -> tuple[int, STreeBundle]:
    """kappa(S) and a bundle of that many trees, given kappa(S) <= upper.

    The greedy packer at `upper` gives a lower bound lo, and `_decide`
    tries upper, upper - 1, ... down to lo + 1.  The bundle is the one of
    the search that set the value: `_decide`'s at the first r it decides,
    else the greedy packer's lo trees."""
    greedy = _greedy_pack(g, terms, upper, budget)
    for r in range(upper, len(greedy), -1):
        bundle = _decide(g, terms, r, budget)
        if bundle is not None:
            return r, bundle
    return len(greedy), greedy


def max_internally_disjoint_trees(
    g: Graph,
    s: Sequence[int],
    budget: Optional[Budget] = None,
    upper: Optional[int] = None,
) -> tuple[int, STreeBundle]:
    """Exact kappa(S) with a witness bundle: the value comes from
    `_kappa_value`, and `pack_trees` then packs that many trees.  Its
    bundle, not `_kappa_value`'s, is returned, because Lemma 3.4 and the
    exact fallback copy this bundle into certificate bytes, which stay the
    exhaustive search's first packing."""
    if budget is None:
        budget = Budget()
    terms = tuple(sorted(set(s)))
    if len(terms) < 2:
        raise ValueError("need at least two terminals")
    if not g.is_connected():
        raise ValueError("graph must be connected")
    ub = _room(g, terms)
    if upper is not None:
        ub = min(ub, upper)
    r, _ = _kappa_value(g, terms, ub, budget)
    bundle = pack_trees(g, terms, r, budget)
    if bundle is None:
        raise AssertionError("internal error: decided packing not found")
    return r, bundle


# -- automorphisms and orbit pruning ---------------------------------------


def automorphism_generators(
    g: Graph, budget: Optional[Budget] = None
) -> list[tuple[int, ...]]:
    """A strong generating set of Aut(g) for the base 0, 1, ..., n-1.

    Sims's stabilizer chain, from the last base point down: for base point
    i, every c > i outside i's orbit under the generators found so far
    (all of which fix 0..i-1) gets one backtracking search for an
    automorphism that fixes 0..i-1 and maps i to c.  The first one found
    joins the generators, and the orbit is closed again.  Afterwards the
    generators with base point >= i generate the stabilizer of 0..i-1.
    Distances are computed once, each vertex's distance to every prefix
    0..i as running minima along its row.  One budget tick per search node.
    """
    if budget is None:
        budget = Budget()
    n = g.n
    dist = [_distances(g, v) for v in range(n)]
    near = [list(accumulate(row, min)) for row in dist]
    nbrs = [frozenset(ys) for ys in g.adj]
    gens: list[tuple[int, ...]] = []
    for i in range(n - 2, -1, -1):
        search = _stabilizer_search(g, dist, near, nbrs, i, budget)
        orbit = {i}
        for c in range(i + 1, n):
            if c not in orbit and (perm := search(c)) is not None:
                gens.append(perm)
                orbit = _orbit(i, gens)
    return gens


def _orbit(start: int, gens: Sequence[Sequence[int]]) -> set[int]:
    """The orbit of the point `start` under the generators."""
    orbit = {start}
    frontier = [start]
    for x in frontier:
        for p in gens:
            y = p[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def _distances(g: Graph, v: int) -> list[int]:
    """BFS distance from v to every vertex, n = |V| where unreachable."""
    n = g.n
    dist = [n] * n
    dist[v] = 0
    queue = [v]
    for x in queue:
        for y in g.adj[x]:
            if dist[y] == n:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def _stabilizer_search(
    g: Graph, dist: list[list[int]], near: list[list[int]],
    nbrs: list[frozenset[int]], i: int, budget: Budget,
) -> Callable[[int], Optional[tuple[int, ...]]]:
    """search(c): the first automorphism found that fixes 0..i-1 and maps
    i to c, or None.

    The root places i on c.  The other vertices are placed in BFS order
    from {0..i} (by distance from that set, `near[x][i]`, then by label),
    so a vertex with a placed neighbour y may only map into the neighbours
    of y's image.  An automorphism keeps degrees and distances, so an image
    must lie in the vertex's cell (the same degree and distances to
    0..i-1), match its distance to i as a distance to c, and have as
    placed neighbours (`nbrs` over the set `used`) exactly the images of
    the vertex's placed neighbours.
    """
    n, adj = g.n, g.adj
    order = sorted(range(n), key=lambda x: (near[x][i], x))
    rank = {v: r for r, v in enumerate(order)}
    earlier = [[y for y in adj[x] if rank[y] < rank[x]] for x in range(n)]
    cells: dict[tuple[int, ...], int] = {}
    cell = [cells.setdefault((len(nbrs[v]), *dist[v][:i]), len(cells)) for v in range(n)]
    fixed = frozenset(range(i))
    root = nbrs[i] & fixed

    def search(c: int) -> Optional[tuple[int, ...]]:
        budget.tick()
        if cell[c] != cell[i] or nbrs[c] & fixed != root:
            return None
        perm = [*range(i), c] + [-1] * (n - i - 1)
        used = {*fixed, c}
        to_c, to_i = dist[c], dist[i]

        def rec(pos: int) -> bool:
            budget.tick()
            if pos == n:
                return True
            x = order[pos]
            back = earlier[x]
            want = {perm[y] for y in back}
            for cand in adj[perm[back[0]]] if back else range(n):
                if (
                    cand in used
                    or cell[cand] != cell[x]
                    or to_c[cand] != to_i[x]
                    or nbrs[cand] & used != want
                ):
                    continue
                perm[x] = cand
                used.add(cand)
                if rec(pos + 1):
                    return True
                used.discard(cand)
            perm[x] = -1
            return False

        return tuple(perm) if rec(i + 1) else None

    return search


def subset_orbit_reps(
    g: Graph, k: int, gens: Sequence[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """Lexicographically-least representative of each k-subset orbit under
    the group the generators `gens` generate, in `combinations` order.

    A subset not in the orbit of an earlier one is the least of its own.
    Subsets are numbered in `combinations` order and keyed by bitmask; a
    generator p permutes the numbers, its image masks summed by
    `combinations` over the bits 1 << p[v], and orbits are point orbits."""
    n = g.n
    masks = map(sum, combinations([1 << v for v in range(n)], k))
    index = {m: j for j, m in enumerate(masks)}
    perms = [
        [index[m] for m in map(sum, combinations([1 << y for y in p], k))]
        for p in gens
    ]
    reps: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for j, sub in enumerate(combinations(range(n), k)):
        if j not in seen:
            reps.append(sub)
            seen |= _orbit(j, perms)
    return reps


def kappa_k(
    g: Graph,
    k: int,
    budget: Optional[Budget] = None,
    use_symmetry: bool = False,
) -> tuple[int, tuple[int, ...], STreeBundle]:
    """min over k-subsets of kappa(S); returns (value, witness S, bundle).

    Every subset is evaluated by `_kappa_value`, and the bundle returned is
    the one of the search that set the minimum (the greedy packer's or
    `_decide`'s, trees in ascending order of their least edge), so no
    search runs twice.  The least subset 0..k-1 is evaluated first.  The
    search stops once the minimum meets a floor no subset goes below: 1,
    and for k = 3 the Li-Li-Zhou bound `kappa3_range_from_kappa(kappa(G))`
    (kappa(G) is computed once, after the least subset, when that subset's
    kappa is above 1).  It is checked after the least subset, where meeting
    it skips the automorphism search, and after each drop.  A later subset
    is skipped when it still admits as many trees as the current minimum:
    when the greedy packer places that many, or else when `_decide` says
    so.  With `use_symmetry`, only the least k-subset of each Aut(g)-orbit
    is evaluated; the result is the same, because the least subset
    attaining the minimum is the least of its orbit and the skip test
    answers exactly whether kappa(S) reaches the current minimum.
    The floor leaves it unchanged too: a minimum is replaced only on a
    strict decrease, and none is possible below the floor.
    """
    if not 2 <= k <= g.n:
        raise ValueError("need 2 <= k <= n")
    if budget is None:
        budget = Budget()
    if not g.is_connected():
        raise ValueError("graph must be connected")
    best_s = tuple(range(k))
    best, bundle = _kappa_value(g, best_s, _room(g, best_s), budget)
    floor = kappa3_range_from_kappa(vertex_connectivity(g))[0] if k == 3 and best > 1 else 1
    if best > floor:
        subsets = (
            subset_orbit_reps(g, k, automorphism_generators(g, budget))
            if use_symmetry
            else combinations(range(g.n), k)
        )
        # both orders start with 0..k-1, the least subset, already evaluated
        for sub in islice(subsets, 1, None):
            value, found = _kappa_value(g, sub, best, budget)
            if value < best:
                best, best_s, bundle = value, sub, found
                if best <= floor:
                    break
    return best, best_s, bundle


# -- closed-form oracles ---------------------------------------------------


def kappa3_formula(family: str, params: Sequence[int]) -> int:
    """kappa_3 closed forms for the named families.

    complete(b); complete_bipartite(a, b); complete_tripartite(a, b, c);
    cycle(n); cycle_product(k) for a product of k cycles;
    complete_times_complete(a, b) for K_{a+1} box K_b;
    complete_times_tripartite_aaa(a, b) for K_b box K_{a,a,a};
    complete_times_tripartite_a_a1_a1(a, b) for K_b box K_{a,a+1,a+1}.
    """
    p = list(params)
    if family == "complete":
        (b,) = p
        if b < 3:
            raise ValueError("kappa_3 of K_b needs b >= 3")
        return b - 2
    if family == "complete_bipartite":
        a, b = sorted(p)
        if a < 1 or a + b < 3:
            raise ValueError("needs a >= 1 and a + b >= 3")
        return a - 1 if a == b else a
    if family == "complete_tripartite":
        a, b, c = sorted(p)
        if a < 1:
            raise ValueError("parts must be positive")
        if (a, b) == (1, 1):
            return 1 if c == 1 else 2
        return a + b if a + b <= c else (a + b + c) // 2
    if family == "cycle":
        (n,) = p
        if n < 3:
            raise ValueError("a cycle needs n >= 3")
        return 1  # cycle_product with k = 1
    if family == "cycle_product":
        (k,) = p
        if k < 1:
            raise ValueError("needs at least one cycle factor")
        return 2 * k - 1
    if family == "complete_times_complete":
        a, b = p
        if a < 1 or b < 2:
            raise ValueError("needs a >= 1 and b >= 2")
        return a + b - 2
    if family == "complete_times_tripartite_aaa":
        a, b = p
        if a < 1 or b < 2:
            raise ValueError("needs a >= 1 and b >= 2")
        return 2 * a + b - 2 if b >= a - 1 else (3 * a + 3 * b - 3) // 2
    if family == "complete_times_tripartite_a_a1_a1":
        a, b = p
        if a < 1 or b < 2:
            raise ValueError("needs a >= 1 and b >= 2")
        return 2 * a + b - 1 if b >= a - 1 else (3 * a + 3 * b - 1) // 2
    raise ValueError(f"unknown family {family!r}")

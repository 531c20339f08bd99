"""Exact Steiner-tree packing: kappa(S) as the maximum number of internally
disjoint S-trees, by bounded exhaustive search, plus every closed-form
kappa_3 formula used as an oracle.

Search strategy: trees are packed one at a time in ascending canonical
order (killing permutation symmetry); minimal S-trees are enumerated
lazily in the residual graph, their paths by `connectivity.simple_paths`;
partial packings are pruned by terminal degrees and pairwise-flow
feasibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional, Sequence

from .connectivity import max_disjoint_paths, simple_paths
from .errors import Budget
from .graphs import Edge, Graph

DEFAULT_PACK_BUDGET = 10**8


@dataclass(frozen=True)
class STree:
    """A tree whose vertex set contains the terminal set."""

    edges: frozenset[Edge]

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def check(self, g: Graph, s: Sequence[int]) -> Optional[str]:
        sset = set(s)
        if not self.edges:
            return "tree has no edges"
        if not self.edges <= g.edges:
            bad = sorted(self.edges - g.edges)[0]
            return f"edge {bad} not in graph"
        verts = self.vertices
        if not sset <= verts:
            return f"terminals {sorted(sset - verts)} missing from tree"
        if len(self.edges) != len(verts) - 1:
            return "edge count does not match tree on its vertex set"
        # connectivity over the tree's own vertices
        adj: dict[int, list[int]] = {v: [] for v in verts}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        start = next(iter(verts))
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != len(verts):
            return "tree is disconnected"
        for v in verts:
            if len(adj[v]) == 1 and v not in sset:
                return f"degree-1 vertex {v} outside terminal set"
        return None


@dataclass(frozen=True)
class STreeBundle:
    s: tuple[int, ...]
    trees: tuple[STree, ...]

    def __len__(self) -> int:
        return len(self.trees)


def verify_bundle(g: Graph, bundle: STreeBundle) -> Optional[str]:
    """Re-check tree-ness, terminal containment, and pairwise internal
    disjointness; returns the first violation found."""
    sset = set(bundle.s)
    for i, t in enumerate(bundle.trees):
        err = t.check(g, bundle.s)
        if err:
            return f"tree {i + 1}: {err}"
    for i, j in combinations(range(len(bundle.trees)), 2):
        ti, tj = bundle.trees[i], bundle.trees[j]
        if ti.edges & tj.edges:
            e = sorted(ti.edges & tj.edges)[0]
            return f"trees {i + 1},{j + 1} share edge {e}"
        shared = (ti.vertices & tj.vertices) - sset
        if shared:
            return f"trees {i + 1},{j + 1} share non-terminal vertex {sorted(shared)[0]}"
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
        budget = Budget(DEFAULT_PACK_BUDGET)
    terms = sorted(set(s))
    if len(terms) < 2:
        raise ValueError("need at least two terminals")
    yield from _iter_trees(g, terms, frozenset(banned_v) - set(terms), frozenset(banned_e), budget)


def _path_edges_ok(p: Sequence[int], banned_e: frozenset[Edge]) -> bool:
    for a, b in zip(p, p[1:]):
        if ((a, b) if a < b else (b, a)) in banned_e:
            return False
    return True


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
            if _path_edges_ok(p, banned_e):
                yield STree(frozenset(
                    ((x, y) if x < y else (y, x)) for x, y in zip(p, p[1:])
                ))
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
            if not _path_edges_ok(p, banned_e):
                continue
            extra = frozenset(
                ((x, y) if x < y else (y, x)) for x, y in zip(p, p[1:])
            )
            yield STree(sub.edges | extra)


# -- exact packing ---------------------------------------------------------


def pack_trees(
    g: Graph,
    s: Sequence[int],
    r: int,
    budget: Optional[Budget] = None,
) -> Optional[STreeBundle]:
    """r pairwise internally disjoint S-trees, or None after exhaustion."""
    if budget is None:
        budget = Budget(DEFAULT_PACK_BUDGET)
    terms = tuple(sorted(set(s)))
    if r < 1:
        raise ValueError("r must be positive")
    sset = set(terms)

    def free_degree(v: int, banned_v: set[int], banned_e: set[Edge]) -> int:
        return sum(
            1
            for y in g.neighbors(v)
            if y not in banned_v
            and (((v, y) if v < y else (y, v)) not in banned_e)
        )

    def feasible(rem: int, banned_v: set[int], banned_e: set[Edge]) -> bool:
        for t in terms:
            if free_degree(t, banned_v, banned_e) < rem:
                return False
        if len(g.edges) - len(banned_e) < rem * (len(terms) - 1):
            return False
        if rem >= 2:
            residual = Graph(g.n, g.edges - banned_e)
            avoid = frozenset(banned_v)
            for a, b in combinations(terms, 2):
                got = len(
                    max_disjoint_paths(residual, a, b, need=rem, avoid=avoid)
                )
                if got < rem:
                    return False
        return True

    def rec(
        chosen: list[STree],
        banned_v: set[int],
        banned_e: set[Edge],
        prev_key,
    ) -> Optional[list[STree]]:
        if len(chosen) == r:
            return chosen
        rem = r - len(chosen)
        if not feasible(rem, banned_v, banned_e):
            return None
        for tree in _iter_trees(
            g, list(terms), frozenset(banned_v), frozenset(banned_e), budget
        ):
            key = tree.sorted_edges()
            if prev_key is not None and key <= prev_key:
                continue
            internals = set(tree.vertices) - sset
            res = rec(
                chosen + [tree],
                banned_v | internals,
                banned_e | set(tree.edges),
                key,
            )
            if res is not None:
                return res
        return None

    found = rec([], set(), set(), None)
    if found is None:
        return None
    bundle = STreeBundle(terms, tuple(found))
    err = verify_bundle(g, bundle)
    assert err is None, f"internal error: packed bundle invalid: {err}"
    return bundle


def max_internally_disjoint_trees(
    g: Graph,
    s: Sequence[int],
    budget: Optional[Budget] = None,
    upper: Optional[int] = None,
) -> tuple[int, STreeBundle]:
    """Exact kappa(S) with a witness bundle (search from the upper bound
    downward)."""
    if budget is None:
        budget = Budget(DEFAULT_PACK_BUDGET)
    terms = tuple(sorted(set(s)))
    if len(terms) < 2:
        raise ValueError("need at least two terminals")
    if not g.is_connected():
        raise ValueError("graph must be connected")
    ub = min(g.degree(t) for t in terms)
    ub = min(ub, g.m // (len(terms) - 1))
    if upper is not None:
        ub = min(ub, upper)
    for r in range(ub, 0, -1):
        bundle = pack_trees(g, terms, r, budget)
        if bundle is not None:
            return r, bundle
    raise AssertionError("connected graph must admit one S-tree")


# -- automorphisms and orbit pruning ---------------------------------------


def automorphisms(g: Graph, limit: int = 500_000) -> list[tuple[int, ...]]:
    """All automorphisms by backtracking with degree filtering.

    Intended for the small symmetric family graphs; `limit` caps the number
    of search nodes (raises if exceeded)."""
    degs = [g.degree(v) for v in range(g.n)]
    perm: list[int] = [-1] * g.n
    used = [False] * g.n
    out: list[tuple[int, ...]] = []
    nodes = 0

    def rec(i: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            raise RuntimeError("automorphism search limit exceeded")
        if i == g.n:
            out.append(tuple(perm))
            return
        for c in range(g.n):
            if used[c] or degs[c] != degs[i]:
                continue
            ok = True
            for j in range(i):
                if g.has_edge(i, j) != g.has_edge(c, perm[j]):
                    ok = False
                    break
            if ok:
                perm[i] = c
                used[c] = True
                rec(i + 1)
                used[c] = False
                perm[i] = -1

    rec(0)
    return out


def subset_orbit_reps(g: Graph, k: int, autos: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Lexicographically-least representative of each k-subset orbit."""
    reps = []
    for sub in combinations(range(g.n), k):
        canon = min(tuple(sorted(p[v] for v in sub)) for p in autos)
        if canon == sub:
            reps.append(sub)
    return reps


def kappa_k(
    g: Graph,
    k: int,
    budget: Optional[Budget] = None,
    use_symmetry: bool = False,
) -> tuple[int, tuple[int, ...], STreeBundle]:
    """min over k-subsets of kappa(S); returns (value, witness S, bundle).

    Subsets already known to meet the current minimum are skipped via a
    single packing decision instead of a full evaluation.
    """
    if not 2 <= k <= g.n:
        raise ValueError("need 2 <= k <= n")
    if budget is None:
        budget = Budget(DEFAULT_PACK_BUDGET)
    if not g.is_connected():
        raise ValueError("graph must be connected")
    subsets = (
        subset_orbit_reps(g, k, automorphisms(g))
        if use_symmetry
        else list(combinations(range(g.n), k))
    )
    best: Optional[int] = None
    best_s: Optional[tuple[int, ...]] = None
    best_bundle: Optional[STreeBundle] = None
    for sub in subsets:
        if best is not None:
            if best == 1:
                break
            if pack_trees(g, sub, best, budget) is not None:
                continue
            val, bundle = max_internally_disjoint_trees(g, sub, budget, upper=best - 1)
        else:
            val, bundle = max_internally_disjoint_trees(g, sub, budget)
        if best is None or val < best:
            best, best_s, best_bundle = val, sub, bundle
    assert best is not None and best_s is not None and best_bundle is not None
    return best, best_s, best_bundle


# -- closed-form oracles ---------------------------------------------------


def kappa3_formula(family: str, params: Sequence[int]) -> int:
    """kappa_3 closed forms for the named families.

    complete(b); complete_bipartite(a, b); complete_tripartite(a, b, c);
    cycle_product(k) for a product of k cycles; complete_times_complete(a, b)
    for K_{a+1} box K_b; complete_times_tripartite_aaa(a, b) for
    K_b box K_{a,a,a}; complete_times_tripartite_a_a1_a1(a, b) for
    K_b box K_{a,a+1,a+1}.
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

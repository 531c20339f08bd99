"""Constructive lower-bound certificates for the generalized 3-connectivity
of Cartesian products.

Given factors G, H and a 3-set S in the product, the generators build an
explicit family of internally disjoint S-trees realizing the applicable
lower bound.  As in the paper, G and H must be connected with at least two
vertices each: `classify_position`, run once by each entry point, raises
ValueError otherwise.  A k-connected factor then joins any two
vertices by k internally disjoint paths (Menger; a direct edge counts),
and any vertex to any k others by a k-fan (the fan lemma), so those path
systems are used as the flow returns them, unchecked.  Only what a real
input can fail is checked: kappa >= 2 (resp. 3) where a step needs it, a
pair of S's coordinates that is not adjacent (Lemma 3.1 case 1), and that
Lemma 4.1's reduced bundle and cycle segments exist.  Lemmas 3.1-3.3 remove
X, kappa(H) - 1 inner vertices of disjoint paths, from H, which leaves it
connected by the definition of kappa(H); Lemma 4.1's path shapes follow
from the bundle's invariants.  Neither is tested.  Each construction
assembles trees as unions of fiber pieces (paths, fans, whole fibers),
materializes them (spanning tree + leaf trim) and re-verifies the whole
bundle.  Once the hypotheses hold, the trees are a packing, so a rejected
tree is an internal error (AssertionError); only a failed hypothesis falls
back to exact search on the product, tagged "search-fallback".  The
product graph is built only where a search runs on it: by that fallback,
and as the 3x3 grid G[us] box H[vs] that Lemma 3.1 case 2 packs in.
`Certificate.verify` reads product adjacency from the factors.  Each
construction computes the factors' invariants once (Lemma 3.4's kappa_3(G)
by orbit pruning), and every search it runs ticks the caller's `Budget`
(with None, one `Budget()` per call).  Each tree shape is built in one place:
`_star` builds the piece under every construction, one factor copied into a
fiber and joined to S by rungs along the other factor; `_rung_tree` builds
Lemma 3.1's path-fiber-rung-fan tree in cases 1 and 2; one local helper
builds Lemma 4.1's three-tree braid.  Every construction writes G box H
flat ids directly through the two path copiers `_hpath` and `_gpath`; where
the factors' roles are exchanged (`_orientations`), the copiers swap.

Tree pieces live in flat product ids: (u, v) -> u * |V(H)| + v.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import ceil
from typing import Iterable, Optional, Sequence

from .bundles import _segments_triple, find_reduced_bundle
from .connectivity import fan, max_disjoint_paths, vertex_connectivity
from .errors import Budget
from .graphs import Edge, Graph, cartesian_product, complete, flat_id, norm_edge
from .packing import (
    STree,
    STreeBundle,
    kappa_k,
    max_internally_disjoint_trees,
    pack_trees,
    verify_bundle,
)


# -- position classification ----------------------------------------------


@dataclass(frozen=True)
class SPosition:
    """How a 3-set sits in the product, by coordinate multiplicities.

    `swap` records whether the G/H roles must be exchanged to reach the
    canonical shape; `pairs` lists S as (u, v) coordinates, ascending."""

    label: str  # all-distinct | corner-share | two-share-one-apart |
    #             same-g-fiber | same-h-fiber
    swap: bool
    pairs: tuple[tuple[int, int], ...]


def classify_position(g: Graph, h: Graph, s: Sequence[int]) -> SPosition:
    """Where S sits in G box H, after refusing the factors the paper
    excludes (the constructions' one precondition)."""
    if any(f.n < 2 or not f.is_connected() for f in (g, h)):
        raise ValueError("factors must be connected with at least two vertices")
    sset = sorted(set(s))
    if len(sset) != 3:
        raise ValueError("S must contain three distinct vertices")
    for x in sset:
        if not 0 <= x < g.n * h.n:
            raise ValueError(f"vertex {x} outside the product")
    pairs = tuple(divmod(x, h.n) for x in sset)
    nu = len({u for u, _ in pairs})
    nv = len({v for _, v in pairs})
    if nu == 3 and nv == 3:
        return SPosition("all-distinct", False, pairs)
    if nu == 2 and nv == 2:
        return SPosition("corner-share", False, pairs)
    if nu == 3 and nv == 2:
        return SPosition("two-share-one-apart", False, pairs)
    if nu == 2 and nv == 3:
        return SPosition("two-share-one-apart", True, pairs)
    if nv == 1:
        return SPosition("same-g-fiber", False, pairs)
    return SPosition("same-h-fiber", False, pairs)


# -- certificate record ----------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    g: Graph
    h: Graph
    s: tuple[int, ...]
    bundle: STreeBundle
    provenance: str
    claimed_bound: int

    def verify(self) -> Optional[str]:
        if tuple(sorted(self.s)) != self.bundle.s:
            return "certificate terminal set does not match bundle"
        if len(self.bundle) < self.claimed_bound:
            return (
                f"bundle has {len(self.bundle)} trees, "
                f"claimed bound is {self.claimed_bound}"
            )
        g, h = self.g, self.h
        m, n = h.n, g.n * h.n

        # adjacency in G box H by arithmetic on the factors; with a < b, an
        # edge inside a fiber or a layer is already in ascending order
        def has_edge(a: int, b: int) -> bool:
            if not 0 <= a < b < n:
                return False
            (ua, va), (ub, vb) = divmod(a, m), divmod(b, m)
            if ua == ub:
                return (va, vb) in h.edges
            return va == vb and (ua, ub) in g.edges

        return verify_bundle(has_edge, self.bundle)


# -- flat-id edge assembly helpers ----------------------------------------


def _hpath(p: Sequence[int], u: int, m: int) -> set[Edge]:
    """An H-path copied into the fiber of column u."""
    return {norm_edge(flat_id(u, a, m), flat_id(u, b, m)) for a, b in zip(p, p[1:])}


def _gpath(p: Sequence[int], v: int, m: int) -> set[Edge]:
    """A G-path copied into layer v."""
    return {norm_edge(flat_id(a, v, m), flat_id(b, v, m)) for a, b in zip(p, p[1:])}


def _fiber(copy, f: Graph, x: int, m: int, exclude: Iterable[int] = ()) -> set[Edge]:
    """Factor f (or a tree in it) minus `exclude`, copied edge by edge with
    `copy`: _gpath for layer x (f in G), _hpath for the fiber of column x
    (f in H)."""
    ex = set(exclude)
    return {e for a, b in f.edges if a not in ex and b not in ex for e in copy((a, b), x, m)}


def _star(along, across, f: Graph, y: int, x: int, homes, m: int, exclude=()) -> set[Edge]:
    """Factor f minus `exclude` copied at x, plus the rung y-x at each home:
    the piece every S-tree of Lemmas 3.1-3.4 and 4.1 is built from.
    `along` copies the rungs' factor, `across` copies f."""
    es = _fiber(across, f, x, m, exclude)
    for home in homes:
        es |= along((y, x), home, m)
    return es


def _rung_tree(along, across, f: Graph, p, homes, fans, m: int, exclude=()) -> set[Edge]:
    """Lemma 3.1's tree: path p minus its end at homes[0], the star of f
    minus `exclude` at x = p[-2] with its rung from p[-1] at homes[1], and
    the fan path fans[x] at homes[2]."""
    x = p[-2]
    return (
        along(p[:-1], homes[0], m)
        | _star(along, across, f, p[-1], x, homes[1:2], m, exclude)
        | along(fans[x], homes[2], m)
    )


def _orientations(
    g: Graph, h: Graph, kg: int, kh: int, pairs: Sequence[tuple[int, int]]
) -> tuple[tuple, tuple]:
    """The two ways to read G box H: as (G, H) and with the roles exchanged.
    Each entry is (G', H', kappa(G'), kappa(H'), S as (u', v') pairs, the
    copier of an H'-path into a G'-column's fiber, the copier of a G'-path
    into an H'-layer); the copiers write G box H flat ids either way."""
    return (
        (g, h, kg, kh, pairs, _hpath, _gpath),
        (h, g, kh, kg, [(v, u) for u, v in pairs], _gpath, _hpath),
    )


def _materialize(edges: set[Edge], terminals: set[int]) -> STree:
    """Union of pieces -> BFS spanning tree from the least terminal -> the
    union of its paths from each terminal up to that root, which is the
    spanning tree with its non-terminal leaves trimmed."""
    root = min(terminals)
    adj: dict[int, list[int]] = {root: []}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    parent: dict[int, int] = {root: root}
    queue = [root]
    for x in queue:
        for y in sorted(adj[x]):
            if y not in parent:
                parent[y] = x
                queue.append(y)
    if not terminals <= parent.keys():
        raise AssertionError("internal error: a tree misses a terminal")
    tree: set[Edge] = set()
    for t in terminals:
        while t != root and norm_edge(t, parent[t]) not in tree:
            tree.add(norm_edge(t, parent[t]))
            t = parent[t]
    return STree(frozenset(tree))


# -- fallback and finishing ------------------------------------------------


def _fallback(
    g: Graph, h: Graph, s: Sequence[int], claimed: int, budget: Budget
) -> Certificate:
    """Exact search on the product, working downward from the claimed bound
    (at least 1: kappa(G) + kappa(H) - 1 or the Lemma 4.1 bound)."""
    r, bundle = max_internally_disjoint_trees(
        cartesian_product(g, h), s, budget, upper=claimed
    )
    return Certificate(g, h, bundle.s, bundle, "search-fallback", r)


def _finish(
    g: Graph, h: Graph, s: Sequence[int], tree_edge_sets: list[set[Edge]], tag: str,
    claimed: int,
) -> Certificate:
    """Materialize the trees and verify the bundle, which counts them.  The
    construction's hypotheses held, so its trees are a packing and a
    rejection is a fault, never a case for search."""
    terms = tuple(sorted(s))
    trees = tuple(_materialize(es, set(terms)) for es in tree_edge_sets)
    cert = Certificate(g, h, terms, STreeBundle(terms, trees), tag, claimed)
    err = cert.verify()
    if err is not None:
        raise AssertionError(f"internal error: constructed certificate invalid: {err}")
    return cert


# -- all-distinct position (k + l - 1 trees) -------------------------------


def _lemma31(
    g: Graph, h: Graph, s: Sequence[int], pos: SPosition, budget: Budget
) -> Certificate:
    """Certificate for S with three distinct coordinates in both factors."""
    pairs = pos.pairs
    kg, kh = vertex_connectivity(g), vertex_connectivity(h)
    claimed = kg + kh - 1
    us = [u for u, _ in pairs]
    vs = [v for _, v in pairs]
    tri_g = all(g.has_edge(a, b) for a, b in permutations(us, 2) if a < b)
    tri_h = all(h.has_edge(a, b) for a, b in permutations(vs, 2) if a < b)
    if tri_g and tri_h:
        trees = _lemma31_case2(g, h, pairs, kg, kh, budget)
        return _finish(g, h, s, trees, "3.1/2", claimed)
    for cg, ch, k, l, cpairs, hpath, gpath in _orientations(g, h, kg, kh, pairs):
        if k < 2:
            continue
        for perm in permutations(range(3)):
            (u1, v1), (u2, v2), (u3, v3) = [cpairs[i] for i in perm]
            if ch.has_edge(v1, v2):
                continue
            trees, tag = _lemma31_case1(cg, ch, k, l, u1, u2, u3, v1, v2, v3, hpath, gpath, h.n)
            return _finish(g, h, s, trees, tag, claimed)
    return _fallback(g, h, s, claimed, budget)


def _lemma31_case1(
    cg: Graph, ch: Graph, k: int, l: int, u1: int, u2: int, u3: int,
    v1: int, v2: int, v3: int, hpath, gpath, m: int,
) -> tuple[list[set[Edge]], str]:
    """Lemma 3.1 case 1 in the orientation (cg, ch): `hpath` and `gpath`
    copy ch- and cg-paths into G box H flat ids (see `_orientations`)."""
    # the (at most one) path through v3 goes last, so X, the predecessors
    # of v2 on P_1..P_{l-1}, holds l - 1 inner vertices other than v3 (v1v2
    # is not an edge), fewer than kappa(ch) = l, and ch - X is connected
    hp = sorted(max_disjoint_paths(ch, v1, v2, need=l), key=lambda p: v3 in p)
    x_set = {p[-2] for p in hp[: l - 1]}
    hq = {p[-1]: p for p in fan(ch, v3, x_set | {v1}, l).paths}
    trees = [_rung_tree(hpath, gpath, cg, p, (u1, u2, u3), hq, m) for p in hp[: l - 1]]

    gp = max_disjoint_paths(cg, u1, u2, need=k)
    direct = [r for r in gp if len(r) == 2]
    via3 = [r for r in gp if r[-2] == u3]
    rest = [r for r in gp if len(r) > 2 and r[-2] != u3]
    if via3:  # the u3-predecessor path must take the last slot
        tail = (direct[0] if direct else rest.pop()), via3[0]
    elif direct:
        tail = direct[0], rest.pop()
    else:
        tail = rest.pop(-2), rest.pop()
    gq = rest + list(tail)
    case12 = bool(via3)
    # case 1.1 fans out to every G-predecessor but the (k-1)th; in case 1.2
    # the last path runs through u3, so it is left out and u1 is avoided
    idx = list(range(k - 2)) + ([] if case12 else [k - 1])
    targets = {gq[j][-2] for j in idx} | {u2}
    avoid = frozenset({u1} if case12 else ())
    sp = {p[-1]: p for p in fan(cg, u3, targets, len(targets), avoid=avoid).paths}
    trees += [_rung_tree(gpath, hpath, ch, gq[j], (v1, v2, v3), sp, m, x_set) for j in idx]
    trees.append(  # the tree through u2
        gpath(gq[k - 2], v1, m) | _fiber(hpath, ch, u2, m, x_set) | gpath(sp[u2], v3, m)
    )
    if not case12:
        return trees, "3.1/1.1"
    trees.append(  # the mixed tree through (u3, v1) and (u1, v2)
        hpath(hq[v1], u3, m)
        | gpath(gq[k - 1][:-1], v1, m)
        | hpath(hp[l - 1], u1, m)
        | gpath(gq[k - 2], v2, m)
    )
    return trees, "3.1/1.2"


def _lemma31_case2(
    g: Graph, h: Graph, pairs: Sequence[tuple[int, int]], k: int, l: int,
    budget: Budget,
) -> list[set[Edge]]:
    """Both coordinate triples induce triangles: pack 3 trees inside the
    9-vertex induced subgraph, then thread the remaining k-2 and l-2 trees
    around it."""
    (u1, v1), (u2, v2), (u3, v3) = pairs
    m = h.n
    # G[us] box H[vs] is the product's induced 3x3 grid, K3 box K3 (whose
    # kappa_3 is 3), labelled in the order of the grid's flat ids
    us, vs = sorted((u1, u2, u3)), sorted((v1, v2, v3))
    grid = [flat_id(u, v, m) for u in us for v in vs]
    s_local = [grid.index(flat_id(u, v, m)) for u, v in pairs]
    packed = pack_trees(cartesian_product(complete(3), complete(3)), s_local, 3, budget)
    trees: list[set[Edge]] = [
        {norm_edge(grid[a], grid[b]) for a, b in t.edges} for t in packed.trees
    ]

    # the H pass threads l - 2 trees through G-layers; the G pass threads
    # k - 2 through H-fibers minus the predecessors the H pass used; f - a3
    # minus the edge a1a2 is (r-2)-connected
    x_set: set[int] = set()
    for f, other, r, ends, homes, along, across in (
        (h, g, l, (v1, v2, v3), (u1, u2, u3), _hpath, _gpath),
        (g, h, k, (u1, u2, u3), (v1, v2, v3), _gpath, _hpath),
    ):
        if r < 3:
            continue
        a1, a2, a3 = ends
        f2 = Graph(f.n, f.edges - {norm_edge(a1, a2)})
        ps = max_disjoint_paths(f2, a1, a2, need=r - 2, avoid=frozenset({a3}))
        preds = {p[-2] for p in ps}
        fp = {q[-1]: q for q in fan(f, a3, preds, r - 2, avoid=frozenset({a1, a2})).paths}
        trees += [_rung_tree(along, across, other, p, homes, fp, m, x_set) for p in ps]
        x_set = preds
    return trees


# -- corner-share position -------------------------------------------------


def _lemma32(
    g: Graph, h: Graph, s: Sequence[int], pos: SPosition, budget: Budget
) -> Certificate:
    """Certificate for S = {(u1,v1), (u1,v2), (u2,v1)}."""
    pairs = pos.pairs
    us = [u for u, _ in pairs]
    vs = [v for _, v in pairs]
    u1 = max(set(us), key=us.count)
    v1 = max(set(vs), key=vs.count)
    u2 = next(u for u in us if u != u1)
    v2 = next(v for v in vs if v != v1)
    m = h.n
    k = vertex_connectivity(g)
    l = vertex_connectivity(h)
    claimed = k + l - 1
    trees = _lemma32_build(g, h, u1, u2, v1, v2, m, k, l)
    return _finish(g, h, s, trees, "3.2", claimed)


def _h_opening(h: Graph, v1: int, v2: int, l: int) -> tuple[list[list[int]], set[int]]:
    """Lemmas 3.2 and 3.3 open alike: l disjoint v1-v2 paths in H, which
    Menger guarantees, direct edge last, and X, the second vertices of the
    first l - 1.  These are l - 1 inner vertices, fewer than kappa(H) = l,
    so H - X is connected."""
    hp = sorted(max_disjoint_paths(h, v1, v2, need=l), key=lambda p: len(p) == 2)
    return hp, {p[1] for p in hp[: l - 1]}


def _lemma32_build(g, h, u1, u2, v1, v2, m, k, l) -> list[set[Edge]]:
    hp, x_set = _h_opening(h, v1, v2, l)
    gp = sorted(max_disjoint_paths(g, u1, u2, need=k), key=lambda q: len(q) == 2)
    # every tree but the last: a path joining two terminals at home, and the
    # star at the path's second vertex, whose rung reaches the third terminal
    trees: list[set[Edge]] = []
    for ps, along, across, f, home, rung_home, exclude in (
        (hp[: l - 1], _hpath, _gpath, g, u1, u2, ()),
        (gp[: k - 1], _gpath, _hpath, h, v1, v2, x_set),
    ):
        trees += [
            along(p, home, m) | _star(along, across, f, p[0], p[1], (rung_home,), m, exclude)
            for p in ps
        ]
    trees.append(_hpath(hp[l - 1], u1, m) | _gpath(gp[k - 1], v1, m))
    return trees


# -- two-share-one-apart position ------------------------------------------


def _lemma33(
    g: Graph, h: Graph, s: Sequence[int], pos: SPosition, budget: Budget
) -> Certificate:
    """Certificate for S = {(u1,v1), (u2,v1), (u3,v2)} (either orientation)."""
    kg, kh = vertex_connectivity(g), vertex_connectivity(h)
    claimed = kg + kh - 1
    cg, ch, k, l, cpairs, hpath, gpath = _orientations(g, h, kg, kh, pos.pairs)[pos.swap]
    vs = [v for _, v in cpairs]
    v1 = max(set(vs), key=vs.count)
    v2 = next(v for v in vs if v != v1)
    u1, u2 = sorted(u for u, v in cpairs if v == v1)
    (u3,) = [u for u, v in cpairs if v == v2]
    trees = _lemma33_build(cg, ch, k, l, u1, u2, u3, v1, v2, hpath, gpath, h.n)
    return _finish(g, h, s, trees, "3.3", claimed)


def _lemma33_build(cg, ch, k, l, u1, u2, u3, v1, v2, hpath, gpath, m) -> list[set[Edge]]:
    hp, x_set = _h_opening(ch, v1, v2, l)
    trees = [
        _star(hpath, gpath, cg, v1, p[1], (u1, u2), m) | hpath(p[1:], u3, m)
        for p in hp[: l - 1]
    ]
    gp = max_disjoint_paths(cg, u1, u2, need=k)
    if k == 1:  # a lone G-path: u3 reaches u2 by any path
        gq, ends = gp, [u2]
        rp = {u2: max_disjoint_paths(cg, u3, u2, need=1)[0]}
    else:
        # at most one path starts with u2 (the bare edge), one with u3
        gq = sorted(gp, key=lambda q: q[1] in (u2, u3))
        ends = [q[1] for q in gq[: k - 2]] + [u1, u2]
        rp = {p[-1]: p for p in fan(cg, u3, ends, k).paths}
    for q, x in zip(gq, ends):
        trees.append(gpath(q, v1, m) | _fiber(hpath, ch, x, m, x_set) | gpath(rp[x], v2, m))
    return trees


# -- same-G-fiber position -------------------------------------------------


def _lemma34(
    g: Graph, h: Graph, s: Sequence[int], pos: SPosition, budget: Budget
) -> Certificate:
    """Certificate for S inside one layer (all H-coordinates equal)."""
    pairs = pos.pairs
    v1 = pairs[0][1]
    us = [u for u, _ in pairs]
    m = h.n
    claimed = factor_kappa3(g, budget) + h.min_degree()
    _, gbundle = max_internally_disjoint_trees(g, us, budget)
    trees = [_fiber(_gpath, t, v1, m) for t in gbundle.trees]
    trees += [_star(_hpath, _gpath, g, v1, nb, us, m) for nb in h.neighbors(v1)]
    return _finish(g, h, s, trees, "3.4", claimed)


# -- same-H-fiber position -------------------------------------------------


def prop42_bound(l: int, delta1: int) -> int:
    """Unconditional lower bound on kappa(S) for a one-fiber triple."""
    if l < 1 or delta1 < 1:
        raise ValueError("need l >= 1 and delta1 >= 1")
    return _bound41(l, delta1, l // 2)


def _bound41(l: int, delta1: int, t: int) -> int:
    """The Lemma 4.1 bound for a bundle with t >= 1 through-paths."""
    if delta1 >= t - 2:
        return l + delta1 - 1
    return l + delta1 - ceil((t - delta1) / 2)


def construct_lemma41(
    g: Graph,
    h: Graph,
    s: Sequence[int],
    budget: Optional[Budget] = None,
    t: Optional[int] = None,
) -> Certificate:
    """Certificate for S inside one fiber (all G-coordinates equal).

    By default the bundle with the smallest t is used; passing t forces
    that bundle shape (any witnessed shape yields a valid certificate).
    Every search ticks `budget`, by default one `Budget()` for the call."""
    pos = classify_position(g, h, s)
    if pos.label != "same-h-fiber":
        raise ValueError("S must lie in a single fiber of the product")
    return _lemma41(g, h, s, pos, Budget() if budget is None else budget, t)


def _lemma41(
    g: Graph, h: Graph, s: Sequence[int], pos: SPosition, budget: Budget,
    t: Optional[int] = None,
) -> Certificate:
    """`construct_lemma41` once S is known to lie in one fiber."""
    pairs = pos.pairs
    u1 = pairs[0][0]
    vset = sorted(v for _, v in pairs)
    m = h.n
    l = vertex_connectivity(h)
    delta1 = g.degree(u1)
    nbrs = list(g.neighbors(u1))
    fallback_claim = prop42_bound(l, delta1)

    best = None
    for v3 in vset:
        va, vb = [v for v in vset if v != v3]
        rb = find_reduced_bundle(h, l, va, vb, v3, t=t, budget=budget)
        if rb is not None and (best is None or rb.base.t < best.base.t):
            best = rb
        if best is not None and best.base.t == (t if t is not None else 0):
            break
    if best is None:
        return _fallback(g, h, s, fallback_claim, budget)
    rb = best
    t = rb.base.t
    v1, v2, v3 = rb.base.u1, rb.base.u2, rb.base.u3
    claimed = l + delta1 if t == 0 else _bound41(l, delta1, t)

    through = [list(p) for p in rb.base.paths[:t]]
    free = [list(p) for p in rb.base.paths[t:]]
    n_conn = l - 2 * t
    tail = free[n_conn:]

    def stars(nbs: list[int]) -> list[set[Edge]]:
        return [_star(_gpath, _hpath, h, u1, nb, (v1, v2, v3), m) for nb in nbs]

    def split(p: list[int]) -> tuple[list[int], list[int]]:
        i = p.index(v3)
        return p[: i + 1], p[i:]

    def braid(pa: list[int], pb: list[int], ta: list[int], tb: list[int]) -> list[set[Edge]]:
        """Three trees from through-paths pa, pb split at v3 and tails ta, tb."""
        pa1, pa2 = split(pa)
        pb1, pb2 = split(pb)
        return [
            _hpath(ta, u1, m) | _hpath(pa1, u1, m),
            _hpath(pb1, u1, m) | _hpath(pa2, u1, m),
            _hpath(pb2, u1, m) | _hpath(tb, u1, m),
        ]

    trees: list[set[Edge]] = []
    for i in range(n_conn):
        trees.append(_hpath(free[i], u1, m) | _hpath(rb.connectors[i], u1, m))

    if t <= 2:
        if t == 1:
            trees.append(_hpath(through[0], u1, m))
        elif t == 2:
            trees += braid(through[0], through[1], tail[1], tail[0])
        trees += stars(nbrs)
        return _finish(g, h, s, trees, f"4.1/t={t}", claimed)

    # t >= 3: route three trees per neighbor through a cycle in H minus
    # {v1, v2, v3}, threaded via that neighbor's fiber.  A through-path is
    # short when it uses the edge v1v3 or v3v2; the bundle is edge-disjoint,
    # so at most two are, and they go last, after the n_groups <= t - 2 that
    # the groups take.  At most one tail is the bare edge v1v2; it goes
    # first, and the groups take tails t - 1 down to 2.
    othrough = sorted(through, key=lambda p: v3 in (p[1], p[-2]))
    otail = sorted(tail, key=lambda p: len(p) > 2)
    n_groups = t - 2 if delta1 >= t - 2 else delta1
    for j in range(1, n_groups + 1):
        built = _lemma41_group(
            h, othrough[j - 1], otail[t - j], v1, v2, v3, u1, nbrs[j - 1], m, budget
        )
        if built is None:
            return _fallback(g, h, s, claimed, budget)
        trees.extend(built)

    if delta1 >= t - 2:
        trees += braid(othrough[t - 2], othrough[t - 1], otail[1], otail[0])
        trees += stars(nbrs[t - 2:])
    else:
        left = list(range(delta1, t))  # through-path indices not yet used
        while len(left) >= 2:
            a, b = left[0], left[1]
            left = left[2:]
            trees += braid(othrough[a], othrough[b], otail[t - 1 - a], otail[t - 1 - b])
        if left:
            trees.append(_hpath(othrough[left[0]], u1, m))
    tag = "4.1/case2.1" if l >= 7 else "4.1/case2-cycle"
    return _finish(g, h, s, trees, tag, claimed)


def _lemma41_group(
    h: Graph,
    p_through: list[int],
    p_free: list[int],
    v1: int,
    v2: int,
    v3: int,
    u1: int,
    uj: int,
    m: int,
    budget: Budget,
) -> Optional[list[set[Edge]]]:
    """Three S-trees threaded through one neighboring fiber.

    Each tree takes one piece of the split through-path or the free path at
    the home fiber, drops to the neighbor fiber at its missing terminal,
    and returns via a cycle segment landing on its own piece.  The caller
    passes long paths: each piece has an inner vertex to land on."""
    i = p_through.index(v3)
    p11, p12 = p_through[: i + 1], p_through[i:]
    land1 = p11[1]  # lands on the v1-v3 piece
    land3 = p12[1]  # lands on the v3-v2 piece
    land5 = p_free[-2]  # lands on the free path
    fixed = {v1, v2, v3, land1, land3, land5}
    for a2 in h.neighbors(v1):
        if a2 in fixed:
            continue
        for a4 in h.neighbors(v3):
            if a4 in fixed or a4 == a2:
                continue
            for a6 in h.neighbors(v2):
                if a6 in fixed or a6 in (a2, a4):
                    continue
                segs = _segments_triple(
                    h, a2, land3, a4, land5, a6, land1, budget, frozenset({v1, v2, v3})
                )
                if segs is None:
                    continue
                sa, sb, sc = segs
                return [
                    _hpath(piece, u1, m)
                    | _gpath((u1, uj), drop, m)
                    | _hpath([drop] + seg, uj, m)
                    | _gpath((u1, uj), land, m)
                    for piece, drop, seg, land in (
                        (p12, v1, sa, land3),
                        (p_free, v3, sb, land5),
                        (p11, v2, sc, land1),
                    )
                ]
    return None


# -- scalar bound calculators ----------------------------------------------


def factor_kappa3(g: Graph, budget: Optional[Budget] = None) -> int:
    """kappa_3 of a factor by the orbit-pruned exact search; for a 2-vertex
    factor the plain connectivity is used as the conventional stand-in."""
    if g.n < 3:
        return vertex_connectivity(g)
    return kappa_k(g, 3, budget, use_symmetry=True)[0]


def lower_bound_theorem14(
    kg: int, k3g: int, dg: int, kh: int, k3h: int, dh: int
) -> int:
    """Three-way minimum lower bound on kappa_3(G box H) from each factor's
    connectivity, kappa_3 and minimum degree."""
    if min(kg, kh) < 1:
        raise ValueError("factors must be nontrivial and connected")
    return min(k3g + dh, k3h + dg, kg + kh - 1)


def lower_bound_theorem15(kg: int, k3g: int, l: int) -> Optional[int]:
    """kappa_3(G) + l - 1 (resp. + l) from G's connectivity kg and kappa_3
    k3g when the factor-connectivity ranges allow it; None outside those
    ranges (counterexamples exist beyond)."""
    if kg < 1 or l < 1:
        raise ValueError("need a nontrivial connected factor and l >= 1")
    if kg == k3g and l <= 7:
        return k3g + l - 1
    if kg > k3g and l <= 9:
        return k3g + l
    return None


# -- dispatcher ------------------------------------------------------------

_CONSTRUCTORS = {
    "all-distinct": _lemma31,
    "corner-share": _lemma32,
    "two-share-one-apart": _lemma33,
    "same-g-fiber": _lemma34,
    "same-h-fiber": _lemma41,
}


def certify(
    g: Graph, h: Graph, s: Sequence[int], budget: Optional[Budget] = None
) -> Certificate:
    """Classify the position of S, refusing the factors the paper excludes,
    and run the matching construction.  Every search it runs ticks
    `budget`; with None, one default `Budget()` serves the whole call."""
    pos = classify_position(g, h, s)
    if budget is None:
        budget = Budget()
    return _CONSTRUCTORS[pos.label](g, h, s, pos, budget)

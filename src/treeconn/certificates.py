"""Constructive lower-bound certificates for the generalized 3-connectivity
of Cartesian products.

Given factors G, H and a 3-set S in the product, the generators build an
explicit family of internally disjoint S-trees realizing the applicable
lower bound.  Each construction assembles trees as unions of fiber pieces
(paths, fans, whole fibers), materializes them (spanning tree + leaf trim),
and re-verifies the whole bundle; on any hypothesis failure it falls back
to exact search on the product, tagged "search-fallback".  Each
construction computes the factors' connectivity once and passes it on.

Tree pieces live in flat product ids: (u, v) -> u * |V(H)| + v.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import ceil
from typing import Iterable, Optional, Sequence

from .bundles import DEFAULT_BUDGET, _segments_triple, find_reduced_bundle
from .connectivity import fan, max_disjoint_paths, vertex_connectivity
from .errors import Budget, BudgetExhausted
from .graphs import Edge, Graph, cartesian_product, flat_id
from .packing import (
    DEFAULT_PACK_BUDGET,
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

    def product(self) -> Graph:
        return cartesian_product(self.g, self.h)

    def verify(self) -> Optional[str]:
        if tuple(sorted(self.s)) != self.bundle.s:
            return "certificate terminal set does not match bundle"
        if len(self.bundle) < self.claimed_bound:
            return (
                f"bundle has {len(self.bundle)} trees, "
                f"claimed bound is {self.claimed_bound}"
            )
        return verify_bundle(self.product(), self.bundle)


# -- flat-id edge assembly helpers ----------------------------------------


def _e(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


def _hpath(p: Sequence[int], u: int, m: int) -> set[Edge]:
    """An H-path copied into the fiber of column u."""
    return {_e(flat_id(u, a, m), flat_id(u, b, m)) for a, b in zip(p, p[1:])}


def _gpath(p: Sequence[int], v: int, m: int) -> set[Edge]:
    """A G-path copied into layer v."""
    return {_e(flat_id(a, v, m), flat_id(b, v, m)) for a, b in zip(p, p[1:])}


def _fiber(copy, f: Graph, x: int, m: int, exclude: Iterable[int] = ()) -> set[Edge]:
    """Factor f minus `exclude`, copied edge by edge with `copy`: _gpath
    for layer x (f = G), _hpath for the fiber of column x (f = H)."""
    ex = set(exclude)
    return {e for a, b in f.edges if a not in ex and b not in ex for e in copy((a, b), x, m)}


def _transpose_tree(edges: Iterable[Edge], gn: int, hn: int) -> set[Edge]:
    """Map edges of H box G (flat over |V(G)|) into G box H flat ids."""

    def tv(x: int) -> int:
        vh, ug = divmod(x, gn)
        return ug * hn + vh

    return {_e(tv(a), tv(b)) for a, b in edges}


def _materialize(edges: set[Edge], terminals: set[int]) -> Optional[STree]:
    """Union of pieces -> spanning tree -> trim non-terminal leaves.

    Returns None when the union fails to connect the terminals."""
    if not edges:
        return None
    adj: dict[int, list[int]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    root = min(terminals)
    if root not in adj:
        return None
    parent: dict[int, int] = {root: root}
    queue = [root]
    qi = 0
    while qi < len(queue):
        x = queue[qi]
        qi += 1
        for y in sorted(adj[x]):
            if y not in parent:
                parent[y] = x
                queue.append(y)
    if not terminals <= parent.keys():
        return None
    tree = {_e(v, p) for v, p in parent.items() if p != v}
    deg: dict[int, int] = {}
    for a, b in tree:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    # peel non-terminal leaves until only the Steiner tree remains
    leaves = [v for v, d in deg.items() if d == 1 and v not in terminals]
    tadj: dict[int, set[int]] = {}
    for a, b in tree:
        tadj.setdefault(a, set()).add(b)
        tadj.setdefault(b, set()).add(a)
    while leaves:
        v = leaves.pop()
        (p,) = tadj[v]
        tree.discard(_e(v, p))
        tadj[p].discard(v)
        del tadj[v]
        if len(tadj[p]) == 1 and p not in terminals:
            leaves.append(p)
    return STree(frozenset(tree)) if tree else None


# -- fallback and finishing ------------------------------------------------


def _fallback(
    g: Graph, h: Graph, s: Sequence[int], claimed: int, budget: Optional[Budget]
) -> Certificate:
    """Exact search on the product, working downward from the claimed bound."""
    if budget is None:
        budget = Budget(DEFAULT_PACK_BUDGET)
    product = cartesian_product(g, h)
    terms = tuple(sorted(s))
    for r in range(max(claimed, 1), 0, -1):
        bundle = pack_trees(product, terms, r, budget)
        if bundle is not None:
            return Certificate(g, h, terms, bundle, "search-fallback", r)
    raise AssertionError("connected product must admit one S-tree")


def _finish(
    g: Graph,
    h: Graph,
    s: Sequence[int],
    tree_edge_sets: Optional[list[set[Edge]]],
    tag: str,
    claimed: int,
    budget: Optional[Budget],
) -> Certificate:
    """Materialize + verify, falling back to search when anything is off."""
    terms = tuple(sorted(s))
    if tree_edge_sets is not None:
        trees = []
        for es in tree_edge_sets:
            t = _materialize(es, set(terms))
            if t is None:
                trees = None
                break
            trees.append(t)
        if trees is not None and len(trees) >= claimed:
            bundle = STreeBundle(terms, tuple(trees))
            cert = Certificate(g, h, terms, bundle, tag, claimed)
            if cert.verify() is None:
                return cert
    return _fallback(g, h, s, claimed, budget)


# -- all-distinct position (k + l - 1 trees) -------------------------------


def construct_lemma31(
    g: Graph, h: Graph, s: Sequence[int], budget: Optional[Budget] = None
) -> Certificate:
    """Certificate for S with three distinct coordinates in both factors."""
    pos = classify_position(g, h, s)
    if pos.label != "all-distinct":
        raise ValueError("S must have all-distinct coordinates in both factors")
    pairs = pos.pairs
    kg, kh = vertex_connectivity(g), vertex_connectivity(h)
    claimed = kg + kh - 1
    us = [u for u, _ in pairs]
    vs = [v for _, v in pairs]
    tri_g = all(g.has_edge(a, b) for a, b in permutations(us, 2) if a < b)
    tri_h = all(h.has_edge(a, b) for a, b in permutations(vs, 2) if a < b)
    if tri_g and tri_h:
        trees = _lemma31_case2(g, h, pairs, kg, kh)
        return _finish(g, h, s, trees, "3.1/2", claimed, budget)
    for swap in (False, True):
        cg, ch = (h, g) if swap else (g, h)
        k, l = (kh, kg) if swap else (kg, kh)
        cpairs = [(v, u) for u, v in pairs] if swap else list(pairs)
        if k < 2:
            continue
        for perm in permutations(range(3)):
            roles = [cpairs[i] for i in perm]
            (u1, v1), (u2, v2), (u3, v3) = roles
            if ch.has_edge(v1, v2):
                continue
            built = _lemma31_case1(cg, ch, k, l, u1, u2, u3, v1, v2, v3)
            if built is not None:
                trees, tag = built
                if swap:
                    trees = [_transpose_tree(t, g.n, h.n) for t in trees]
                return _finish(g, h, s, trees, tag, claimed, budget)
    return _fallback(g, h, s, claimed, budget)


def _lemma31_case1(
    cg: Graph,
    ch: Graph,
    k: int,
    l: int,
    u1: int,
    u2: int,
    u3: int,
    v1: int,
    v2: int,
    v3: int,
) -> Optional[tuple[list[set[Edge]], str]]:
    if l < 1:
        return None
    m = ch.n
    paths = max_disjoint_paths(ch, v1, v2, need=l)
    if len(paths) < l:
        return None
    # the (unique) path through v3 goes last, so v3 avoids P_1..P_{l-1}
    clean = [p for p in paths if v3 not in p]
    tainted = [p for p in paths if v3 in p]
    if len(tainted) > 1:
        return None
    hp = clean + tainted
    preds = [p[-2] for p in hp[: l - 1]]
    x_set = set(preds)
    if len(x_set) != l - 1 or x_set & {v1, v2, v3}:
        return None
    if not ch.is_connected(avoid=frozenset(x_set)):
        return None
    fan_h = fan(ch, v3, x_set | {v1}, l)
    if fan_h is None:
        return None
    hq = {p[-1]: p for p in fan_h.paths}
    trees: list[set[Edge]] = []
    for j in range(l - 1):
        trees.append(
            _hpath(hp[j][:-1], u1, m)
            | _fiber(_gpath, cg, preds[j], m)
            | _hpath((v2, preds[j]), u2, m)
            | _hpath(hq[preds[j]], u3, m)
        )

    gp = max_disjoint_paths(cg, u1, u2, need=k)
    if len(gp) < k:
        return None
    direct = [r for r in gp if len(r) == 2]
    via3 = [r for r in gp if r[-2] == u3]
    rest = [r for r in gp if len(r) > 2 and r[-2] != u3]
    if via3:  # the u3-predecessor path must take the last slot
        tail = (direct[0] if direct else rest.pop()), via3[0]
    else:
        if direct:
            tail = direct[0], rest.pop()
        else:
            tail = rest.pop(-2), rest.pop()
    gq = rest + list(tail)
    gpreds = [r[-2] for r in gq]
    case12 = bool(via3)

    def standard_tree(r: Sequence[int], upred: int, spath: Sequence[int]) -> set[Edge]:
        return (
            _gpath(r[:-1], v1, m)
            | _fiber(_hpath, ch, upred, m, x_set)
            | _gpath((upred, u2), v2, m)
            | _gpath(spath, v3, m)
        )

    if not case12:
        targets = set(gpreds[: k - 2]) | {u2, gpreds[k - 1]}
        if len(targets) != k or u3 in targets:
            return None
        fan_g = fan(cg, u3, targets, k)
        if fan_g is None:
            return None
        sp = {p[-1]: p for p in fan_g.paths}
        for j in list(range(k - 2)) + [k - 1]:
            trees.append(standard_tree(gq[j], gpreds[j], sp[gpreds[j]]))
        trees.append(
            _gpath(gq[k - 2], v1, m)
            | _fiber(_hpath, ch, u2, m, x_set)
            | _gpath(sp[u2], v3, m)
        )
        return trees, "3.1/1.1"

    targets = set(gpreds[: k - 2]) | {u2}
    if len(targets) != k - 1 or u3 in targets or u1 in targets:
        return None
    fan_g = fan(cg, u3, targets, k - 1, avoid=frozenset({u1}))
    if fan_g is None:
        return None
    sp = {p[-1]: p for p in fan_g.paths}
    for j in range(k - 2):
        trees.append(standard_tree(gq[j], gpreds[j], sp[gpreds[j]]))
    trees.append(
        _gpath(gq[k - 2], v1, m)
        | _fiber(_hpath, ch, u2, m, x_set)
        | _gpath(sp[u2], v3, m)
    )
    trees.append(  # the mixed tree through (u3, v1) and (u1, v2)
        _hpath(hq[v1], u3, m)
        | _gpath(gq[k - 1][:-1], v1, m)
        | _hpath(hp[l - 1], u1, m)
        | _gpath(gq[k - 2], v2, m)
    )
    return trees, "3.1/1.2"


def _lemma31_case2(
    g: Graph, h: Graph, pairs: Sequence[tuple[int, int]], k: int, l: int
) -> Optional[list[set[Edge]]]:
    """Both coordinate triples induce triangles: pack 3 trees inside the
    9-vertex induced subgraph, then thread the remaining k-2 and l-2 trees
    around it."""
    (u1, v1), (u2, v2), (u3, v3) = pairs
    m = h.n
    product = cartesian_product(g, h)
    grid_ids = sorted(flat_id(u, v, m) for u in (u1, u2, u3) for v in (v1, v2, v3))
    sub, old = product.induced_subgraph(grid_ids)
    back = {i: x for i, x in enumerate(old)}
    fwd = {x: i for i, x in enumerate(old)}
    s_local = [fwd[flat_id(u, v, m)] for (u, v) in pairs]
    packed = pack_trees(sub, s_local, 3, Budget(DEFAULT_PACK_BUDGET))
    if packed is None:
        return None
    trees: list[set[Edge]] = [
        {_e(back[a], back[b]) for a, b in t.edges} for t in packed.trees
    ]

    x_set: set[int] = set()
    if l >= 3:
        h2 = Graph(h.n, h.edges - {_e(v1, v2)})
        hp = max_disjoint_paths(h2, v1, v2, need=l - 2, avoid=frozenset({v3}))
        if len(hp) < l - 2:
            return None
        hp = hp[: l - 2]
        preds = [p[-2] for p in hp]
        x_set = set(preds)
        if len(x_set) != l - 2 or x_set & {v1, v2, v3}:
            return None
        fan_h = fan(h, v3, x_set, l - 2, avoid=frozenset({v1, v2}))
        if fan_h is None:
            return None
        hq = {p[-1]: p for p in fan_h.paths}
        for j in range(l - 2):
            trees.append(
                _hpath(hp[j][:-1], u1, m)
                | _fiber(_gpath, g, preds[j], m)
                | _hpath((v2, preds[j]), u2, m)
                | _hpath(hq[preds[j]], u3, m)
            )
    if k >= 3:
        g2 = Graph(g.n, g.edges - {_e(u1, u2)})
        gp = max_disjoint_paths(g2, u1, u2, need=k - 2, avoid=frozenset({u3}))
        if len(gp) < k - 2:
            return None
        gp = gp[: k - 2]
        gpreds = [r[-2] for r in gp]
        if len(set(gpreds)) != k - 2 or set(gpreds) & {u1, u2, u3}:
            return None
        fan_g = fan(g, u3, set(gpreds), k - 2, avoid=frozenset({u1, u2}))
        if fan_g is None:
            return None
        sp = {p[-1]: p for p in fan_g.paths}
        for j in range(k - 2):
            trees.append(
                _gpath(gp[j][:-1], v1, m)
                | _fiber(_hpath, h, gpreds[j], m, x_set)
                | _gpath((gpreds[j], u2), v2, m)
                | _gpath(sp[gpreds[j]], v3, m)
            )
    return trees


# -- corner-share position -------------------------------------------------


def construct_lemma32(
    g: Graph, h: Graph, s: Sequence[int], budget: Optional[Budget] = None
) -> Certificate:
    """Certificate for S = {(u1,v1), (u1,v2), (u2,v1)}."""
    pos = classify_position(g, h, s)
    if pos.label != "corner-share":
        raise ValueError("S must share one coordinate pairwise (corner shape)")
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
    return _finish(g, h, s, trees, "3.2", claimed, budget)


def _h_opening(
    h: Graph, v1: int, v2: int, l: int
) -> Optional[tuple[list[list[int]], list[int], set[int]]]:
    """Lemmas 3.2 and 3.3 open alike: l disjoint v1-v2 paths in H, direct edge
    last, and X, the second vertices of the first l - 1, with v2 outside X
    and H - X connected; None when that fails."""
    hp = max_disjoint_paths(h, v1, v2, need=l)
    if len(hp) < l:
        return None
    hp = [p for p in hp if len(p) > 2] + [p for p in hp if len(p) == 2]
    seconds = [p[1] for p in hp[: l - 1]]
    x_set = set(seconds)
    if v2 in x_set or not h.is_connected(avoid=frozenset(x_set)):
        return None
    return hp, seconds, x_set


def _lemma32_build(g, h, u1, u2, v1, v2, m, k, l) -> Optional[list[set[Edge]]]:
    opening = _h_opening(h, v1, v2, l)
    if opening is None:
        return None
    hp, seconds, x_set = opening
    trees: list[set[Edge]] = []
    for j in range(l - 1):
        trees.append(
            _hpath(hp[j], u1, m)
            | _fiber(_gpath, g, seconds[j], m)
            | _hpath((v1, seconds[j]), u2, m)
        )
    gp = max_disjoint_paths(g, u1, u2, need=k)
    if len(gp) < k:
        return None
    gp = [q for q in gp if len(q) > 2] + [q for q in gp if len(q) == 2]
    for j in range(k - 1):
        sec = gp[j][1]
        trees.append(
            _gpath(gp[j], v1, m)
            | _fiber(_hpath, h, sec, m, x_set)
            | _gpath((u1, sec), v2, m)
        )
    trees.append(_hpath(hp[l - 1], u1, m) | _gpath(gp[k - 1], v1, m))
    return trees


# -- two-share-one-apart position ------------------------------------------


def construct_lemma33(
    g: Graph, h: Graph, s: Sequence[int], budget: Optional[Budget] = None
) -> Certificate:
    """Certificate for S = {(u1,v1), (u2,v1), (u3,v2)} (either orientation)."""
    pos = classify_position(g, h, s)
    if pos.label != "two-share-one-apart":
        raise ValueError("S must have exactly one shared coordinate")
    kg, kh = vertex_connectivity(g), vertex_connectivity(h)
    claimed = kg + kh - 1
    cg, ch = (h, g) if pos.swap else (g, h)
    k, l = (kh, kg) if pos.swap else (kg, kh)
    cpairs = [(v, u) for u, v in pos.pairs] if pos.swap else list(pos.pairs)
    vs = [v for _, v in cpairs]
    v1 = max(set(vs), key=vs.count)
    v2 = next(v for v in vs if v != v1)
    shared = sorted(u for u, v in cpairs if v == v1)
    (u3,) = [u for u, v in cpairs if v == v2]
    for ua, ub in (shared, shared[::-1]):
        trees = _lemma33_build(cg, ch, k, l, ua, ub, u3, v1, v2)
        if trees is not None:
            if pos.swap:
                trees = [_transpose_tree(t, g.n, h.n) for t in trees]
            return _finish(g, h, s, trees, "3.3", claimed, budget)
    return _fallback(g, h, s, claimed, budget)


def _lemma33_build(cg, ch, k, l, u1, u2, u3, v1, v2) -> Optional[list[set[Edge]]]:
    m = ch.n
    opening = _h_opening(ch, v1, v2, l)
    if opening is None:
        return None
    hp, seconds, x_set = opening
    trees: list[set[Edge]] = []
    for j in range(l - 1):
        trees.append(
            _hpath((v1, seconds[j]), u1, m)
            | _hpath((v1, seconds[j]), u2, m)
            | _fiber(_gpath, cg, seconds[j], m)
            | _hpath(hp[j][1:], u3, m)
        )
    gp = max_disjoint_paths(cg, u1, u2, need=k)
    if len(gp) < k:
        return None
    if k == 1:
        r = max_disjoint_paths(cg, u3, u2, need=1)
        if not r:
            return None
        trees.append(
            _gpath(gp[0], v1, m)
            | _fiber(_hpath, ch, u2, m, x_set)
            | _gpath(r[0], v2, m)
        )
        return trees
    good = [q for q in gp if q[1] not in (u2, u3)]
    bad = [q for q in gp if q[1] in (u2, u3)]
    if len(good) < k - 2:
        return None
    gq = good + bad
    gsec = [q[1] for q in gq[: k - 2]]
    targets = set(gsec) | {u1, u2}
    if len(targets) != k or u3 in targets:
        return None
    fan_g = fan(cg, u3, targets, k)
    if fan_g is None:
        return None
    rp = {p[-1]: p for p in fan_g.paths}
    for j in range(k - 2):
        trees.append(
            _gpath(gq[j], v1, m)
            | _fiber(_hpath, ch, gsec[j], m, x_set)
            | _gpath(rp[gsec[j]], v2, m)
        )
    trees.append(
        _gpath(gq[k - 2], v1, m)
        | _fiber(_hpath, ch, u1, m, x_set)
        | _gpath(rp[u1], v2, m)
    )
    trees.append(
        _gpath(gq[k - 1], v1, m)
        | _fiber(_hpath, ch, u2, m, x_set)
        | _gpath(rp[u2], v2, m)
    )
    return trees


# -- same-G-fiber position -------------------------------------------------


def construct_lemma34(
    g: Graph, h: Graph, s: Sequence[int], budget: Optional[Budget] = None
) -> Certificate:
    """Certificate for S inside one layer (all H-coordinates equal)."""
    pos = classify_position(g, h, s)
    if pos.label != "same-g-fiber":
        raise ValueError("S must lie in a single layer of the product")
    pairs = pos.pairs
    v1 = pairs[0][1]
    us = [u for u, _ in pairs]
    m = h.n
    k3g = kappa_k(g, 3, Budget(DEFAULT_PACK_BUDGET))[0]
    claimed = k3g + h.min_degree()
    _, gbundle = max_internally_disjoint_trees(g, us, Budget(DEFAULT_PACK_BUDGET))
    trees: list[set[Edge]] = []
    for t in gbundle.trees:
        trees.append({_e(flat_id(a, v1, m), flat_id(b, v1, m)) for a, b in t.edges})
    for nb in h.neighbors(v1):
        star = _fiber(_gpath, g, nb, m)
        for u in us:
            star |= _hpath((v1, nb), u, m)
        trees.append(star)
    return _finish(g, h, s, trees, "3.4", claimed, budget)


# -- same-H-fiber position -------------------------------------------------


def prop42_bound(l: int, delta1: int) -> int:
    """Unconditional lower bound on kappa(S) for a one-fiber triple."""
    if l < 1 or delta1 < 1:
        raise ValueError("need l >= 1 and delta1 >= 1")
    half = l // 2
    if delta1 >= half - 2:
        return l + delta1 - 1
    return l + delta1 - ceil((half - delta1) / 2)


def construct_lemma41(
    g: Graph,
    h: Graph,
    s: Sequence[int],
    budget: Optional[Budget] = None,
    t: Optional[int] = None,
) -> Certificate:
    """Certificate for S inside one fiber (all G-coordinates equal).

    By default the bundle with the smallest t is used; passing t forces
    that bundle shape (any witnessed shape yields a valid certificate)."""
    pos = classify_position(g, h, s)
    if pos.label != "same-h-fiber":
        raise ValueError("S must lie in a single fiber of the product")
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
        try:
            rb = find_reduced_bundle(
                h, l, va, vb, v3, t=t, budget=Budget(DEFAULT_BUDGET)
            )
        except BudgetExhausted:
            rb = None
        if rb is not None and (best is None or rb.base.t < best.base.t):
            best = rb
        if best is not None and best.base.t == (t if t is not None else 0):
            break
    if best is None:
        return _fallback(g, h, s, fallback_claim, budget)
    rb = best
    t = rb.base.t
    v1, v2, v3 = rb.base.u1, rb.base.u2, rb.base.u3
    if t == 0:
        claimed = l + delta1
    elif delta1 >= t - 2:
        claimed = l + delta1 - 1
    else:
        claimed = l + delta1 - ceil((t - delta1) / 2)

    through = [list(p) for p in rb.base.paths[:t]]
    free = [list(p) for p in rb.base.paths[t:]]
    n_conn = l - 2 * t
    tail = free[n_conn:]

    def star(nb: int) -> set[Edge]:
        es = _fiber(_hpath, h, nb, m)
        for v in (v1, v2, v3):
            es |= _gpath((u1, nb), v, m)
        return es

    def split(p: list[int]) -> tuple[list[int], list[int]]:
        i = p.index(v3)
        return p[: i + 1], p[i:]

    trees: list[set[Edge]] = []
    for i in range(n_conn):
        trees.append(_hpath(free[i], u1, m) | _hpath(rb.connectors[i], u1, m))

    if t <= 2:
        if t == 1:
            trees.append(_hpath(through[0], u1, m))
        elif t == 2:
            p11, p12 = split(through[0])
            p21, p22 = split(through[1])
            if len(tail) < 2:
                return _fallback(g, h, s, claimed, budget)
            trees.append(_hpath(tail[1], u1, m) | _hpath(p11, u1, m))
            trees.append(_hpath(p21, u1, m) | _hpath(p12, u1, m))
            trees.append(_hpath(p22, u1, m) | _hpath(tail[0], u1, m))
        for nb in nbrs:
            trees.append(star(nb))
        return _finish(g, h, s, trees, f"4.1/t={t}", claimed, budget)

    # t >= 3: route three trees per neighbor through a cycle in H minus
    # {v1, v2, v3}, threaded via that neighbor's fiber
    def seg_ok(p: list[int]) -> bool:
        a, b = split(p)
        return len(a) >= 3 and len(b) >= 3

    longs = [p for p in through if seg_ok(p)]
    shorts = [p for p in through if not seg_ok(p)]
    if len(shorts) > 2:
        return _fallback(g, h, s, claimed, budget)
    othrough = longs + shorts
    tail_short = [p for p in tail if len(p) < 3]
    tail_long = [p for p in tail if len(p) >= 3]
    otail = tail_short + tail_long  # short ones land in the unconstrained slots
    n_groups = t - 2 if delta1 >= t - 2 else delta1
    if len(othrough) - len(shorts) < n_groups or len(otail) < t:
        return _fallback(g, h, s, claimed, budget)
    sbudget = budget if budget is not None else Budget(DEFAULT_BUDGET)
    for j in range(1, n_groups + 1):
        built = _lemma41_group(
            h, othrough[j - 1], otail[t - j], v1, v2, v3, u1, nbrs[j - 1], m, sbudget
        )
        if built is None:
            return _fallback(g, h, s, claimed, budget)
        trees.extend(built)

    if delta1 >= t - 2:
        pa1, pa2 = split(othrough[t - 2])
        pb1, pb2 = split(othrough[t - 1])
        trees.append(_hpath(otail[1], u1, m) | _hpath(pa1, u1, m))
        trees.append(_hpath(pb1, u1, m) | _hpath(pa2, u1, m))
        trees.append(_hpath(pb2, u1, m) | _hpath(otail[0], u1, m))
        for nb in nbrs[t - 2:]:
            trees.append(star(nb))
    else:
        left = list(range(delta1, t))  # through-path indices not yet used
        while len(left) >= 2:
            a, b = left[0], left[1]
            left = left[2:]
            pa1, pa2 = split(othrough[a])
            pb1, pb2 = split(othrough[b])
            trees.append(_hpath(otail[t - 1 - a], u1, m) | _hpath(pa1, u1, m))
            trees.append(_hpath(pb1, u1, m) | _hpath(pa2, u1, m))
            trees.append(_hpath(pb2, u1, m) | _hpath(otail[t - 1 - b], u1, m))
        if left:
            trees.append(_hpath(othrough[left[0]], u1, m))
    tag = "4.1/case2.1" if l >= 7 else "4.1/case2-cycle"
    return _finish(g, h, s, trees, tag, claimed, budget)


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
    and returns via a cycle segment landing on its own piece."""
    i = p_through.index(v3)
    p11, p12 = p_through[: i + 1], p_through[i:]
    if len(p11) < 3 or len(p12) < 3 or len(p_free) < 3:
        return None
    land1 = p11[1]  # lands on the v1-v3 piece
    land3 = p12[1]  # lands on the v3-v2 piece
    land5 = p_free[-2]  # lands on the free path
    fixed = {v1, v2, v3, land1, land3, land5}
    keep = [v for v in range(h.n) if v not in (v1, v2, v3)]
    sub, old = h.induced_subgraph(keep)
    fwd = {x: i for i, x in enumerate(old)}
    for a2 in sorted(h.neighbors(v1)):
        if a2 in fixed:
            continue
        for a4 in sorted(h.neighbors(v3)):
            if a4 in fixed or a4 == a2:
                continue
            for a6 in sorted(h.neighbors(v2)):
                if a6 in fixed or a6 in (a2, a4):
                    continue
                segs = _segments_triple(
                    sub,
                    fwd[a2], fwd[land3],
                    fwd[a4], fwd[land5],
                    fwd[a6], fwd[land1],
                    budget,
                )
                if segs is None:
                    continue
                sa, sb, sc = ([old[x] for x in p] for p in segs)
                cross = lambda v: _gpath((u1, uj), v, m)
                tree_a = (
                    _hpath(p12, u1, m)
                    | cross(v1)
                    | _hpath((v1, a2), uj, m)
                    | _hpath(sa, uj, m)
                    | cross(land3)
                )
                tree_b = (
                    _hpath(p_free, u1, m)
                    | cross(v3)
                    | _hpath((v3, a4), uj, m)
                    | _hpath(sb, uj, m)
                    | cross(land5)
                )
                tree_c = (
                    _hpath(p11, u1, m)
                    | cross(v2)
                    | _hpath((v2, a6), uj, m)
                    | _hpath(sc, uj, m)
                    | cross(land1)
                )
                return [tree_a, tree_b, tree_c]
    return None


# -- scalar bound calculators ----------------------------------------------


def factor_kappa3(g: Graph) -> int:
    """kappa_3 of a factor; for a 2-vertex factor the plain connectivity is
    used as the conventional stand-in."""
    if g.n < 3:
        return vertex_connectivity(g)
    return kappa_k(g, 3, Budget(DEFAULT_PACK_BUDGET))[0]


def lower_bound_theorem14(g: Graph, h: Graph) -> int:
    """Three-way minimum lower bound on kappa_3 of the product."""
    if g.n < 2 or h.n < 2 or not g.is_connected() or not h.is_connected():
        raise ValueError("factors must be nontrivial and connected")
    return min(
        factor_kappa3(g) + h.min_degree(),
        factor_kappa3(h) + g.min_degree(),
        vertex_connectivity(g) + vertex_connectivity(h) - 1,
    )


def lower_bound_theorem15(g: Graph, l: int) -> Optional[int]:
    """kappa_3(G) + l - 1 (resp. + l) when the factor-connectivity ranges
    allow it; None outside those ranges (counterexamples exist beyond)."""
    if g.n < 2 or not g.is_connected() or l < 1:
        raise ValueError("need a nontrivial connected factor and l >= 1")
    kg = vertex_connectivity(g)
    k3 = factor_kappa3(g)
    if kg == k3 and l <= 7:
        return k3 + l - 1
    if kg > k3 and l <= 9:
        return k3 + l
    return None


# -- dispatcher ------------------------------------------------------------

_CONSTRUCTORS = {
    "all-distinct": construct_lemma31,
    "corner-share": construct_lemma32,
    "two-share-one-apart": construct_lemma33,
    "same-g-fiber": construct_lemma34,
    "same-h-fiber": construct_lemma41,
}


def certify(
    g: Graph, h: Graph, s: Sequence[int], budget: Optional[Budget] = None
) -> Certificate:
    """Classify the position of S and run the matching construction."""
    pos = classify_position(g, h, s)
    return _CONSTRUCTORS[pos.label](g, h, s, budget)

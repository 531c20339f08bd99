"""Acceptance gate: the ten criteria, one pass/fail line each.

Run with -s to see the lines; every criterion is also an ordinary assert so
the suite fails loudly on any violation.
"""

import json
import time
from itertools import combinations

import pytest

from treeconn import cli
from treeconn.bundles import find_cycle_through_edges
from treeconn.certificates import (
    certify,
    construct_lemma41,
    factor_kappa3,
    lower_bound_theorem14,
    lower_bound_theorem15,
)
from treeconn.connectivity import (
    kappa3_range_from_kappa,
    kappa3_upper_adjacent_min_degree,
    vertex_connectivity,
)
from treeconn.graphs import (
    Graph,
    cartesian_product,
    complete,
    complete_bipartite,
    complete_tripartite,
    cycle,
    flat_id,
    join_complete_empty2,
    path,
)
from treeconn.packing import kappa_k, kappa3_formula


def _report(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def _kappa3(g, **kw):
    return kappa_k(g, 3, **kw)[0]


GRID = [
    ("P2", path(2)),
    ("P3", path(3)),
    ("C3", cycle(3)),
    ("C4", cycle(4)),
    ("C5", cycle(5)),
    ("K3", complete(3)),
    ("K4", complete(4)),
    ("K5", complete(5)),
    ("K23", complete_bipartite(2, 3)),
    ("K33", complete_bipartite(3, 3)),
    ("KV", join_complete_empty2(2)),  # K2 joined with two nonadjacent vertices
]


def _s_for_class(g, h, label):
    """Canonical terminal choice for a position class, or None if the class
    needs more vertices than the factors have."""
    m = h.n
    if label == "all-distinct":
        if g.n < 3 or h.n < 3:
            return None
        pairs = [(0, 0), (1, 1), (2, 2)]
    elif label == "corner-share":
        pairs = [(0, 0), (0, 1), (1, 0)]
    elif label == "two-share-one-apart":
        if g.n >= 3:
            pairs = [(0, 0), (1, 0), (2, 1)]
        elif h.n >= 3:
            pairs = [(0, 0), (0, 1), (1, 2)]
        else:
            return None
    elif label == "same-g-fiber":
        if g.n < 3:
            return None
        pairs = [(0, 0), (1, 0), (2, 0)]
    else:  # same-h-fiber
        if h.n < 3:
            return None
        pairs = [(0, 0), (0, 1), (0, 2)]
    return tuple(sorted(flat_id(u, v, m) for u, v in pairs))


CLASSES = [
    "all-distinct",
    "corner-share",
    "two-share-one-apart",
    "same-g-fiber",
    "same-h-fiber",
]


def test_criterion_1_bipartite_formula_vs_search():
    t0 = time.time()
    checked = []
    for a in range(2, 5):
        for b in range(a, 5):
            exact = _kappa3(complete_bipartite(a, b))
            assert exact == kappa3_formula("complete_bipartite", [a, b])
            checked.append(((a, b), exact))
    spot = dict(checked)
    assert spot[(3, 3)] == 2 and spot[(2, 3)] == 2
    assert spot[(2, 4)] == 2 and spot[(4, 4)] == 3
    dt = time.time() - t0
    _report(1, dt < 60, f"K_ab formula == search for 2<=a<=b<=4 in {dt:.1f}s")


def test_criterion_2_cycle_products():
    t0 = time.time()
    v1 = _kappa3(cartesian_product(cycle(3), cycle(3)), use_symmetry=True)
    v2 = _kappa3(cartesian_product(cycle(3), cycle(4)), use_symmetry=True)
    dt = time.time() - t0
    _report(2, v1 == 3 and v2 == 3 and dt < 300,
            f"kappa3(C3xC3)={v1}, kappa3(C3xC4)={v2} in {dt:.1f}s")


def test_criterion_3_complete_products():
    v1 = _kappa3(cartesian_product(complete(3), complete(3)), use_symmetry=True)
    v2 = _kappa3(
        cartesian_product(join_complete_empty2(2), complete(3)),
        use_symmetry=True,
    )
    _report(3, v1 == 3 and v2 == 3,
            f"kappa3(K3xK3)={v1}, kappa3((K2 v 2K1)xK3)={v2}, both = a+b-2 = 3")


def test_criterion_4_tripartite_values():
    t0 = time.time()
    vals = {
        parts: _kappa3(complete_tripartite(*parts))
        for parts in [(1, 1, 2), (2, 2, 2), (1, 2, 3), (1, 1, 3)]
    }
    expected = {(1, 1, 2): 2, (2, 2, 2): 3, (1, 2, 3): 3, (1, 1, 3): 2}
    for parts, v in vals.items():
        assert v == kappa3_formula("complete_tripartite", parts)
    dt = time.time() - t0
    _report(4, vals == expected and dt < 60, f"{vals} in {dt:.1f}s")


def test_criterion_5_k2_times_triangle():
    v = _kappa3(cartesian_product(path(2), complete(3)))
    _report(5, v == 2, f"kappa3(K2xK3)={v} == 2*1+2-2")


def test_criterion_6_certificate_sweep():
    t0 = time.time()
    total = 0
    fallbacks = 0
    tags = set()
    for gname, g in GRID:
        for hname, h in GRID:
            if g.n * h.n > 30:
                continue
            for label in CLASSES:
                s = _s_for_class(g, h, label)
                if s is None:
                    continue
                cert = certify(g, h, s)
                err = cert.verify()
                assert err is None, f"{gname}x{hname} {label}: {err}"
                assert len(cert.bundle) >= cert.claimed_bound
                total += 1
                if cert.provenance == "search-fallback":
                    fallbacks += 1
                else:
                    tags.add(cert.provenance)
    # The grid factors all have kappa <= 4, which forces minimal bundle
    # shape t <= 1 for every one-fiber instance; the t=2 and t>=3 assembly
    # paths are exercised on dedicated instances with the bundle shape
    # pinned (any witnessed shape yields a valid certificate).
    forced = [
        (path(2), complete_bipartite(4, 6), 2, "4.1/t=2"),
        (path(2), complete_bipartite(7, 10), 3, "4.1/case2.1"),
    ]
    for g, h, t, want in forced:
        s = tuple(sorted(flat_id(0, v, h.n) for v in (0, 1, 2)))
        cert = construct_lemma41(g, h, s, t=t)
        assert cert.verify() is None
        assert cert.provenance == want, cert.provenance
        total += 1
        tags.add(cert.provenance)
    required = {
        "3.1/1.1", "3.1/1.2", "3.1/2", "3.2", "3.3", "3.4",
        "4.1/t=0", "4.1/t=1", "4.1/t=2", "4.1/case2.1",
    }
    missing = required - tags
    dt = time.time() - t0
    _report(
        6,
        not missing and dt < 900,
        f"{total} certificates verified, {fallbacks} fallbacks "
        f"({fallbacks / total:.1%}), tags {sorted(tags)} in {dt:.1f}s",
    )


def _small_pairs(limit):
    seen = set()
    for gname, g in GRID:
        for hname, h in GRID:
            if g.n * h.n > limit:
                continue
            key = tuple(sorted([(g.n, tuple(g.sorted_edges())),
                                (h.n, tuple(h.sorted_edges()))]))
            if key in seen:
                continue
            seen.add(key)
            yield gname, g, hname, h


def _numbers(f):
    """A factor's (kappa, kappa_3, minimum degree)."""
    return vertex_connectivity(f), factor_kappa3(f), f.min_degree()


def test_criterion_7_bound_validity():
    violations = []
    sharp = {}
    for gname, g, hname, h in _small_pairs(12):
        prod = cartesian_product(g, h)
        exact = _kappa3(prod, use_symmetry=True)
        ng, nh = _numbers(g), _numbers(h)
        lb14 = lower_bound_theorem14(*ng, *nh)
        if exact < lb14:
            violations.append((gname, hname, exact, lb14))
        for (kb, k3b, _), (kother, _, _) in ((ng, nh), (nh, ng)):
            lb15 = lower_bound_theorem15(kb, k3b, kother)
            if lb15 is not None and exact < lb15:
                violations.append((gname, hname, exact, f"thm15={lb15}"))
        sharp[(gname, hname)] = (exact, lb14)
    # sharpness witnesses from criteria 2-3
    tight = [p for p in [("C3", "C3"), ("K3", "K3")] if p in sharp]
    tight_ok = all(sharp[p][0] == sharp[p][1] for p in tight)
    _report(7, not violations and tight_ok,
            f"{len(sharp)} pairs, violations={violations}, "
            f"sharp on {tight}")


def test_criterion_8_cross_checks():
    bad = []
    for name, g in GRID:
        kappa = vertex_connectivity(g)
        if kappa_k(g, 2)[0] != kappa:
            bad.append((name, "kappa2"))
        if g.n >= 3:
            k3 = _kappa3(g)
            lo, hi = kappa3_range_from_kappa(kappa)
            if not lo <= k3 <= hi:
                bad.append((name, "sandwich"))
            ub = kappa3_upper_adjacent_min_degree(g)
            if ub is not None and k3 > ub:
                bad.append((name, "adjacent-min-degree"))
    _report(8, not bad, f"kappa2==kappa and both sandwiches on "
            f"{len(GRID)} grid graphs, violations={bad}")


def test_criterion_9_cycle_biconditional():
    t0 = time.time()
    graphs3 = [
        cartesian_product(cycle(3), path(2)),  # triangular prism
        cartesian_product(path(2), cartesian_product(path(2), path(2))),  # Q3
        complete_bipartite(3, 3),
    ]
    checked = 0
    bad = 0
    for g in graphs3:
        for triple in combinations(g.sorted_edges(), 3):
            ends = [v for e in triple for v in e]
            if len(set(ends)) != 6:
                continue
            checked += 1
            cyc = find_cycle_through_edges(g, *triple)
            remaining = Graph(g.n, [e for e in g.edges if e not in set(triple)])
            disconnects = not remaining.is_connected()
            if (cyc is None) != disconnects:
                bad += 1
    dt = time.time() - t0
    _report(9, bad == 0 and dt < 60,
            f"{checked} triples on 3 graphs, {bad} mismatches in {dt:.1f}s")


def test_criterion_10_determinism(tmp_path):
    docs = []
    for run in range(2):
        batch = []
        for g, h, pairs in [
            (complete(3), complete(3), [(0, 0), (1, 1), (2, 2)]),
            (complete(4), cycle(4), [(0, 0), (1, 1), (2, 2)]),
            (complete(3), cycle(4), [(0, 0), (0, 1), (0, 2)]),
            (complete(4), complete(3), [(0, 0), (1, 0), (2, 0)]),
        ]:
            s = tuple(sorted(flat_id(u, v, h.n) for u, v in pairs))
            cert = certify(g, h, s)
            batch.append(cli.dump_document(cli.certificate_document(cert)))
        docs.append(batch)
    identical = docs[0] == docs[1]
    # and through the CLI, byte-for-byte on disk
    gf, hf = tmp_path / "g.el", tmp_path / "h.el"
    cli.main(["gen", "complete", "3", "--out", str(gf)])
    cli.main(["gen", "cycle", "4", "--out", str(hf)])
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = cli.main(["certify", str(gf), str(hf), "--s", "0,0;1,1;2,2",
                       "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    _report(10, identical and outs[0] == outs[1],
            f"{len(docs[0])} library docs + CLI output byte-identical")

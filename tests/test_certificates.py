import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
from itertools import combinations
from pathlib import Path

import pytest

from treeconn import certificates
from treeconn.bundles import (
    OriginalPathBundle,
    ReducedPathBundle,
    find_reduced_bundle,
    verify_reduced_bundle,
)
from treeconn.certificates import (
    Certificate,
    certify,
    classify_position,
    construct_lemma41,
    factor_kappa3,
    lower_bound_theorem14,
    lower_bound_theorem15,
    prop42_bound,
)
from treeconn.cli import certificate_document, dump_document
from treeconn.connectivity import vertex_connectivity
from treeconn.errors import Budget, BudgetExhausted
from treeconn.graphs import (
    Graph,
    cartesian_product,
    complete,
    complete_bipartite,
    cycle,
    flat_id,
    join_complete_empty2,
    path,
)
from treeconn.packing import STree, STreeBundle


def _s(g, h, pairs):
    return tuple(sorted(flat_id(u, v, h.n) for u, v in pairs))


def _check(cert):
    assert cert.verify() is None
    assert len(cert.bundle) >= cert.claimed_bound


# -- position classification -----------------------------------------------


def test_classify_all_positions():
    g, h = complete(3), complete(3)
    cases = [
        ([(0, 0), (1, 1), (2, 2)], "all-distinct", False),
        ([(0, 0), (0, 1), (1, 0)], "corner-share", False),
        ([(0, 0), (1, 0), (2, 1)], "two-share-one-apart", False),
        ([(0, 0), (0, 1), (1, 2)], "two-share-one-apart", True),
        ([(0, 0), (1, 0), (2, 0)], "same-g-fiber", False),
        ([(0, 0), (0, 1), (0, 2)], "same-h-fiber", False),
    ]
    for pairs, label, swap in cases:
        pos = classify_position(g, h, _s(g, h, pairs))
        assert (pos.label, pos.swap) == (label, swap)


def test_classify_rejects_bad_s():
    g, h = complete(3), complete(3)
    with pytest.raises(ValueError):
        classify_position(g, h, (0, 1))
    with pytest.raises(ValueError):
        classify_position(g, h, (0, 1, 99))
    # the factors the paper excludes: a disconnected one and a trivial one
    with pytest.raises(ValueError, match="connected with at least two"):
        classify_position(Graph(4, [(0, 1), (2, 3)]), h, (0, 1, 2))
    with pytest.raises(ValueError, match="connected with at least two"):
        classify_position(g, Graph(1, []), (0, 1, 2))


@pytest.mark.parametrize("make", [certify, construct_lemma41])
def test_constructions_refuse_a_disconnected_factor(make):
    with pytest.raises(ValueError, match="connected with at least two"):
        make(Graph(2, []), path(2), (0, 1, 2))


# -- the five constructions -------------------------------------------------


def test_all_distinct_triangle_case():
    g = h = complete(3)
    cert = certify(g, h, _s(g, h, [(0, 0), (1, 1), (2, 2)]))
    _check(cert)
    assert cert.provenance == "3.1/2"
    assert cert.claimed_bound == 2 + 2 - 1


def test_all_distinct_fan_cases():
    g, h = complete(4), cycle(4)
    cert = certify(g, h, _s(g, h, [(0, 0), (1, 1), (2, 2)]))
    _check(cert)
    assert cert.provenance.startswith("3.1/1")
    g = h = cycle(5)
    cert = certify(g, h, _s(g, h, [(0, 0), (2, 2), (4, 3)]))
    _check(cert)
    assert cert.provenance == "3.1/1.1"
    assert cert.claimed_bound == 3


def test_corner_share():
    g, h = complete(3), cycle(4)
    cert = certify(g, h, _s(g, h, [(0, 0), (0, 1), (1, 0)]))
    _check(cert)
    assert cert.provenance == "3.2"
    assert cert.claimed_bound == 2 + 2 - 1


def test_corner_share_degenerate_paths():
    # both factors kappa 1: bound is 1, a single tree
    g = h = path(2)
    cert = certify(g, h, _s(g, h, [(0, 0), (0, 1), (1, 0)]))
    _check(cert)
    assert cert.claimed_bound == 1


def test_two_share_one_apart_both_orientations():
    g, h = complete(4), cycle(4)
    cert = certify(g, h, _s(g, h, [(0, 0), (1, 0), (2, 1)]))
    _check(cert)
    assert cert.provenance == "3.3"
    # swapped orientation: two share the G-coordinate
    cert = certify(g, h, _s(g, h, [(0, 0), (0, 1), (1, 2)]))
    _check(cert)
    assert cert.provenance == "3.3"


def test_same_g_fiber():
    g, h = complete(4), complete(3)
    cert = certify(g, h, _s(g, h, [(0, 0), (1, 0), (2, 0)]))
    _check(cert)
    assert cert.provenance == "3.4"
    assert cert.claimed_bound == factor_kappa3(g) + h.min_degree()


def test_same_h_fiber_small_t():
    g, h = path(2), complete(4)
    cert = construct_lemma41(g, h, _s(g, h, [(0, 0), (0, 1), (0, 2)]))
    _check(cert)
    assert cert.provenance.startswith("4.1/")
    g, h = path(2), complete_bipartite(2, 3)
    cert = construct_lemma41(g, h, _s(g, h, [(0, 2), (0, 3), (0, 4)]))
    _check(cert)
    assert cert.provenance == "4.1/t=0"
    assert cert.claimed_bound == 2 + 1  # l + delta1, t=0


def test_same_h_fiber_forced_t():
    # forcing a larger t exercises the deeper assembly branches; any
    # witnessed bundle shape must still verify
    g, h = path(2), complete_bipartite(4, 6)
    s = _s(g, h, [(0, 0), (0, 1), (0, 2)])
    cert = construct_lemma41(g, h, s, t=2)
    _check(cert)
    assert cert.provenance == "4.1/t=2"
    g, h = path(2), complete_bipartite(7, 10)
    s = _s(g, h, [(0, 0), (0, 1), (0, 2)])
    cert = construct_lemma41(g, h, s, t=3)
    _check(cert)
    assert cert.provenance == "4.1/case2.1"


def test_certify_dispatch_matches_position():
    g, h = complete(3), cycle(4)
    for pairs, prefix in [
        ([(0, 0), (1, 1), (2, 2)], "3.1"),
        ([(0, 0), (0, 1), (1, 0)], "3.2"),
        ([(0, 0), (1, 0), (2, 1)], "3.3"),
        ([(0, 0), (1, 0), (2, 0)], "3.4"),
        ([(0, 0), (0, 1), (0, 2)], "4.1"),
    ]:
        cert = certify(g, h, _s(g, h, pairs))
        _check(cert)
        assert cert.provenance.startswith(prefix) or cert.provenance == "search-fallback"


def test_certify_refuses_what_classify_position_refuses():
    # one bad input at a time: the same exception and message either way
    g, h = complete(3), complete(3)
    cases = [
        (g, h, (0, 1)),
        (g, h, (0, 1, 99)),
        (Graph(4, [(0, 1), (2, 3)]), h, (0, 1, 2)),
        (g, Graph(1, []), (0, 1, 2)),
    ]
    for gg, hh, s in cases:
        with pytest.raises(ValueError) as expected:
            classify_position(gg, hh, s)
        with pytest.raises(ValueError) as got:
            certify(gg, hh, s)
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize(
    "pairs, total",
    [
        ([(0, 0), (1, 1), (2, 2)], 2),
        ([(0, 0), (0, 1), (1, 0)], 2),
        ([(0, 0), (1, 0), (2, 1)], 2),
        ([(0, 0), (1, 0), (2, 0)], 4),
        ([(0, 0), (0, 1), (0, 2)], 2),
    ],
    ids=["3.1", "3.2", "3.3", "3.4", "4.1"],
)
def test_certify_checks_the_factors_once(monkeypatch, pairs, total):
    # the first two connectivity tests are classify_position's check of G
    # and H, and neither the builder certify dispatches to nor
    # vertex_connectivity checks them again; only Lemma 3.4's exact
    # searches on G (kappa_k, max_internally_disjoint_trees) add their own
    calls = []
    real = Graph.is_connected

    def counting(self, *args, **kwargs):
        calls.append((self, args, kwargs))
        return real(self, *args, **kwargs)

    g, h = complete(3), cycle(4)
    monkeypatch.setattr(Graph, "is_connected", counting)
    certify(g, h, _s(g, h, pairs))
    assert calls[:2] == [(g, (), {}), (h, (), {})]
    assert len(calls) == total


def test_certify_deterministic():
    g, h = complete(3), cycle(4)
    s = _s(g, h, [(0, 0), (1, 1), (2, 2)])
    a, b = certify(g, h, s), certify(g, h, s)
    assert a.bundle == b.bundle and a.provenance == b.provenance


def test_verify_catches_tampering():
    g = h = complete(3)
    cert = certify(g, h, _s(g, h, [(0, 0), (1, 1), (2, 2)]))
    # drop a tree: claimed bound no longer met
    fewer = Certificate(
        g, h, cert.s, STreeBundle(cert.bundle.s, cert.bundle.trees[:-1]),
        cert.provenance, cert.claimed_bound,
    )
    assert "claimed bound" in fewer.verify()
    # corrupt a tree
    broken_tree = STree(frozenset(list(cert.bundle.trees[0].edges)[1:]))
    broken = Certificate(
        g, h, cert.s,
        STreeBundle(cert.bundle.s, (broken_tree,) + cert.bundle.trees[1:]),
        cert.provenance, cert.claimed_bound - 1,
    )
    assert broken.verify() is not None


# -- claimed bounds against exact values ------------------------------------


def test_claimed_bounds_not_above_exact():
    from treeconn.packing import max_internally_disjoint_trees

    g, h = complete(3), cycle(4)
    prod = cartesian_product(g, h)
    for pairs in [
        [(0, 0), (1, 1), (2, 2)],
        [(0, 0), (0, 1), (1, 0)],
        [(0, 0), (1, 0), (2, 1)],
        [(0, 0), (1, 0), (2, 0)],
        [(0, 0), (0, 1), (0, 2)],
    ]:
        s = _s(g, h, pairs)
        cert = certify(g, h, s)
        _check(cert)
        exact, _ = max_internally_disjoint_trees(prod, s, Budget())
        assert cert.claimed_bound <= exact


# -- scalar bound calculators ----------------------------------------------


def test_prop42_bound_cases():
    assert prop42_bound(4, 1) == 4  # delta1 >= floor(l/2) - 2
    assert prop42_bound(7, 1) == 7
    assert prop42_bound(10, 1) == 9  # ceil branch
    assert prop42_bound(10, 2) == 10
    with pytest.raises(ValueError):
        prop42_bound(4, 0)


def test_factor_kappa3_small_convention():
    assert factor_kappa3(path(2)) == 1
    assert factor_kappa3(complete(3)) == 1
    assert factor_kappa3(complete(5)) == 3


def _numbers(f):
    """A factor's (kappa, kappa_3, minimum degree)."""
    return vertex_connectivity(f), factor_kappa3(f), f.min_degree()


def test_lower_bound_theorem14_values():
    def bound(g, h):
        return lower_bound_theorem14(*_numbers(g), *_numbers(h))

    assert bound(complete(3), complete(3)) == 3
    assert bound(path(2), path(2)) == 1
    assert bound(cycle(3), cycle(3)) == 3
    with pytest.raises(ValueError):
        bound(path(1), complete(3))


def test_lower_bound_theorem15_ranges():
    def bound(g, l):
        return lower_bound_theorem15(*_numbers(g)[:2], l)

    # kappa == kappa3 (P3): valid for l <= 7
    assert bound(path(3), 7) == 1 + 7 - 1
    assert bound(path(3), 8) is None
    # kappa > kappa3 (C4, K4): valid for l <= 9
    assert bound(cycle(4), 8) == 1 + 8
    assert bound(complete(4), 9) == 2 + 9
    assert bound(complete(4), 10) is None


# K3 box K3: (0, 3, 6) lies in one layer, not in one fiber
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g: construct_lemma41(g, g, (0, 3, 6)), "single fiber"),
        (lambda g: lower_bound_theorem15(0, 0, 2), "nontrivial connected factor"),
        (lambda g: lower_bound_theorem15(1, 1, 0), "l >= 1"),
    ],
    ids=["4.1", "theorem15-kg", "theorem15-l"],
)
def test_certificates_refuse_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call(complete(3))


def test_join_complete_empty2_factor():
    # K2 join empty pair: kappa 2 yet kappa3 also 2? cross-check via search
    g = join_complete_empty2(2)
    assert factor_kappa3(g) == 2


# -- factor invariants and internal faults ---------------------------------


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


@pytest.mark.parametrize(
    "pairs",
    [[(0, 0), (3, 1), (6, 2)], [(0, 0), (3, 0), (6, 1)]],
    ids=["all-distinct", "two-share-one-apart"],
)
def test_factor_kappa_computed_once_per_construction(monkeypatch, pairs):
    seen = []
    real = certificates.vertex_connectivity

    def counting(g):
        seen.append(g)
        return real(g)

    monkeypatch.setattr(certificates, "vertex_connectivity", counting)
    g, h = _petersen(), complete(3)
    _check(certify(g, h, _s(g, h, pairs)))
    assert len(seen) <= 2


def _same_h_fiber_case():
    g, h = path(2), complete(4)
    return g, h, _s(g, h, [(0, 0), (0, 1), (0, 2)])


def test_lemma41_internal_fault_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("internal error: invalid bundle found")

    monkeypatch.setattr(certificates, "find_reduced_bundle", broken)
    with pytest.raises(AssertionError, match="invalid bundle"):
        certify(*_same_h_fiber_case())


def test_lemma41_exhausted_budget_raises(monkeypatch):
    # an exhausted bundle search is not "no bundle": falling back would
    # claim only the weaker bound of the search
    def exhausted(*args, **kwargs):
        raise BudgetExhausted("search budget of 0 expansions exhausted")

    monkeypatch.setattr(certificates, "find_reduced_bundle", exhausted)
    with pytest.raises(BudgetExhausted):
        certify(*_same_h_fiber_case())


def test_lemma41_small_budget_raises_instead_of_weakening_the_bound():
    # P2 box (K4 - (2, 3)), S in one fiber: with room the search finds the
    # t = 0 bundle (bound 3); three ticks run out before it, and the
    # certificate must not settle for t = 1 (bound 2)
    g, h = path(2), Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    s = _s(g, h, [(0, 0), (0, 1), (0, 2)])
    cert = certify(g, h, s, Budget(100))
    assert (cert.provenance, cert.claimed_bound) == ("4.1/t=0", 3)
    with pytest.raises(BudgetExhausted):
        certify(g, h, s, Budget(3))


def test_a_failed_fan_raises_instead_of_falling_back(monkeypatch):
    # Lemma 3.3's fan exists whenever the factors are connected, so a flow
    # that fails to find it is a fault, not a reason for search-fallback
    monkeypatch.setattr(certificates, "fan", lambda *args, **kwargs: None)
    g = h = complete(3)
    with pytest.raises(AttributeError):
        certify(g, h, _s(g, h, [(0, 0), (1, 0), (2, 1)]))


def test_lemma41_fewer_neighbours_than_groups(monkeypatch):
    # delta(u1) = 1 < t - 2 = 2: one neighbour group, then a braid over
    # through-paths 1 and 2 and through-path 3 alone; the hand-built
    # (8, 4)-bundle of K8,12 (parts 0..7 | 8..19) has no connectors
    h = complete_bipartite(8, 12)
    through = tuple((0, 8 + 2 * i, 2, 9 + 2 * i, 1) for i in range(4))
    free = tuple((0, 16 + i, 1) for i in range(4))
    rb = ReducedPathBundle(OriginalPathBundle(0, 1, 2, 4, through + free), ())
    assert verify_reduced_bundle(h, rb) is None

    def no_fallback(*args):
        raise AssertionError("fell back to search")

    monkeypatch.setattr(certificates, "find_reduced_bundle", lambda *args, **kwargs: rb)
    monkeypatch.setattr(certificates, "_fallback", no_fallback)
    cert = construct_lemma41(path(2), h, (0, 1, 2), t=4)
    assert cert.verify() is None
    assert cert.provenance == "4.1/case2.1"
    assert cert.claimed_bound == certificates._bound41(8, 1, 4) == len(cert.bundle) == 7


def test_lemma41_falls_back_without_cycle_segments(monkeypatch):
    # t = 3 on P2 box K7,10 threads one neighbour group through cycle
    # segments of H - {v1, v2, v3}; with none found the construction falls
    # back, claiming the bound it could not build
    g, h = path(2), complete_bipartite(7, 10)
    cert = construct_lemma41(g, h, [0, 1, 2], t=3)
    assert (cert.provenance, cert.claimed_bound) == ("4.1/case2.1", 7)
    searched, claims = [], []

    def no_segments(*args):
        searched.append(args)

    def fallback(g, h, s, claimed, budget):
        claims.append(claimed)
        return "fallback"

    monkeypatch.setattr(certificates, "_segments_triple", no_segments)
    monkeypatch.setattr(certificates, "_fallback", fallback)
    assert construct_lemma41(g, h, [0, 1, 2], t=3) == "fallback"
    assert len(searched) == 210 and claims == [7]


def test_lemma41_forced_t_beyond_half_the_connectivity():
    # the bundle search refuses a t outside 0..k // 2, so a forced t beyond
    # l // 2 finds no bundle and Lemma 4.1 falls back to search (K4: l = 3)
    assert find_reduced_bundle(complete(6), 4, 0, 1, 2, t=3, budget=Budget()) is None
    assert find_reduced_bundle(complete(6), 4, 0, 1, 2, t=-1, budget=Budget()) is None
    cert = construct_lemma41(path(2), complete(4), [0, 1, 2], t=2)
    assert cert.provenance == "search-fallback"
    assert cert.verify() is None


def test_lemma41_makes_one_budget_per_call(monkeypatch):
    # forced t = 2 on P2 box K4 (l = 3) finds no bundle at any of the three
    # v3 and falls back: the bundle searches and the fallback share the one
    # default budget the call makes
    made = []
    real_init = Budget.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Budget, "__init__", counting_init)
    searched = []
    real_search = certificates.find_reduced_bundle

    def counting_search(*args, **kwargs):
        searched.append(args[4])
        return real_search(*args, **kwargs)

    monkeypatch.setattr(certificates, "find_reduced_bundle", counting_search)
    cert = construct_lemma41(path(2), complete(4), [0, 1, 2], t=2)
    assert cert.provenance == "search-fallback"
    assert searched == [0, 1, 2] and len(made) == 1


@pytest.mark.parametrize(
    "h, searches, used, digest",
    [
        (
            complete(5), [(1, 2, 0, 0), (0, 2, 1, 0), (0, 1, 2, 0), (1, 2, 0, 1)], 17,
            "f015bac52036556618c33a629bea9d2e25ae540ec2f6998a22520c6ba4e1d387",
        ),
        (
            cycle(5), [(1, 2, 0, 0), (0, 2, 1, 0), (0, 1, 2, 0), (1, 2, 0, 1)], 5,
            "846f27e265ace7c7cc64ce4542cf6aef25e1d8c5f6cb6332e6354b477767661f",
        ),
        (
            complete_bipartite(3, 3), [(1, 2, 0, 0)], 10,
            "f84438c95c4c585486c7498b951a1a1ddfafad82410f9c78c5685aaa064be070",
        ),
    ],
    ids=["K5", "C5", "K33"],
)
def test_lemma41_takes_the_first_bundle_in_t_then_anchor_order(
    monkeypatch, h, searches, used, digest
):
    # S = (0, 1, 2) on P2 box H: each t ascending is tried at the anchors
    # v3 = 0, 1, 2 in turn, and the first bundle found is used.  K5 and C5
    # have none at t = 0 and one at t = 1 on the first anchor, so no anchor
    # is searched at t = 1 twice (searching every anchor up to its own least
    # t takes 51 and 15 ticks); K3,3 has a t = 0 bundle at the first anchor.
    calls = []
    real = certificates.find_reduced_bundle

    def spy(h, k, u1, u2, u3, t=None, *, budget):
        calls.append((u1, u2, u3, t))
        return real(h, k, u1, u2, u3, t, budget=budget)

    monkeypatch.setattr(certificates, "find_reduced_bundle", spy)
    budget = Budget()
    doc = dump_document(certificate_document(certify(path(2), h, (0, 1, 2), budget)))
    assert calls == searches
    assert budget.used == used
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


def test_certify_makes_one_budget_per_call(monkeypatch):
    # Lemma 3.4 runs two searches, kappa_3(G) and the G-bundle; with no
    # budget given, certify makes the one default both of them tick
    made = []
    real_init = Budget.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Budget, "__init__", counting_init)
    g, h = complete(4), complete(3)
    cert = certify(g, h, _s(g, h, [(0, 0), (1, 0), (2, 0)]))
    assert cert.provenance == "3.4"
    assert len(made) == 1


def test_certify_and_construct_lemma41_agree():
    # both ways in to Lemma 4.1 build the same document with the same ticks
    g, h = path(2), complete_bipartite(4, 6)
    s = _s(g, h, [(0, 0), (0, 1), (0, 2)])
    a, b = Budget(), Budget()
    via_certify = dump_document(certificate_document(certify(g, h, s, a)))
    direct = dump_document(certificate_document(construct_lemma41(g, h, s, b)))
    assert via_certify == direct
    assert a.used == b.used > 0


# -- caller's budget and pinned bytes --------------------------------------


@pytest.mark.parametrize(
    "pairs",
    [[(0, 0), (1, 1), (2, 2)], [(0, 0), (1, 0), (2, 0)], [(0, 0), (0, 1), (0, 2)]],
    ids=["3.1/2", "3.4", "4.1"],
)
def test_sub_searches_share_callers_budget(pairs):
    g = h = complete(3)
    with pytest.raises(BudgetExhausted):
        certify(g, h, _s(g, h, pairs), Budget(1))


def test_lemma34_budget_use_pinned():
    # Lemma 3.4 takes kappa3(G) from the orbit-pruned search (the plain
    # search over every 3-set of Petersen used 4,132 ticks in all); the
    # terminal counting bound in pack_trees cut it from 592 to 120; the
    # greedy packer that now runs first in each skip test ticks once per
    # BFS node, which raised it from 120 to 304; the greedy packer also
    # gives each value search its lower bound, which raised it to 454;
    # kappa_k keeping the bundle of the search that set its value, in place
    # of packing the witness again, cut it to 444; rooting each greedy tree
    # at a terminal, not at every vertex, cut it to 203; kappa_k stopping
    # once its minimum meets the Li-Li-Zhou floor of kappa(Petersen) = 3,
    # with no orbit search and no skip tests, cut it to 62
    g, h = _petersen(), complete(3)
    budget = Budget(10**9)
    cert = certify(g, h, [0, 3, 6], budget)
    assert cert.provenance == "3.4"
    assert budget.used == 62


def _pinned_certificates():
    """Every 3-set of C4 box P3 and K3 box K3, then the forced Lemma 4.1
    shapes of acceptance criterion 6."""
    for g, h in ((cycle(4), path(3)), (complete(3), complete(3))):
        for s in combinations(range(g.n * h.n), 3):
            yield certify(g, h, s)
    for h, t in ((complete_bipartite(4, 6), 2), (complete_bipartite(7, 10), 3)):
        g = path(2)
        yield construct_lemma41(g, h, _s(g, h, [(0, 0), (0, 1), (0, 2)]), t=t)


def test_construction_bytes_pinned(monkeypatch):
    # A changed digest means changed certificate bytes: update it only when
    # a construction is meant to build different trees.
    def digest_of(certs):
        digest = hashlib.sha256()
        for cert in certs:
            digest.update(dump_document(certificate_document(cert)).encode())
        return digest.hexdigest()

    # both factors of K4 box K3,3 have kappa 3, so the multi-tree loops of
    # 3.1/1.2, 3.2, 3.3 and 3.4 run twice, where the grid below runs each
    # at most once; 3.1/1.2 builds in G box H on K4 box K3,3 and in the
    # reversed orientation on K3,3 box K4, whose H = K4 has no non-adjacent
    # pair
    for g, h, tags, expected in (
        (
            complete(4), complete_bipartite(3, 3),
            {"3.1/1.2", "3.2", "3.3", "3.4", "4.1/t=0", "4.1/t=1"},
            "eb81e3143f80a70203671569151d1917638c03f88512b8c05df68916d3c4e01e",
        ),
        (
            complete_bipartite(3, 3), complete(4),
            {"3.1/1.2", "3.2", "3.3", "3.4", "4.1/t=1"},
            "4854889458d531bf31d27f3899225b00a2fb4a3d634fa6478d2404791e1c99a3",
        ),
    ):
        wide = [certify(g, h, s) for s in combinations(range(g.n * h.n), 3)]
        assert {c.provenance for c in wide} == tags
        assert digest_of(wide) == expected

    certs = list(_pinned_certificates())
    monkeypatch.setattr(certificates, "find_reduced_bundle", lambda *args, **kwargs: None)
    certs.append(certify(*_same_h_fiber_case()))
    assert {c.provenance for c in certs} == {
        "3.1/1.1", "3.1/1.2", "3.1/2", "3.2", "3.3", "3.4",
        "4.1/t=0", "4.1/t=1", "4.1/t=2", "4.1/case2.1", "search-fallback",
    }
    assert digest_of(certs) == (
        "208dc871f3319e939ea1c0106fbe9e036228ef3adc53300a4e930fe871ab4ba0"
    )


def test_documents_are_json_dumps_indent_2():
    for cert in _pinned_certificates():
        doc = certificate_document(cert)
        assert dump_document(doc) == json.dumps(doc, indent=2) + "\n"


def _one_union_twice(*args, build=certificates._lemma32_build):
    trees = build(*args)
    return trees + trees[:1]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda *args: [{(1, 4)}], "misses a terminal"),
        (lambda *args: [{(0, 1)}], "misses a terminal"),
        (_one_union_twice, "certificate invalid: trees 1,4 share edge"),
    ],
    ids=["misses-the-root", "misses-a-terminal", "one-union-twice"],
)
def test_a_rejected_construction_raises_instead_of_falling_back(monkeypatch, build, message):
    # corner-share S = {(0,0), (0,1), (1,0)} = {0, 1, 3} of K3 box K3; a
    # union without the least terminal, or without terminal 3, connects no
    # S, and a tree listed twice is no packing.  The hypotheses of Lemma 3.2
    # hold, so each is a fault of the construction, not a case for search
    monkeypatch.setattr(certificates, "_lemma32_build", build)
    monkeypatch.setattr(certificates, "_fallback", None)
    g = h = complete(3)
    with pytest.raises(AssertionError, match=f"internal error: .*{message}"):
        certify(g, h, _s(g, h, [(0, 0), (0, 1), (1, 0)]))


def test_a_rejected_construction_raises_under_python_O():
    # `python -O` strips assert statements, so the internal checks raise
    # AssertionError themselves: the one-union-twice case above must still
    # raise rather than return a certificate that verify() rejects
    script = textwrap.dedent("""
        from treeconn import certificates
        from treeconn.graphs import complete

        build = certificates._lemma32_build
        certificates._lemma32_build = lambda *args: build(*args) + build(*args)[:1]
        print("debug", __debug__)
        try:
            cert = certificates.certify(complete(3), complete(3), (0, 1, 3))
        except AssertionError as exc:
            print("raised", exc)
        else:
            print("returned", cert.provenance, cert.verify())
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "debug False",
        "raised internal error: constructed certificate invalid: "
        "trees 1,4 share edge (0, 2)",
    ]


# -- the one-pass verifier --------------------------------------------------


def _reference_error(g, h, bundle):
    """The checker `verify_bundle` replaced: every tree on its own against
    the built product, then every pair of trees."""
    prod = cartesian_product(g, h)
    sset = set(bundle.s)
    verts = []
    for i, t in enumerate(bundle.trees):
        vs = {v for e in t.edges for v in e}
        verts.append(vs)
        adj = {v: [] for v in vs}
        for a, b in t.edges:
            adj[a].append(b)
            adj[b].append(a)
        seen, stack = set(), [min(sset)]
        while stack:
            x = stack.pop()
            if x in adj and x not in seen:
                seen.add(x)
                stack.extend(adj[x])
        if not (
            t.edges <= prod.edges
            and sset <= vs
            and len(t.edges) == len(vs) - 1
            and seen == vs
            and all(len(adj[v]) > 1 for v in vs - sset)
        ):
            return f"tree {i + 1} is not an S-tree"
    for i, j in combinations(range(len(bundle.trees)), 2):
        ti, tj = bundle.trees[i], bundle.trees[j]
        if ti.edges & tj.edges or (verts[i] & verts[j]) - sset:
            return f"trees {i + 1},{j + 1} overlap"
    return None


def _mutant(g, h, bundle, rng):
    """One to three seeded corruptions of a sound bundle: drop, add or
    reverse an edge, add an edge between ids outside the product (or
    negative ones), merge two trees, duplicate or drop a tree."""
    n = g.n * h.n
    prod_edges = sorted(cartesian_product(g, h).edges)
    trees = [set(t.edges) for t in bundle.trees]
    for _ in range(rng.randint(1, 3)):
        t = rng.choice(trees)
        kind = rng.randrange(8)
        if kind == 0 and t:
            t.discard(rng.choice(sorted(t)))
        elif kind == 1:
            t.add(rng.choice(prod_edges))
        elif kind == 2 and t:
            a, b = rng.choice(sorted(t))
            t.discard((a, b))
            t.add((b, a))
        elif kind == 3:
            x = rng.choice([n, n + h.n, -h.n, -1])
            t.add((x, x + 1))
        elif kind == 4 and len(trees) > 1:
            i, j = sorted(rng.sample(range(len(trees)), 2))
            trees[i] |= trees.pop(j)
        elif kind == 5:
            trees.append(set(t))
        elif kind == 6 and len(trees) > 1:
            trees.remove(t)
        else:
            a, b = rng.choice(prod_edges)
            t.add((a, rng.randrange(n)))
    return STreeBundle(bundle.s, tuple(STree(frozenset(t)) for t in trees))


def test_verify_agrees_with_brute_force_reference():
    rng = random.Random(8)
    verdicts = {True: 0, False: 0}
    for g, h in ((complete(3), complete(3)), (cycle(4), path(3)), (complete(4), cycle(4))):
        for s in rng.sample(list(combinations(range(g.n * h.n), 3)), 12):
            sound = certify(g, h, s)
            for _ in range(25):
                bundle = _mutant(g, h, sound.bundle, rng)
                cert = Certificate(g, h, sound.s, bundle, sound.provenance, 1)
                accepted = cert.verify() is None
                assert accepted == (_reference_error(g, h, bundle) is None), bundle
                verdicts[accepted] += 1
    assert min(verdicts.values()) >= 25, verdicts  # both verdicts are exercised


@pytest.mark.parametrize("s", [(9, 10, 11), (-3, -2, -1)], ids=["past-end", "negative"])
def test_verify_rejects_ids_outside_the_product(s):
    # each id pair has the coordinates of an H-edge, in a G-row that K3 lacks
    g = h = complete(3)
    tree = STree(frozenset({(s[0], s[1]), (s[1], s[2])}))
    cert = Certificate(g, h, s, STreeBundle(s, (tree,)), "search-fallback", 1)
    assert cert.verify() == f"tree 1: edge {(s[0], s[1])} not in graph"


def test_verify_rejects_a_disconnected_tree():
    # a triangle in the fiber of 0 plus the layer edge (3, 6): five vertices
    # and four edges, as a tree on them has, yet in two pieces
    g = h = complete(3)
    s = (0, 3, 6)
    tree = STree(frozenset({(0, 1), (1, 2), (0, 2), (3, 6)}))
    cert = Certificate(g, h, s, STreeBundle(s, (tree,)), "search-fallback", 1)
    assert cert.verify() == "tree 1: tree is disconnected"


def test_verify_rejects_a_bundle_for_other_terminals():
    g = h = complete(3)
    tree = STree(frozenset({(0, 3), (3, 6), (6, 7)}))
    cert = Certificate(g, h, (0, 3, 6), STreeBundle((0, 3, 7), (tree,)), "search-fallback", 1)
    assert cert.verify() == "certificate terminal set does not match bundle"


def test_verify_rejects_reversed_edge():
    g = h = complete(3)
    sound = certify(g, h, _s(g, h, [(0, 0), (1, 1), (2, 2)]))
    first = sound.bundle.trees[0]
    a, b = min(first.edges)
    tree = STree(first.edges - {(a, b)} | {(b, a)})
    bundle = STreeBundle(sound.bundle.s, (tree,) + sound.bundle.trees[1:])
    cert = Certificate(g, h, sound.s, bundle, sound.provenance, 1)
    assert cert.verify() == f"tree 1: edge {(b, a)} not in graph"


def test_verify_and_constructions_build_no_full_product(monkeypatch):
    built = []
    real = certificates.cartesian_product

    def counting(a, b):
        built.append((a.n, b.n))
        return real(a, b)

    monkeypatch.setattr(certificates, "cartesian_product", counting)
    g = h = complete(4)
    tags = set()
    for pairs in ([(0, 0), (1, 1), (2, 2)], [(0, 0), (0, 1), (1, 0)],
                  [(0, 0), (1, 0), (2, 1)], [(0, 0), (1, 0), (2, 0)],
                  [(0, 0), (0, 1), (0, 2)]):
        cert = certify(g, h, _s(g, h, pairs))
        _check(cert)
        tags.add(cert.provenance.split("/")[0])
    assert tags == {"3.1", "3.2", "3.3", "3.4", "4.1"}
    # only Lemma 3.1 case 2's 3x3 grid, which it packs in
    assert built == [(3, 3)]

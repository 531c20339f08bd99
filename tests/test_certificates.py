import pytest

from treeconn import certificates
from treeconn.certificates import (
    Certificate,
    certify,
    classify_position,
    construct_lemma31,
    construct_lemma32,
    construct_lemma33,
    construct_lemma34,
    construct_lemma41,
    factor_kappa3,
    lower_bound_theorem14,
    lower_bound_theorem15,
    prop42_bound,
)
from treeconn.errors import BudgetExhausted
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


# -- the five constructions -------------------------------------------------


def test_all_distinct_triangle_case():
    g = h = complete(3)
    cert = construct_lemma31(g, h, _s(g, h, [(0, 0), (1, 1), (2, 2)]))
    _check(cert)
    assert cert.provenance == "3.1/2"
    assert cert.claimed_bound == 2 + 2 - 1


def test_all_distinct_fan_cases():
    g, h = complete(4), cycle(4)
    cert = construct_lemma31(g, h, _s(g, h, [(0, 0), (1, 1), (2, 2)]))
    _check(cert)
    assert cert.provenance.startswith("3.1/1")
    g = h = cycle(5)
    cert = construct_lemma31(g, h, _s(g, h, [(0, 0), (2, 2), (4, 3)]))
    _check(cert)
    assert cert.provenance == "3.1/1.1"
    assert cert.claimed_bound == 3


def test_corner_share():
    g, h = complete(3), cycle(4)
    cert = construct_lemma32(g, h, _s(g, h, [(0, 0), (0, 1), (1, 0)]))
    _check(cert)
    assert cert.provenance == "3.2"
    assert cert.claimed_bound == 2 + 2 - 1


def test_corner_share_degenerate_paths():
    # both factors kappa 1: bound is 1, a single tree
    g = h = path(2)
    cert = construct_lemma32(g, h, _s(g, h, [(0, 0), (0, 1), (1, 0)]))
    _check(cert)
    assert cert.claimed_bound == 1


def test_two_share_one_apart_both_orientations():
    g, h = complete(4), cycle(4)
    cert = construct_lemma33(g, h, _s(g, h, [(0, 0), (1, 0), (2, 1)]))
    _check(cert)
    assert cert.provenance == "3.3"
    # swapped orientation: two share the G-coordinate
    cert = construct_lemma33(g, h, _s(g, h, [(0, 0), (0, 1), (1, 2)]))
    _check(cert)
    assert cert.provenance == "3.3"


def test_same_g_fiber():
    g, h = complete(4), complete(3)
    cert = construct_lemma34(g, h, _s(g, h, [(0, 0), (1, 0), (2, 0)]))
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
        exact, _ = max_internally_disjoint_trees(prod, s)
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


def test_lower_bound_theorem14_values():
    assert lower_bound_theorem14(complete(3), complete(3)) == 3
    assert lower_bound_theorem14(path(2), path(2)) == 1
    assert lower_bound_theorem14(cycle(3), cycle(3)) == 3
    with pytest.raises(ValueError):
        lower_bound_theorem14(path(1), complete(3))


def test_lower_bound_theorem15_ranges():
    # kappa == kappa3 (P3): valid for l <= 7
    assert lower_bound_theorem15(path(3), 7) == 1 + 7 - 1
    assert lower_bound_theorem15(path(3), 8) is None
    # kappa > kappa3 (C4, K4): valid for l <= 9
    assert lower_bound_theorem15(cycle(4), 8) == 1 + 8
    assert lower_bound_theorem15(complete(4), 9) == 2 + 9
    assert lower_bound_theorem15(complete(4), 10) is None


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


def test_lemma41_exhausted_budget_falls_back(monkeypatch):
    def exhausted(*args, **kwargs):
        raise BudgetExhausted("search budget of 0 expansions exhausted")

    monkeypatch.setattr(certificates, "find_reduced_bundle", exhausted)
    cert = certify(*_same_h_fiber_case())
    _check(cert)
    assert cert.provenance == "search-fallback"

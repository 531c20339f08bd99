import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from treeconn import certificates, cli
from treeconn.graphs import (
    Graph,
    cartesian_product,
    complete,
    complete_bipartite,
    cycle,
    format_edge_list,
    path,
)


@pytest.fixture
def k3_file(tmp_path):
    p = tmp_path / "k3.el"
    p.write_text(format_edge_list(complete(3)))
    return str(p)


@pytest.fixture
def k33_file(tmp_path):
    p = tmp_path / "k33.el"
    p.write_text(format_edge_list(complete_bipartite(3, 3)))
    return str(p)


def run(argv):
    return cli.main(argv)


# -- gen --------------------------------------------------------------------


def test_gen_complete(tmp_path, capsys):
    assert run(["gen", "complete", "4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "4 6"
    assert len(out.splitlines()) == 7


def test_gen_tripartite_edge_count(capsys):
    assert run(["gen", "complete_tripartite", "2", "2", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "6 12"


def test_gen_bad_params(capsys):
    assert run(["gen", "cycle", "2"]) == cli.EXIT_INPUT


def test_gen_out_file(tmp_path):
    target = tmp_path / "g.el"
    assert run(["gen", "cycle", "5", "--out", str(target)]) == 0
    assert target.read_text().splitlines()[0] == "5 5"


def test_module_runs_as_a_script():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "treeconn.cli", "gen", "complete", "3"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["3 3", "0 1", "0 2", "1 2"]


# -- kappa3 -----------------------------------------------------------------


def test_kappa3_exact(k33_file, capsys):
    assert run(["kappa3", k33_file]) == 0
    out = capsys.readouterr().out
    assert "kappa3 = 2" in out
    assert "witness S" in out


def test_kappa3_formula(k33_file, capsys):
    assert run(["kappa3", k33_file, "--mode", "formula"]) == 0
    assert "kappa3 = 2" in capsys.readouterr().out


def test_kappa3_bounds_sandwich(k33_file, capsys):
    assert run(["kappa3", k33_file, "--mode", "bounds"]) == 0
    out = capsys.readouterr().out
    assert "kappa = 3" in out
    assert "2 <= kappa3 <= 3" in out


def test_kappa3_formula_unknown_family(tmp_path, capsys):
    p = tmp_path / "odd.el"
    p.write_text("4 4\n0 1\n1 2\n2 3\n0 2\n")
    assert run(["kappa3", str(p), "--mode", "formula"]) == cli.EXIT_INPUT


@pytest.mark.parametrize("n", [4, 5])
def test_kappa3_formula_cycle(tmp_path, capsys, n):
    # detect_family labels C4 a cycle before K2,2; kappa3(Cn) = 1 either way
    p = tmp_path / "cycle.el"
    p.write_text(format_edge_list(cycle(n)))
    assert run(["kappa3", str(p), "--mode", "formula"]) == 0
    assert "kappa3 = 1" in capsys.readouterr().out


def test_kappa3_refuses_a_header_above_the_vertex_limit(tmp_path, capsys):
    # ten bytes must not make the parser build two million adjacency lists
    p = tmp_path / "huge.el"
    p.write_text("2000000 0\n")
    assert run(["kappa3", str(p), "--mode", "bounds"]) == cli.EXIT_INPUT
    assert "too large" in capsys.readouterr().err


def test_kappa3_bounds_shuffled_product(tmp_path, capsys):
    # K4 □ C6 with shuffled ids and edge order; by Spacapan,
    # kappa(G □ H) = min(kappa(G)|H|, kappa(H)|G|, delta(G) + delta(H)).
    g = cartesian_product(complete(4), cycle(6))
    rng = random.Random(7)
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[a], perm[b]) for a, b in sorted(g.edges)]
    rng.shuffle(edges)
    p = tmp_path / "k4c6.el"
    p.write_text(f"{g.n} {g.m}\n" + "".join(f"{a} {b}\n" for a, b in edges))
    expected = min(3 * 6, 2 * 4, 3 + 2)
    assert run(["kappa3", str(p), "--mode", "bounds"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"kappa = {expected}", "4 <= kappa3 <= 5"]


def test_kappa3_exact_relabelled_k44(tmp_path, capsys):
    # value and witness as printed before exact kappa3 pruned by symmetry
    g = complete_bipartite(4, 4)
    perm = list(range(g.n))
    random.Random(6).shuffle(perm)
    p = tmp_path / "k44.el"
    p.write_text(format_edge_list(Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges])))
    assert run(["kappa3", str(p), "--mode", "exact"]) == 0
    assert capsys.readouterr().out.splitlines() == ["kappa3 = 3", "witness S = [0, 1, 4]"]


def test_kappa3_exact_budget_exhausted(tmp_path, capsys):
    p = tmp_path / "c4c4.el"
    p.write_text(format_edge_list(cartesian_product(cycle(4), cycle(4))))
    assert run(["kappa3", str(p), "--mode", "exact", "--budget", "5"]) == cli.EXIT_BUDGET


def test_kappa3_missing_file():
    assert run(["kappa3", "/nonexistent.el"]) == cli.EXIT_INPUT


@pytest.mark.parametrize(
    "text,message",
    [("2 1\n0 1\n", "at least three vertices"), ("4 2\n0 1\n2 3\n", "must be connected")],
    ids=["two-vertices", "disconnected"],
)
def test_kappa3_exact_refuses_a_graph_without_kappa3(tmp_path, capsys, text, message):
    p = tmp_path / "g.el"
    p.write_text(text)
    assert run(["kappa3", str(p), "--mode", "exact"]) == cli.EXIT_INPUT
    assert message in capsys.readouterr().err


# -- certify / verify round trip -------------------------------------------


def test_certify_verify_roundtrip(k3_file, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    rc = run(["certify", k3_file, k3_file, "--s", "0,0;1,1;2,2",
              "--out", str(cert)])
    assert rc == 0
    doc = json.loads(cert.read_text())
    assert doc["schema_version"] == 1
    assert doc["provenance"] == "3.1/2"
    assert doc["claimed_bound"] == 3
    assert len(doc["trees"]) >= 3
    assert run(["verify", str(cert)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_certify_deterministic_output(k3_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["certify", k3_file, k3_file, "--s", "0,0;1,1;2,2",
                    "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


_ODD_CHARS = st.sampled_from('"\\/\n\t\x00\x1f\x7fé€😀')
_TEXT = st.text(st.one_of(_ODD_CHARS, st.characters()), max_size=6)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.integers(),
    st.integers(max_value=-(2**63)),
    st.integers(min_value=2**63),
    _TEXT,
)
_VALUES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_TEXT, kids, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_TEXT, _VALUES, max_size=5))
# keys that json converts itself, below the top level
@example({"k": [{1: [2, {"a": 3}], None: {}, 2.5: "x", False: ()}]})
def test_dump_document_is_json_dumps_indent_2(doc):
    assert cli.dump_document(doc) == json.dumps(doc, indent=2) + "\n"


def test_certify_budget_exhausted_exit(k3_file, capsys):
    rc = run(["certify", k3_file, k3_file, "--s", "0,0;1,0;2,0", "--budget", "1"])
    assert rc == cli.EXIT_BUDGET
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["kappa3", "certify", "bounds"])
def test_negative_budget_is_refused(command, k3_file, capsys):
    args = {
        "kappa3": [k3_file],
        "certify": [k3_file, k3_file, "--s", "0,0;1,1;2,2"],
        "bounds": [k3_file, k3_file],
    }[command]
    assert run([command, *args, "--budget", "-3"]) == cli.EXIT_INPUT
    assert "budget must be non-negative" in capsys.readouterr().err
    # a zero budget is a budget: the first tick exhausts it
    assert run([command, *args, "--budget", "0"]) == cli.EXIT_BUDGET


def test_certify_small_budget_in_the_bundle_search_exits(tmp_path, capsys):
    # P2 box (K4 - (2, 3)), S in one fiber: three ticks end Lemma 4.1's
    # bundle search, which must not settle for a weaker bound
    p2, k4e = tmp_path / "p2.el", tmp_path / "k4e.el"
    p2.write_text(format_edge_list(path(2)))
    k4e.write_text(format_edge_list(Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])))
    args = ["certify", str(p2), str(k4e), "--s", "0,0;0,1;0,2", "--budget"]
    assert run(args + ["100"]) == 0
    assert "provenance 4.1/t=0; bound 3" in capsys.readouterr().err
    assert run(args + ["3"]) == cli.EXIT_BUDGET
    assert "budget" in capsys.readouterr().err


def test_certify_rechecks_the_certificate_it_writes(k3_file, monkeypatch, capsys):
    real = cli.certify

    def inflated(*args):
        cert = real(*args)
        return replace(cert, claimed_bound=len(cert.bundle) + 1)

    monkeypatch.setattr(cli, "certify", inflated)
    assert run(["certify", k3_file, k3_file, "--s", "0,0;1,1;2,2"]) == cli.EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "internal error: constructed certificate invalid: bundle has 3 trees" in err


def test_certify_exits_4_on_a_construction_verify_rejects(k3_file, monkeypatch, capsys):
    # a corner-share construction whose one tree misses terminal (1, 0)
    from treeconn import certificates

    monkeypatch.setattr(certificates, "_lemma32_build", lambda *args: [{(0, 1)}])
    assert run(["certify", k3_file, k3_file, "--s", "0,0;0,1;1,0"]) == cli.EXIT_INTERNAL
    assert "internal error: a tree misses a terminal" in capsys.readouterr().err


def test_internal_fault_exit(k3_file, monkeypatch, capsys):
    from treeconn import certificates

    def broken(*args, **kwargs):
        raise AssertionError("invalid bundle found")

    monkeypatch.setattr(certificates, "find_reduced_bundle", broken)
    assert run(["certify", k3_file, k3_file, "--s", "0,0;0,1;0,2"]) == cli.EXIT_INTERNAL
    assert "internal: invalid bundle found" in capsys.readouterr().err


def test_failed_fan_exits_internal(k3_file, monkeypatch, capsys):
    # a fan the fan lemma guarantees is missing: a fault, not a fallback
    monkeypatch.setattr(certificates, "fan", lambda *args, **kwargs: None)
    assert run(["certify", k3_file, k3_file, "--s", "0,0;1,0;2,1"]) == cli.EXIT_INTERNAL
    assert "internal: " in capsys.readouterr().err


def test_certify_bad_s_spec(k3_file):
    assert run(["certify", k3_file, k3_file, "--s", "0,0;1,1"]) == cli.EXIT_INPUT
    assert run(["certify", k3_file, k3_file, "--s", "0,0;1,1;9,9"]) == cli.EXIT_INPUT
    assert run(["certify", k3_file, k3_file, "--s", "0,0;0,0;1,1"]) == cli.EXIT_INPUT
    assert run(["certify", k3_file, k3_file, "--s", "0,0;1;2,2"]) == cli.EXIT_INPUT
    assert run(["certify", k3_file, k3_file, "--s", "0,0;a,1;2,2"]) == cli.EXIT_INPUT


@pytest.mark.parametrize(
    "factor,s_spec",
    [("1 0\n", "0,0;0,1;0,2"), ("4 2\n0 1\n2 3\n", "0,0;1,0;2,0")],
    ids=["k1", "disconnected"],
)
def test_certify_rejects_bad_factor(k3_file, tmp_path, capsys, factor, s_spec):
    bad = tmp_path / "bad.el"
    bad.write_text(factor)
    assert run(["certify", str(bad), k3_file, "--s", s_spec]) == cli.EXIT_INPUT
    assert "G must be connected with >= 2 vertices" in capsys.readouterr().err
    flipped = ";".join(",".join(p.split(",")[::-1]) for p in s_spec.split(";"))
    assert run(["certify", k3_file, str(bad), "--s", flipped]) == cli.EXIT_INPUT
    assert "H must be connected with >= 2 vertices" in capsys.readouterr().err


def test_verify_detects_deleted_edge(k3_file, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(["certify", k3_file, k3_file, "--s", "0,0;1,1;2,2", "--out", str(cert)])
    doc = json.loads(cert.read_text())
    doc["trees"][0] = doc["trees"][0][1:]
    cert.write_text(json.dumps(doc))
    assert run(["verify", str(cert)]) == cli.EXIT_VERIFY
    assert "tree 1" in capsys.readouterr().out


def test_verify_detects_tampered_hash(k3_file, tmp_path):
    cert = tmp_path / "cert.json"
    run(["certify", k3_file, k3_file, "--s", "0,0;1,1;2,2", "--out", str(cert)])
    doc = json.loads(cert.read_text())
    doc["factors"]["g"]["sha256"] = "0" * 64
    cert.write_text(json.dumps(doc))
    assert run(["verify", str(cert)]) == cli.EXIT_INPUT


def test_verify_rejects_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["verify", str(bad)]) == cli.EXIT_INPUT
    bad.write_text("{}")
    assert run(["verify", str(bad)]) == cli.EXIT_INPUT


def test_verify_missing_file(tmp_path, capsys):
    assert run(["verify", str(tmp_path / "absent.json")]) == cli.EXIT_INPUT
    assert "cannot read" in capsys.readouterr().err


def test_verify_detects_inflated_bound(k3_file, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(["certify", k3_file, k3_file, "--s", "0,0;1,1;2,2", "--out", str(cert)])
    doc = json.loads(cert.read_text())
    doc["claimed_bound"] = 99
    cert.write_text(json.dumps(doc))
    assert run(["verify", str(cert)]) == cli.EXIT_VERIFY


def test_verify_detects_product_m_off_by_one(k3_file, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(["certify", k3_file, k3_file, "--s", "0,0;1,1;2,2", "--out", str(cert)])
    doc = json.loads(cert.read_text())
    doc["product_m"] += 1
    cert.write_text(json.dumps(doc))
    assert run(["verify", str(cert)]) == cli.EXIT_INPUT
    assert "disagree" in capsys.readouterr().err


def test_verify_rejects_product_too_large(tmp_path, capsys):
    # P_1001 box P_1001 exceeds MAX_PRODUCT_VERTICES; the document is
    # otherwise consistent, and the loader refuses it from the declared
    # factor sizes
    p = path(1001)
    factor = {"n": p.n, "m": p.m, "edges": [list(e) for e in p.sorted_edges()],
              "sha256": p.sha256()}
    doc = {
        "schema_version": 1,
        "factors": {"g": factor, "h": factor},
        "product_n": p.n * p.n,
        "product_m": 2 * p.n * p.m,
        "s": {"flat": [0, 1, 2], "pairs": [[0, 0], [0, 1], [0, 2]]},
        "provenance": "search-fallback",
        "claimed_bound": 1,
        "trees": [[[0, 1], [1, 2]]],
    }
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    assert run(["verify", str(cert)]) == cli.EXIT_INPUT
    assert "too large" in capsys.readouterr().err


def test_verify_refuses_a_large_product_before_building_a_factor(
    tmp_path, capsys, monkeypatch
):
    # two edgeless factors of 10**6 vertices each: a short document whose
    # factors would take gigabytes to build
    built = []
    monkeypatch.setattr(cli, "Graph", lambda *args: built.append(args))
    factor = {"n": 10**6, "m": 0, "edges": [], "sha256": "0" * 64}
    doc = {
        "schema_version": 1,
        "factors": {"g": factor, "h": factor},
        "product_n": 10**12,
        "product_m": 0,
        "s": {"flat": [0, 1, 2], "pairs": [[0, 0], [0, 1], [0, 2]]},
        "provenance": "search-fallback",
        "claimed_bound": 1,
        "trees": [[[0, 1], [1, 2]]],
    }
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    assert run(["verify", str(cert)]) == cli.EXIT_INPUT
    assert "too large" in capsys.readouterr().err
    assert built == []


def test_verify_rejects_bound_below_one(k3_file, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(["certify", k3_file, k3_file, "--s", "0,0;1,1;2,2", "--out", str(cert)])
    doc = json.loads(cert.read_text())
    doc["claimed_bound"] = -5
    doc["trees"] = []
    cert.write_text(json.dumps(doc))
    assert run(["verify", str(cert)]) == cli.EXIT_INPUT
    assert "claimed_bound" in capsys.readouterr().err


def test_verify_rejects_non_integer_fields(k3_file, tmp_path, capsys):
    # each value would read as the certified one under int()
    cert = tmp_path / "cert.json"
    run(["certify", k3_file, k3_file, "--s", "0,0;0,1;1,0", "--out", str(cert)])
    sound = json.loads(cert.read_text())
    assert sound["s"]["flat"] == [0, 1, 3]
    for field, value in (
        (("s", "flat"), [0.9, 1, 3]),
        (("s", "flat"), [0, True, 3]),
        (("claimed_bound",), sound["claimed_bound"] + 0.9),
        (("product_n",), float(sound["product_n"])),
        (("product_m",), sound["product_m"] + 0.5),
    ):
        doc = json.loads(json.dumps(sound))
        *outer, last = field
        target = doc
        for key in outer:
            target = target[key]
        target[last] = value
        cert.write_text(json.dumps(doc))
        assert run(["verify", str(cert)]) == cli.EXIT_INPUT, field
        assert "must be an integer" in capsys.readouterr().err



def _k3_document(k3_file, tmp_path):
    cert = tmp_path / "cert.json"
    run(["certify", k3_file, k3_file, "--s", "0,0;0,1;1,0", "--out", str(cert)])
    return cert, json.loads(cert.read_text())


def _assert_refused(cert, doc, capsys):
    cert.write_text(json.dumps(doc))
    assert run(["verify", str(cert)]) == cli.EXIT_INPUT
    assert "must be an integer" in capsys.readouterr().err


def test_verify_rejects_float_factor_n(k3_file, tmp_path, capsys):
    cert, doc = _k3_document(k3_file, tmp_path)
    doc["factors"]["g"]["n"] = 3.5  # int() would read 3
    _assert_refused(cert, doc, capsys)


def test_verify_rejects_float_factor_m(k3_file, tmp_path, capsys):
    cert, doc = _k3_document(k3_file, tmp_path)
    doc["factors"]["h"]["m"] = 3.0
    _assert_refused(cert, doc, capsys)


def test_verify_rejects_bool_factor_edge_endpoints(k3_file, tmp_path, capsys):
    # (False, True) == (0, 1); the sha256 is recomputed to match
    cert, doc = _k3_document(k3_file, tmp_path)
    entry = doc["factors"]["g"]
    assert entry["edges"][0] == [0, 1]
    entry["edges"][0] = [False, True]
    entry["sha256"] = Graph(entry["n"], [tuple(e) for e in entry["edges"]]).sha256()
    _assert_refused(cert, doc, capsys)


def test_verify_rejects_float_tree_endpoints(k3_file, tmp_path, capsys):
    cert, doc = _k3_document(k3_file, tmp_path)
    a, b = doc["trees"][0][0]
    doc["trees"][0][0] = [float(a), float(b)]
    _assert_refused(cert, doc, capsys)


def test_verify_rejects_float_s_pairs(k3_file, tmp_path, capsys):
    cert, doc = _k3_document(k3_file, tmp_path)
    u, v = doc["s"]["pairs"][0]
    doc["s"]["pairs"][0] = [float(u), v]
    _assert_refused(cert, doc, capsys)


@pytest.mark.parametrize(
    "flat,pairs",
    [([9, 10, 11], [[3, 0], [3, 1], [3, 2]]), ([-3, -2, -1], [[-1, 0], [-1, 1], [-1, 2]])],
    ids=["past-end", "negative"],
)
def test_verify_rejects_terminals_outside_the_product(k3_file, tmp_path, capsys, flat, pairs):
    # the pairs agree with the flat ids by divmod, so only the range is off
    cert, doc = _k3_document(k3_file, tmp_path)
    doc["s"] = {"flat": flat, "pairs": pairs}
    doc["claimed_bound"] = 1
    doc["trees"] = [[flat[:2], flat[1:]]]
    cert.write_text(json.dumps(doc))
    assert run(["verify", str(cert)]) == cli.EXIT_INPUT
    assert "outside" in capsys.readouterr().err


def _flat_ids(doc):
    doc["s"]["flat"] = doc["s"]["flat"][:2]


def _pairs(doc):
    doc["s"]["pairs"] = doc["s"]["pairs"][::-1]


def _self_loop(doc):
    doc["factors"]["g"]["edges"][0] = [0, 0]


def _factor_m(doc):
    doc["factors"]["g"]["m"] += 1


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda doc: doc.update(schema_version=99), "unsupported schema_version 99"),
        (_flat_ids, "terminal set must list three flat ids"),
        (_pairs, "terminal pairs disagree with flat ids"),
        (_self_loop, "bad factor g: self-loop at vertex 0"),
        (_factor_m, "factor g: edge count disagrees with header"),
    ],
    ids=["schema-version", "two-flat-ids", "pairs", "self-loop", "factor-m"],
)
def test_verify_refuses_a_malformed_document(k3_file, tmp_path, capsys, mutate, message):
    cert, doc = _k3_document(k3_file, tmp_path)
    mutate(doc)
    cert.write_text(json.dumps(doc))
    assert run(["verify", str(cert)]) == cli.EXIT_INPUT
    assert message in capsys.readouterr().err


# -- bounds -----------------------------------------------------------------


def test_bounds_report_tight(k3_file, capsys):
    assert run(["bounds", k3_file, k3_file]) == 0
    out = capsys.readouterr().out
    assert "three-way-min lower bound: 3" in out
    assert "exact kappa3 = 3 (tight)" in out


def test_bounds_k4_k4_exact_at_the_product_limit(tmp_path, capsys):
    # K4 box K4 has cli.EXACT_PRODUCT_LIMIT = 16 vertices, the largest
    # product that bounds searches exactly
    p = tmp_path / "k4.el"
    p.write_text(format_edge_list(complete(4)))
    assert run(["bounds", str(p), str(p)]) == 0
    assert "exact kappa3 = 5 (tight)" in capsys.readouterr().out


def test_bounds_exact_budget_exhausted(tmp_path, capsys):
    # kappa3 of each K4 factor takes 21 ticks; exact kappa3 of K4 box K4
    # needs 28,134
    p = tmp_path / "k4.el"
    p.write_text(format_edge_list(complete(4)))
    assert run(["bounds", str(p), str(p), "--budget", "100"]) == cli.EXIT_BUDGET
    assert "exact kappa3: budget exhausted" in capsys.readouterr().out


def test_bounds_p2_p2(tmp_path, capsys):
    p = tmp_path / "p2.el"
    p.write_text("2 1\n0 1\n")
    assert run(["bounds", str(p), str(p)]) == 0
    out = capsys.readouterr().out
    assert "three-way-min lower bound: 1" in out
    assert "exact kappa3 = 1" in out


def test_bounds_factor_kappa3_once_under_the_budget(tmp_path, monkeypatch, capsys):
    files = []
    for name, f in (("c5", cycle(5)), ("k4", complete(4))):
        files.append(tmp_path / f"{name}.el")
        files[-1].write_text(format_edge_list(f))
    calls = []
    real = certificates.kappa_k

    def counting(g, *args, **kwargs):
        calls.append(g)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(certificates, "kappa_k", counting)
    assert run(["bounds", *map(str, files)]) == 0
    assert calls == [cycle(5), complete(4)]
    assert capsys.readouterr().out == (
        "G: n=5 kappa=2 kappa3=1 delta=2\n"
        "H: n=4 kappa=3 kappa3=2 delta=3\n"
        "three-way-min lower bound: 4\n"
        "range lower bound (G + l, l=3): 4\n"
        "range lower bound (H + l, l=2): 4\n"
    )
    assert run(["bounds", *map(str, files), "--budget", "1"]) == cli.EXIT_BUDGET


# -- family detection -------------------------------------------------------


def test_detect_family():
    from treeconn.graphs import Graph, cycle, complete_tripartite

    assert cli.detect_family(complete(5)) == ("complete", [5])
    assert cli.detect_family(cycle(6)) == ("cycle", [6])
    assert cli.detect_family(complete_bipartite(2, 4)) == (
        "complete_bipartite", [2, 4],
    )
    assert cli.detect_family(complete_tripartite(3, 1, 2)) == (
        "complete_tripartite", [1, 2, 3],
    )
    # C4 = K_{2,2}: degree-2 regular wins the cycle label first
    assert cli.detect_family(cycle(4))[0] == "cycle"
    assert cli.detect_family(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])) is None
    # four parts, and two disjoint edges (2K2): no closed form applies
    parts = [0, 1, 2, 2, 3, 3]
    k1122 = Graph(6, [(a, b) for a in range(6) for b in range(a + 1, 6)
                      if parts[a] != parts[b]])
    assert cli.detect_family(k1122) is None
    assert cli.detect_family(Graph(4, [(0, 1), (2, 3)])) is None

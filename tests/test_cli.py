import json
import random

import pytest

from treeconn import cli
from treeconn.graphs import (
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


def test_kappa3_missing_file():
    assert run(["kappa3", "/nonexistent.el"]) == cli.EXIT_INPUT


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


def test_certify_bad_s_spec(k3_file):
    assert run(["certify", k3_file, k3_file, "--s", "0,0;1,1"]) == cli.EXIT_INPUT
    assert run(["certify", k3_file, k3_file, "--s", "0,0;1,1;9,9"]) == cli.EXIT_INPUT
    assert run(["certify", k3_file, k3_file, "--s", "0,0;0,0;1,1"]) == cli.EXIT_INPUT


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
    # otherwise consistent, so verification reaches the product build
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


# -- bounds -----------------------------------------------------------------


def test_bounds_report_tight(k3_file, capsys):
    assert run(["bounds", k3_file, k3_file]) == 0
    out = capsys.readouterr().out
    assert "three-way-min lower bound: 3" in out
    assert "exact kappa3 = 3 (tight)" in out


def test_bounds_p2_p2(tmp_path, capsys):
    p = tmp_path / "p2.el"
    p.write_text("2 1\n0 1\n")
    assert run(["bounds", str(p), str(p)]) == 0
    out = capsys.readouterr().out
    assert "three-way-min lower bound: 1" in out
    assert "exact kappa3 = 1" in out


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

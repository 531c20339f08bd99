"""Smoke test of the benchmark harness, so that it cannot rot unnoticed.

    python3 -m pytest -q bench/test_bench_smoke.py

It runs every workload once over small inputs, untraced and traced, and
checks counts and verdicts only; wall times are never compared.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")
END_TO_END = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
WORKLOADS = ("certify-sweep", "kappa3-exact", "verify-docs", "cli-ingest")
# Operations per smoke pass, and how many of them are duplicate-terminal
# documents that the verifier wrongly accepts (ROADMAP item 5).
OPS = {"certify-sweep": 12, "kappa3-exact": 4, "verify-docs": 24, "cli-ingest": 2}
DUP_TERMINAL_DOCS = 4


def _run(*args: str) -> tuple[list[str], dict]:
    out = subprocess.run([sys.executable, str(RUN), "--workload", "all", "--smoke", *args],
                         capture_output=True, text=True, timeout=120, check=True)
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_untraced_smoke_reports_every_metric_and_verdict():
    lines, result = _run("--trace", "0")
    assert result["correct"] is True
    assert result["attempted"] == sum(OPS.values())
    assert result["failed"] == DUP_TERMINAL_DOCS
    for w in WORKLOADS:
        for name, unit in END_TO_END.items():
            metric = result["metrics"][f"{w}/{name}"]
            assert metric["unit"] == unit and metric["value"] > 0
        assert any(line.startswith(w) and " fail_frac " in line for line in lines)
    provenance = json.loads(lines[0].removeprefix("provenance "))
    assert {"python", "nproc", "platform", "seed", "git_commit"} <= provenance.keys()
    assert {w: s["ops_timed"] for w, s in provenance["samples"].items()} == OPS


def test_traced_smoke_counts_layer_work(tmp_path):
    _, result = _run("--trace", "1", "--spans", str(tmp_path))
    assert result["correct"] is True
    assert result["attempted"] == 2 * sum(OPS.values())
    assert result["failed"] == 2 * DUP_TERMINAL_DOCS
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # certify-sweep: one certify per sampled 3-set (2 products x 5 classes)
    assert m["certify-sweep/certificates.certify.calls"] == 10
    assert m["certify-sweep/certificates.fallback_ratio"] == 0
    assert m["certify-sweep/bundles.find_reduced_bundle.calls"] > 0
    assert m["certify-sweep/cli.dump_document.self_s"] > 0
    # kappa3-exact never leaves packing, connectivity and graphs
    assert m["kappa3-exact/packing.kappa_k.calls"] == 4
    assert m["kappa3-exact/packing.ticks"] > 0
    for layer in ("bundles", "certificates", "cli"):
        assert m[f"kappa3-exact/{layer}.self_s"] == 0
    # verify-docs checks without searching: no flow, no tree search
    assert m["verify-docs/connectivity.flow_calls"] == 0
    assert m["verify-docs/packing.pack_trees.calls"] == 0
    assert m["verify-docs/cli.load_document.self_s"] > 0
    # cli-ingest: one parse and one vertex_connectivity per file
    assert m["cli-ingest/graphs.graph_builds"] == 2
    assert m["cli-ingest/connectivity.vertex_connectivity.calls"] == 2
    assert m["cli-ingest/graphs.parse_edge_list.self_s"] > 0
    for w in WORKLOADS:
        spans = [json.loads(line) for line in (tmp_path / f"spans-{w}.jsonl").read_text().splitlines()]
        assert spans
        for i, span in enumerate(spans):
            assert span["parent"] < i and span["start"] <= span["end"]

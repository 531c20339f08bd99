"""The four workloads: seeded inputs, the operation each one times, and the
check of each output against bench/oracle.py.

Input graphs are built here from plain edge lists and handed to the
library only as `Graph(n, edges)` or as edge-list files, so the library
receives nothing but the generated inputs.  Why each workload exists, and
which layer it loads, is in bench/README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import oracle

Edge = tuple[int, int]


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: `run` is timed, `check` is not.

    `check` returns None for a correct output, else what is wrong.  An op
    with `known_defect` set is expected to fail the check until that
    defect is fixed; its failures count in `failed` but do not make the
    run incorrect."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    known_defect: str | None = None


# -- graphs as plain edge lists --------------------------------------------


@dataclass(frozen=True)
class Factor:
    name: str
    n: int
    edges: frozenset[Edge]
    kappa: int  # vertex connectivity, from the family's closed form

    @property
    def delta(self) -> int:
        deg = [0] * self.n
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return min(deg)


def _factor(name: str, n: int, edges, kappa: int) -> Factor:
    return Factor(name, n, frozenset(oracle.norm(a, b) for a, b in edges), kappa)


def complete(n: int) -> Factor:
    return _factor(f"K{n}", n, combinations(range(n), 2), n - 1)


def cycle(n: int) -> Factor:
    return _factor(f"C{n}", n, ((i, (i + 1) % n) for i in range(n)), 2)


def path(n: int) -> Factor:
    return _factor(f"P{n}", n, ((i, i + 1) for i in range(n - 1)), 1)


def multipartite(*parts: int) -> Factor:
    starts = [sum(parts[:i]) for i in range(len(parts))]
    edges = [
        (a, b)
        for i, j in combinations(range(len(parts)), 2)
        for a in range(starts[i], starts[i] + parts[i])
        for b in range(starts[j], starts[j] + parts[j])
    ]
    # kappa(K_{n1..nr}) = n - largest part
    return _factor("K" + "_".join(map(str, parts)), sum(parts), edges, sum(parts) - max(parts))


def petersen() -> Factor:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return _factor("Petersen", 10, outer + spokes + inner, 3)


def product(g: Factor, h: Factor) -> tuple[int, list[Edge]]:
    """G □ H on flat ids (u, v) -> u * |V(H)| + v."""
    m = h.n
    edges = [(u * m + a, u * m + b) for u in range(g.n) for a, b in h.edges]
    edges += [(a * m + v, b * m + v) for v in range(h.n) for a, b in g.edges]
    return g.n * m, edges


def relabel(n: int, edges, rng: random.Random) -> list[Edge]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[a], perm[b]) for a, b in edges]


# -- certify-sweep -----------------------------------------------------------

SWEEP_PRODUCTS = [
    (petersen, (complete, 3)),
    (petersen, (cycle, 5)),
    ((complete, 5), (cycle, 6)),
    ((multipartite, 4, 4), (cycle, 4)),
    ((multipartite, 2, 3), (multipartite, 3, 3)),
    ((cycle, 8), (cycle, 9)),
]
# 3-sets per position class and product.  same-g-fiber operations are the
# slow tail (Lemma 3.4 re-runs the exact κ3 search on G), so they are
# over-sampled: the p90 then falls inside that band instead of on the edge
# between it and the fast classes, where it would jump between seeds.
SWEEP_PER_CLASS = {
    "all-distinct": 2,
    "corner-share": 2,
    "two-share-one-apart": 2,
    "same-h-fiber": 2,
    "same-g-fiber": 3,
}
# Lemma 4.1 bundle shapes that the grid never reaches unforced (acceptance
# criterion 6): (H, size of the part that holds S, t, expected provenance).
FORCED_41 = [((4, 6), 4, 2, "4.1/t=2"), ((7, 10), 7, 3, "4.1/case2.1")]
FORCED_PER_SHAPE = 3


def _build(spec) -> Factor:
    return spec() if callable(spec) else spec[0](*spec[1:])


def _sample_class(rng: random.Random, gn: int, hn: int, label: str) -> tuple[int, ...]:
    """A uniformly placed 3-set of the given position class, as flat ids."""
    if label == "all-distinct":
        pairs = zip(rng.sample(range(gn), 3), rng.sample(range(hn), 3))
    elif label == "corner-share":
        (u1, u2), (v1, v2) = rng.sample(range(gn), 2), rng.sample(range(hn), 2)
        pairs = rng.sample([(u1, v1), (u1, v2), (u2, v1), (u2, v2)], 3)
    elif label == "two-share-one-apart":
        if rng.random() < 0.5:
            us, (v1, v2) = rng.sample(range(gn), 3), rng.sample(range(hn), 2)
            pairs = [(us[0], v1), (us[1], v1), (us[2], v2)]
        else:
            vs, (u1, u2) = rng.sample(range(hn), 3), rng.sample(range(gn), 2)
            pairs = [(u1, vs[0]), (u1, vs[1]), (u2, vs[2])]
    elif label == "same-g-fiber":
        v = rng.randrange(hn)
        pairs = [(u, v) for u in rng.sample(range(gn), 3)]
    else:  # same-h-fiber
        u = rng.randrange(gn)
        pairs = [(u, v) for v in rng.sample(range(hn), 3)]
    return tuple(sorted(u * hn + v for u, v in pairs))


def _certificate_op(tc, label, g: Factor, h: Factor, s, make, goldens, expect_tag=None) -> Op:
    gg, hh = tc.graphs.Graph(g.n, g.edges), tc.graphs.Graph(h.n, h.edges)

    def run():
        # what `treeconn certify` does: construct, re-verify, serialize
        cert = make(gg, hh, s)
        err = cert.verify()
        return err, cert.provenance, tc.cli.dump_document(tc.cli.certificate_document(cert))

    def check(out) -> str | None:
        err, tag, text = out
        if err is not None:
            return f"library verify rejected its own certificate: {err}"
        if expect_tag is not None and tag != expect_tag:
            return f"provenance {tag}, expected {expect_tag}"
        doc = json.loads(text)
        if list(doc["s"]["flat"]) != list(s):
            return "document terminal set differs from the request"
        bad = oracle.document_error(doc, g.n, g.edges, h.n, h.edges)
        if bad is not None:
            return bad
        want = goldens.get(label)
        if want is not None and hashlib.sha256(text.encode()).hexdigest() != want:
            return "document bytes differ from the golden digest"
        return None

    return Op(label, run, check)


def certify_sweep(tc, seed: int, smoke: bool, workdir: Path, goldens: dict) -> list[Op]:
    rng = random.Random(seed)
    ops = []

    def certify(gg, hh, s):
        # looked up per call, so that a traced run sees the wrapped function
        return tc.certificates.certify(gg, hh, s)

    products = SWEEP_PRODUCTS[4:] if smoke else SWEEP_PRODUCTS
    for gspec, hspec in products:
        g, h = _build(gspec), _build(hspec)
        for cls, k in SWEEP_PER_CLASS.items():
            chosen: list[tuple[int, ...]] = []
            while len(chosen) < (1 if smoke else k):
                s = _sample_class(rng, g.n, h.n, cls)
                if s not in chosen:
                    chosen.append(s)
            for s in chosen:
                label = f"{g.name}x{h.name}:{','.join(map(str, s))}"
                ops.append(_certificate_op(tc, label, g, h, s, certify, goldens))
    g = path(2)
    for parts, part_size, t, tag in FORCED_41:
        h = multipartite(*parts)
        for _ in range(1 if smoke else FORCED_PER_SHAPE):
            u = rng.randrange(2)
            s = tuple(sorted(u * h.n + v for v in rng.sample(range(part_size), 3)))
            label = f"{g.name}x{h.name}:{','.join(map(str, s))}:t={t}"

            def make(gg, hh, s, t=t):
                return tc.certificates.construct_lemma41(gg, hh, s, t=t)

            ops.append(_certificate_op(tc, label, g, h, s, make, goldens, expect_tag=tag))
    rng.shuffle(ops)
    return ops


# -- kappa3-exact -------------------------------------------------------------

# (graph, family and parameters for kappa3_formula)
KAPPA3_GRAPHS = [
    ((complete, 6), ("complete", [6])),
    ((complete, 7), ("complete", [7])),
    ((multipartite, 3, 4), ("complete_bipartite", [3, 4])),
    ((multipartite, 4, 4), ("complete_bipartite", [4, 4])),
    ((multipartite, 2, 2, 2), ("complete_tripartite", [2, 2, 2])),
    ((multipartite, 2, 2, 3), ("complete_tripartite", [2, 2, 3])),
    ((multipartite, 1, 2, 4), ("complete_tripartite", [1, 2, 4])),
    ((multipartite, 2, 3, 3), ("complete_tripartite", [2, 3, 3])),
    (((complete, 3), (complete, 3)), ("complete_times_complete", [2, 3])),
]
# Search time depends on the labeling, so each graph is packed under this
# many seeded relabelings; averaging over them keeps one seed's pass time
# close to another's.  K4,5, C4□C4, C3□C5, K3□K4 and K4□K3 (0.3-1.2 s
# each) are left out: with them a pass takes over 10 s, too few repeats
# per run for a steady figure on a shared machine.
KAPPA3_RELABELINGS = 3


def kappa3_exact(tc, seed: int, smoke: bool, workdir: Path, goldens: dict) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    graphs = KAPPA3_GRAPHS[:3] + KAPPA3_GRAPHS[8:9] if smoke else KAPPA3_GRAPHS
    for spec, (family, params) in graphs:
        if isinstance(spec[0], tuple):
            g, h = _build(spec[0]), _build(spec[1])
            n, edges = product(g, h)
            name = f"{g.name}x{h.name}"
        else:
            f = _build(spec)
            n, edges, name = f.n, f.edges, f.name
        want = tc.packing.kappa3_formula(family, params)
        for _ in range(1 if smoke else KAPPA3_RELABELINGS):
            lab = relabel(n, edges, rng)
            graph = tc.graphs.Graph(n, lab)
            edge_set = {oracle.norm(a, b) for a, b in lab}

            def run(graph=graph):
                return tc.packing.kappa_k(graph, 3, use_symmetry=True)

            def check(out, n=n, edge_set=edge_set, want=want) -> str | None:
                value, witness, bundle = out
                if value != want:
                    return f"kappa3 = {value}, formula says {want}"
                trees = [t.edges for t in bundle.trees]
                if len(trees) != want:
                    return f"witness bundle has {len(trees)} trees, not {want}"
                return oracle.packing_error(
                    n, lambda a, b: oracle.norm(a, b) in edge_set, witness, trees, want
                )

            ops.append(Op(name, run, check))
    rng.shuffle(ops)
    return ops


# -- verify-docs --------------------------------------------------------------

VERIFY_PRODUCTS = [
    ((cycle, 10), (complete, 5)),
    ((cycle, 8), (cycle, 9)),
    ((cycle, 6), (multipartite, 5, 5)),
    ((cycle, 12), (complete, 8)),
]
DOCS_PER_PRODUCT = 6
DUP_TERMINAL_DEFECT = "verifier accepts a document whose terminals repeat (ROADMAP item 5)"


def _tree_path(edges, a: int, b: int) -> list[list[int]]:
    """Edges of the a-b path inside a tree."""
    adj: dict[int, list[int]] = {}
    for x, y in edges:
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)
    parent = {a: a}
    stack = [a]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                stack.append(y)
    out = []
    while b != a:
        out.append(sorted((b, parent[b])))
        b = parent[b]
    return sorted(out)


def _mutants(doc: dict, rng: random.Random) -> list[tuple[str, dict]]:
    """Seeded corruptions of a sound document, one per kind."""

    def copy() -> dict:
        return json.loads(json.dumps(doc))

    out = []
    m = copy()
    del m["trees"][rng.randrange(len(m["trees"]))]
    out.append(("drop-tree", m))
    m = copy()
    m["trees"].append(list(m["trees"][rng.randrange(len(m["trees"]))]))
    out.append(("duplicate-tree", m))
    m = copy()
    tree = m["trees"][rng.randrange(len(m["trees"]))]
    del tree[rng.randrange(len(tree))]
    out.append(("delete-edge", m))
    m = copy()
    m["claimed_bound"] = len(m["trees"]) + 1
    out.append(("raise-bound", m))
    m = copy()
    a, b = rng.sample(m["s"]["flat"], 2)
    m["s"]["flat"] = [a, a, b]
    m["s"]["pairs"] = [list(divmod(x, doc["factors"]["h"]["n"])) for x in (a, a, b)]
    m["trees"] = [_tree_path(t, a, b) for t in m["trees"]]
    out.append(("dup-terminal", m))
    return out


def verify_docs(tc, seed: int, smoke: bool, workdir: Path, goldens: dict) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for gspec, hspec in VERIFY_PRODUCTS[:2] if smoke else VERIFY_PRODUCTS:
        g, h = _build(gspec), _build(hspec)
        gg, hh = tc.graphs.Graph(g.n, g.edges), tc.graphs.Graph(h.n, h.edges)
        for _ in range(2 if smoke else DOCS_PER_PRODUCT):
            s = sorted(rng.sample(range(g.n * h.n), 3))
            text = tc.cli.dump_document(tc.cli.certificate_document(tc.certificates.certify(gg, hh, s)))
            docs = [("sound", json.loads(text))] + _mutants(json.loads(text), rng)
            for kind, doc in docs:
                expect = oracle.document_error(doc, g.n, g.edges, h.n, h.edges) is None
                if kind != "sound" and expect:
                    raise AssertionError(f"{kind} mutant of {g.name}x{h.name} {s} is still sound")
                ops.append(_verify_op(tc, f"{g.name}x{h.name}:{kind}", json.dumps(doc, indent=2) + "\n",
                                      expect, DUP_TERMINAL_DEFECT if kind == "dup-terminal" else None))
    rng.shuffle(ops)
    return ops


def _verify_op(tc, label: str, text: str, expect: bool, known_defect: str | None) -> Op:
    def run():
        # the trusted path of `treeconn verify`, on text held in memory
        try:
            _, _, cert = tc.cli.load_certificate_document(json.loads(text))
        except tc.cli.InputError:
            return False
        return cert.verify() is None

    def check(accepted) -> str | None:
        if accepted == expect:
            return None
        return f"verifier {'accepted' if accepted else 'rejected'} a {'sound' if expect else 'corrupt'} document"

    return Op(label, run, check, known_defect)


# -- cli-ingest ----------------------------------------------------------------

# Large complete graphs, where parsing dominates, and products with
# n = 24..36, where the flow count of vertex_connectivity dominates.  Each
# file takes at most 0.3 s, so a run repeats every one of them many times.
INGEST_COMPLETE = [48, 64, 80]
INGEST_PRODUCTS = [
    ((complete, 4), (cycle, 6)),
    ((complete, 4), (cycle, 8)),
    ((cycle, 6), (cycle, 6)),
]


def cli_ingest(tc, seed: int, smoke: bool, workdir: Path, goldens: dict) -> list[Op]:
    rng = random.Random(seed)
    cases = []
    for n in [20] if smoke else INGEST_COMPLETE:
        cases.append((f"K{n}", n, list(combinations(range(n), 2)), n - 1))
    for gspec, hspec in INGEST_PRODUCTS[:1] if smoke else INGEST_PRODUCTS:
        g, h = _build(gspec), _build(hspec)
        n, edges = product(g, h)
        kappa = oracle.spacapan_kappa(g.kappa, g.n, g.delta, h.kappa, h.n, h.delta)
        cases.append((f"{g.name}x{h.name}", n, edges, kappa))
    ops = []
    for name, n, edges, kappa in cases:
        lines = [f"{a} {b}" if rng.random() < 0.5 else f"{b} {a}" for a, b in relabel(n, edges, rng)]
        rng.shuffle(lines)
        file = workdir / f"{name}.el"
        file.write_text(f"{n} {len(lines)}\n" + "\n".join(lines) + "\n")
        lo, hi = oracle.kappa3_sandwich(kappa)
        want = f"kappa = {kappa}\n{lo} <= kappa3 <= {hi}\n"

        def run(file=file):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = tc.cli.main(["kappa3", str(file), "--mode", "bounds"])
            return code, out.getvalue()

        def check(out, want=want) -> str | None:
            code, text = out
            if code != 0:
                return f"exit code {code}"
            return None if text == want else f"printed {text!r}, expected {want!r}"

        ops.append(Op(name, run, check))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "certify-sweep": certify_sweep,
    "kappa3-exact": kappa3_exact,
    "verify-docs": verify_docs,
    "cli-ingest": cli_ingest,
}

"""Command-line surface: graph generation, exact and formula kappa_3,
certificate construction/verification, and factor bound reports.

Exit codes: 0 ok, 1 verification failure, 2 input error, 3 budget
exhausted, 4 internal error.  Certificate documents are JSON with a fixed
key order and sorted edge lists, so identical invocations are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from itertools import chain
from typing import Iterable, Optional, Sequence

from . import graphs
from .certificates import (
    Certificate,
    certify,
    factor_kappa3,
    lower_bound_theorem14,
    lower_bound_theorem15,
)
from .connectivity import kappa3_range_from_kappa, vertex_connectivity
from .errors import Budget, BudgetExhausted, GraphFormatError, TreeconnError
from .graphs import Graph, cartesian_product, flat_id, norm_edge
from .packing import STree, STreeBundle, kappa_k, kappa3_formula

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

# Products at most this large get an exact kappa_3 in `bounds` reports.
EXACT_PRODUCT_LIMIT = 16


class InputError(TreeconnError):
    """CLI-level bad input (maps to exit 2)."""


# -- document plumbing ------------------------------------------------------


def certificate_document(cert: Certificate) -> dict:
    """Self-contained JSON-ready dict; key order is fixed for determinism."""
    return {
        "schema_version": SCHEMA_VERSION,
        "factors": {
            "g": _factor_entry(cert.g),
            "h": _factor_entry(cert.h),
        },
        "product_n": cert.g.n * cert.h.n,
        "product_m": cert.g.n * cert.h.m + cert.h.n * cert.g.m,
        "s": {
            "flat": list(cert.s),
            "pairs": [list(divmod(x, cert.h.n)) for x in cert.s],
        },
        "provenance": cert.provenance,
        "claimed_bound": cert.claimed_bound,
        "trees": [
            [list(e) for e in sorted(t.edges)] for t in cert.bundle.trees
        ],
    }


def _factor_entry(g: Graph) -> dict:
    return {
        "n": g.n,
        "m": g.m,
        "edges": [list(e) for e in g.sorted_edges()],
        "sha256": g.sha256(),
    }


def load_certificate_document(doc: dict) -> tuple[Graph, Graph, Certificate]:
    """Rebuild factors and certificate from a parsed document.

    Raises InputError on any malformation, including hash mismatch."""
    try:
        if doc["schema_version"] != SCHEMA_VERSION:
            raise InputError(
                f"unsupported schema_version {doc['schema_version']!r}"
            )
        factors = doc["factors"]
        _integers(
            chain(factors["g"]["edges"], factors["h"]["edges"],
                  doc["s"]["pairs"], *doc["trees"]),
            "edge endpoint or s.pairs entry",
        )
        # refused before either factor is built, so a short document cannot
        # make the loader allocate for a huge product
        sizes = [_integer(factors[f]["n"], f"factor {f} n") for f in "gh"]
        if sizes[0] * sizes[1] > graphs.MAX_PRODUCT_VERTICES:
            raise InputError("product too large for dense vertex ids")
        g = _rebuild_factor(factors["g"], "g")
        h = _rebuild_factor(factors["h"], "h")
        s = tuple(_integer(x, "s.flat entry") for x in doc["s"]["flat"])
        pairs = [tuple(p) for p in doc["s"]["pairs"]]
        trees = tuple(STree(frozenset(norm_edge(a, b) for a, b in t)) for t in doc["trees"])
        bound = _integer(doc["claimed_bound"], "claimed_bound")
        provenance = str(doc["provenance"])
        product_n = _integer(doc["product_n"], "product_n")
        product_m = _integer(doc["product_m"], "product_m")
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed certificate document: {exc}") from None
    if len(s) != 3:
        raise InputError("terminal set must list three flat ids")
    if bound < 1:
        raise InputError(f"claimed_bound {bound} is below 1")
    if pairs != [divmod(x, h.n) for x in s]:
        raise InputError("terminal pairs disagree with flat ids")
    if (g.n * h.n, g.n * h.m + h.n * g.m) != (product_n, product_m):
        raise InputError("product_n/product_m disagree with the factors")
    if not all(0 <= x < product_n for x in s):
        raise InputError(f"terminal flat ids {list(s)} outside 0..{product_n - 1}")
    bundle = STreeBundle(tuple(sorted(s)), trees)
    return g, h, Certificate(g, h, s, bundle, provenance, bound)


def _integer(value, name: str) -> int:
    """A JSON integer as is; anything else (a bool, a float, a string) is
    refused rather than coerced."""
    if type(value) is not int:
        raise InputError(f"{name} must be an integer, got {value!r}")
    return value


def _integers(rows: Iterable, name: str) -> None:
    """`_integer` for every entry of every row, by one pass over the
    entries' types."""
    values = list(chain.from_iterable(rows))
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise InputError(f"{name} must be an integer, got {bad!r}")


def _rebuild_factor(entry: dict, name: str) -> Graph:
    n = _integer(entry["n"], f"factor {name} n")
    m = _integer(entry["m"], f"factor {name} m")
    try:
        g = Graph(n, [tuple(e) for e in entry["edges"]])
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad factor {name}: {exc}") from None
    if g.m != m:
        raise InputError(f"factor {name}: edge count disagrees with header")
    if g.sha256() != entry.get("sha256"):
        raise InputError(f"factor {name}: sha256 mismatch")
    return g


def dump_document(doc: dict) -> str:
    """json.dumps(doc, indent=2) plus a newline, byte for byte.  json runs
    its C encoder only when no indent is set, so the indented layout is
    written by `_indented` and json encodes only the leaves and keys."""
    return _indented(doc, "\n") + "\n"


def _indented(value, nl: str) -> str:
    """json.dumps(value, indent=2) for a value whose lines start with `nl`
    (a newline and the spaces of its depth)."""
    if type(value) is int:
        return str(value)
    inner = nl + "  "
    if isinstance(value, (list, tuple)):
        items = [str(x) if type(x) is int else _indented(x, inner) for x in value]
        return "[" + inner + ("," + inner).join(items) + nl + "]" if items else "[]"
    if isinstance(value, dict):
        if not all(isinstance(k, str) for k in value):
            # json converts such keys itself; no string it writes holds a raw newline
            return json.dumps(value, indent=2).replace("\n", nl)
        items = [json.dumps(k) + ": " + _indented(x, inner) for k, x in value.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if items else "{}"
    return json.dumps(value)


# -- small input helpers ----------------------------------------------------


def _read_graph(path: str) -> Graph:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return graphs.parse_edge_list(text)


def parse_s_spec(spec: str, g: Graph, h: Graph) -> tuple[int, int, int]:
    """'u1,v1;u2,v2;u3,v3' -> three flat product ids."""
    flats = []
    for chunk in spec.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise InputError(f"bad S entry {chunk!r}; expected 'u,v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"non-integer S entry {chunk!r}") from None
        if not (0 <= u < g.n and 0 <= v < h.n):
            raise InputError(f"S entry ({u},{v}) outside the factors")
        flats.append(flat_id(u, v, h.n))
    if len(flats) != 3 or len(set(flats)) != 3:
        raise InputError("S must consist of three distinct (u,v) pairs")
    return tuple(sorted(flats))


def detect_family(g: Graph) -> Optional[tuple[str, list[int]]]:
    """Recognize the closed-form families: complete, complete multipartite
    (2 or 3 parts), cycle."""
    if g.is_complete():
        return "complete", [g.n]
    if g.n >= 3 and g.m == g.n and all(g.degree(v) == 2 for v in range(g.n)):
        if g.is_connected():
            return "cycle", [g.n]
    # complete multipartite <=> each class of equal neighbourhoods is
    # adjacent to every vertex outside it (and so to none inside)
    groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(g.n):
        groups.setdefault(g.neighbors(v), []).append(v)
    if any(len(nbrs) + len(ms) != g.n for nbrs, ms in groups.items()):
        return None
    sizes = sorted(len(ms) for ms in groups.values())
    if len(sizes) == 2:
        return "complete_bipartite", sizes
    if len(sizes) == 3:
        return "complete_tripartite", sizes
    return None


def _write_out(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


# -- subcommands ------------------------------------------------------------


def cmd_gen(args) -> int:
    try:
        g = graphs.generate(args.family, args.params)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    _write_out(graphs.format_edge_list(g), args.out)
    return EXIT_OK


def cmd_kappa3(args) -> int:
    budget = Budget(args.budget)
    g = _read_graph(args.graph_file)
    if g.n < 3:
        raise InputError("kappa_3 needs at least three vertices")
    if args.mode == "exact":
        if not g.is_connected():
            raise InputError("graph must be connected for exact kappa_3")
        try:
            value, witness, _ = kappa_k(g, 3, budget, use_symmetry=True)
        except BudgetExhausted:
            lo, hi = kappa3_range_from_kappa(vertex_connectivity(g))
            print(f"budget exhausted; best known: {lo} <= kappa3 <= {hi}")
            return EXIT_BUDGET
        print(f"kappa3 = {value}")
        print(f"witness S = {list(witness)}")
        return EXIT_OK
    if args.mode == "formula":
        fam = detect_family(g)
        if fam is None:
            raise InputError("graph matches no closed-form family")
        name, params = fam
        value = kappa3_formula(name, params)
        print(f"kappa3 = {value}  [{name}{tuple(params)}]")
        return EXIT_OK
    # bounds: the sandwich from plain connectivity
    kappa = vertex_connectivity(g)
    lo, hi = kappa3_range_from_kappa(kappa)
    print(f"kappa = {kappa}")
    print(f"{lo} <= kappa3 <= {hi}")
    return EXIT_OK


def _read_factors(args) -> tuple[Graph, Graph]:
    g = _read_graph(args.g_file)
    h = _read_graph(args.h_file)
    for name, f in (("G", g), ("H", h)):
        if f.n < 2 or not f.is_connected():
            raise InputError(f"{name} must be connected with >= 2 vertices")
    return g, h


def cmd_certify(args) -> int:
    budget = Budget(args.budget)
    g, h = _read_factors(args)
    s = parse_s_spec(args.s, g, h)
    cert = certify(g, h, s, budget)
    err = cert.verify()
    if err is not None:
        print(f"internal error: constructed certificate invalid: {err}",
              file=sys.stderr)
        return EXIT_INTERNAL
    _write_out(dump_document(certificate_document(cert)), args.out)
    print(f"provenance {cert.provenance}; bound {cert.claimed_bound} "
          f"({len(cert.bundle)} trees)", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        with open(args.cert_file) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {args.cert_file}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from None
    g, h, cert = load_certificate_document(doc)
    err = cert.verify()
    if err is not None:
        print(f"FAIL: {err}")
        return EXIT_VERIFY
    print(f"ok: {len(cert.bundle)} trees, bound {cert.claimed_bound}, "
          f"provenance {cert.provenance}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    budget = Budget(args.budget)
    g, h = _read_factors(args)
    numbers = []
    for name, f in (("G", g), ("H", h)):
        kappa, k3, delta = vertex_connectivity(f), factor_kappa3(f, budget), f.min_degree()
        print(f"{name}: n={f.n} kappa={kappa} kappa3={k3} delta={delta}")
        numbers.append((kappa, k3, delta))
    (kg, k3g, dg), (kh, k3h, dh) = numbers
    best = lower_bound_theorem14(kg, k3g, dg, kh, k3h, dh)
    print(f"three-way-min lower bound: {best}")
    for tag, kf, k3f, l in (("G + l", kg, k3g, kh), ("H + l", kh, k3h, kg)):
        val = lower_bound_theorem15(kf, k3f, l)
        if val is not None:
            print(f"range lower bound ({tag}, l={l}): {val}")
            best = max(best, val)
    if g.n * h.n <= EXACT_PRODUCT_LIMIT:
        try:
            exact, _, _ = kappa_k(cartesian_product(g, h), 3, budget, use_symmetry=True)
        except BudgetExhausted:
            print("exact kappa3: budget exhausted")
            return EXIT_BUDGET
        verdict = "tight" if exact == best else "slack"
        print(f"exact kappa3 = {exact} ({verdict})")
    return EXIT_OK


# -- entry point ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeconn",
        description="Generalized 3-connectivity of Cartesian products: "
        "exact values and constructive lower-bound certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a named-family graph as edge-list text")
    p.add_argument("family", choices=sorted(graphs._FAMILIES))
    p.add_argument("params", type=int, nargs="+")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("kappa3", help="kappa_3 of one graph")
    p.add_argument("graph_file")
    p.add_argument("--mode", choices=["exact", "formula", "bounds"],
                   default="exact")
    p.add_argument("--budget", type=int, default=10**8)
    p.set_defaults(func=cmd_kappa3)

    p = sub.add_parser("certify",
                       help="build and verify an S-tree certificate for G box H")
    p.add_argument("g_file")
    p.add_argument("h_file")
    p.add_argument("--s", required=True,
                   help="terminals as 'u1,v1;u2,v2;u3,v3'")
    p.add_argument("--budget", type=int, default=10**7)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="re-check a certificate document")
    p.add_argument("cert_file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="factor stats and product bounds report")
    p.add_argument("g_file")
    p.add_argument("h_file")
    p.add_argument("--budget", type=int, default=10**8)
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, GraphFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExhausted as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Exception as exc:  # any other fault is internal; exit 1 means "not verified"
        traceback.print_exc()
        print(f"internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

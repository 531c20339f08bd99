"""Per-layer tracing of treeconn from outside the package.

`Tracer.install` wraps the public functions of each layer module, the
private ones the metrics name (`_materialize`, `_fallback`), `Graph.__init__`,
`Graph.is_connected`, `Certificate.verify` and `Budget.tick`, and
`uninstall` puts the originals back.  Nothing under src/ is edited.  A name
imported with `from … import` is a second reference to the same function,
so every module (and module-level dict, such as the certificates dispatch
table) that holds the original is patched.

Each call records a span (name, start, end, parent, operation).  A layer's
self time is its spans' time minus the time of spans nested inside them;
budget ticks go to the layer of the innermost open span.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("graphs", "connectivity", "bundles", "packing", "certificates", "cli")
# One-line helpers called in inner loops; a span would cost more than the
# call, so their time stays with the caller.
SKIP = {"flat_id", "unflat_id", "path_edges", "check_path"}
PRIVATE = {"certificates": {"_materialize", "_fallback"}}
METHODS = [
    ("graphs", "Graph", "__init__"),
    ("graphs", "Graph", "is_connected"),
    ("certificates", "Certificate", "verify"),
]
MAX_SPANS = 200_000


class Tracer:
    def __init__(self, tc):
        self.tc = tc
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.stack: list[list] = []  # open calls: [layer, child seconds, span index]
        self.op = [-1]  # index of the operation being run, set by the caller
        self.self_s: dict[str, float] = defaultdict(float)  # by layer and by function
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._seen: dict[str, set] = defaultdict(set)
        self._undo: list = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = getattr(self.tc, layer)
            for attr, fn in list(vars(mod).items()):
                public = not attr.startswith("_") or attr in PRIVATE.get(layer, ())
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and public
                    and attr not in SKIP
                    and not inspect.isgeneratorfunction(fn)
                ):
                    wrapped[id(fn)] = self._wrap(layer, f"{layer}.{attr.lstrip('_')}", fn)
        for mod in vars(self.tc).values():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped:
                    self._set(mod, attr, wrapped[id(val)])
                elif isinstance(val, dict):
                    for key, fn in list(val.items()):
                        if id(fn) in wrapped:
                            self._undo.append((val.__setitem__, key, fn))
                            val[key] = wrapped[id(fn)]
        for layer, cls_name, meth in METHODS:
            cls = getattr(getattr(self.tc, layer), cls_name)
            fn = vars(cls)[meth]
            self._set(cls, meth, self._wrap(layer, f"{layer}.{cls_name}.{meth}", fn))
        budget = self.tc.errors.Budget
        self._set(budget, "tick", self._tick(vars(budget)["tick"]))

    def uninstall(self) -> None:
        while self._undo:
            setter, key, original = self._undo.pop()
            setter(key, original)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((functools.partial(setattr, owner), attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, self_s, calls, op = self.spans, self.stack, self.self_s, self.calls, self.op
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1][2] if stack else -1
            idx = len(spans) if len(spans) < MAX_SPANS else -1
            frame = [layer, 0.0, idx]
            start = clock()
            if idx >= 0:
                spans.append([name, start, start, parent, op[0]])
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                own = dur - frame[1]
                self_s[layer] += own
                self_s[name] += own
                if idx >= 0:
                    spans[idx][2] = end
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _tick(self, original):
        stack, counts = self.stack, self.counts

        def tick(budget, n: int = 1) -> None:
            counts[(stack[-1][0] if stack else "none") + ".ticks"] += n
            return original(budget, n)

        return tick

    def new_pass(self) -> None:
        """Repeats are counted within one pass over the workload's inputs;
        a pass repeating the previous one is the benchmark's loop, not work
        the program repeats."""
        self._seen.clear()

    # -- counters taken at the layer boundary ------------------------------

    def _on_graphs_Graph___init__(self, args, result) -> None:
        self.counts["graphs.edges_built"] += len(args[0].edges)

    def _on_connectivity_max_disjoint_paths(self, args, result) -> None:
        self.counts["connectivity.paths_found"] += len(result)

    def _on_connectivity_fan(self, args, result) -> None:
        self.counts["connectivity.paths_found"] += len(result.paths) if result else 0

    def _repeat(self, name: str, graph) -> None:
        seen = self._seen[name]
        self.counts[name + ".repeats"] += graph in seen
        seen.add(graph)

    def _on_connectivity_vertex_connectivity(self, args, result) -> None:
        self._repeat("connectivity.vertex_connectivity", args[0])

    def _on_packing_kappa_k(self, args, result) -> None:
        self._repeat("packing.kappa_k", args[0])

    def _on_packing_pack_trees(self, args, result) -> None:
        self.counts["packing.pack_trees.hits"] += result is not None

    def _on_bundles_find_reduced_bundle(self, args, result) -> None:
        self.counts["bundles.find_reduced_bundle.hits"] += result is not None

    def _on_certificates_certify(self, args, result) -> None:
        self.counts["certificates.fallbacks"] += result.provenance == "search-fallback"

    # -- results -----------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per pass over the workload's operations."""
        c, n, s = self.counts, self.calls, self.self_s

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (s[layer] / passes, "s")
        per_pass = {
            "graphs.graph_builds": n["graphs.Graph.__init__"],
            "graphs.edges_built": c["graphs.edges_built"],
            "connectivity.flow_calls": n["connectivity.max_disjoint_paths"] + n["connectivity.fan"],
            "connectivity.paths_found": c["connectivity.paths_found"],
            "connectivity.vertex_connectivity.calls": n["connectivity.vertex_connectivity"],
            "packing.ticks": c["packing.ticks"],
            "packing.pack_trees.calls": n["packing.pack_trees"],
            "packing.kappa_k.calls": n["packing.kappa_k"],
            "bundles.ticks": c["bundles.ticks"],
            "bundles.find_reduced_bundle.calls": n["bundles.find_reduced_bundle"],
            "certificates.certify.calls": n["certificates.certify"],
        }
        out.update({k: (v / passes, "count") for k, v in per_pass.items()})
        for name in ("connectivity.vertex_connectivity", "packing.kappa_k"):
            out[f"{name}.repeat_ratio"] = (ratio(c[name + ".repeats"], n[name]), "ratio")
        for name in ("packing.pack_trees", "bundles.find_reduced_bundle"):
            out[f"{name}.hit_ratio"] = (ratio(c[name + ".hits"], n[name]), "ratio")
        out["certificates.fallback_ratio"] = (
            ratio(c["certificates.fallbacks"], n["certificates.certify"]), "ratio")
        for metric, fn in (
            ("graphs.cartesian_product.self_s", "graphs.cartesian_product"),
            ("graphs.parse_edge_list.self_s", "graphs.parse_edge_list"),
            ("packing.verify_bundle.self_s", "packing.verify_bundle"),
            ("certificates.materialize.self_s", "certificates.materialize"),
            ("certificates.verify.self_s", "certificates.Certificate.verify"),
            ("cli.load_document.self_s", "cli.load_certificate_document"),
            ("cli.dump_document.self_s", "cli.dump_document"),
        ):
            out[metric] = (s[fn] / passes, "s")
        return out

    def write_spans(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "op": op}) + "\n")

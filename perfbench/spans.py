"""Span tracing of dclat's layers, installed from outside the library.

A layer is one module of ``src/dclat``.  ``Tracer.prepare`` wraps every
public module-level function of each layer (and the two structure
constructors); ``enable`` rebinds each wrapper wherever the original is
bound in a ``dclat`` module namespace, so calls between layers are
intercepted too, and ``disable`` puts the originals back.
Each call becomes a span: name, start, end, parent span and operation id.
Spans stay in memory and are written out once, at the end of the run.

Self time is a span's duration minus the time its child spans cover.  Work
a function does inline, without calling another layer's public function,
cannot be split further and stays with that function's own layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "dcp",
    "structures",
    "birkhoff",
    "lattice",
    "paths",
    "isomorphism",
    "substructure",
    "cli",
    "generators",
)

# Functions whose layer is not the module they are defined in.
LAYER_OF = {"dcp.document_to_structure": "structures"}

# Named inclusive timings: the outermost call of any member counts once.
GROUPS = {
    "dcp.parse_s": ("dcp.parse_document",),
    "dcp.emit_s": ("dcp.emit",),
    "structures.build_s": (
        "dcp.document_to_structure",
        "structures.VertexColoredPoset",
        "structures.EdgeColoredPoset",
        "structures.dual",
        "structures.recolor",
        "structures.disjoint_sum",
        "structures.cartesian_product",
    ),
    "birkhoff.build_s": ("birkhoff.build_J", "birkhoff.build_M"),
    "birkhoff.extract_s": ("birkhoff.extract_j", "birkhoff.extract_m"),
    "birkhoff.suite_s": (
        "birkhoff.verify_fundamental",
        "birkhoff.verify_fundamental_poset",
        "birkhoff.verify_transform_identities",
    ),
    "lattice.as_lattice_s": ("lattice.as_lattice",),
    "lattice.predicates_s": ("lattice.is_modular", "lattice.is_distributive_fast", "lattice.is_boolean"),
    "lattice.distributive_cubic_s": ("lattice.is_distributive",),
    "paths.rank_s": ("paths.compute_rank",),
    "paths.diamond_s": ("paths.check_diamond_colored",),
    "paths.balanced_s": ("paths.check_topographically_balanced",),
    "paths.distance_s": ("paths.distance",),
    "isomorphism.find_s": ("isomorphism.find_isomorphism",),
    "substructure.j_components_s": ("substructure.j_components",),
    "substructure.subordinates_s": (
        "substructure.subordinate_of",
        "substructure.enumerate_subordinates",
        "substructure.subordinates_by_definition",
    ),
    "cli.main_s": ("cli.main",),
    "generators.generate_s": (
        "generators.generate",
        "generators.chain_poset",
        "generators.antichain_poset",
        "generators.boolean_lattice",
        "generators.random_poset",
    ),
}

COUNTS = (
    "dcp.bytes",
    "structures.elements",
    "structures.covers",
    "birkhoff.ideals",
    "lattice.pairs",
    "lattice.table_cells",
    "paths.distance_calls",
    "substructure.components",
    "cli.commands",
    "cli.stdout_bytes",
)

CONSTRUCTORS = ("VertexColoredPoset", "EdgeColoredPoset")

UNSPLIT_NOTE = (
    "self time of a composite call (cli.main, the birkhoff and substructure "
    "suites) keeps the work it does inline, outside other layers' public functions"
)


def _count_result(tracer: "Tracer", name: str, args, result) -> None:
    """Work counts read off a call's arguments and result."""
    if name in ("birkhoff.build_J", "birkhoff.build_M"):
        tracer.count("birkhoff.ideals", len(result))
    elif name == "lattice.as_lattice":
        n = len(args[0])
        tracer.count("lattice.pairs", n * (n - 1) // 2)
        for table in (getattr(result, "_join", None), getattr(result, "_meet", None)):
            if isinstance(table, list):
                tracer.count("lattice.table_cells", sum(len(row) for row in table))
    elif name == "paths.distance":
        tracer.count("paths.distance_calls", 1)
    elif name == "substructure.j_components":
        tracer.count("substructure.components", len(result.components))
    elif name == "dcp.parse_document":
        tracer.count("dcp.bytes", len(args[0].encode()))
    elif name == "dcp.emit":
        tracer.count("dcp.bytes", len(result.encode()))
    elif name == "cli.main":
        tracer.count("cli.commands", 1)


class Tracer:
    """In-memory span recorder with per-layer self time and named groups."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.spans: list[tuple[int, int, float, float, int, object]] = []
        self._stack: list[list] = []  # [span id, name id, start, child time]
        self._next_id = 1
        self.op_id: object = None
        self._group_of: dict[str, list[str]] = {}
        for group, members in GROUPS.items():
            for m in members:
                self._group_of.setdefault(m, []).append(group)
        self._group_depth = {g: 0 for g in GROUPS}
        self._patches: list[tuple[object, str, object, object]] = []
        self.active = False
        self.reset()

    def reset(self) -> None:
        """Clear the accumulated metrics; recorded spans are kept."""
        self.busy = {layer: 0.0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self.group_s = {g: 0.0 for g in GROUPS}
        self.counts = {c: 0 for c in COUNTS}
        self.other_self_s = 0.0

    def count(self, key: str, n: int) -> None:
        if self.active:
            self.counts[key] += n

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name: str) -> list:
        frame = [self._next_id, self._nid(name), time.perf_counter(), 0.0]
        self._next_id += 1
        for g in self._group_of.get(name, ()):
            self._group_depth[g] += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, layer: str | None) -> None:
        end = time.perf_counter()
        span_id, nid, start, child = frame
        self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((span_id, nid, start, end, parent[0] if parent else 0, self.op_id))
        if layer is None:
            self.other_self_s += dur - child
        else:
            self.busy[layer] += dur - child
            self.calls[layer] += 1
        for g in self._group_of.get(self.names[nid], ()):
            depth = self._group_depth[g]
            if depth == 1:
                self.group_s[g] += dur
            self._group_depth[g] = depth - 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span that belongs to no layer: the benchmark's own code."""
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame, None)

    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame, layer)
            _count_result(tracer, name, args, result)
            return result

        return traced

    def _wrap_init(self, init, cls, name: str, layer: str):
        tracer = self

        @functools.wraps(init)
        def traced_init(obj, *args, **kwargs):
            frame = tracer.enter(name)
            try:
                init(obj, *args, **kwargs)
            finally:
                tracer.exit(frame, layer)
            if type(obj) is cls:
                tracer.count("structures.elements", len(obj.vertices))
                tracer.count("structures.covers", len(obj.covers))

        return traced_init

    def prepare(self) -> None:
        """Build a wrapper for every public function of every layer of the imported dclat.

        Nothing is traced until ``enable``; ``disable`` restores the originals.
        """
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"dclat.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                replaced[obj] = self._wrap(obj, name, LAYER_OF.get(name, layer))
        self._patches = []  # (owner, attribute, original, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dclat" or mod_name.startswith("dclat.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._patches.append((mod, attr, obj, replaced[obj]))
        structures = importlib.import_module("dclat.structures")
        for cls_name in CONSTRUCTORS:
            cls = getattr(structures, cls_name)
            wrapper = self._wrap_init(cls.__init__, cls, f"structures.{cls_name}", "structures")
            self._patches.append((cls, "__init__", cls.__init__, wrapper))

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.active = True

    def disable(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.active = False

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = self.busy[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        out.update(self.group_s)
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        """Write every recorded span as one JSON line each, after a header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "op"],
                                 "note": UNSPLIT_NOTE}) + "\n")
            names = self.names
            for span_id, nid, start, end, parent, op in self.spans:
                fh.write(json.dumps([span_id, names[nid], start, end, parent, op]) + "\n")

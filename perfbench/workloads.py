"""Seeded inputs, operations and correctness oracles of the three workloads.

Every workload turns ``--seed`` into DCP text (and, for ``generic-check``,
DCP files) during set-up.  Each operation starts from that text, so it
builds fresh structures and no ``LatticeView`` cache survives from one
operation to the next.  The operation shapes and sizes are fixed; the seed
chooses colors, random posets and which edge a recoloring breaks, so the
cost of a run stays comparable from seed to seed.

Calls go through module attributes (``d.birkhoff.build_J``) so that the
traced run, which rebinds those attributes, sees the benchmark's calls too.

``Op.step`` names the size step an operation counts towards in the growth
fit: the lattice size on ``ideal-scale``, the ideal-lattice size on
``verify-suites``, and on ``generic-check`` the file's size for its
``check --prop lattice`` command only, the one command every file gets.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass, field
from typing import Callable


class Mismatch(Exception):
    """The program returned a wrong answer."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


@dataclass
class Op:
    """One operation of the closed loop."""

    kind: str
    step: str | None  # size step for the growth fit; None keeps it out of the fit
    elements: int  # lattice elements the operation handles
    run: Callable[[], None]


@dataclass
class Workload:
    rounds_nominal_s: float  # seconds one round takes at this commit on a 2-vCPU 2.1 GHz Xeon VM
    round_ops: Callable[[int], list[Op]]
    scratch: list[str] = field(default_factory=list)  # directories to delete at exit


# -- independent oracles ------------------------------------------------------


def closures(n: int, covers: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """Down-sets and up-sets (each including the vertex) as bitmasks."""
    below = [[] for _ in range(n)]
    above = [[] for _ in range(n)]
    for a, b in covers:
        below[b].append(a)
        above[a].append(b)

    def close(adj):
        out = [0] * n
        done = [False] * n

        def visit(v):
            if not done[v]:
                m = 1 << v
                for w in adj[v]:
                    m |= visit(w)
                out[v] = m
                done[v] = True
            return out[v]

        for v in range(n):
            visit(v)
        return out

    return close(below), close(above)


def count_ideals(n: int, covers: list[tuple[int, int]]) -> int:
    """Number of order ideals, by splitting on one vertex: without it, or with all below it."""
    down, up = closures(n, covers)
    memo = {0: 1}

    def count(rem: int) -> int:
        got = memo.get(rem)
        if got is None:
            x = (rem & -rem).bit_length() - 1
            got = count(rem & ~up[x]) + count(rem & ~down[x])
            memo[rem] = got
        return got

    return count((1 << n) - 1)


def poset_shape(P) -> tuple[int, list[tuple[int, int]]]:
    idx = {v: i for i, v in enumerate(P.vertices)}
    return len(P.vertices), sorted((idx[a], idx[b]) for a, b in P.covers)


def ideal_count(P) -> int:
    return count_ideals(*poset_shape(P))


SAMPLE_DRAWS = 60  # random posets drawn per sampled input, on every seed


def sampled_poset(d, rng: random.Random, target: int, n_range, p_range, palette):
    """Of ``SAMPLE_DRAWS`` random posets, the one whose ideal count is closest to ``target``.

    A fixed number of draws keeps set-up work the same from seed to seed.
    With ``palette`` of several colors, every color must occur, so that suites
    that loop over color subsets do the same amount of work on every seed.
    """
    best = None
    for _ in range(SAMPLE_DRAWS):
        n = rng.randint(*n_range)
        p = rng.uniform(*p_range)
        P = d.generators.random_poset(n, p, rng.randrange(1 << 30), palette)
        if len(set(P.colors.values())) != len(palette):
            continue
        size = ideal_count(P)
        if best is None or abs(size - target) < abs(best[1] - target):
            best = (P, size)
    if best is None:
        raise RuntimeError(f"no random poset with all {len(palette)} colors")
    return best


# Covers of connected posets on m vertices with 2^(m - 1) ideals: a chain of three, and N.
HALF_SHAPES = (((0, 1), (1, 2)), ((0, 2), (1, 2), (1, 3)))


def sparse_poset(d, rng: random.Random, k: int, palette):
    """A poset on k + 1 vertices with exactly 2^k ideals.

    One of ``HALF_SHAPES`` on randomly chosen vertices, the others an
    antichain: as sparse as a poset with that many vertices and ideals gets,
    so its lattice has about as many covers, and costs about as much, as the
    antichain's on k vertices.
    """
    shape = rng.choice(HALF_SHAPES)
    vertices = [f"v{i}" for i in range(k + 1)]
    placed = rng.sample(vertices, len(vertices))
    colors = {v: rng.choice(palette) for v in vertices}
    return d.structures.VertexColoredPoset(vertices, [(placed[a], placed[b]) for a, b in shape], colors)


def colored_antichain(d, rng: random.Random, k: int, palette):
    P = d.generators.antichain_poset(k)
    colors = {v: rng.choice(palette) for v in P.vertices}
    return d.structures.VertexColoredPoset(P.vertices, [], colors)


def capture(d, argv: list[str], tracer=None) -> tuple[int, str]:
    """Run one CLI command with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = d.cli.main(argv)
    text = out.getvalue()
    if tracer is not None:
        tracer.count("cli.stdout_bytes", len(text.encode()))
    return code, text


# -- ideal-scale ----------------------------------------------------------------

# log2 of lattice size -> instances per round.  The counts put the median
# operation well inside the 2^8 group and the tail well inside the 2^9 group.
# Each step's pool holds two rounds of instances, colored antichains and
# sparse posets alternating, so the mix and the lattice sizes are the same on
# every seed.
IDEAL_STEPS = {8: 18, 9: 8, 10: 2, 11: 1}
IDEAL_STEPS_SMOKE = {4: 1, 5: 1, 6: 1}


def ideal_scale(d, seed: int, smoke: bool, tracer=None, scratch_root=None) -> Workload:
    rng = random.Random(seed)
    steps = IDEAL_STEPS_SMOKE if smoke else IDEAL_STEPS
    pools: dict[int, list[tuple[str, int, int]]] = {}
    for k, per_round in steps.items():
        pool = []
        for j in range(2 * per_round):
            palette = (1, 2, 3)[: rng.choice((2, 3))]
            if j % 2 == 0:
                P = colored_antichain(d, rng, k, palette)
            else:
                P = sparse_poset(d, rng, k, palette)
            pool.append((d.dcp.emit(P), ideal_count(P), len(P.vertices)))
        pools[k] = pool

    def instance(text: str, size: int, n: int) -> Callable[[], None]:
        def run():
            P = d.dcp.parse(text)
            il = d.birkhoff.build_J(P)
            expect(len(il.masks) == len(il.lattice.vertices) == size, "ideal count differs from lattice size")
            view = d.lattice.as_lattice(il.lattice)
            expect(d.lattice.is_modular(view), "ideal lattice reported non-modular")
            expect(d.lattice.is_distributive_fast(view), "ideal lattice reported non-distributive")
            expect(d.paths.check_diamond_colored(il.lattice).ok, "ideal lattice reported not diamond-colored")
            expect(len(view.join_irreducibles()) == view.length == n, "|J(L)| differs from the length")
            extracted = d.birkhoff.extract_j(view)
            expect(d.isomorphism.isomorphic(extracted.poset, P), "join irreducibles not isomorphic to source")
            ml = d.birkhoff.build_M(P)
            expect(len(ml.masks) == len(ml.lattice.vertices) == size, "filter count differs from lattice size")
            meets = d.birkhoff.extract_m(ml)
            expect(d.isomorphism.isomorphic(meets.poset, P), "meet irreducibles not isomorphic to source")

        return run

    def round_ops(r: int) -> list[Op]:
        ops = []
        for k, per_round in steps.items():
            pool = pools[k]
            for j in range(per_round):
                text, size, n = pool[(r * per_round + j) % len(pool)]
                ops.append(Op("pipeline", f"2^{k}", 2 * size, instance(text, size, n)))
        return ops

    return Workload(12.0, round_ops)


# -- generic-check ----------------------------------------------------------------


def _edge_chain(d, n: int, color: int):
    vertices = [f"c{i}" for i in range(n + 1)]
    return d.structures.EdgeColoredPoset(vertices, [(vertices[i], vertices[i + 1], color) for i in range(n)])


def _small(d, kind: str):
    S = d.structures.EdgeColoredPoset
    if kind == "m3":
        return S(["bot", "a", "b", "c", "top"],
                 [("bot", "a", 1), ("bot", "b", 1), ("bot", "c", 1),
                  ("a", "top", 1), ("b", "top", 1), ("c", "top", 1)])
    if kind == "n5":
        return S(["bot", "a", "b", "c", "top"],
                 [("bot", "a", 1), ("a", "c", 1), ("c", "top", 1), ("bot", "b", 1), ("b", "top", 1)])
    return S(["bot", "a", "b", "c", "d", "top"],  # hexagon: ranked, not modular
             [("bot", "a", 1), ("a", "c", 1), ("c", "top", 1),
              ("bot", "b", 1), ("b", "d", 1), ("d", "top", 1)])


# Exit codes of check --prop for each property, by how the input was built.
PROPS = ("ranked", "diamond", "balanced", "lattice", "modular", "distributive", "boolean")
EXPECTED = {
    "m3": dict(ranked=0, diamond=0, balanced=0, lattice=0, modular=0, distributive=1, boolean=1),
    "n5": dict(ranked=1, diamond=0, balanced=1, lattice=0, modular=1, distributive=1, boolean=1),
    "hex": dict(ranked=0, diamond=0, balanced=1, lattice=0, modular=1, distributive=1, boolean=1),
    "distributive": dict(ranked=0, diamond=0, balanced=0, lattice=0, modular=0, distributive=0, boolean=1),
}

# (family, Boolean rank, edges of a chain factor).  m3, n5 and hex are
# multiplied by a Boolean lattice (base lattice edges carry color 1);
# "boolean" is a Boolean lattice, times a chain of two or more edges if any.
GENERIC_FILES = [
    ("m3", 5, 0), ("n5", 5, 0), ("hex", 5, 0), ("boolean", 7, 0),
    ("m3", 6, 0), ("n5", 6, 0), ("hex", 6, 0), ("m3-broken", 6, 0),
    ("boolean", 8, 0), ("boolean", 6, 3), ("random", 8, 0),
    ("hex", 4, 2),
]
GENERIC_FILES_SMOKE = [("m3", 1, 0), ("boolean", 2, 0), ("n5", 2, 0), ("m3-broken", 2, 0), ("random", 4, 0), ("hex", 2, 1)]


def generic_check(d, seed: int, smoke: bool, tracer=None, scratch_root=None) -> Workload:
    rng = random.Random(seed)
    folder = os.path.join(scratch_root, f"generic-{os.getpid()}-{rng.randrange(1 << 30)}")
    os.makedirs(folder, exist_ok=True)
    files = []  # (path, size, expected exit codes, extra commands)
    for idx, (family, rank, chain) in enumerate(GENERIC_FILES_SMOKE if smoke else GENERIC_FILES):
        extra = []
        if family == "random":
            # a distributive edge-lattice emitted from build_J, at most 2^rank elements
            P, _ = sampled_poset(d, rng, 3 << (rank - 2), (rank, rank + 4), (0.05, 0.4), (1, 2, 3))
            L = d.birkhoff.build_J(P).lattice
            expected = dict(EXPECTED["distributive"], boolean=0 if not P.covers else 1)
            colors = sorted(P.colors.values())
            extra = [(["birkhoff", "--op", op], ("poset", len(P.vertices), colors)) for op in "jm"]
        else:
            # generator 0 alone carries color 5, so components along {5} are 2-element chains
            gen_colors = [5] + [rng.choice((2, 3, 4)) for _ in range(rank - 1)]
            gens = d.structures.VertexColoredPoset(
                [f"g{i}" for i in range(rank)], [], {f"g{i}": c for i, c in enumerate(gen_colors)}
            )
            L = d.birkhoff.build_J(gens).lattice
            chain_color = rng.choice((2, 3, 4))
            if family == "boolean":
                # B_rank times a chain of `chain` edges: distributive, Boolean only without the chain
                expected = dict(EXPECTED["distributive"], boolean=1 if chain else 0)
                colors = sorted(gen_colors + [chain_color] * chain)
                extra = [(["birkhoff", "--op", op], ("poset", rank + chain, colors)) for op in "jm"]
                extra.append((["components", "--colors", "5"], ("components", (1 << (rank - 1)) * (chain + 1), 2)))
            else:
                base = family.split("-")[0]
                L = d.structures.cartesian_product(_small(d, base), L)
                expected = EXPECTED[base]
                if base == "m3" and not chain:
                    extra.append((["components", "--colors", "1"], ("components", 1 << rank, 5)))
            if chain:
                L = d.structures.cartesian_product(L, _edge_chain(d, chain, chain_color))
            if family.endswith("-broken"):
                # a fresh color on one edge breaks every diamond through that edge
                covers = sorted(L.covers, key=lambda e: (L.index_of(e[0]), L.index_of(e[1])))
                hit = rng.randrange(len(covers))
                covers[hit] = (covers[hit][0], covers[hit][1], 9)
                L = d.structures.EdgeColoredPoset(L.vertices, covers)
                expected = dict(expected, diamond=1)
                extra = []
        path = os.path.join(folder, f"f{idx}-{family}.dcp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(d.dcp.emit(L))
        files.append((path, len(L.vertices), expected, extra))

    def command(argv: list[str], want_code: int, check=None) -> Callable[[], None]:
        def run():
            code, out = capture(d, argv, tracer)
            expect(code == want_code, f"{' '.join(argv)}: exit {code}, expected {want_code}")
            expect(bool(out), f"{' '.join(argv)}: no output")
            if check is not None:
                check(out)

        return run

    def poset_check(n: int, colors: list[int]):
        def check(out: str):
            lines = out.splitlines()
            expect(lines[0] == "type vertex-poset", "birkhoff output is not a vertex-poset")
            got = sorted(int(line.split()[3]) for line in lines if line.startswith("vertex "))
            expect(got == colors and len(got) == n, "irreducible poset has the wrong vertices")

        return check

    def components_check(count: int, size: int):
        def check(out: str):
            lines = [line for line in out.splitlines() if line.startswith("component ")]
            expect(len(lines) == count, f"{len(lines)} components, expected {count}")
            expect(all(f": size {size}," in line for line in lines), "component of the wrong size")

        return check

    def round_ops(r: int) -> list[Op]:
        ops = []
        for path, size, expected, extra in files:
            for prop in PROPS:
                # the growth fit uses the lattice validation, which every file gets, one step per size
                step = str(size) if prop == "lattice" else None
                ops.append(Op(f"check-{prop}", step, size, command(["check", path, "--prop", prop], expected[prop])))
            for argv, (what, a, b) in extra:
                check = poset_check(a, b) if what == "poset" else components_check(a, b)
                ops.append(Op(argv[0], None, size, command(argv[:1] + [path] + argv[1:], 0, check)))
        return ops

    return Workload(9.0, round_ops, scratch=[folder])


# -- verify-suites ----------------------------------------------------------------

VERIFY_TARGETS = {"24": 24, "48": 48, "96": 96}  # ideal-lattice size steps
VERIFY_PER_ROUND = 3  # posets per step and round
VERIFY_POOL = 15  # posets per step; distinct across five rounds
VERIFY_BOOLEAN = (6, 7)
SIGMA = {1: 2, 2: 3, 3: 1}


def verify_suites(d, seed: int, smoke: bool, tracer=None, scratch_root=None) -> Workload:
    rng = random.Random(seed)
    targets = {"8": 8, "12": 12, "16": 16} if smoke else VERIFY_TARGETS
    n_range = (3, 6) if smoke else (6, 12)
    pool_size = 1 if smoke else VERIFY_POOL
    per_round = 1 if smoke else VERIFY_PER_ROUND
    palette = (1, 2, 3)
    # Q: a two-element chain beside one more vertex (six ideals), seeded colors
    Q = d.structures.VertexColoredPoset(
        ["q0", "q1", "q2"], [("q0", "q1")], {f"q{i}": rng.choice(palette) for i in range(3)}
    )
    q_text = d.dcp.emit(Q)
    pools: dict[str, list[tuple[str, str, int, list[int]]]] = {}
    for step, target in targets.items():
        pool = []
        for _ in range(pool_size):
            P, size = sampled_poset(d, rng, target, n_range, (0.1, 0.6), palette)
            counts = {c: sum(1 for v in P.vertices if P.colors[v] == c) for c in palette}
            rare = min(palette, key=lambda c: (counts[c], c))  # keeps the definition search small
            pool.append((d.dcp.emit(P), d.dcp.emit(d.birkhoff.build_J(P).lattice), size, [rare]))
        pools[step] = pool
    booleans = []
    for k in ((3,) if smoke else VERIFY_BOOLEAN):
        gens = d.structures.VertexColoredPoset(
            [f"g{i}" for i in range(k)], [], {f"g{i}": rng.choice(palette) for i in range(k)}
        )
        L = d.birkhoff.build_J(gens).lattice
        booleans.append((d.dcp.emit(L), 1 << k, sorted(set(gens.colors.values()))))

    def suite(fn) -> Callable[[], None]:
        def run():
            report = fn()
            expect(report.passed, f"{report.name}: failed {report.failures()}")

        return run

    def components(text: str, size: int, colors: list[int]) -> Callable[[], None]:
        def run():
            L = d.dcp.parse(text)
            decomp = d.substructure.j_components(L, colors, verify=True)
            expect(decomp.sizes() == (size,), "Boolean lattice split along all its colors")

        return run

    def round_ops(r: int) -> list[Op]:
        ops = []
        for step, pool in pools.items():
            for j in range(per_round):
                p_text, l_text, size, rare = pool[(r * per_round + j) % len(pool)]
                ops += [
                    Op("fundamental-poset", step, size,
                       suite(lambda t=p_text: d.birkhoff.verify_fundamental_poset(d.dcp.parse(t)))),
                    Op("fundamental", step, size,
                       suite(lambda t=l_text: d.birkhoff.verify_fundamental(d.dcp.parse(t)))),
                    Op("transform-identities", step, size,
                       suite(lambda t=p_text: d.birkhoff.verify_transform_identities(d.dcp.parse(t), d.dcp.parse(q_text), SIGMA))),
                    Op("component-structure", step, size,
                       suite(lambda t=l_text: d.substructure.verify_component_structure(d.dcp.parse(t)))),
                    Op("subordinates", step, size,
                       suite(lambda t=p_text, c=rare: d.substructure.verify_subordinate_correspondence(d.dcp.parse(t), c))),
                ]
        for text, size, colors in booleans:
            ops.append(Op("j-components", None, size, components(text, size, colors)))
        return ops

    return Workload(5.8, round_ops)


WORKLOADS = {
    "ideal-scale": ideal_scale,
    "generic-check": generic_check,
    "verify-suites": verify_suites,
}

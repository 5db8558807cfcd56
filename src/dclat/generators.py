"""Reproducible instance generators for posets and small lattices."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InvalidSpec
from .structures import EdgeColoredPoset, Structure, VertexColoredPoset, _bits, _reduced_ids


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate: chain | antichain | boolean | random."""

    kind: str
    n: int
    colors: tuple[int, ...] = (1,)
    p: float = 0.0
    seed: int | None = None

    def validate(self) -> None:
        if self.kind not in ("chain", "antichain", "boolean", "random"):
            raise InvalidSpec(f"unknown generator kind {self.kind!r}")
        if self.n < 0:
            raise InvalidSpec("n must be non-negative")
        if not self.colors:
            raise InvalidSpec("need at least one color")
        if any((not isinstance(c, int)) or c < 0 for c in self.colors):
            raise InvalidSpec("colors must be non-negative integers")
        if not 0.0 <= self.p <= 1.0:
            raise InvalidSpec("edge probability must lie in [0, 1]")


def chain_poset(n: int, colors: tuple[int, ...] = (1,)) -> VertexColoredPoset:
    """Chain with n edges (n+1 vertices), colors cycling through the palette."""
    vertices = [f"c{i}" for i in range(n + 1)]
    covers = [(f"c{i}", f"c{i+1}") for i in range(n)]
    return VertexColoredPoset(vertices, covers, {v: colors[i % len(colors)] for i, v in enumerate(vertices)})


def antichain_poset(n: int, color: int = 1) -> VertexColoredPoset:
    """n pairwise incomparable vertices of one color."""
    vertices = [f"a{i}" for i in range(n)]
    return VertexColoredPoset(vertices, [], {v: color for v in vertices})


def boolean_lattice(n: int, color: int = 1) -> EdgeColoredPoset:
    """Subset lattice on n generators: the ideal lattice of an antichain."""
    from .birkhoff import build_J

    return build_J(antichain_poset(n, color)).lattice


def random_poset(n: int, p: float, seed: int | None, colors: tuple[int, ...] = (1, 2, 3)) -> VertexColoredPoset:
    """Random vertex-colored poset, reproducible from the seed.

    Samples a uniform random linear order, keeps each compatible pair as a
    relation with probability p, reduces transitively, and colors vertices
    uniformly from the palette.
    """
    rng = random.Random(seed)
    order = list(range(n))  # vertex id at each position of the linear order
    rng.shuffle(order)
    # each relation pair runs forward along the order, so positions are a linear extension
    later = [[j for j in range(i + 1, n) if rng.random() < p] for i in range(n)]
    cover_mask = _reduced_ids(later, range(n))
    pairs = [(order[i], order[j]) for i in range(n) for j in _bits(cover_mask[i])]
    vertex_colors = [rng.choice(colors) for _ in range(n)]
    return VertexColoredPoset._from_ids([f"v{i}" for i in range(n)], pairs, vertex_colors)


def generate(spec: GeneratorSpec) -> Structure:
    """Build the structure a GeneratorSpec describes."""
    spec.validate()
    if spec.kind == "chain":
        return chain_poset(spec.n, spec.colors)
    if spec.kind == "antichain":
        return antichain_poset(spec.n, spec.colors[0])
    if spec.kind == "boolean":
        return boolean_lattice(spec.n, spec.colors[0])
    return random_poset(spec.n, spec.p, spec.seed, spec.colors)

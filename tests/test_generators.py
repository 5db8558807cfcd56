"""Generator shapes, determinism, and validation."""

import hashlib
import json
import pathlib

import pytest

from dclat import (
    GeneratorSpec,
    InvalidSpec,
    antichain_poset,
    as_lattice,
    boolean_lattice,
    chain_poset,
    generate,
    random_poset,
)
from dclat.dcp import emit


def test_chain_zero_is_single_vertex():
    assert len(generate(GeneratorSpec("chain", 0))) == 1


def test_chain_counts():
    p = chain_poset(4, (1, 2))
    assert len(p) == 5 and len(p.covers) == 4


def test_antichain_has_no_covers():
    p = antichain_poset(5, color=2)
    assert len(p) == 5 and not p.covers and set(p.colors.values()) == {2}


def test_boolean_sizes():
    for n in range(7):
        assert len(boolean_lattice(n)) == 2**n


def test_boolean_is_lattice():
    as_lattice(boolean_lattice(4))


def test_random_deterministic():
    a = generate(GeneratorSpec("random", 6, colors=(1, 2), p=0.3, seed=42))
    b = generate(GeneratorSpec("random", 6, colors=(1, 2), p=0.3, seed=42))
    assert a == b


def test_random_seed_changes_output():
    outs = {generate(GeneratorSpec("random", 7, p=0.5, seed=s)) for s in range(8)}
    assert len(outs) > 1


def test_random_poset_valid_at_extremes():
    assert not random_poset(5, 0.0, 1).covers
    full = random_poset(5, 1.0, 1)
    # a total order, reduced to a chain
    assert len(full.covers) == 4


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        generate(GeneratorSpec("mystery", 3))
    with pytest.raises(InvalidSpec):
        generate(GeneratorSpec("chain", -1))
    with pytest.raises(InvalidSpec):
        generate(GeneratorSpec("random", 3, p=1.5))
    with pytest.raises(InvalidSpec):
        generate(GeneratorSpec("chain", 3, colors=()))


class TestRandomPosetPinned:
    """``random_poset`` emits the same DCP text for every pinned (n, p, seed, colors).

    The digests were recorded from the label-level implementation; each is
    the first 16 hex digits of the SHA-256 of ``dcp.emit``'s output.
    """

    PINNED = json.loads((pathlib.Path(__file__).parent / "data" / "random_poset_emit.json").read_text())

    def test_grid_emits_the_pinned_text(self):
        assert len(self.PINNED) == 420
        for key, digest in self.PINNED.items():
            n, p, seed, colors = key.split()
            P = random_poset(int(n), float(p), int(seed), tuple(map(int, colors.split(","))))
            assert hashlib.sha256(emit(P).encode()).hexdigest()[:16] == digest, key

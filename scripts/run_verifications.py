#!/usr/bin/env python3
"""Drive every verification suite over seeded random corpora.

    python3 scripts/run_verifications.py [--count N] [--seed S]

Prints one summary line per suite; exits nonzero if anything fails.
"""

import argparse
import pathlib
import random
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))

from corpus import (
    random_distributive_lattices,
    random_modular_lattices,
    random_vertex_posets,
    weak_subposet_pairs,
)
from dclat import (
    as_lattice,
    build_J,
    color_subsets,
    isomorphic,
    verify_component_structure,
    verify_distance_laws,
    verify_fundamental,
    verify_fundamental_poset,
    verify_path_colors_all,
    verify_subordinate_correspondence,
    verify_transform_identities,
    verify_weakening,
)


def timed(label, fn):
    start = time.perf_counter()
    ok, detail = fn()
    status = "PASS" if ok else "FAIL"
    print(f"{status} {label}: {detail} ({time.perf_counter() - start:.2f}s)")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=50)
    ap.add_argument("--seed", type=int, default=20240)
    args = ap.parse_args()
    n, seed = args.count, args.seed
    rng = random.Random(seed)
    results = []

    def roundtrips():
        posets = random_vertex_posets(n, 8, seed=seed, p_range=(0.15, 0.9))
        ok = all(
            verify_fundamental_poset(P).passed
            and verify_fundamental(as_lattice(build_J(P).lattice)).passed
            for P in posets
        )
        return ok, f"{len(posets)} posets, both directions"

    results.append(timed("fundamental roundtrips", roundtrips))

    def distances():
        lattices = random_modular_lattices(n, 64, seed=seed + 1)
        for L in lattices:
            if not verify_distance_laws(L, seed).passed:
                return False, f"distance law failure in a {len(L)}-element lattice"
        pairs = sum(len(L) * (len(L) + 1) // 2 for L in lattices)
        return True, f"{len(lattices)} modular lattices, {pairs} pairs"

    results.append(timed("distance laws", distances))

    def path_colors():
        lattices = random_distributive_lattices(n, 32, seed=seed + 2)
        count = 0
        for L in lattices:
            rs = verify_path_colors_all(as_lattice(L))
            if not all(r.passed for r in rs):
                return False, "color multiset mismatch"
            count += len(rs)
        return True, f"{len(lattices)} lattices, {count} element pairs"

    results.append(timed("ascending path colors", path_colors))

    def components():
        lattices = random_distributive_lattices(max(5, n // 4), 48, seed=seed + 3)
        ok = all(verify_component_structure(as_lattice(L)).passed for L in lattices)
        return ok, f"{max(5, n // 4)} lattices, every color subset"

    results.append(timed("component structure", components))

    def subordinates():
        posets = random_vertex_posets(n, 7, seed=seed + 4, p_range=(0.15, 0.9))
        sweeps = 0
        for P in posets:
            for J in color_subsets(P.colors_used):
                if not verify_subordinate_correspondence(P, J).passed:
                    return False, "correspondence failure"
                sweeps += 1
        return True, f"{len(posets)} posets, {sweeps} sweeps"

    results.append(timed("subordinate correspondence", subordinates))

    def weakenings():
        pairs = weak_subposet_pairs(n, seed=seed + 5)
        for P, Q in pairs:
            agreement, recovery = verify_weakening(P, Q)
            if not agreement.passed:
                return False, "rank/cover disagreement"
            if not (recovery.passed and isomorphic(recovery.details["recovered"], Q)):
                return False, "recovery failure"
        return True, f"{len(pairs)} weakening pairs"

    results.append(timed("weakening roundtrip", weakenings))

    def identities():
        ps = random_vertex_posets(n, 5, seed=seed + 6, p_range=(0.2, 0.9))
        qs = random_vertex_posets(n, 5, seed=seed + 7, p_range=(0.2, 0.9))
        for P, Q in zip(ps, qs):
            used = sorted(P.colors_used | Q.colors_used)
            sigma = {c: rng.choice([1, 2, 3, c]) for c in used}
            if not verify_transform_identities(P, Q, sigma).passed:
                return False, "identity failure"
        return True, f"{len(ps)} (P, Q, sigma) triples, 12 identities each"

    results.append(timed("transform identities", identities))

    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())

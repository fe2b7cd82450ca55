"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from rookmonoids import (
    PartialInjection,
    class_count_formulas,
    compose,
    congruence_lattice,
    conjugation_escape_witness,
    enumerate_ideals,
    enumerate_universe,
    green_partition,
    h_class_group,
    in_unit_group,
    invert,
    is_congruence,
    is_member,
    predicted_size,
    theta,
    verify_classification,
)

from oracles import all_congruences_naive, principal_left, principal_right, principal_twosided


def report(number, name):
    print(f"\n[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_universe_sizes():
    """Exhaustively enumerated universe sizes match the rank-stratum sums."""
    started = time.monotonic()
    expected = {("OR", 2): 4, ("OR", 4): 37, ("SR", 4): 57, ("OR", 6): 541}
    for (family, n), size in expected.items():
        universe = enumerate_universe(family, n)
        assert len(universe) == size
        assert predicted_size(family, n) == size
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"universe enumeration took {elapsed:.1f}s"
    report(1, "universe sizes")


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_criterion_2_counting_formulas(n):
    """Green class counts and sizes match the closed forms; the half-rank
    D size is a comparison (per-class value), not an equality with the
    combined closed form."""
    started = time.monotonic()
    universe = enumerate_universe("OR", n)
    green = green_partition(universe)
    m = n // 2
    formulas = class_count_formulas(m)
    assert green.num_classes("L") == formulas["l_class_count"]
    assert green.num_classes("R") == formulas["r_class_count"]
    assert green.num_classes("H") == formulas["h_class_count"]
    assert green.num_classes("J") == formulas["j_class_count"]
    ranks = universe.ranks
    for rel, key in (("L", "l_class_size_by_rank"), ("R", "r_class_size_by_rank"),
                     ("H", "h_class_size_by_rank")):
        ids = green.ids(rel)
        sizes = np.bincount(ids)
        firsts = np.unique(ids, return_index=True)[1]
        for cid, first in enumerate(firsts):
            assert sizes[cid] == formulas[key][int(ranks[first])]
    per_class = sorted(
        int((green.j_ids == cid).sum())
        for cid, (k, _) in enumerate(green.j_meta)
        if k == m
    )
    assert per_class == [formulas["d_class_size_by_rank"][m]["per_class"]] * 2
    assert sum(per_class) == formulas["d_class_size_by_rank"][m]["combined"]
    for cid, (k, _) in enumerate(green.j_meta):
        if k != m:
            assert int((green.j_ids == cid).sum()) == formulas["d_class_size_by_rank"][k]
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"degree {n} counting took {elapsed:.1f}s"
    if n == 8:
        report(2, "counting formulas, degrees 2 through 8")


def test_criterion_3_principal_ideals():
    """Brute-force one- and two-sided principal ideals match the
    domain/image/rank/type characterizations (the principal_* functions
    assert the match internally before returning)."""
    for n in (2, 4):
        universe = enumerate_universe("OR", n)
        for i in range(len(universe)):
            principal_right(universe, i)
            principal_left(universe, i)
            principal_twosided(universe, i)
    or6 = enumerate_universe("OR", 6)
    rng = random.Random(2024)
    samples = [rng.randrange(len(or6)) for _ in range(1000)]
    for i in samples:
        principal_right(or6, i)
        principal_left(or6, i)
        principal_twosided(or6, i)
    half = [i for i in samples if or6.ranks[i] == 3]
    assert half, "sampling degenerately missed the half-rank stratum"
    report(3, "principal ideal characterizations")


def test_criterion_4_ideals():
    """The named ideals are absorbing at degrees 2, 4, 6, and the only
    other absorbing down-set is the union of the two half-rank ideals."""
    started = time.monotonic()
    for n in (2, 4, 6):
        universe = enumerate_universe("OR", n)
        m = n // 2
        ideals = enumerate_ideals(universe)
        kinds = sorted((d.kind, d.k) for d in ideals)
        expected = sorted(
            [("I_k", k) for k in range(m)]
            + [("I_m_I", None), ("I_m_II", None), ("I_k", n), ("union", None)]
        )
        assert kinds == expected
        assert all(d.kind != "other" for d in ideals)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"ideal enumeration took {elapsed:.1f}s"
    report(4, "ideal inventory plus the reported union")


def test_criterion_5_h_class_groups():
    """Every idempotent H-class carries the predicted group: the symmetric
    group of its rank via the position bijection, the even unit group at
    full rank."""
    from rookmonoids import admissible_subsets

    for n in (4, 6):
        universe = enumerate_universe("OR", n)
        m = n // 2
        for k in range(1, m + 1):
            for points in admissible_subsets(n, k):
                idx = universe.idempotent_index(points)
                group, bijection = h_class_group(universe, idx)
                assert set(group) == set(
                    itertools.permutations(range(1, k + 1))
                )
                values = list(bijection.values())
                assert len(set(values)) == len(values)
                for a in bijection:
                    for b in bijection:
                        assert bijection[universe.product(a, b)] == tuple(
                            bijection[a][x - 1] for x in bijection[b]
                        )
        group, bijection = h_class_group(universe, 1)
        units = {universe.elements[i].images for i in universe.units()}
        assert set(group) == units
        assert len(group) == 2 ** (m - 1) * math.factorial(m)
    report(5, "idempotent H-class groups")


@pytest.mark.parametrize("family,n", [("OR", 2), ("OR", 4), ("SR", 2), ("SR", 4)])
def test_criterion_6_classification(family, n):
    """Full lattice enumeration: every predicted family congruence is in
    the lattice, and for 7 or fewer elements the lattice equals the naive
    all-set-partitions filter."""
    started = time.monotonic()
    universe = enumerate_universe(family, n)
    report_obj = verify_classification(universe)
    assert report_obj.ok
    assert report_obj.predicted_not_found == []
    if len(universe) <= 7:
        naive = all_congruences_naive(universe)
        lattice = congruence_lattice(universe)
        assert [p.key for p in lattice] == [p.key for p in naive]
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"{family}_{n} classification took {elapsed:.1f}s"
    if (family, n) == ("SR", 4):
        report(6, "classification at degrees 2 and 4")


@pytest.mark.parametrize("family,n", [("OR", 6), ("SR", 6)])
def test_criterion_6_stretch_classification_degree_6(family, n):
    started = time.monotonic()
    universe = enumerate_universe(family, n)
    report_obj = verify_classification(universe)
    # Compact values, so that a failure prints these and not the report.
    ok, missed, size = report_obj.ok, len(report_obj.predicted_not_found), report_obj.lattice_size
    tags = [e["tag"] for e in report_obj.found_not_predicted]
    assert ok and missed == 0, f"{missed} predicted congruences not found"
    if family == "SR":
        # the symplectic inventory is complete at degree 6
        assert tags == [], f"{len(tags)} congruences found but not predicted"
        assert size == 16
    else:
        # the unit group is isomorphic to S_4, whose four normal subgroups
        # refine the Rees congruence over the complement of the units
        assert tags == ["rees_over_complement_of_units"] * 4
        assert size == 23
    elapsed = time.monotonic() - started
    assert elapsed < 900.0, f"{family}_{n} classification took {elapsed:.1f}s"
    report(6, f"classification {family}_{n}")


def test_criterion_7_degree_4_specials():
    """The two degree-4 congruences have exactly the declared classes."""
    from rookmonoids import FamilySpec, build_family

    or4 = enumerate_universe("OR", 4)
    ident = 1
    d1 = or4.element_index(PartialInjection(4, (2, 1, 4, 3)))
    d2 = or4.element_index(PartialInjection(4, (3, 4, 1, 2)))
    d12 = or4.element_index(PartialInjection(4, (4, 3, 2, 1)))

    eq1 = build_family(or4, FamilySpec("OR_eq1"))
    assert is_congruence(or4, eq1)
    assert set(eq1.class_of(ident)) == {ident, d1}
    assert set(eq1.class_of(d2)) == {d2, d12}
    assert set(eq1.class_of(0)) == {
        i for i in range(len(or4))
        if or4.ranks[i] < 2 or (or4.ranks[i] == 2 and or4.mtypes[i] == "II")
    }
    for left, right in [
        ([(1, 1), (2, 2)], [(1, 2), (2, 1)]),
        ([(1, 3), (2, 4)], [(1, 4), (2, 3)]),
        ([(3, 1), (4, 2)], [(3, 2), (4, 1)]),
        ([(3, 3), (4, 4)], [(3, 4), (4, 3)]),
    ]:
        a = or4.element_index(PartialInjection.from_pairs(4, left))
        b = or4.element_index(PartialInjection.from_pairs(4, right))
        assert eq1.relates(a, b)

    eq2 = build_family(or4, FamilySpec("OR_eq2"))
    assert is_congruence(or4, eq2)
    assert set(eq2.class_of(ident)) == {ident, d2}
    assert set(eq2.class_of(d1)) == {d1, d12}
    assert set(eq2.class_of(0)) == {
        i for i in range(len(or4))
        if or4.ranks[i] < 2 or (or4.ranks[i] == 2 and or4.mtypes[i] == "I")
    }
    report(7, "degree-4 special congruences")


def test_criterion_8_forcing_properties():
    """Rank of a product is bounded by both factors, and the three
    forcing properties hold across the whole degree-4 lattice with zero
    violations."""
    sr4 = enumerate_universe("SR", 4)
    table = sr4.multiplication_table()
    ranks = sr4.ranks
    assert (ranks[table] <= np.minimum.outer(ranks, ranks)).all()

    or4 = enumerate_universe("OR", 4)
    lattice = congruence_lattice(or4)
    m = 2
    violations = 0
    half_ideals = [
        {i for i in range(len(or4))
         if or4.ranks[i] < m or (or4.ranks[i] == m and or4.mtypes[i] == t)}
        for t in ("I", "II")
    ]
    for part in lattice:
        zero_class = set(part.class_of(0))
        for block in part.classes():
            block_set = set(block)
            ranks_here = sorted({int(or4.ranks[i]) for i in block})
            if len(ranks_here) > 1:
                top = ranks_here[-1]
                if top == m:
                    if not any(h <= block_set for h in half_ideals):
                        violations += 1
                elif not {
                    i for i in range(len(or4)) if or4.ranks[i] <= top
                } <= block_set:
                    violations += 1
            if len(block) > 1:
                for i in block:
                    k = int(or4.ranks[i])
                    if k <= m:
                        if not {
                            j for j in range(len(or4)) if or4.ranks[j] <= k - 1
                        } <= zero_class:
                            violations += 1
                    elif not any(h <= zero_class for h in half_ideals):
                        violations += 1
        for k in range(m):
            if zero_class == {i for i in range(len(or4)) if or4.ranks[i] <= k}:
                for block in part.classes():
                    if len(block) > 1 and any(
                        int(or4.ranks[i]) > k + 1 for i in block
                    ):
                        violations += 1
    assert violations == 0
    report(8, "forcing properties, zero violations")


def test_criterion_9_conjugation_counterexample():
    """At degree 8 the witness is orthogonal, its conjugate escapes SR,
    and the mirror condition breaks first at the point 1."""
    n = 8
    sigma, s = conjugation_escape_witness(n)
    assert is_member("OR", sigma)
    assert s.rank == n and not in_unit_group("SR", s)
    conj = compose(compose(invert(s), sigma), s)
    assert not is_member("SR", conj)
    broken = [
        i for i in range(1, n + 1)
        if conj.images[theta(n, i) - 1] != theta(n, conj.images[i - 1])
    ]
    assert broken[0] == 1
    report(9, "conjugation counterexample at degree 8")

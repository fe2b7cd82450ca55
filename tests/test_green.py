import itertools
import math
import random

import numpy as np
import pytest

from rookmonoids import (
    MonoidUniverse,
    PartialInjection,
    admissible_subsets,
    class_count_formulas,
    enumerate_ideals,
    enumerate_universe,
    green_partition,
    green_report,
    h_class_group,
    h_coordinate,
    idempotent_of,
    j_order_dot,
    symmetric_group,
)
from rookmonoids.green import _is_absorbing, maximal_subgroup

from oracles import (apply_mu, perm_mul, principal_left, principal_right, principal_twosided,
                     table_translations)


def partition_of(keys):
    ids = {}
    return [ids.setdefault(k, len(ids)) for k in keys]


def test_green_data_of_another_universe_is_refused(or4, sr2):
    """``enumerate_ideals`` and ``green_report`` refuse Green data built for
    another universe, as ``is_congruence`` refuses a partition, also when
    the two universes have the same size, as R_2 and SR_2 do."""
    r2 = enumerate_universe("R", 2)
    assert len(r2) == len(sr2)
    for universe, other in ((or4, sr2), (r2, sr2), (sr2, r2)):
        green = green_partition(other)
        for fn in (enumerate_ideals, green_report):
            with pytest.raises(ValueError, match="Green data lives on another universe"):
                fn(universe, green)
            assert fn(other, green) == fn(other)


def test_principal_ideals_of_distinguished_elements(or4):
    everything = frozenset(range(len(or4)))
    assert principal_right(or4, 1) == everything
    assert principal_left(or4, 1) == everything
    assert principal_twosided(or4, 1) == everything
    assert principal_right(or4, 0) == frozenset({0})
    assert principal_left(or4, 0) == frozenset({0})
    assert principal_twosided(or4, 0) == frozenset({0})


@pytest.mark.parametrize("fn", [principal_right, principal_left, principal_twosided, h_class_group])
@pytest.mark.parametrize("idx", [-1, 37, True, 1.0])
def test_principal_ideals_and_h_class_groups_refuse_bad_indices(or4, fn, idx):
    with pytest.raises(ValueError, match="is not an index"):
        fn(or4, idx)


def test_principal_right_of_rank_one_element(or4):
    idx = or4.element_index(PartialInjection.from_pairs(4, [(1, 2)]))
    expected = frozenset(
        i for i, e in enumerate(or4.elements) if set(e.image()) <= {2}
    )
    assert principal_right(or4, idx) == expected


def test_principal_left_matches_domain_containment(or4):
    idx = or4.element_index(idempotent_of(4, (1, 3)))
    expected = frozenset(
        i for i, e in enumerate(or4.elements) if set(e.domain()) <= {1, 3}
    )
    assert principal_left(or4, idx) == expected


def test_principal_twosided_splits_half_rank_by_type(or4):
    type_i = or4.element_index(idempotent_of(4, (1, 2)))
    got = principal_twosided(or4, type_i)
    expected = frozenset(
        i for i in range(len(or4))
        if or4.ranks[i] < 2 or (or4.ranks[i] == 2 and or4.mtypes[i] == "I")
    )
    assert got == expected


def test_principal_ideals_consistent_everywhere_small(or2, or4, sr4):
    for universe in (or2, or4, sr4):
        for i in range(len(universe)):
            principal_right(universe, i)
            principal_left(universe, i)
            principal_twosided(universe, i)


def test_principal_ideals_consistent_everywhere_degree_6(or6):
    for i in range(len(or6)):
        principal_right(or6, i)
        principal_left(or6, i)
    rng = random.Random(11)
    sample = {rng.randrange(len(or6)) for _ in range(1200)} | {0, 1}
    for i in sample:
        principal_twosided(or6, i)


def test_green_partition_matches_principal_ideal_equality(or2, or4, sr4):
    for universe in (or2, or4, sr4):
        green = green_partition(universe)
        size = len(universe)
        left = partition_of([frozenset(principal_left(universe, i)) for i in range(size)])
        right = partition_of([frozenset(principal_right(universe, i)) for i in range(size)])
        two = partition_of([frozenset(principal_twosided(universe, i)) for i in range(size)])
        both = partition_of(list(zip(left, right)))
        assert partition_of(green.l_ids.tolist()) == left
        assert partition_of(green.r_ids.tolist()) == right
        assert partition_of(green.j_ids.tolist()) == two
        assert partition_of(green.h_ids.tolist()) == both


def test_green_partition_matches_principal_ideal_equality_degree_6(or6):
    green = green_partition(or6)
    table = or6.multiplication_table()
    size = len(or6)
    lsets = [np.unique(table[:, i]).tobytes() for i in range(size)]
    rsets = [np.unique(table[i]).tobytes() for i in range(size)]
    jsets = [np.unique(table[table[:, i], :]).tobytes() for i in range(size)]
    assert partition_of(green.l_ids.tolist()) == partition_of(lsets)
    assert partition_of(green.r_ids.tolist()) == partition_of(rsets)
    assert partition_of(green.j_ids.tolist()) == partition_of(jsets)


def test_green_counts_or4(green_or4, or4):
    assert green_or4.num_classes("J") == 5
    assert green_or4.num_classes("L") == 10
    assert green_or4.num_classes("R") == 10
    assert green_or4.num_classes("H") == 26
    ident_class = np.flatnonzero(green_or4.h_ids == green_or4.h_ids[1])
    assert sorted(ident_class.tolist()) == sorted(or4.units())
    assert len(ident_class) == 4
    zero_class = np.flatnonzero(green_or4.h_ids == green_or4.h_ids[0])
    assert zero_class.tolist() == [0]


def test_d_classes_equal_j_classes(green_or4):
    assert green_or4.d_ids is green_or4.j_ids


def test_count_formula_values():
    f = class_count_formulas(2)
    assert f["l_class_count"] == 10
    assert f["h_class_count"] == 26
    assert f["unit_group_order"] == 4
    assert f["d_class_size_by_rank"][2] == {"combined": 16, "per_class": 8}
    f3 = class_count_formulas(3)
    assert f3["h_class_count"] == 1 + 32 + (1 + 9 * 4 + 9 * 16)
    assert f3["h_class_count"] == 214
    with pytest.raises(ValueError):
        class_count_formulas(0)


@pytest.mark.parametrize("m", [0, True, 2.0, "2"])
def test_count_formulas_refuse_a_half_degree_off_the_integer_rule(m):
    """The one integer rule (``core._is_integer``): a bool, a float and a
    string are refused as 0 is, and a numpy integer reads as its int."""
    with pytest.raises(ValueError, match=f"half-degree must be an integer >= 1, got {m!r}"):
        class_count_formulas(m)
    assert class_count_formulas(np.int64(2)) == class_count_formulas(2)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_count_formulas_match_brute_force(n):
    universe = enumerate_universe("OR", n)
    green = green_partition(universe)
    m = n // 2
    f = class_count_formulas(m)
    assert green.num_classes("L") == f["l_class_count"]
    assert green.num_classes("R") == f["r_class_count"]
    assert green.num_classes("H") == f["h_class_count"]
    assert green.num_classes("J") == f["j_class_count"]
    ranks = universe.ranks
    for rel, sizes_key in (("L", "l_class_size_by_rank"), ("H", "h_class_size_by_rank")):
        ids = green.ids(rel)
        for cid in range(green.num_classes(rel)):
            members = np.flatnonzero(ids == cid)
            k = int(ranks[members[0]])
            assert len(members) == f[sizes_key][k]
    for cid, (k, _) in enumerate(green.j_meta):
        size = int((green.j_ids == cid).sum())
        if k == m:
            assert size == f["d_class_size_by_rank"][m]["per_class"]
        else:
            assert size == f["d_class_size_by_rank"][k]


def test_half_rank_stratum_combined_size(green_or4):
    m = 2
    f = class_count_formulas(m)
    total = sum(
        int((green_or4.j_ids == cid).sum())
        for cid, (k, _) in enumerate(green_or4.j_meta)
        if k == m
    )
    assert total == f["d_class_size_by_rank"][m]["combined"]


def test_ideals_or4(or4):
    ideals = enumerate_ideals(or4)
    by_kind = {}
    for d in ideals:
        by_kind.setdefault(d.kind, []).append(d)
    assert [d.k for d in by_kind["I_k"]] == [0, 1, 4]
    assert len(by_kind["I_m_I"]) == 1 and by_kind["I_m_I"][0].size == 25
    assert len(by_kind["I_m_II"]) == 1 and by_kind["I_m_II"][0].size == 25
    assert len(by_kind["union"]) == 1 and by_kind["union"][0].size == 33
    assert "other" not in by_kind
    smallest = min(ideals, key=lambda d: d.size)
    assert smallest.members == (0,)


def test_ideals_sr4(sr4):
    ideals = enumerate_ideals(sr4)
    assert all(d.kind == "I_k" for d in ideals)
    assert [d.k for d in ideals] == [0, 1, 2, 4]
    assert [d.size for d in ideals] == [1, 17, 49, 57]


@pytest.mark.parametrize("name", ["or2", "or4", "sr4", "r4", "or6", "sr6", "sr8"])
def test_ideals_are_the_subsets_equal_to_their_down_closure(name, request):
    """``enumerate_ideals`` tests every subset of J-classes at once; a loop
    over the subsets, keeping each that equals its own down-closure, finds
    the same down-sets."""
    universe = request.getfixturevalue(name)
    j_ids, below = universe.j_order
    expected = set()
    for bits in range(1, 2 ** len(below)):
        held = (bits >> np.arange(len(below)) & 1).astype(bool)
        if np.array_equal(below[:, held].any(axis=1), held):
            expected.add(tuple(np.flatnonzero(held[j_ids]).tolist()))
    ideals = enumerate_ideals(universe)
    assert len(ideals) == len(expected)
    assert {d.members for d in ideals} == expected


def test_every_ideal_is_absorbing_and_generated_sets_are_ideals(or4):
    table = or4.multiplication_table()
    ideals = enumerate_ideals(or4)
    members_sets = {frozenset(d.members) for d in ideals}
    rng = random.Random(3)
    for _ in range(25):
        seed = {rng.randrange(len(or4)) for _ in range(rng.randint(1, 3))}
        closed = set(seed)
        grew = True
        while grew:
            grew = False
            for x in list(closed):
                for y in range(len(or4)):
                    for p in (int(table[x, y]), int(table[y, x])):
                        if p not in closed:
                            closed.add(p)
                            grew = True
        assert frozenset(closed) in members_sets


def absorbing_all_products(table, mask):
    """Two-sided absorption checked on all N x |I| products."""
    members = np.flatnonzero(mask)
    return bool(mask[table[:, members]].all() and mask[table[members, :]].all())


@pytest.mark.parametrize("name", ["or4", "sr4", "or6", "sr6"])
def test_generator_row_absorption_agrees_with_all_products(name, request):
    """Over every union of J-classes, down-closed or not."""
    universe = request.getfixturevalue(name)
    green = green_partition(universe)
    table = universe.multiplication_table()
    moves = table_translations(table, universe.generators())
    count = green.num_classes("J")
    verdicts = []
    for bits in range(1, 2**count):
        mask = np.isin(green.j_ids, [c for c in range(count) if bits >> c & 1])
        verdicts.append(absorbing_all_products(table, mask))
        assert _is_absorbing(moves, mask) == verdicts[-1], bits
    assert any(verdicts) and not all(verdicts)


def test_j_order_is_a_chain_with_a_half_rank_fork(green_or6):
    """Six classes: the chain of ranks 0,1,2 forks into the two rank-3
    type classes, which rejoin at the unit class on top."""
    dot = j_order_dot(green_or6)
    assert dot.count("->") == 6
    meta = green_or6.j_meta
    half = [c for c, (k, _) in enumerate(meta) if k == 3]
    assert len(half) == 2
    assert {meta[c][1] for c in half} == {"I", "II"}


def two_sided_ideal(universe, e):
    """S·e·S: the column S·e of products, closed under the right
    translations x -> x·g by the generators."""
    right = universe.translations()[len(universe.generators()):]
    reached = np.zeros(len(universe), dtype=bool)
    frontier = universe._products(np.arange(len(universe)), [e]).ravel()
    while frontier.size:
        reached[frontier] = True
        grown = np.zeros_like(reached)
        grown[right[:, frontier]] = True
        frontier = np.flatnonzero(grown & ~reached)
    return reached


@pytest.mark.parametrize("family", ["OR", "SR", "R"])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_j_order_matches_brute_force_two_sided_ideals(family, n):
    """below[a, b] holds exactly when J-class a lies in S·e·S, for e the
    first member of J-class b, and S·e·S is a union of J-classes."""
    universe = enumerate_universe(family, n)
    green = green_partition(universe)
    below = universe.j_order[1]
    count = len(green.j_meta)
    assert below.shape == (count, count)
    for b in range(count):
        ideal = two_sided_ideal(universe, int(np.flatnonzero(green.j_ids == b)[0]))
        for a in range(count):
            inside = ideal[green.j_ids == a]
            assert inside.all() or not inside.any()
            assert below[a, b] == inside.all()


def test_j_order_refuses_a_universe_that_is_not_the_whole_family():
    """{0, 1, e1 = [1, 0], e2 = [0, 2]} as a submonoid of R_2: neither of
    e1 and e2 lies in the other's two-sided ideal, so they are two
    J-classes, but the rank rule of ``j_order`` would make them one.  So
    ``j_order``, and the Green structure that reads it, refuse it.  The
    same four images are the whole of OR_2, where the rule holds.  The
    maximal subgroups of ``h_class_group`` are those of the whole family,
    so it refuses the submonoid too."""
    images = np.array([[0, 0], [1, 2], [1, 0], [0, 2]])
    submonoid = MonoidUniverse("R", 2, images)
    assert np.flatnonzero(two_sided_ideal(submonoid, 2)).tolist() == [0, 2]
    assert np.flatnonzero(two_sided_ideal(submonoid, 3)).tolist() == [0, 3]
    for read in (lambda u: u.j_order, green_partition, enumerate_ideals,
                 lambda u: h_class_group(u, 2)):
        with pytest.raises(ValueError, match="R_2, and this universe is not all of it"):
            read(submonoid)
    assert green_partition(MonoidUniverse("OR", 2, images)).j_ids.tolist() == [0, 1, 2, 3]


def test_maximal_subgroup_refuses_a_universe_that_is_not_the_whole_family():
    """The R_2 submonoid {0, 1, e1 = [1, 0], e2 = [0, 2]} has no maximal
    subgroups of the rank rule, at any rank: ``j_order``'s refusal."""
    submonoid = MonoidUniverse("R", 2, np.array([[0, 0], [1, 2], [1, 0], [0, 2]]))
    for k in range(3):
        with pytest.raises(ValueError, match="R_2, and this universe is not all of it"):
            maximal_subgroup(submonoid, k)


def test_maximal_subgroup_refuses_a_rank_with_no_element(or4, sr4, r4):
    """OR_4 and SR_4 have ranks 0, 1, 2 and 4 only, admissible domains
    having at most m = 2 points below n; R_4 has every rank 0..4.  A rank
    outside them, or one that is not an integer, has no maximal subgroup."""
    for universe in (or4, sr4, r4):
        ranks = set(universe.ranks.tolist())
        assert ranks == ({0, 1, 2, 3, 4} if universe.family == "R" else {0, 1, 2, 4})
        for k in ranks - {4}:
            assert maximal_subgroup(universe, np.int64(k)) is symmetric_group(k)
        bad = [-1, 5, 2.0, True] + ([] if universe.family == "R" else [3])
        for k in bad:
            with pytest.raises(ValueError, match=rf"{universe.family}_4 has no element of rank"):
                maximal_subgroup(universe, k)


def test_h_class_groups_are_symmetric_groups(or4, or6):
    for universe in (or4, or6):
        m = universe.n // 2
        for k in range(1, m + 1):
            for points in admissible_subsets(universe.n, k):
                idx = universe.idempotent_index(points)
                group, bijection = h_class_group(universe, idx)
                assert group.degree == k
                assert len(group) == math.factorial(k)
                assert set(group) == set(itertools.permutations(range(1, k + 1)))
                # the position map is an isomorphism onto S_k
                members = list(bijection)
                for a in members:
                    for b in members:
                        prod = universe.product(a, b)
                        assert bijection[prod] == perm_mul(bijection[a], bijection[b])


def test_h_coordinate_places_every_member_against_the_order_preserving_one(or4, sr4):
    for universe in (or4, sr4):
        m = universe.n // 2
        blocks = {}
        for e in universe.elements:
            if 1 <= e.rank <= m or e.rank == universe.n:
                blocks.setdefault((e.domain(), e.image()), []).append(e)
        for (dom, img), members in blocks.items():
            base = PartialInjection.from_pairs(universe.n, zip(dom, img))
            universe.element_index(base)
            assert h_coordinate(base) == tuple(range(1, len(dom) + 1))
            for e in members:
                assert apply_mu(base, h_coordinate(e)) == e
        for k in [*range(1, m + 1), universe.n]:
            for points in admissible_subsets(universe.n, k):
                idx = universe.idempotent_index(points)
                _, bijection = h_class_group(universe, idx)
                assert bijection == {
                    i: h_coordinate(universe.elements[i]) for i in bijection
                }


def test_h_class_group_at_full_rank_is_the_unit_group(or4):
    group, bijection = h_class_group(or4, 1)
    assert len(group) == 4
    assert sorted(bijection) == sorted(or4.units())
    assert set(group) == {
        (1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1),
    }


def test_h_class_group_at_full_rank_on_sr_is_the_signed_group(sr4):
    group, bijection = h_class_group(sr4, 1)
    assert len(group) == 8
    assert sorted(bijection) == sorted(sr4.units())
    assert all(len(p) == 4 for p in group)


def idempotents(universe):
    rows = universe.image_matrix
    return np.flatnonzero(((rows == 0) | (rows == np.arange(1, universe.n + 1))).all(axis=1))


def test_h_class_group_is_the_cached_maximal_subgroup(or4, sr4, r4):
    """No group is built per H-class: below full rank it is the cached S_k,
    at rank n the unit group that every universe of the family and degree shares."""
    for universe in (or4, sr4, r4):
        for idx in idempotents(universe).tolist():
            k = int(universe.ranks[idx])
            group, _ = h_class_group(universe, idx)
            assert group is maximal_subgroup(universe, k)
            if k < universe.n:
                assert group is symmetric_group(k)
            else:
                assert group is maximal_subgroup(enumerate_universe(universe.family, universe.n), k)


@pytest.mark.parametrize("family", ["OR", "SR"])
def test_h_class_group_bijection_matches_h_coordinate_at_degree_8(family):
    universe = enumerate_universe(family, 8)
    found = idempotents(universe)
    assert len(found) == 82
    for idx in found.tolist():
        group, bijection = h_class_group(universe, idx)
        assert len(bijection) == len(group)
        assert bijection == {
            i: h_coordinate(PartialInjection(8, universe.image_matrix[i])) for i in bijection
        }


def test_green_partition_of_plain_rook_monoid(r4):
    green = green_partition(r4)
    assert green.num_classes("L") == 16
    assert green.num_classes("H") == 70
    assert green.num_classes("J") == 5
    ideals = enumerate_ideals(r4)
    assert [(d.kind, d.k) for d in ideals] == [("I_k", k) for k in range(5)]


def test_h_class_group_of_zero_is_trivial(or4):
    group, bijection = h_class_group(or4, 0)
    assert len(group) == 1
    assert list(bijection) == [0]


def test_h_class_group_rejects_non_idempotents(or4):
    idx = or4.element_index(PartialInjection(4, (2, 1, 4, 3)))
    with pytest.raises(ValueError):
        h_class_group(or4, idx)


def test_apply_mu():
    eps = idempotent_of(4, (1, 2))
    assert apply_mu(eps, (1, 2)) == eps
    assert apply_mu(eps, (2, 1)) == PartialInjection.from_pairs(4, [(1, 2), (2, 1)])
    sigma = PartialInjection.from_pairs(6, [(1, 4), (2, 6), (5, 1)])
    assert apply_mu(sigma, (1, 2, 3)) == sigma
    mu, nu = (2, 3, 1), (2, 1, 3)
    assert apply_mu(apply_mu(sigma, mu), nu) == apply_mu(sigma, perm_mul(mu, nu))
    with pytest.raises(ValueError):
        apply_mu(sigma, (2, 1))


def test_apply_mu_stays_in_h_class(or4):
    for idx in range(len(or4)):
        e = or4.elements[idx]
        if not 1 <= e.rank <= 2:
            continue
        for mu in itertools.permutations(range(1, e.rank + 1)):
            moved = apply_mu(e, mu)
            assert moved.domain() == e.domain()
            assert moved.image() == e.image()


def test_green_report_flags_the_half_rank_size_comparison(or4):
    report = green_report(or4)
    kinds = [d["kind"] for d in report["discrepancies"]]
    assert kinds == ["rank_m_d_class_size"]
    entry = report["discrepancies"][0]
    assert entry["combined_formula"] == 16
    assert entry["per_class_formula"] == 8
    assert entry["observed_per_class"] == [8, 8]


def test_green_report_for_symplectic_family_has_no_formulas(sr4):
    report = green_report(sr4)
    assert report["formulas"] is None
    assert report["discrepancies"] == []

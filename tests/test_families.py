import tracemalloc

import numpy as np
import pytest

from rookmonoids import (
    InvariantViolation,
    PartialInjection,
    Partition,
    PermGroup,
    build_eq_N,
    build_eq_N1N2,
    build_eq_special,
    build_eq_type,
    congruence_closure,
    enumerate_universe,
    is_congruence,
    normal_subgroups,
    predicted_congruences,
    symmetric_group,
    verify_classification,
)
from rookmonoids.core import image_codes
from rookmonoids.families import _OR4_UNIT_PAIRS, _as_subgroup, _family_partition, _levels

TRIVIAL_1 = frozenset({(1,)})
TRIVIAL_2 = frozenset({(1, 2)})
FULL_2 = frozenset({(1, 2), (2, 1)})


def units_of(universe):
    return universe.units()


def test_rank_family_at_level_one_is_the_identity(or4, or6):
    for universe in (or4, or6):
        part = build_eq_N(universe, 1, TRIVIAL_1)
        assert part == Partition.identity(universe)


def test_rank_family_structure_on_or6(or6):
    part = build_eq_N(or6, 2, FULL_2)
    zero_class = set(part.class_of(0))
    assert zero_class == {i for i in range(len(or6)) if or6.ranks[i] < 2}
    for block in part.classes():
        ranks = {int(or6.ranks[i]) for i in block}
        if ranks == {2}:
            doms = {or6.elements[i].domain() for i in block}
            imgs = {or6.elements[i].image() for i in block}
            assert len(doms) == 1 and len(imgs) == 1 and len(block) == 2
        elif ranks != {0, 1}:
            assert len(block) == 1


def test_rank_family_rejects_bad_parameters(or4, or6, sr4, r4):
    with pytest.raises(ValueError):
        build_eq_N(or4, 2, FULL_2)
    with pytest.raises(ValueError):
        build_eq_N(or4, 0, TRIVIAL_1)
    with pytest.raises(ValueError):
        build_eq_N(or4, 1, frozenset({(1, 2), (2, 1)}))
    not_normal = frozenset({(1, 2, 3), (2, 1, 3)})
    with pytest.raises(ValueError):
        build_eq_N(enumerate_universe("SR", 6), 3, not_normal)
    # The levels: 1..m-1 on OR, 1..m and n on SR, none on R.
    for universe, accepted, rejected in (
        (or6, (1, 2), (0, 3, 6)),
        (sr4, (1, 2, 4), (0, 3)),
        (r4, (), range(6)),
    ):
        for k in accepted:
            trivial = frozenset({tuple(range(1, k + 1))})
            assert is_congruence(universe, build_eq_N(universe, k, trivial))
        for k in rejected:
            with pytest.raises(ValueError, match="level"):
                build_eq_N(universe, k, frozenset({tuple(range(1, k + 1))}))


def test_two_subgroup_family(or2, or4):
    assert build_eq_N1N2(or2, TRIVIAL_1, TRIVIAL_1) == Partition.identity(or2)
    rees = build_eq_N1N2(or4, TRIVIAL_2, TRIVIAL_2)
    assert set(rees.class_of(0)) == {i for i in range(len(or4)) if or4.ranks[i] < 2}
    assert all(
        len(block) == 1
        for block in rees.classes()
        if int(or4.ranks[block[0]]) >= 2
    )
    lopsided = build_eq_N1N2(or4, FULL_2, TRIVIAL_2)
    mirrored = build_eq_N1N2(or4, TRIVIAL_2, FULL_2)
    assert lopsided != mirrored
    for block in lopsided.classes():
        if int(or4.ranks[block[0]]) == 2:
            mtype = or4.mtypes[block[0]]
            assert len(block) == (2 if mtype == "I" else 1)


def test_typed_family_on_or4(or4):
    part = build_eq_type(or4, "I", TRIVIAL_2)
    zero_class = set(part.class_of(0))
    expected_zero = {
        i for i in range(len(or4))
        if or4.ranks[i] < 2 or (or4.ranks[i] == 2 and or4.mtypes[i] == "II")
    }
    assert zero_class == expected_zero
    assert len(expected_zero) == 25
    singles = [b for b in part.classes() if len(b) == 1]
    type_i = [b for b in singles if or4.mtypes[b[0]] == "I"]
    assert len(type_i) == 8
    assert part.num_classes == 1 + 8 + 4

    merged = build_eq_type(or4, "I", FULL_2)
    for block in merged.classes():
        if or4.mtypes[block[0]] == "I" and int(or4.ranks[block[0]]) == 2:
            assert len(block) == 2

    assert build_eq_type(or4, "I", TRIVIAL_2) != build_eq_type(or4, "II", TRIVIAL_2)
    with pytest.raises(ValueError):
        build_eq_type(or4, "III", TRIVIAL_2)


def test_typed_families_differ_for_every_subgroup(or4, or6):
    for universe in (or4, or6):
        m = universe.n // 2
        for _, sub in _labelled_subgroups(m):
            one = build_eq_type(universe, "I", sub)
            two = build_eq_type(universe, "II", sub)
            assert one != two
            assert set(one.class_of(0)) != set(two.class_of(0))


def _labelled_subgroups(k):
    return [(len(s), s) for s in normal_subgroups(symmetric_group(k))]


def test_special_congruences_class_structure(or4):
    d1 = or4.element_index(PartialInjection(4, (2, 1, 4, 3)))
    d2 = or4.element_index(PartialInjection(4, (3, 4, 1, 2)))
    d12 = or4.element_index(PartialInjection(4, (4, 3, 2, 1)))

    eq1 = build_eq_special(or4, 1)
    assert is_congruence(or4, eq1)
    assert set(eq1.class_of(1)) == {1, d1}
    assert set(eq1.class_of(d2)) == {d2, d12}
    zero_class = set(eq1.class_of(0))
    assert zero_class == {
        i for i in range(len(or4))
        if or4.ranks[i] < 2 or (or4.ranks[i] == 2 and or4.mtypes[i] == "II")
    }
    for block in eq1.classes():
        if or4.mtypes[block[0]] == "I" and int(or4.ranks[block[0]]) == 2:
            e = or4.elements[block[0]]
            assert {or4.elements[i].domain() for i in block} == {e.domain()}
            assert len(block) == 2

    eq2 = build_eq_special(or4, 2)
    assert is_congruence(or4, eq2)
    assert set(eq2.class_of(1)) == {1, d2}
    assert set(eq2.class_of(d1)) == {d1, d12}
    assert set(eq2.class_of(0)) == {
        i for i in range(len(or4))
        if or4.ranks[i] < 2 or (or4.ranks[i] == 2 and or4.mtypes[i] == "I")
    }
    assert eq1 != eq2


def test_special_congruence_relates_the_translated_pairs(or4):
    eq1 = build_eq_special(or4, 1)
    relations = [
        ([(1, 1), (2, 2)], [(1, 2), (2, 1)]),
        ([(1, 3), (2, 4)], [(1, 4), (2, 3)]),
        ([(3, 1), (4, 2)], [(3, 2), (4, 1)]),
        ([(3, 3), (4, 4)], [(3, 4), (4, 3)]),
    ]
    for left, right in relations:
        a = or4.element_index(PartialInjection.from_pairs(4, left))
        b = or4.element_index(PartialInjection.from_pairs(4, right))
        assert eq1.relates(a, b)


def test_special_congruence_is_generated_by_its_unit_pair(or4):
    d1 = or4.element_index(PartialInjection(4, (2, 1, 4, 3)))
    d2 = or4.element_index(PartialInjection(4, (3, 4, 1, 2)))
    assert congruence_closure(or4, [(1, d1)]) == build_eq_special(or4, 1)
    assert congruence_closure(or4, [(1, d2)]) == build_eq_special(or4, 2)


def test_builder_refuses_a_partition_that_is_not_a_congruence(or4):
    d1 = or4.element_index(PartialInjection(4, (2, 1, 4, 3)))
    with pytest.raises(InvariantViolation):
        _family_partition(or4, or4.ranks < 1, [], [(1, d1)])


def min_code_partition(universe, zero, splits, unit_pairs=()):
    """Oracle for ``_family_partition``, keyed as before coset labels: a
    ``(mask, subgroup)`` split keys each member mu by its H-class and by the
    least image code of mu·x over x in the subgroup, from its H-coordinate
    mu; a ``None`` subgroup keeps whole H-classes.  Rows group in a dict."""
    ids = np.arange(len(universe), dtype=np.int64)
    ids[zero] = 0
    for mask, subgroup in splits:
        members = np.flatnonzero(mask)
        keys = [universe.dom_masks[members], universe.img_masks[members]]
        if subgroup is not None:
            perms = np.array(sorted(subgroup), dtype=np.intp)
            k = perms.shape[1]
            mu = universe.h_coords[members, :k].astype(np.intp)
            codes = image_codes(mu[:, perms - 1].reshape(-1, k))
            keys.append(codes.reshape(len(members), len(perms)).min(axis=1))
        rows = [tuple(row) for row in np.column_stack(keys).tolist()]
        first = {}
        for i, row in zip(members.tolist(), rows):
            first.setdefault(row, i)
        ids[members] = [first[row] for row in rows]
    for a, b in unit_pairs:
        ids[ids == ids[b]] = ids[a]
    return Partition(universe, ids)


@pytest.mark.parametrize("name", ["or2", "or4", "or6", "sr2", "sr4", "sr6", "sr8"])
def test_coset_label_splits_match_the_min_image_code_oracle(name, request):
    """Every level × normal subgroup, the SR_8 unit level among them, and on
    OR every pair of half-rank subgroups and every typed variant, against
    the min-image-code key."""
    universe = request.getfixturevalue(name)
    ranks, mtypes, m = universe.ranks, universe.mtypes, universe.n // 2
    for k, group in _levels(universe).items():
        for sub in normal_subgroups(group):
            assert build_eq_N(universe, k, sub) == min_code_partition(
                universe, ranks < k, [(ranks == k, sub)])
    if universe.family == "OR":
        subs = normal_subgroups(symmetric_group(m))
        for sub1 in subs:
            for sub2 in subs:
                assert build_eq_N1N2(universe, sub1, sub2) == min_code_partition(
                    universe, ranks < m, [(mtypes == "I", sub1), (mtypes == "II", sub2)])
            for variant, other in (("I", "II"), ("II", "I")):
                assert build_eq_type(universe, variant, sub1) == min_code_partition(
                    universe, (ranks < m) | (mtypes == other), [(mtypes == variant, sub1)])


def test_specials_split_by_the_one_coset_of_s2(or4):
    """The full S_2 split of the degree-4 specials is the old whole-H-class
    (``None``) split."""
    for which, (swallowed, kept) in ((1, ("II", "I")), (2, ("I", "II"))):
        zero = (or4.ranks < 2) | (or4.mtypes == swallowed)
        pairs = [
            tuple(or4.element_index(PartialInjection(4, images)) for images in pair)
            for pair in _OR4_UNIT_PAIRS[which]
        ]
        assert build_eq_special(or4, which) == min_code_partition(
            or4, zero, [(or4.mtypes == kept, None)], pairs)
    s2 = symmetric_group(2)
    assert not _as_subgroup(s2, s2).any()


def test_unit_level_split_gathers_no_coset_images(sr8):
    """The SR_8 unit level with the full unit group W, order 384: each
    member is keyed by one coset label, so the build peaks far below the
    384 × 384 × 8 intp gather of the min-image-code key (9.4 MB)."""
    w = sr8.unit_group
    sr8.translations()
    normal_subgroups(w)
    tracemalloc.start()
    try:
        part = build_eq_N(sr8, 8, frozenset(w))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert part.num_classes == 2
    assert peak < 2**22


def test_builder_refuses_an_h_coordinate_outside_the_group(or4):
    trivial = PermGroup(2, [(1, 2)])
    split = (or4.ranks == 2, trivial, _as_subgroup(trivial, trivial))
    with pytest.raises(InvariantViolation, match="H-coordinate of element"):
        _family_partition(or4, or4.ranks < 2, [split])


def test_special_congruences_need_degree_four(or6):
    with pytest.raises(ValueError):
        build_eq_special(or6, 1)


def test_symplectic_family(sr2, sr4):
    assert build_eq_N(sr4, 1, TRIVIAL_1) == Partition.identity(sr4)
    assert build_eq_N(sr2, 1, TRIVIAL_1) == Partition.identity(sr2)

    w = sr4.unit_group
    full = frozenset(w.elements)
    top = build_eq_N(sr4, 4, full)
    assert set(top.class_of(0)) == {i for i in range(len(sr4)) if sr4.ranks[i] < 4}
    assert set(top.class_of(1)) == set(units_of(sr4))
    assert top.num_classes == 2

    mid = build_eq_N(sr4, 2, FULL_2)
    assert set(mid.class_of(0)) == {i for i in range(len(sr4)) if sr4.ranks[i] < 2}
    for block in mid.classes():
        rank = int(sr4.ranks[block[0]])
        if rank == 2:
            assert len(block) == 2
        elif rank == 4:
            assert len(block) == 1

    with pytest.raises(ValueError):
        build_eq_N(sr4, 3, TRIVIAL_1)


def test_family_monotonicity(or4, or6, sr4):
    small, big = TRIVIAL_2, FULL_2
    assert build_eq_N(or6, 2, small).refines(build_eq_N(or6, 2, big))
    assert build_eq_N1N2(or4, small, small).refines(build_eq_N1N2(or4, big, small))
    assert build_eq_type(or4, "I", small).refines(build_eq_type(or4, "I", big))
    assert build_eq_N(sr4, 2, small).refines(build_eq_N(sr4, 2, big))
    w = sr4.unit_group
    subs = sorted(normal_subgroups(w), key=len)
    for sub in subs:
        assert build_eq_N(sr4, 4, subs[0]).refines(build_eq_N(sr4, 4, sub))


def test_every_family_partition_is_a_congruence_and_not_universal():
    for n in (2, 4, 6):
        universe = enumerate_universe("OR", n)
        for part, specs in predicted_congruences(universe):
            tags = {s.tag for s in specs}
            if tags == {"universal"}:
                continue
            assert is_congruence(universe, part)
            assert part.num_classes > 1
    for n in (2, 4):
        universe = enumerate_universe("SR", n)
        for part, specs in predicted_congruences(universe):
            if {s.tag for s in specs} == {"universal"}:
                continue
            assert is_congruence(universe, part)
            assert part.num_classes > 1


def test_predictions_build_the_unit_group_once(monkeypatch):
    for k in (1, 2, 3):
        symmetric_group(k)
    built = []
    init = PermGroup.__init__

    def counting(self, degree, elements):
        built.append(degree)
        init(self, degree, elements)

    monkeypatch.setattr(PermGroup, "__init__", counting)
    sr6 = enumerate_universe("SR", 6)
    predicted_congruences(sr6)
    assert built == [6]
    assert len(sr6.unit_group) == 48 and built == [6]


def test_predicted_congruences_or2(or2):
    preds = predicted_congruences(or2)
    keys = {p.key for p, _ in preds}
    assert Partition.identity(or2).key in keys
    assert Partition.universal(or2).key in keys
    assert len(preds) == 4


def test_predicted_congruences_or4_include_the_specials(or4):
    preds = predicted_congruences(or4)
    tags = {s.tag for _, specs in preds for s in specs}
    assert {"OR_eqN", "OR_eqN1N2", "OR_eqI", "OR_eqII", "OR_eq1", "OR_eq2",
            "universal"} <= tags
    special_keys = {build_eq_special(or4, 1).key, build_eq_special(or4, 2).key}
    assert special_keys <= {p.key for p, _ in preds}
    assert len(preds) == 12


def test_predicted_congruence_parameter_count_sr4(sr4):
    preds = predicted_congruences(sr4)
    total_specs = sum(len(specs) for _, specs in preds)
    w = sr4.unit_group
    expected = (
        len(normal_subgroups(symmetric_group(1)))
        + len(normal_subgroups(symmetric_group(2)))
        + len(normal_subgroups(w))
        + 1
    )
    assert total_specs == expected == 10


def test_verify_classification_small_universes(or2, or4, sr2, sr4):
    for universe, extras in ((or2, 3), (or4, 5), (sr2, 0), (sr4, 0)):
        report = verify_classification(universe)
        assert report.ok
        assert report.predicted_not_found == []
        assert len(report.found_not_predicted) == extras
        assert len(report.matched) + extras == report.lattice_size


def test_unmatched_or4_members_are_unit_refined_rees_quotients(or4):
    report = verify_classification(or4)
    assert len(report.found_not_predicted) == 5
    for entry in report.found_not_predicted:
        assert entry["zero_class_kind"] == "union"
        assert entry["zero_class_size"] == 33
        assert entry["tag"] == "rees_over_complement_of_units"
    sizes = sorted(e["num_classes"] for e in report.found_not_predicted)
    assert sizes == [2, 3, 3, 3, 5]


def test_unmatched_or2_members(or2):
    report = verify_classification(or2)
    kinds = sorted(e["zero_class_kind"] for e in report.found_not_predicted)
    assert kinds == ["I_m_I", "I_m_II", "union"]
    union_entry = [e for e in report.found_not_predicted if e["zero_class_kind"] == "union"]
    assert union_entry[0]["tag"] == "rees_over_complement_of_units"


def test_report_json_shape(or4):
    payload = verify_classification(or4).to_json()
    assert set(payload) == {
        "family", "n", "lattice_size", "matched", "predicted_not_found",
        "found_not_predicted", "notes",
    }
    assert payload["family"] == "OR" and payload["n"] == 4
    for entry in payload["found_not_predicted"]:
        assert {"classes", "zero_class_kind", "unit_classes"} <= set(entry)


def test_predictions_rejected_for_plain_rook_family(r4):
    with pytest.raises(ValueError):
        predicted_congruences(r4)

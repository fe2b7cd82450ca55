import dataclasses
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from rookmonoids import (
    FamilySpec,
    InvariantViolation,
    PartialInjection,
    Partition,
    PermGroup,
    build_family,
    congruence_closure,
    congruence_lattice,
    enumerate_ideals,
    enumerate_universe,
    green_partition,
    h_class_group,
    is_congruence,
    maximal_subgroup,
    normal_subgroups,
    predicted_congruences,
    symmetric_group,
    verify_classification,
)
from rookmonoids import congruences, families
from rookmonoids.core import element_limit, image_codes
from rookmonoids.families import (
    _annotate_unmatched,
    _family_partitions,
    _labelled,
    _least_rows,
    _levels,
)

from oracles import family_partition_reference, is_even, least_rows_reference

# The unit pairings of the two degree-4 specials, as full-rank image tuples:
# the old pair form, kept as the oracle of the W′ split that builds them.
_OR4_UNIT_PAIRS = {
    1: (((1, 2, 3, 4), (2, 1, 4, 3)), ((3, 4, 1, 2), (4, 3, 2, 1))),
    2: (((1, 2, 3, 4), (3, 4, 1, 2)), ((2, 1, 4, 3), (4, 3, 2, 1))),
}


def units_of(universe):
    return universe.units()


def rank_family(universe, k, label):
    """The rank-k family of the universe's kind with the labelled subgroup."""
    return build_family(universe, FamilySpec(f"{universe.family}_eqN", k=k, n_label=label))


def half_rank_family(universe, label1, label2):
    return build_family(universe, FamilySpec("OR_eqN1N2", n1_label=label1, n2_label=label2))


def typed_family(universe, variant, label):
    return build_family(universe, FamilySpec(f"OR_eq{variant}", k=universe.n // 2, n_label=label))


def special(universe, which):
    return build_family(universe, FamilySpec(f"OR_eq{which}"))


def unit_pairing_shape(universe):
    """Special 1's unit split with no zero ideal: pairing the units alone
    relates rank-2 elements of OR_4 that no class holds together."""
    units = maximal_subgroup(universe, 4)
    return universe.ranks < 1, [(universe.ranks == 4, units, units.cosets({(1, 2, 3, 4), (2, 1, 4, 3)}))]


def test_rank_family_at_level_one_is_the_identity(or4, or6):
    for universe in (or4, or6):
        part = rank_family(universe, 1, "1")
        assert part == Partition.identity(universe)


def test_rank_family_structure_on_or6(or6):
    part = rank_family(or6, 2, "full")
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
        rank_family(or4, 2, "full")
    with pytest.raises(ValueError):
        rank_family(or4, 0, "1")
    with pytest.raises(ValueError):
        rank_family(or4, 1, "full")  # S_1 has one normal subgroup, labelled 1
    with pytest.raises(ValueError):
        rank_family(enumerate_universe("SR", 6), 3, "order2")  # no order-2 normal subgroup of S_3
    # The levels: 1..m-1 on OR, 1..m and n on SR, 1..n on R.
    for universe, accepted, rejected in (
        (or6, (1, 2), (0, 3, 6)),
        (sr4, (1, 2, 4), (0, 3)),
        (r4, (1, 2, 3, 4), (0, 5)),
    ):
        for k in accepted:
            assert is_congruence(universe, rank_family(universe, k, "1"))
        for k in rejected:
            with pytest.raises(ValueError, match="is not a family of"):
                rank_family(universe, k, "1")


def test_or_families_refuse_bad_parameters(or4, sr4):
    with pytest.raises(ValueError, match=r"FamilySpec\(tag='OR_eq3'.* is not a family of OR_4"):
        special(or4, 3)
    with pytest.raises(ValueError, match="is not a family of SR_4"):
        half_rank_family(sr4, "1", "1")


@pytest.mark.parametrize("name, good, field, wrong", [
    ("or4", FamilySpec("OR_eqI", k=2, n_label="1"), "k", 1),
    ("or4", FamilySpec("OR_eqN", k=1, n_label="1"), "tag", "SR_eqN"),
    ("or4", FamilySpec("OR_eqN", k=1, n_label="1"), "k", 2),
    ("sr4", FamilySpec("SR_eqN", k=4, n_label="full"), "k", 3),
    ("or4", FamilySpec("OR_eqN1N2", n1_label="1", n2_label="full"), "n2_label", "alt"),
    ("or4", FamilySpec("OR_eqII", k=2, n_label="full"), "tag", "OR_eqIII"),
    ("or4", FamilySpec("OR_eq2"), "k", 2),
    ("or4", FamilySpec("universal"), "n_label", "1"),
    ("or6", FamilySpec("OR_eqN1N2", n1_label="alt", n2_label="1"), "tag", "OR_eq1"),
    ("r4", FamilySpec("R_eqN", k=4, n_label="order4"), "n_label", "order2"),
])
def test_build_family_refuses_a_spec_with_one_wrong_field(name, good, field, wrong, request):
    """Each spec that ``_specs`` lists builds; with one field changed it
    names no family and is refused: a wrong level, family, variant or
    label, a special off degree 4 and a field the family does not take."""
    universe = request.getfixturevalue(name)
    assert is_congruence(universe, build_family(universe, good))
    bad = dataclasses.replace(good, **{field: wrong})
    with pytest.raises(ValueError, match=re.escape(f"{bad!r} is not a family of")):
        build_family(universe, bad)


def test_build_family_refuses_a_spec_in_json_form(or4):
    with pytest.raises(ValueError, match="is not a family of OR_4"):
        build_family(or4, FamilySpec("OR_eq1").to_json())


@pytest.mark.parametrize("family, n", [
    ("OR", 2), ("OR", 4), ("OR", 6), ("SR", 2), ("SR", 4), ("SR", 6), ("R", 2), ("R", 4), ("R", 6),
])
def test_every_verified_spec_builds_its_lattice_member(family, n):
    """Every spec of a matched entry of the verify JSON, read back as a
    ``FamilySpec``, builds the lattice member that the entry names."""
    universe = enumerate_universe(family, n)
    lattice = congruence_lattice(universe)
    payload = json.loads(json.dumps(verify_classification(universe).to_json()))
    specs = [(FamilySpec(**spec), entry["lattice_index"])
             for entry in payload["matched"] for spec in entry["specs"]]
    assert len(specs) == len(families._specs(universe))
    for spec, index in specs:
        assert build_family(universe, spec) == lattice[index]


def test_two_subgroup_family(or2, or4):
    assert half_rank_family(or2, "1", "1") == Partition.identity(or2)
    rees = half_rank_family(or4, "1", "1")
    assert set(rees.class_of(0)) == {i for i in range(len(or4)) if or4.ranks[i] < 2}
    assert all(
        len(block) == 1
        for block in rees.classes()
        if int(or4.ranks[block[0]]) >= 2
    )
    lopsided = half_rank_family(or4, "full", "1")
    mirrored = half_rank_family(or4, "1", "full")
    assert lopsided != mirrored
    for block in lopsided.classes():
        if int(or4.ranks[block[0]]) == 2:
            mtype = or4.mtypes[block[0]]
            assert len(block) == (2 if mtype == "I" else 1)


def test_typed_family_on_or4(or4):
    part = typed_family(or4, "I", "1")
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

    merged = typed_family(or4, "I", "full")
    for block in merged.classes():
        if or4.mtypes[block[0]] == "I" and int(or4.ranks[block[0]]) == 2:
            assert len(block) == 2

    assert typed_family(or4, "I", "1") != typed_family(or4, "II", "1")
    with pytest.raises(ValueError):
        typed_family(or4, "III", "1")


def test_typed_families_differ_for_every_subgroup(or4, or6):
    for universe in (or4, or6):
        for label in _labelled(symmetric_group(universe.n // 2)):
            one = typed_family(universe, "I", label)
            two = typed_family(universe, "II", label)
            assert one != two
            assert set(one.class_of(0)) != set(two.class_of(0))


@pytest.mark.parametrize("family, n", [
    *(("S", k) for k in range(1, 8)), ("SR", 6), ("SR", 8), ("R", 6),
])
def test_labelled_alt_is_the_even_permutations(family, n):
    """``_labelled`` finds the even permutations as one array operation;
    against the inversion count of each permutation on its own, on S_1 to
    S_7 and the unit groups of SR_6, SR_8 and R_6.  "alt" names them
    whenever they are a proper nontrivial subgroup."""
    if family == "S":
        parent = symmetric_group(n)
    else:
        parent = maximal_subgroup(enumerate_universe(family, n), n)
    even = frozenset(p for p in parent if is_even(p))
    labelled = _labelled(parent)
    assert list(labelled.values()) == list(normal_subgroups(parent))
    assert _labelled(parent) is labelled
    if 1 < len(even) < len(parent):
        assert labelled["alt"] == even
    else:
        assert "alt" not in labelled


def test_special_congruences_class_structure(or4):
    d1 = or4.element_index(PartialInjection(4, (2, 1, 4, 3)))
    d2 = or4.element_index(PartialInjection(4, (3, 4, 1, 2)))
    d12 = or4.element_index(PartialInjection(4, (4, 3, 2, 1)))

    eq1 = special(or4, 1)
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

    eq2 = special(or4, 2)
    assert is_congruence(or4, eq2)
    assert set(eq2.class_of(1)) == {1, d2}
    assert set(eq2.class_of(d1)) == {d1, d12}
    assert set(eq2.class_of(0)) == {
        i for i in range(len(or4))
        if or4.ranks[i] < 2 or (or4.ranks[i] == 2 and or4.mtypes[i] == "I")
    }
    assert eq1 != eq2


def test_special_congruence_relates_the_translated_pairs(or4):
    eq1 = special(or4, 1)
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
    assert congruence_closure(or4, [(1, d1)]) == special(or4, 1)
    assert congruence_closure(or4, [(1, d2)]) == special(or4, 2)


def test_builder_refuses_a_partition_that_is_not_a_congruence(or4, monkeypatch):
    """A listed spec whose shape is the unit pairing alone is refused."""
    monkeypatch.setattr(families, "_shape", lambda universe, spec: unit_pairing_shape(universe))
    with pytest.raises(InvariantViolation, match="not a congruence"):
        special(or4, 1)


def min_code_partition(universe, zero, splits, unit_pairs=()):
    """Oracle for ``_family_partitions``, keyed as before coset labels: a
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
        for label, sub in _labelled(group).items():
            assert rank_family(universe, k, label) == min_code_partition(
                universe, ranks < k, [(ranks == k, sub)])
    if universe.family == "OR":
        subs = _labelled(symmetric_group(m)).items()
        for label1, sub1 in subs:
            for label2, sub2 in subs:
                assert half_rank_family(universe, label1, label2) == min_code_partition(
                    universe, ranks < m, [(mtypes == "I", sub1), (mtypes == "II", sub2)])
            for variant, other in (("I", "II"), ("II", "I")):
                assert typed_family(universe, variant, label1) == min_code_partition(
                    universe, (ranks < m) | (mtypes == other), [(mtypes == variant, sub1)])


def test_specials_split_by_the_one_coset_of_s2(or4):
    """Each degree-4 special, built with the full S_2 split and the W′ split
    of the units, is the old build: the typed zero class, whole H-classes
    (a ``None`` subgroup, or S_2's one coset) and the units merged in pairs."""
    s2 = symmetric_group(2)
    for which, (swallowed, kept) in ((1, ("II", "I")), (2, ("I", "II"))):
        zero = (or4.ranks < 2) | (or4.mtypes == swallowed)
        pairs = [
            tuple(or4.element_index(PartialInjection(4, images)) for images in pair)
            for pair in _OR4_UNIT_PAIRS[which]
        ]
        built = special(or4, which)
        assert built == min_code_partition(
            or4, zero, [(or4.mtypes == kept, None)], pairs)
        assert built == family_partition_reference(
            or4, zero, [(or4.mtypes == kept, s2, s2.cosets(s2))], pairs)
    assert not s2.cosets(s2).any()


def test_specials_split_the_units_by_their_labelled_subgroups(or4):
    """``OR_eq1`` splits the units by the cosets of W′'s {1234, 2143} and
    ``OR_eq2`` by those of {1234, 3412}: each coset is one pair of
    ``_OR4_UNIT_PAIRS``, labelled by its least index in W′."""
    w = maximal_subgroup(or4, 4)
    perms = [tuple(p) for p in w.perms.tolist()]
    for which in (1, 2):
        mask, group, labels = families._shape(or4, FamilySpec(f"OR_eq{which}"))[1][-1]
        assert group is w and np.array_equal(mask, or4.ranks == 4)
        expected = list(range(len(w)))
        for pair in _OR4_UNIT_PAIRS[which]:
            at = [perms.index(p) for p in pair]
            for i in at:
                expected[i] = min(at)
        assert labels.tolist() == expected


def test_unit_level_split_gathers_no_coset_images(sr8):
    """The SR_8 unit level with the full unit group W, order 384: each
    member is keyed by one coset label, so the build peaks far below the
    384 × 384 × 8 intp gather of the min-image-code key (9.4 MB)."""
    w = maximal_subgroup(sr8, 8)
    sr8.translations()
    _labelled(w)
    tracemalloc.start()
    try:
        part = rank_family(sr8, 8, "full")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert part.num_classes == 2
    assert peak < 2**22


def outside_split(mask):
    """A split by a group of degree 2 that holds none of the other H-coordinates."""
    trivial = PermGroup(2, [(1, 2)])
    return mask, trivial, trivial.cosets(trivial)


def test_builder_refuses_an_h_coordinate_outside_the_group(or4):
    with pytest.raises(InvariantViolation, match="H-coordinate of element"):
        _least_rows(or4, [(or4.ranks < 2, [outside_split(or4.ranks == 2)])])


@pytest.mark.parametrize("family", ["OR", "SR", "R"])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_least_rows_match_the_sorting_reference(family, n):
    """``_least_rows`` writes each least member off the H-class layout of
    ``_h_split``; the reference finds it with ``np.unique``.  Every spec of
    the universe, in blocks of 1 row, 2 rows and all rows."""
    universe = enumerate_universe(family, n)
    shapes = [families._shape(universe, spec) for spec in families._specs(universe)]
    for rows in (1, 2, len(shapes)):
        for start in range(0, len(shapes), rows):
            block = shapes[start:start + rows]
            assert np.array_equal(_least_rows(universe, block), least_rows_reference(universe, block))


def test_builder_refuses_an_h_class_out_of_index_order():
    """Two members of one half-rank H-class of a fresh OR_4 with their
    H-coordinates swapped: the class no longer lists its members in the
    order of S_2, so its least members cannot be read off the layout, and
    the builder and ``h_class_group`` refuse it."""
    or4 = enumerate_universe("OR", 4)
    fixed = (or4.image_matrix == 0) | (or4.image_matrix == np.arange(1, 5))
    e = np.flatnonzero((or4.mtypes == "I") & fixed.all(axis=1))[0]  # an idempotent
    i, j = np.flatnonzero((or4.dom_masks == or4.dom_masks[e]) & (or4.img_masks == or4.dom_masks[e]))
    or4.h_coords[[i, j]] = or4.h_coords[[j, i]]
    with pytest.raises(InvariantViolation, match="do not list their members in its order"):
        half_rank_family(or4, "full", "1")
    with pytest.raises(InvariantViolation, match="do not list their members in its order"):
        h_class_group(or4, int(e))


def test_a_shared_stratum_memo_keys_by_group_and_mask():
    """The universe's stratum memo looks a stratum up again under another
    group, so a group that does not hold its H-coordinates is still
    refused after one that does.  A fresh universe, since a shared
    fixture's memo may already be full."""
    or4 = enumerate_universe("OR", 4)
    half_rank_family(or4, "full", "1")
    assert len(or4._splits) == 2
    with pytest.raises(InvariantViolation, match="H-coordinate of element"):
        _least_rows(or4, [(or4.ranks < 2, [outside_split(or4.mtypes == "I")])])


def test_stratum_memo_keys_pack_the_mask_to_bits():
    """The stratum memo keys each mask by its packed bits, N/8 bytes, not
    by one byte an element: on OR_6 after the predicted families and one
    ``h_class_group`` call."""
    or6 = enumerate_universe("OR", 6)
    predicted_congruences(or6)
    h_class_group(or6, 1)
    assert len(or6._splits) > 1
    assert {len(mask) for _, mask in or6._splits} == {-(-len(or6) // 8)}


def counting_indices(monkeypatch):
    """The degrees of the groups whose ``PermGroup._indices`` runs, in call order."""
    degrees = []
    indices = PermGroup._indices

    def counting(self, images):
        degrees.append(self.degree)
        return indices(self, images)

    monkeypatch.setattr(PermGroup, "_indices", counting)
    return degrees


def test_separate_builder_calls_look_each_stratum_up_once(monkeypatch):
    """Two ``build_family`` calls on one universe share its memo: each
    half-rank type is looked up by the first call only."""
    or4 = enumerate_universe("OR", 4)
    degrees = counting_indices(monkeypatch)
    first = half_rank_family(or4, "full", "1")
    assert degrees == [2, 2]
    second = half_rank_family(or4, "1", "full")
    assert degrees == [2, 2]
    assert first != second


def test_h_class_group_shares_the_stratum_memo(monkeypatch):
    """``h_class_group`` reads its H-class through the memo of ``_h_split``:
    a second call looks nothing up, nor does the W′ split of a special,
    whose stratum is the identity's H-class under the same group."""
    or4 = enumerate_universe("OR", 4)
    degrees = counting_indices(monkeypatch)
    first = h_class_group(or4, 1)
    assert degrees == [4]
    assert h_class_group(or4, 1) == first and degrees == [4]
    special(or4, 1)
    assert degrees == [4, 2]


def test_special_congruences_need_degree_four(or6):
    with pytest.raises(ValueError):
        special(or6, 1)


def test_symplectic_family(sr2, sr4):
    assert rank_family(sr4, 1, "1") == Partition.identity(sr4)
    assert rank_family(sr2, 1, "1") == Partition.identity(sr2)

    top = rank_family(sr4, 4, "full")
    assert set(top.class_of(0)) == {i for i in range(len(sr4)) if sr4.ranks[i] < 4}
    assert set(top.class_of(1)) == set(units_of(sr4))
    assert top.num_classes == 2

    mid = rank_family(sr4, 2, "full")
    assert set(mid.class_of(0)) == {i for i in range(len(sr4)) if sr4.ranks[i] < 2}
    for block in mid.classes():
        rank = int(sr4.ranks[block[0]])
        if rank == 2:
            assert len(block) == 2
        elif rank == 4:
            assert len(block) == 1

    with pytest.raises(ValueError):
        rank_family(sr4, 3, "1")


def test_family_monotonicity(or4, or6, sr4):
    small, big = "1", "full"
    assert rank_family(or6, 2, small).refines(rank_family(or6, 2, big))
    assert half_rank_family(or4, small, small).refines(half_rank_family(or4, big, small))
    assert typed_family(or4, "I", small).refines(typed_family(or4, "I", big))
    assert rank_family(sr4, 2, small).refines(rank_family(sr4, 2, big))
    for label in _labelled(maximal_subgroup(sr4, 4)):
        assert rank_family(sr4, 4, "1").refines(rank_family(sr4, 4, label))


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


def test_fresh_universes_share_one_unit_group(monkeypatch):
    """The unit group depends only on the family and the degree: two fresh
    SR_6 universes read the same group, and predictions on the second build
    no group and recompute no normal subgroups."""
    first, second = enumerate_universe("SR", 6), enumerate_universe("SR", 6)
    predicted_congruences(first)
    built, lattices = [], []
    init, lattice_ids = PermGroup.__init__, congruences._lattice_ids

    def counting(self, degree, elements):
        built.append(degree)
        init(self, degree, elements)

    monkeypatch.setattr(PermGroup, "__init__", counting)
    monkeypatch.setattr(congruences, "_lattice_ids",
                        lambda *args: lattices.append(args) or lattice_ids(*args))
    assert maximal_subgroup(second, 6) is maximal_subgroup(first, 6)
    assert len(maximal_subgroup(second, 6)) == 48
    predicted_congruences(second)
    assert built == [] and lattices == []


def test_unit_groups_are_cached_per_family_and_degree(or4, sr4):
    """OR_4 and SR_4 share the degree but not the unit group: W′ of order 4
    and the signed group of order 8."""
    w_or, w_sr = maximal_subgroup(or4, 4), maximal_subgroup(sr4, 4)
    assert w_or is not w_sr
    assert (len(w_or), len(w_sr)) == (4, 8)


@pytest.mark.parametrize("n, extras", [(4, 5), (6, 4), (8, 8)])
def test_or_extras_are_the_rees_quotients_with_units_split_by_w_prime(n, extras, monkeypatch):
    """On OR the congruences no family predicts are, as a set, one per
    normal subgroup N of W′: every non-unit in the zero class, and the
    units split by the cosets of N.  Only tested here: no family builds
    them, so the builder reads their shapes by label."""
    u = enumerate_universe("OR", n)
    w = maximal_subgroup(u, n)
    shapes = {label: (u.ranks < n, [(u.ranks == n, w, w.cosets(sub))])
              for label, sub in _labelled(w).items()}
    monkeypatch.setattr(families, "_shape", lambda universe, label: shapes[label])
    expected = {part.key for part in _family_partitions(u, list(shapes))}
    monkeypatch.undo()
    found = [Partition.from_classes(u, entry["classes"]).key
             for entry in verify_classification(u).found_not_predicted]
    assert len(found) == len(set(found)) == len(expected) == extras
    assert set(found) == expected


def test_predictions_look_each_split_stratum_up_once(monkeypatch):
    """OR_6 has 18 split families over 4 strata: rank 1 with S_1, rank 2
    with S_2, and the two half-rank types with S_3.  A fresh universe,
    since a shared fixture's memo may already be full."""
    or6 = enumerate_universe("OR", 6)
    degrees = counting_indices(monkeypatch)
    predicted_congruences(or6)
    assert sorted(degrees) == [1, 2, 3, 3]


@pytest.mark.parametrize("family, n", [
    ("OR", 2), ("OR", 4), ("OR", 6), ("OR", 8), ("SR", 2), ("SR", 4), ("SR", 6), ("SR", 8),
    ("R", 2), ("R", 4), ("R", 6),
])
def test_predictions_match_the_per_family_reference(monkeypatch, family, n):
    """Every family built in blocks from the strata shared on the universe
    against the same family built on its own, keyed by a void-row unique:
    the same partitions with the same specs, in the same order."""
    universe = enumerate_universe(family, n)
    built = [(part.key, specs) for part, specs in predicted_congruences(universe)]
    monkeypatch.setattr(families, "_family_partitions", per_shape_reference)
    reference = [(part.key, specs) for part, specs in predicted_congruences(universe)]
    assert built == reference


def per_shape_reference(universe, specs):
    """``family_partition_reference`` on each spec's shape, one family at a time."""
    return [family_partition_reference(universe, *families._shape(universe, spec)) for spec in specs]


@pytest.mark.parametrize("rows", [1, 2, 5])
@pytest.mark.parametrize("name", ["or4", "or6", "sr4", "sr6", "r4"])
def test_predictions_are_the_same_in_blocks_of_any_size(name, rows, request, monkeypatch):
    """The block builder with its budget shrunk to ``rows`` rows a block,
    so the predictions span several blocks, gives the same partitions with
    the same specs as the default block and as the per-shape reference."""
    universe = request.getfixturevalue(name)
    moves = universe.translations()
    default = predicted_congruences(universe)
    blocks = []
    least_rows = families._least_rows
    monkeypatch.setattr(families, "_least_rows",
                        lambda u, chunk: blocks.append(len(chunk)) or least_rows(u, chunk))
    monkeypatch.setattr(congruences, "TABLE_BLOCK_BYTES", rows * (moves.nbytes + 16 * len(universe)))
    blocked = predicted_congruences(universe)
    assert len(blocks) > 1 and set(blocks[:-1]) == {rows} and 0 < blocks[-1] <= rows
    assert sum(blocks) == sum(len(specs) for _, specs in default)
    assert [(p.key, specs) for p, specs in blocked] == [(p.key, specs) for p, specs in default]
    monkeypatch.setattr(families, "_family_partitions", per_shape_reference)
    reference = predicted_congruences(universe)
    assert [(p.key, specs) for p, specs in blocked] == [(p.key, specs) for p, specs in reference]


def test_block_builder_refuses_one_bad_shape_among_good_ones(or4, monkeypatch):
    """Special 1's unit split with no zero ideal is no congruence: set
    after, between and before good shapes, in one block or in blocks of
    two rows, the builder refuses it and names its spec."""
    bad = FamilySpec("unit pairing")
    shape = families._shape
    monkeypatch.setattr(families, "_shape",
                        lambda u, spec: unit_pairing_shape(u) if spec == bad else shape(u, spec))
    good = [FamilySpec("OR_eqN", k=1, n_label="1"), FamilySpec("OR_eqI", k=2, n_label="full"),
            FamilySpec("OR_eq2")]
    for rows in (None, 2):
        if rows is not None:
            monkeypatch.setattr(congruences, "TABLE_BLOCK_BYTES",
                                rows * (or4.translations().nbytes + 8 * len(or4)))
        for at in (3, 1, 0):
            with pytest.raises(InvariantViolation, match=re.escape(f"of {bad!r} is not a congruence")):
                _family_partitions(or4, good[:at] + [bad] + good[at:])
    assert len(_family_partitions(or4, good)) == 3


@pytest.mark.skipif(element_limit() < 1_441_729,
                    reason="R_8 needs RCL_BUDGET_ELEMENTS of at least 1,441,729, its size")
def test_r8_predictions_match_liber():
    """Liber (1953): R_8 has 1 + (1 + 2 + 3 + 4 + 3 + 3 + 3 + 3) = 23
    congruences, the universal one and one for each normal subgroup of
    S_k, 1 <= k <= 8.  The predictions are 23 distinct partitions, and the
    sha256 of their canonical ids and spec JSON is the one recorded when
    each family was built on its own."""
    preds = predicted_congruences(enumerate_universe("R", 8))
    assert len(preds) == 23
    digest = hashlib.sha256()
    for part, specs in preds:
        digest.update(part.ids.astype("<i4").tobytes())
        digest.update(json.dumps([s.to_json() for s in specs]).encode())
    assert digest.hexdigest() == "3389d1adc5781ce63aa635d43f4324d7074b7d16ae20a335915800704fae87a7"


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
    special_keys = {special(or4, 1).key, special(or4, 2).key}
    assert special_keys <= {p.key for p, _ in preds}
    assert len(preds) == 12


def test_predicted_congruence_parameter_count_sr4(sr4):
    preds = predicted_congruences(sr4)
    total_specs = sum(len(specs) for _, specs in preds)
    w = maximal_subgroup(sr4, 4)
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


def test_typed_families_note_is_reported_for_or_only(or4, sr4, r4):
    """Only OR has typed families, so only its report describes them."""
    for universe, typed in ((or4, True), (sr4, False), (r4, False)):
        notes = verify_classification(universe).notes
        assert any(note.startswith("typed families") for note in notes) == typed
        assert "the only single-class lattice member is the universal congruence" in notes


def test_plain_rook_predictions_are_the_rank_families(r4):
    """R_4: one rank family for each normal subgroup of S_1, S_2, S_3 and
    the unit group S_4, plus the universal congruence, all distinct."""
    preds = predicted_congruences(r4)
    specs = [s for _, group in preds for s in group]
    assert {s.tag for s in specs} == {"R_eqN", "universal"}
    assert sorted(s.k for s in specs if s.k is not None) == [1, 2, 2, 3, 3, 3, 4, 4, 4, 4]
    assert len(preds) == len(specs) == 11


def old_unit_classes(universe, part):
    """The unit classes in order of their least unit, by a set loop."""
    out, seen = [], set()
    for u in sorted(universe.units()):
        if int(part.ids[u]) not in seen:
            seen.add(int(part.ids[u]))
            out.append(part.class_of(u))
    return out


@pytest.mark.parametrize("family, n", [
    ("OR", 2), ("OR", 4), ("OR", 6), ("SR", 2), ("SR", 4), ("SR", 6), ("R", 2), ("R", 4),
])
def test_zero_class_names_match_the_enumerated_ideals(family, n):
    """Every lattice member's zero class, named from its J-classes, has
    the kind and k of the enumerated ideal with the same members; the
    union kind alone decides the tag."""
    universe = enumerate_universe(family, n)
    green = green_partition(universe)
    ideal_by_members = {d.members: d for d in enumerate_ideals(universe, green)}
    units = set(universe.units())
    for i, part in enumerate(congruence_lattice(universe)):
        entry = _annotate_unmatched(universe, part, i, green)
        ideal = ideal_by_members[tuple(part.class_of(0))]
        assert (entry["zero_class_kind"], entry["zero_class_k"]) == (ideal.kind, ideal.k)
        assert entry["unit_classes"] == old_unit_classes(universe, part)
        old_tag = ideal.kind == "union" and all(set(c) <= units for c in entry["unit_classes"])
        assert (entry["tag"] == "rees_over_complement_of_units") == old_tag == (ideal.kind == "union")


def test_a_zero_class_that_is_not_a_down_set_of_j_classes_is_refused(or4):
    """Refused: a zero class that splits the rank-1 J-class, and one that
    is the zero and the units, a union of J-classes but not a down-set."""
    green = green_partition(or4)
    for glued in (np.flatnonzero(or4.ranks == 1)[:1], np.flatnonzero(or4.ranks == 4)):
        ids = np.arange(len(or4))
        ids[glued] = 0
        with pytest.raises(InvariantViolation, match="not a down-set of J-classes"):
            _annotate_unmatched(or4, Partition(or4, ids), 0, green)

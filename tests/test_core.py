import itertools
import json
import math
import random
import re

import numpy as np
import pytest

from rookmonoids import (
    InvariantViolation,
    MonoidUniverse,
    PartialInjection,
    ResourceLimitError,
    admissible_subsets,
    compose,
    conjugation_escape_witness,
    enumerate_universe,
    h_coordinate,
    idempotent_of,
    identity_map,
    in_unit_group,
    invert,
    is_admissible,
    is_idempotent,
    is_member,
    predicted_size,
    theta,
    type_of,
    zero_map,
)
from rookmonoids.core import (
    TABLE_BLOCK_BYTES,
    _locate,
    _member_mask,
    _product_codes,
    _stratum,
    element_from_json,
    element_to_json,
    image_codes,
)

from oracles import filtered_stratum, maps_admissible_sets, table_translations


def table_by_lookup(universe, rows=None):
    """Oracle for ``multiplication_table``: the image code of every product
    in the given rows (all by default), computed in blocks of about
    ``TABLE_BLOCK_BYTES`` and looked up in the sorted codes.  int16 below
    32,768 elements, else int32, as the table."""
    size = len(universe)
    rows = np.arange(size) if rows is None else np.asarray(rows)
    slots = universe.image_matrix.T.astype(np.intp)
    step = max(1, TABLE_BLOCK_BYTES // (size * 40))
    table = np.empty((len(rows), size), dtype=np.int16 if size < 2**15 else np.int32)
    for start in range(0, len(rows), step):
        codes = _product_codes(universe.image_matrix[rows[start:start + step]], slots)
        pos, found = _locate(universe._sorted_codes, codes)
        assert found.all()
        table[start:start + step] = universe._order[pos]
    return table


def brute_admissible(n, points):
    s = set(points)
    if not s or len(s) == n:
        return True
    return not (s & {n + 1 - p for p in s})


def test_theta_values():
    assert theta(8, 1) == 8
    assert theta(2, 1) == 2
    assert theta(8, 5) == 4


def test_theta_is_an_involution():
    for n in (2, 4, 6, 8, 10, 12):
        for i in range(1, n + 1):
            assert theta(n, theta(n, i)) == i


def test_theta_rejects_bad_input():
    with pytest.raises(ValueError):
        theta(8, 0)
    with pytest.raises(ValueError):
        theta(8, 9)
    with pytest.raises(ValueError):
        theta(5, 1)


def test_admissibility():
    assert is_admissible(8, {1, 2, 3})
    assert not is_admissible(8, {1, 8})
    assert is_admissible(8, set())
    assert is_admissible(8, range(1, 9))
    for n in (2, 4, 6):
        for k in range(n + 1):
            for points in itertools.combinations(range(1, n + 1), k):
                assert is_admissible(n, points) == brute_admissible(n, points)


def test_admissible_subsets_small():
    assert admissible_subsets(4, 2) == [(1, 2), (1, 3), (2, 4), (3, 4)]
    assert admissible_subsets(4, 3) == []
    assert admissible_subsets(4, 4) == [(1, 2, 3, 4)]
    assert admissible_subsets(4, 0) == [()]


def test_admissible_subsets_refuse_a_cardinality_that_is_not_an_integer():
    """A bool or a float is no cardinality, even one equal to an integer;
    a numpy integer is one."""
    for k in (True, False, 1.5, 1.0, -1, 5):
        with pytest.raises(ValueError, match="cardinality must be an integer in 0..4"):
            admissible_subsets(4, k)
    assert admissible_subsets(4, np.int64(1)) == [(1,), (2,), (3,), (4,)]


def test_admissible_subset_counts_match_exhaustive_filter():
    for n in (2, 4, 6, 8):
        m = n // 2
        for k in range(n + 1):
            brute = [
                points
                for points in itertools.combinations(range(1, n + 1), k)
                if brute_admissible(n, points)
            ]
            listed = admissible_subsets(n, k)
            assert listed == sorted(brute)
            if 0 <= k <= m:
                assert len(listed) == math.comb(m, k) * 2**k
            elif k < n:
                assert listed == []


def test_type_of():
    assert type_of(8, {1, 2, 3}) == "I"
    assert type_of(8, {2, 5, 6}) == "I"
    assert type_of(8, {1, 2, 5}) == "II"
    assert type_of(8, {5, 6, 7}) == "II"
    assert type_of(4, {1, 2}) == "I"
    assert type_of(4, {1, 3}) == "II"
    with pytest.raises(ValueError):
        type_of(4, {1, 4})
    with pytest.raises(ValueError):
        type_of(4, {1, 2, 3, 4})


def test_partial_injection_validation():
    with pytest.raises(ValueError):
        PartialInjection(4, (1, 1, 0, 0))
    with pytest.raises(ValueError):
        PartialInjection(4, (5, 0, 0, 0))
    with pytest.raises(ValueError):
        PartialInjection.from_pairs(4, [(1, 2), (1, 3)])
    e = PartialInjection.from_pairs(4, [(2, 3), (1, 4)])
    assert e.pairs() == ((1, 4), (2, 3))
    assert e.rank == 2
    assert e.domain() == (1, 2)
    assert e.image() == (3, 4)
    assert e(3) is None
    assert e(2) == 3


def test_compose_identity_and_zero_laws(or4):
    ident = identity_map(4)
    zero = zero_map(4)
    for e in or4.elements:
        assert compose(ident, e) == e
        assert compose(e, ident) == e
        assert compose(e, zero) == zero
        assert compose(zero, e) == zero


def test_compose_applies_right_factor_first():
    eps12 = idempotent_of(4, (1, 2))
    eps24 = idempotent_of(4, (2, 4))
    assert compose(eps12, eps24) == PartialInjection.from_pairs(4, [(2, 2)])


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(identity_map(4), identity_map(6))


def test_invert():
    assert invert(identity_map(4)) == identity_map(4)
    assert invert(zero_map(4)) == zero_map(4)
    s = PartialInjection.from_pairs(4, [(1, 3), (2, 1)])
    assert invert(s).pairs() == ((1, 2), (3, 1))
    for e in enumerate_universe("R", 2).elements:
        assert compose(e, invert(e)) == idempotent_of(2, e.image())
        assert compose(invert(e), e) == idempotent_of(2, e.domain())


def test_associativity_exhaustive_at_degree_2(or2, sr2):
    for universe in (or2, sr2):
        elems = universe.elements
        for a, b, c in itertools.product(elems, repeat=3):
            assert compose(compose(a, b), c) == compose(a, compose(b, c))


@pytest.mark.parametrize("family,n", [("OR", 4), ("SR", 4), ("OR", 6), ("R", 4)])
def test_associativity_random_triples(family, n):
    universe = enumerate_universe(family, n)
    rng = random.Random(20240 + n)
    elems = universe.elements
    for _ in range(10**4):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_rank_of_product_bounded_by_factors(sr4):
    table = sr4.multiplication_table()
    ranks = sr4.ranks
    for i in range(len(sr4)):
        for j in range(len(sr4)):
            assert ranks[table[i, j]] <= min(ranks[i], ranks[j])


def test_unit_group_membership():
    delta1 = PartialInjection(4, (2, 1, 4, 3))
    assert in_unit_group("OR", delta1)
    swap12 = PartialInjection(4, (2, 1, 3, 4))
    assert not in_unit_group("SR", swap12)
    assert in_unit_group("SR", identity_map(4))
    assert in_unit_group("OR", identity_map(4))
    assert not in_unit_group("OR", idempotent_of(4, (1, 2)))
    # Every full-rank map is a unit of R, mirror-compatible or not.
    assert in_unit_group("R", swap12)
    assert in_unit_group("R", PartialInjection(4, (3, 1, 4, 2)))
    assert not in_unit_group("R", PartialInjection(4, (3, 1, 0, 2)))


def test_full_rank_characterizations_agree():
    for n in (2, 4, 6):
        for p in itertools.permutations(range(1, n + 1)):
            e = PartialInjection(n, p)
            assert in_unit_group("SR", e) == maps_admissible_sets(e)


def test_membership_of_conjugated_witness():
    sigma, s = conjugation_escape_witness(8)
    assert is_member("OR", sigma)
    assert is_member("SR", sigma)
    assert not in_unit_group("SR", s)
    conj = compose(compose(invert(s), sigma), s)
    assert not is_member("SR", conj)
    assert not is_member("OR", conj)
    assert is_member("R", conj)


def test_membership_trivia():
    assert is_member("R", zero_map(4))
    assert is_member("SR", zero_map(4))
    assert is_member("OR", zero_map(4))
    bad_domain = PartialInjection.from_pairs(4, [(1, 2), (4, 3)])
    assert not is_member("SR", bad_domain)
    cross_type = PartialInjection.from_pairs(4, [(1, 1), (2, 3)])
    assert is_member("SR", cross_type)
    assert not is_member("OR", cross_type)
    same_type = PartialInjection.from_pairs(4, [(1, 3), (2, 4)])
    assert is_member("OR", same_type)


def test_universe_sizes():
    assert len(enumerate_universe("OR", 2)) == 4
    assert len(enumerate_universe("OR", 4)) == 37
    assert len(enumerate_universe("SR", 2)) == 7
    assert len(enumerate_universe("SR", 4)) == 57
    assert len(enumerate_universe("OR", 6)) == 541
    assert len(enumerate_universe("SR", 6)) == 757
    assert len(enumerate_universe("R", 4)) == 209


def test_degree_2_orthogonal_universe_matches_membership_filter(or2, sr2):
    """The degree-2 monoids, cross-checked against a filter of all partial
    injections: the two mixed-type rank-1 maps are symplectic but not
    orthogonal, so OR_2 has 4 elements while SR_2 has 7."""
    r2 = enumerate_universe("R", 2)
    filtered_or = {e for e in r2.elements if is_member("OR", e)}
    filtered_sr = {e for e in r2.elements if is_member("SR", e)}
    assert set(or2.elements) == filtered_or
    assert set(sr2.elements) == filtered_sr
    assert len(filtered_or) == 4
    assert len(filtered_sr) == 7


def test_universe_rank_strata_match_closed_forms():
    for family, n in [("OR", 2), ("OR", 4), ("OR", 6), ("SR", 2), ("SR", 4),
                      ("SR", 6), ("R", 2), ("R", 4)]:
        universe = enumerate_universe(family, n)
        assert len(universe) == predicted_size(family, n)
        m = n // 2
        if family == "R":
            expected = {k: math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1)}
        else:
            adm = [math.comb(m, k) * 2**k for k in range(m + 1)]
            expected = {k: adm[k] ** 2 * math.factorial(k) for k in range(m + 1)}
            if family == "OR":
                expected[m] = 2 * (2 ** (m - 1)) ** 2 * math.factorial(m)
                expected[n] = 2 ** (m - 1) * math.factorial(m)
            else:
                expected[n] = 2**m * math.factorial(m)
        assert universe.rank_histogram() == expected


def _rank_stratum(n, doms, imgs):
    for dom in doms:
        for img in imgs:
            for arranged in itertools.permutations(img):
                yield PartialInjection.from_pairs(n, zip(dom, arranged))


def _unit_elements(family, n):
    """The unit group of SR (all signed permutations) or OR (even ones)."""
    m = n // 2
    out = []
    for perm in itertools.permutations(range(1, m + 1)):
        for flips in itertools.product((False, True), repeat=m):
            images = [0] * n
            for i, (p, f) in enumerate(zip(perm, flips), start=1):
                v = n + 1 - p if f else p
                images[i - 1] = v
                images[n - i] = n + 1 - v
            e = PartialInjection(n, images)
            if family == "SR" or in_unit_group("OR", e):
                out.append(e)
    return out


def reference_universe(family, n):
    """Enumeration by objects: each rank stratum as domain sets x image sets
    x arrangements, every element checked with is_member, the zero map and
    the identity first and the rest sorted by sort_key."""
    m = n // 2
    members = []
    if family == "R":
        for k in range(n):
            subsets = list(itertools.combinations(range(1, n + 1), k))
            members.extend(_rank_stratum(n, subsets, subsets))
        members.extend(PartialInjection(n, p) for p in itertools.permutations(range(1, n + 1)))
    else:
        top = m if family == "SR" else m - 1
        for k in range(top + 1):
            subsets = admissible_subsets(n, k)
            members.extend(_rank_stratum(n, subsets, subsets))
        if family == "OR":
            by_type = {"I": [], "II": []}
            for a in admissible_subsets(n, m):
                by_type[type_of(n, a)].append(a)
            for subsets in by_type.values():
                members.extend(_rank_stratum(n, subsets, subsets))
        members.extend(_unit_elements(family, n))
    assert all(is_member(family, e) for e in members)
    zero, ident = zero_map(n), identity_map(n)
    rest = sorted((e for e in members if e not in (zero, ident)), key=PartialInjection.sort_key)
    return [zero, ident] + rest


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("family", ["R", "SR", "OR"])
def test_image_matrix_matches_the_object_enumeration(family, n):
    expected = [list(e.images) for e in reference_universe(family, n)]
    assert enumerate_universe(family, n).image_matrix.tolist() == expected


@pytest.mark.parametrize("family, n", [
    *((family, n) for family in ("OR", "SR") for n in (2, 4, 6, 8)),
    ("R", 2), ("R", 4), ("R", 6),
])
def test_strata_match_the_filter_oracle(family, n):
    """Every rank stratum, built from the admissible image sets and the
    signed permutations, is byte for byte the stratum that listing every
    arrangement and filtering it with ``_member_mask`` gives."""
    for k in range(1, n + 1):
        built, expected = _stratum(family, n, k), filtered_stratum(family, n, k)
        assert built.dtype == expected.dtype and built.shape == expected.shape, k
        assert built.tobytes() == expected.tobytes(), k


@pytest.mark.parametrize("n", [2, 4, 6])
def test_member_mask_matches_is_member(n):
    everything = enumerate_universe("R", n)
    for family in ("R", "SR", "OR"):
        expected = [is_member(family, e) for e in everything.elements]
        assert _member_mask(family, everything.image_matrix).tolist() == expected


@pytest.mark.parametrize("name", ["or4", "sr4", "r4", "or6", "sr6"])
def test_element_arrays_match_the_objects(name, request):
    """Ranks, masks, half-rank types and zero-padded H-coordinates."""
    universe = request.getfixturevalue(name)
    n, m = universe.n, universe.n // 2
    for i, e in enumerate(universe.elements):
        assert universe.ranks[i] == e.rank
        assert universe.dom_masks[i] == sum(1 << (p - 1) for p in e.domain())
        assert universe.img_masks[i] == sum(1 << (p - 1) for p in e.image())
        half = universe.family == "OR" and e.rank == m
        assert universe.mtypes[i] == (type_of(n, e.domain()) if half else "")
        mu = list(h_coordinate(e))
        assert universe.h_coords[i].tolist() == mu + [0] * (n - len(mu))


def test_universe_rejects_a_bad_image_matrix(or4):
    good = or4.image_matrix.astype(np.int64)

    def with_row_5(images):
        out = good.copy()
        out[5] = images
        return out

    cases = [
        (good[:, :3], ValueError, r"need an \(N, 4\) integer matrix"),
        (good[0], ValueError, r"need an \(N, 4\) integer matrix"),
        (good.astype(float), ValueError, r"need an \(N, 4\) integer matrix"),
        (with_row_5((5, 0, 0, 0)), ValueError, r"row 5: targets must lie in 0\.\.4"),
        (with_row_5((-1, 0, 0, 0)), ValueError, r"row 5: targets must lie in 0\.\.4"),
        (with_row_5((1, 0, 1, 0)), ValueError, "row 5: a target is repeated"),
        (np.vstack([good, good[7:8]]), InvariantViolation, "duplicate"),
        (good[[2, 1, 0, *range(3, 37)]], InvariantViolation, "zero and identity"),
        (good[[0, 5, 2, 3, 4, 1, *range(6, 37)]], InvariantViolation, "zero and identity"),
        (good[:0], InvariantViolation, "zero and identity"),
    ]
    for images, error, match in cases:
        with pytest.raises(error, match=match):
            MonoidUniverse("OR", 4, images)
    rebuilt = MonoidUniverse("OR", 4, good)
    assert np.array_equal(rebuilt.multiplication_table(), or4.multiplication_table())


def test_element_index_refuses_non_members(or4):
    assert or4.element_index(identity_map(4)) == 1
    # The identity of degree 2 has the image code of 3 -> 1, a member of OR_4.
    for e in (PartialInjection(4, (2, 1, 3, 4)), identity_map(2), identity_map(6), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match="not a member of OR_4"):
            or4.element_index(e)


def test_universe_canonical_positions(or4):
    assert or4.elements[0] == zero_map(4)
    assert or4.elements[1] == identity_map(4)
    rest = [e.sort_key() for e in or4.elements[2:]]
    assert rest == sorted(rest)


def test_universe_budget():
    with pytest.raises(ResourceLimitError):
        enumerate_universe("R", 8)
    with pytest.raises(ResourceLimitError):
        enumerate_universe("OR", 8, limit=100)
    assert len(enumerate_universe("R", 8, limit=10**7)) == 1441729


def test_product_table_is_refused_before_it_is_built():
    or8 = enumerate_universe("OR", 8)
    with pytest.raises(ResourceLimitError, match="product table for 10625 elements"):
        or8.multiplication_table()
    assert or8._table is None


@pytest.mark.parametrize("limit", [-5, "abc", True, 2.7])
def test_universe_budget_refuses_a_limit_that_is_not_a_non_negative_integer(limit):
    """``limit=`` is checked as ``RCL_BUDGET_ELEMENTS`` is: not read as -5,
    parsed as a string, or rounded from a bool or a float."""
    message = f"limit= must be a non-negative integer, got {limit!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        enumerate_universe("OR", 2, limit=limit)


def test_universe_budget_accepts_integer_limits():
    with pytest.raises(ResourceLimitError, match="over the budget 0"):
        enumerate_universe("OR", 2, limit=0)
    assert predicted_size("OR", 4) <= 40
    assert len(enumerate_universe("OR", 4, limit=np.int64(40))) == predicted_size("OR", 4)


def test_a_numpy_integer_degree_is_read_as_an_int():
    """A degree obeys the one integer rule that budgets, element indices
    and ``symmetric_group`` obey: a numpy integer is kept as an ``int``."""
    or4 = enumerate_universe("OR", np.int64(4))
    assert type(or4.n) is int
    assert np.array_equal(or4.image_matrix, enumerate_universe("OR", 4).image_matrix)
    f = PartialInjection(np.int64(4), (2, 1, 0, 0))
    assert type(f.n) is int and f == PartialInjection(4, (2, 1, 0, 0))
    assert json.dumps(element_to_json(f)) == '{"n": 4, "map": [[1, 2], [2, 1]]}'
    assert predicted_size("SR", np.int64(4)) == 57
    assert theta(np.int64(4), 1) == 4 and type_of(np.int64(4), (1, 2)) == "I"


@pytest.mark.parametrize("n", [4.0, True, np.float64(4), "4"])
def test_a_degree_that_is_not_an_integer_is_refused(n):
    message = f"degree must be an even integer >= 2, got {n!r}"
    for call in (lambda: enumerate_universe("OR", n), lambda: PartialInjection(n, (1, 2, 3, 4)),
                 lambda: predicted_size("OR", n), lambda: theta(n, 1),
                 lambda: PartialInjection.from_pairs(n, [(1, 2)]),
                 lambda: element_from_json({"n": n, "map": [[1, 2]]})):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
    with pytest.raises(ValueError, match=re.escape("got 4.5")):
        element_from_json({"n": 4.5, "map": [[1, 2]]})


@pytest.mark.parametrize("bad", [2.7, 2.0, 0.0, True, False, np.float64(2), "2"])
def test_a_point_that_is_not_an_integer_is_refused(or4, bad):
    """Images, sources and points obey the one integer rule of degrees and
    indices (``core._is_integer``): refused, not rounded to a point, and
    a float or bool 0 is not read as an unmapped slot."""
    calls = (
        lambda: PartialInjection(4, (bad, 1, 0, 0)),
        lambda: PartialInjection.from_pairs(4, [(bad, 2)]),
        lambda: PartialInjection.from_pairs(4, [(1, bad)]),
        lambda: theta(4, bad),
        lambda: is_admissible(4, [bad]),
        lambda: type_of(4, [1, bad]),
        lambda: idempotent_of(4, [bad]),
        lambda: or4.idempotent_index((1, bad)),
        lambda: identity_map(4)(bad),
    )
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"{bad!r} is not an integer")):
            call()


def test_numpy_integer_points_are_read_as_ints(or4):
    f = PartialInjection(4, np.array([2, 1, 0, 0], dtype=np.uint8))
    assert all(type(v) is int for v in f.images)
    assert f == PartialInjection.from_pairs(4, [(np.int64(1), np.int32(2)), (np.int16(2), np.uint8(1))])
    assert f(np.int64(1)) == 2 and type(theta(4, np.int64(1))) is int
    assert is_admissible(4, [np.int8(1), np.int64(2)])
    assert or4.idempotent_index((1, np.int64(2))) == or4.idempotent_index((1, 2))
    assert element_from_json({"n": np.int64(4), "map": [[np.int64(1), 2]]}) == PartialInjection(4, (2, 0, 0, 0))


def test_universe_closure_exhaustive_small():
    for family, n in [("OR", 2), ("OR", 4), ("SR", 2), ("SR", 4), ("R", 4)]:
        universe = enumerate_universe(family, n)
        table = universe.multiplication_table()
        assert table.shape == (len(universe), len(universe))
        for i in range(len(universe)):
            for j in range(len(universe)):
                assert is_member(family, universe.elements[table[i, j]])


def test_product_table_refuses_a_universe_not_closed_under_products(or4):
    truncated = MonoidUniverse("OR", 4, or4.image_matrix[:-1])
    with pytest.raises(InvariantViolation, match="escaped OR_4"):
        truncated.multiplication_table()


def test_product_refuses_a_product_outside_the_universe(or4):
    truncated = MonoidUniverse("OR", 4, or4.image_matrix[:-1])
    d1 = truncated.element_index(PartialInjection(4, (2, 1, 4, 3)))
    d2 = truncated.element_index(PartialInjection(4, (3, 4, 1, 2)))
    with pytest.raises(InvariantViolation, match=f"members {d1}, {d2} escaped OR_4"):
        truncated.product(d1, d2)


@pytest.mark.parametrize("name", ["or2", "sr2", "or4", "sr4", "r4", "or6", "sr6"])
def test_product_table_matches_compose(name, request):
    """Every table entry at degrees 2 and 4, and 4,096 seeded entries at
    degree 6, against composing the two elements."""
    universe = request.getfixturevalue(name)
    table = universe.multiplication_table()
    assert table.dtype == np.int16
    size = len(universe)
    if universe.n <= 4:
        pairs = itertools.product(range(size), repeat=2)
    else:
        rng = random.Random(size)
        pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(4096)]
    elems = universe.elements
    for i, j in pairs:
        assert table[i, j] == universe.element_index(compose(elems[i], elems[j])), (i, j)


@pytest.mark.parametrize("where", ["largest", "middle"])
def test_product_table_refuses_a_missing_code(or6, where):
    """Dropping the element of largest code makes a lookup land past the
    end of the sorted codes; dropping one from the middle makes it land on
    a different code.  Both must name a pair whose product is missing."""
    codes = image_codes(or6.image_matrix)
    order = [int(i) for i in np.argsort(codes) if i > 1]
    dropped = order[-1] if where == "largest" else order[len(order) // 2]
    missing = or6.elements[dropped]
    truncated = MonoidUniverse("OR", 6, np.delete(or6.image_matrix, dropped, axis=0))
    with pytest.raises(InvariantViolation, match="escaped OR_6") as caught:
        truncated.multiplication_table()
    i, j = map(int, re.search(r"members (\d+), (\d+)", str(caught.value)).groups())
    assert compose(truncated.elements[i], truncated.elements[j]) == missing


@pytest.mark.parametrize("method", ["generators", "translations"])
@pytest.mark.parametrize("where", ["largest", "middle", "last"])
def test_generator_lookups_refuse_a_missing_element(or4, or6, method, where):
    """The generator search and the translation rows alone, with no table,
    refuse a universe missing one element (the one of largest code, one
    from the middle, or the last unit of OR_4), naming a pair whose
    product is the missing element."""
    if where == "last":
        full, dropped = or4, len(or4) - 1
    else:
        codes = image_codes(or6.image_matrix)
        order = [int(i) for i in np.argsort(codes) if i > 1]
        full, dropped = or6, order[-1] if where == "largest" else order[len(order) // 2]
    name = f"{full.family}_{full.n}"
    truncated = MonoidUniverse(full.family, full.n, np.delete(full.image_matrix, dropped, axis=0))
    with pytest.raises(InvariantViolation, match=f"escaped {name}") as caught:
        getattr(truncated, method)()
    i, j = map(int, re.search(r"members (\d+), (\d+)", str(caught.value)).groups())
    assert compose(truncated.elements[i], truncated.elements[j]) == full.elements[dropped]
    assert truncated._table is None


def test_product_table_refuses_generators_that_miss_an_element():
    """The table's Cayley-graph tree must reach every element: with the
    last generator left out, the rest do not generate the monoid."""
    universe = enumerate_universe("OR", 4)
    universe._generators = universe.generators()[:-1]
    with pytest.raises(InvariantViolation, match="not reached from the identity"):
        universe.multiplication_table()


@pytest.mark.parametrize("name", ["or2", "sr2", "or4", "sr4", "r4", "or6", "sr6"])
def test_product_table_equals_the_lookup_oracle(name, request):
    universe = request.getfixturevalue(name)
    table, expected = universe.multiplication_table(), table_by_lookup(universe)
    assert table.dtype == expected.dtype
    assert np.array_equal(table, expected)


def test_product_table_equals_the_lookup_oracle_on_or8():
    """64 seeded rows of the full OR_8 table (226 MB), built past the
    default limit."""
    universe = enumerate_universe("OR", 8)
    table = universe.multiplication_table(limit=None)
    rows = np.random.default_rng(8).choice(len(universe), 64, replace=False)
    expected = table_by_lookup(universe, rows)
    assert table.dtype == expected.dtype == np.int16
    assert np.array_equal(table[rows], expected)


@pytest.mark.parametrize("name", ["or2", "sr2", "or4", "sr4", "r4", "or6", "sr6"])
def test_translations_are_the_generator_rows_of_the_table(name, request):
    universe = request.getfixturevalue(name)
    moves = universe.translations()
    assert moves is universe.translations()
    assert not moves.flags.writeable
    expected = table_translations(universe.multiplication_table(), universe.generators())
    assert moves.dtype == expected.dtype
    assert np.array_equal(moves, expected)


def test_product_rejects_indices_outside_the_universe():
    universe = enumerate_universe("OR", 4)
    for cached in (False, True):
        if cached:
            universe.multiplication_table()
        for i, j in [(-1, 1), (37, 1), (1, -1), (1, 37), (0.5, 1), (True, 1), (1, False)]:
            with pytest.raises(ValueError, match="not an index"):
                universe.product(i, j)
        assert universe.product(1, 2) == 2


@pytest.mark.parametrize("name,count", [
    ("or2", 2), ("sr2", 2), ("or4", 4), ("sr4", 3), ("r4", 4), ("or6", 5), ("sr6", 4),
])
def test_generators_generate_the_monoid(name, count, request):
    universe = request.getfixturevalue(name)
    gens = universe.generators()
    assert len(gens) == count
    reached, frontier = {1}, {1}
    while frontier:
        frontier = {universe.product(x, g) for x in frontier for g in gens} - reached
        reached |= frontier
    assert reached == set(range(len(universe)))


def test_universe_closure_sampled_degree_6(or6):
    rng = random.Random(7)
    elems = or6.elements
    for _ in range(10**5):
        a, b = rng.choice(elems), rng.choice(elems)
        assert is_member("OR", compose(a, b))


def test_idempotents_are_exactly_the_admissible_restrictions():
    for family, n in [("OR", 2), ("OR", 4), ("OR", 6), ("SR", 4), ("SR", 6)]:
        universe = enumerate_universe(family, n)
        m = n // 2
        admissible = [a for k in list(range(m + 1)) + [n] for a in admissible_subsets(n, k)]
        expected = {idempotent_of(n, a) for a in admissible}
        found = {e for e in universe.elements if is_idempotent(e)}
        assert found == expected
        assert len(found) == 1 + sum(math.comb(m, k) * 2**k for k in range(m + 1))


def test_idempotent_of_examples():
    assert idempotent_of(4, range(1, 5)) == identity_map(4)
    assert idempotent_of(4, ()) == zero_map(4)
    assert idempotent_of(4, (1, 3)).pairs() == ((1, 1), (3, 3))
    with pytest.raises(ValueError):
        idempotent_of(4, (1, 4))


def test_is_idempotent_examples():
    assert is_idempotent(identity_map(4))
    assert not is_idempotent(PartialInjection.from_pairs(4, [(1, 2), (2, 1)]))


def test_unit_group_orders():
    for n in (2, 4, 6, 8):
        m = n // 2
        sr_units = [
            PartialInjection(n, p)
            for p in itertools.permutations(range(1, n + 1))
            if in_unit_group("SR", PartialInjection(n, p))
        ]
        or_units = [e for e in sr_units if in_unit_group("OR", e)]
        assert len(sr_units) == 2**m * math.factorial(m)
        assert len(or_units) == 2 ** (m - 1) * math.factorial(m)
        # index two and closed under conjugation from the bigger group
        or_set = set(or_units)
        assert 2 * len(or_units) == len(sr_units)
        for w in sr_units:
            wi = invert(w)
            assert all(compose(compose(w, g), wi) in or_set for g in or_units)


def test_even_units_preserve_type():
    for n in (2, 4, 6, 8):
        m = n // 2
        univ = enumerate_universe("OR", n)
        for u in (univ.elements[i] for i in univ.units()):
            for a in admissible_subsets(n, m):
                image = [u.images[p - 1] for p in a]
                assert type_of(n, image) == type_of(n, a)


def test_parity_type_matches_orbit_definition():
    """Type I sets are exactly the even-unit orbit of {1..m}, type II the
    orbit of {1..m-1, m+1}."""
    for n in (2, 4, 6, 8):
        m = n // 2
        univ = enumerate_universe("OR", n)
        units = [univ.elements[i] for i in univ.units()]
        base = {"I": tuple(range(1, m + 1)), "II": tuple(range(1, m)) + (m + 1,)}
        for a in admissible_subsets(n, m):
            t = type_of(n, a)
            assert any(
                tuple(sorted(u.images[p - 1] for p in a)) == base[t] for u in units
            )


def test_witness_requires_degree_six():
    with pytest.raises(ValueError):
        conjugation_escape_witness(4)
    sigma6, s6 = conjugation_escape_witness(6)
    assert is_member("OR", sigma6)
    assert not is_member("SR", compose(compose(invert(s6), sigma6), s6))


@pytest.mark.parametrize("build, error, message", [
    (lambda: enumerate_universe("XX", 4), ValueError,
     "unknown family 'XX', expected one of ('R', 'SR', 'OR')"),
    (lambda: PartialInjection(4, [1, 2, 3]), ValueError, "expected 4 image slots, got 3"),
    (lambda: image_codes(np.zeros((1, 16), dtype=np.uint8)), ResourceLimitError,
     "image codes of degree 16 overflow int64"),
])
def test_malformed_input_is_refused_by_name(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_image_codes_fit_int64_up_to_degree_15():
    """(n + 1)^n first exceeds the int64 range at n = 16."""
    top = np.arange(15, 0, -1)[None, :]
    assert image_codes(top)[0] == sum(int(v) * 16 ** (14 - i) for i, v in enumerate(top[0]))

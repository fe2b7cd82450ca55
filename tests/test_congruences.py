import itertools
import random
import tracemalloc

import numpy as np
import pytest

from rookmonoids import (
    DEFAULT_GROUP_LIMIT,
    PartialInjection,
    Partition,
    PermGroup,
    ResourceLimitError,
    all_congruences_naive,
    congruence_closure,
    congruence_lattice,
    enumerate_ideals,
    enumerate_universe,
    is_congruence,
    join,
    lattice_to_dot,
    normal_subgroups,
    partition_from_json,
    perm_inv,
    perm_mul,
    principal_left,
    principal_right,
    principal_twosided,
    symmetric_group,
)
from rookmonoids import congruences
from rookmonoids.congruences import (
    _closure_ids,
    _closure_reference,
    _is_congruence_ids,
    _kernel_trace_seeds,
    _lattice_ids,
    _principal_ids,
    _set_partitions,
    _translations,
)
from rookmonoids.core import InvariantViolation, MonoidUniverse, invert
from rookmonoids.families import predicted_congruences


def lattice_keys(parts):
    return [p.key for p in parts]


@pytest.fixture(scope="module")
def reference_principal():
    """Principal congruence of an element pair by the plain reference
    closure, memoized for the tests of this module."""
    memo = {}

    def principal(universe, pair):
        key = (universe.family, universe.n, pair)
        if key not in memo:
            listed = universe.multiplication_table().tolist()
            memo[key] = _closure_reference(listed, [pair])
        return memo[key]

    return principal


def test_partition_canonical_form(or4):
    ids = np.arange(len(or4)) % 3
    p = Partition(or4, ids)
    q = Partition.from_classes(or4, p.classes())
    assert p == q and p.key == q.key
    assert p.num_classes == 3
    assert p.relates(0, 3) and not p.relates(0, 1)
    classes = p.classes()
    assert [min(c) for c in classes] == sorted(min(c) for c in classes)


def test_partition_identity_and_universal(or4):
    ident = Partition.identity(or4)
    univ = Partition.universal(or4)
    assert ident.num_classes == len(or4)
    assert univ.num_classes == 1
    assert is_congruence(or4, ident)
    assert is_congruence(or4, univ)


def test_is_congruence_rejects_a_bad_merge(or4):
    ids = np.arange(len(or4))
    ids[1] = 0
    assert not is_congruence(or4, Partition(or4, ids))


def test_is_congruence_refuses_a_partition_of_another_universe(or2, or4, sr4):
    for other in (sr4, or2):
        with pytest.raises(ValueError, match="another universe"):
            is_congruence(or4, Partition.identity(other))


def test_congruence_closure_of_nothing_is_identity(or4):
    assert congruence_closure(or4, []) == Partition.identity(or4)


def test_congruence_closure_swallows_lower_ranks(or4):
    eps13 = or4.idempotent_index((1, 3))
    part = congruence_closure(or4, [(0, eps13)])
    zero_class = set(part.class_of(0))
    assert {i for i in range(len(or4)) if or4.ranks[i] <= 1} <= zero_class
    assert is_congruence(or4, part)


def test_congruence_closure_of_unit_pair_fills_a_half_rank_ideal(or4):
    d1 = or4.element_index(PartialInjection(4, (2, 1, 4, 3)))
    part = congruence_closure(or4, [(1, d1)])
    zero_class = set(part.class_of(0))
    half = [
        {i for i in range(len(or4)) if or4.ranks[i] < 2 or or4.mtypes[i] == t}
        for t in ("I", "II")
    ]
    assert any(ideal <= zero_class for ideal in half)


def test_congruence_closure_is_idempotent(or4):
    rng = random.Random(5)
    for _ in range(40):
        seeds = [
            (rng.randrange(len(or4)), rng.randrange(len(or4)))
            for _ in range(rng.randint(1, 3))
        ]
        part = congruence_closure(or4, seeds)
        assert is_congruence(or4, part)
        again = congruence_closure(or4, [
            (c[0], other) for c in part.classes() for other in c[1:]
        ])
        assert again == part


def test_fast_closure_agrees_with_reference(or2, sr2, or4, sr4, reference_principal):
    """The generator-round closure against the plain reference closure, on
    every element pair of the degree-2 and degree-4 monoids and on seeds of
    one to three pairs, which start the first round from several pairs."""
    for universe in (or2, sr2, or4, sr4):
        for pair in itertools.combinations(range(len(universe)), 2):
            fast = congruence_closure(universe, [pair]).ids
            assert np.array_equal(fast, reference_principal(universe, pair)), pair
    for universe in (or4, sr4):
        listed = universe.multiplication_table().tolist()
        rng = random.Random(len(universe))
        for _ in range(60):
            seeds = [
                (rng.randrange(len(universe)), rng.randrange(len(universe)))
                for _ in range(rng.randint(1, 3))
            ]
            fast = congruence_closure(universe, seeds).ids
            assert np.array_equal(fast, _closure_reference(listed, seeds)), seeds


@pytest.mark.parametrize("pair", [(0, 37), (-1, 0), (0.5, 1)])
def test_congruence_closure_rejects_bad_pairs(or4, pair):
    with pytest.raises(ValueError):
        congruence_closure(or4, [pair])


def orbit_seeds(table, units):
    """One seed pair per class of element pairs under two-sided unit
    translation, in ascending order: the lattice's seeds before the
    kernel–trace seeds, kept as their oracle.

    For units g, h the pairs (a, b) and (g·a·h, g·b·h) generate the same
    principal congruence, since each is a translate of the other.  Row t of
    ``act`` is x -> g_t·x·h_t for the t-th (g, h) in G×G.  A seed is (a, b)
    with a the least member of its orbit, b != a the least member of its
    orbit under the stabilizer of a, and the orbit of b represented by an
    element >= a.  ``act`` holds |G|²·N entries, so this runs at degree 6
    and below only.
    """
    units = np.asarray(units, dtype=np.intp)
    size = table.shape[0]
    act = table[units][:, table[:, units].T].reshape(-1, size)
    rep = act.min(axis=0)
    everything = np.arange(size)
    seeds = []
    for a in np.flatnonzero(rep == everything).tolist():
        bs = np.flatnonzero(act[act[:, a] == a].min(axis=0) == everything)
        seeds.extend((a, b) for b in bs[(bs != a) & (rep[bs] >= a)].tolist())
    return seeds


def test_orbit_seed_closures_cover_every_principal_congruence(
    sr2, or4, sr4, reference_principal
):
    """Every orbit seed closes to its reference principal congruence, and
    the seeds reach every principal congruence of an element pair."""
    for universe in (sr2, or4, sr4):
        seeded = set()
        for pair in orbit_seeds(universe.multiplication_table(), universe.units()):
            part = congruence_closure(universe, [pair])
            assert np.array_equal(part.ids, reference_principal(universe, pair)), pair
            seeded.add(part.key)
        every = {
            reference_principal(universe, pair).tobytes()
            for pair in itertools.combinations(range(len(universe)), 2)
        }
        assert seeded == every


@pytest.mark.parametrize("rows", [None, 1, 5])
@pytest.mark.parametrize("name", ["or4", "sr4", "r4", "or6", "sr6"])
def test_block_closures_match_one_seed_at_a_time(name, rows, request, monkeypatch):
    """``_principal_ids`` closes seeds in blocks of label rows laid end to
    end; it must give the per-seed ``_closure_ids`` results, first
    appearances in seed order.  ``rows`` shrinks the block budget to 1 row
    per block, or to 5 with a partial last block; None keeps the default."""
    universe = request.getfixturevalue(name)
    moves = universe.translations()
    seeds = orbit_seeds(universe.multiplication_table(), universe.units())
    if rows is not None:
        monkeypatch.setattr(congruences, "TABLE_BLOCK_BYTES",
                            rows * (moves.nbytes + 8 * len(universe)))
        assert len(seeds) % rows != 0 or rows == 1
    expected = {}
    for pair in seeds:
        ids = _closure_ids(moves, [pair])
        expected.setdefault(ids.tobytes(), ids)
    found = _principal_ids(moves, seeds)
    assert list(found) == list(expected)
    for key, ids in found.items():
        assert ids.dtype == np.intp and ids.tobytes() == key


@pytest.mark.parametrize("family, n", [
    ("OR", 2), ("SR", 2), ("R", 2), ("OR", 4), ("SR", 4), ("R", 4), ("OR", 6), ("SR", 6),
])
def test_kernel_trace_lattice_matches_the_orbit_seed_lattice(family, n):
    """The lattice from one kernel or trace pair per unit-conjugation orbit
    equals the lattice from one element pair per G×G orbit."""
    universe = enumerate_universe(family, n)
    seeds = orbit_seeds(universe.multiplication_table(), universe.units())
    oracle = [Partition(universe, ids) for ids in _lattice_ids(universe.translations(), seeds)]
    oracle.sort(key=lambda p: (-p.num_classes, p.key))
    assert lattice_keys(congruence_lattice(universe)) == lattice_keys(oracle)


def test_lattice_matches_naive_filter_on_r2():
    """R_2 is the third universe small enough for ``all_congruences_naive``;
    ``test_lattice_matches_naive_filter_at_degree_2`` checks the others."""
    universe = enumerate_universe("R", 2)
    assert lattice_keys(congruence_lattice(universe)) == lattice_keys(
        all_congruences_naive(universe)
    )


@pytest.mark.parametrize("family, n, count", [
    ("OR", 4, 21), ("SR", 4, 17), ("R", 4, 25), ("OR", 6, 45), ("SR", 6, 43),
])
def test_kernel_trace_seeds_are_one_pair_per_conjugation_orbit(family, n, count):
    """The kernel pairs (x⁻¹·x, x) and trace pairs (e, f), f < e, built
    from ``PartialInjection`` arithmetic, fall into orbits under x ->
    g·x·g⁻¹ for the units g; the seeds are the least pair of each orbit,
    in ascending order, as (a, b) with a < b."""
    universe = enumerate_universe(family, n)
    elements = universe.elements
    index = {e: i for i, e in enumerate(elements)}.__getitem__
    idempotents = [i for i, e in enumerate(elements) if e * e == e]
    pairs = {tuple(sorted((index(invert(x) * x), i))) for i, x in enumerate(elements) if x * x != x}
    pairs |= {
        tuple(sorted((e, f))) for e, f in itertools.permutations(idempotents, 2)
        if elements[e] * elements[f] == elements[f] != elements[e]
    }
    units = [elements[g] for g in universe.units()]
    orbits = {}
    for pair in pairs:
        orbit = frozenset(
            tuple(sorted(index(g * elements[y] * invert(g)) for y in pair)) for g in units
        )
        assert orbit <= pairs
        orbits[min(orbit)] = orbit
    seeds = _kernel_trace_seeds(universe)
    assert seeds.shape == (count, 2)
    assert [tuple(p) for p in seeds.tolist()] == sorted(orbits)


def test_kernel_trace_seeds_refuse_a_monoid_that_is_not_inverse():
    """{0, 1, x} with x: 1 -> 2 is a monoid of partial injections, but the
    reverse map of x is not in it, so the kernel–trace argument fails."""
    universe = MonoidUniverse("R", 2, np.array([[0, 0], [1, 2], [2, 0]]))
    with pytest.raises(InvariantViolation, match="reverse map of element 2"):
        congruence_lattice(universe)


def test_normal_subgroups_of_the_one_element_group():
    """S_1 has no conjugacy class but the identity's, so its lattice runs
    on zero generator rows."""
    assert normal_subgroups(symmetric_group(1)) == (frozenset({(1,)}),)


@pytest.mark.parametrize("name", ["or4", "sr4"])
def test_closure_is_invariant_under_unit_translation(name, request):
    universe = request.getfixturevalue(name)
    units = universe.units()
    rng = random.Random(11)
    pool = list(itertools.combinations(range(len(universe)), 2))
    for a, b in rng.sample(pool, 12):
        part = congruence_closure(universe, [(a, b)])
        for g, h in itertools.product(units, units):
            moved = (
                universe.product(universe.product(g, a), h),
                universe.product(universe.product(g, b), h),
            )
            assert congruence_closure(universe, [moved]) == part


def all_pairs_lattice(universe, reference_principal):
    """The lattice the slow way: the reference closure of every element
    pair plus the identity, closed under all pairwise joins."""
    found = {Partition.identity(universe)}
    for pair in itertools.combinations(range(len(universe)), 2):
        found.add(Partition(universe, reference_principal(universe, pair)))
    while True:
        joined = {join(p, q) for p in found for q in found}
        if joined <= found:
            break
        found |= joined
    return sorted(found, key=lambda p: (-p.num_classes, p.key))


@pytest.mark.parametrize("name", ["or2", "sr2", "or4", "sr4"])
def test_lattice_matches_all_pairs_oracle(name, request, reference_principal):
    universe = request.getfixturevalue(name)
    assert lattice_keys(congruence_lattice(universe)) == lattice_keys(
        all_pairs_lattice(universe, reference_principal)
    )


@pytest.mark.parametrize("name", ["or4", "sr4", "or6"])
def test_lattice_is_meet_closed_and_made_of_congruences(name, request):
    universe = request.getfixturevalue(name)
    lattice = congruence_lattice(universe)
    keys = set(lattice_keys(lattice))
    assert all(is_congruence(universe, p) for p in lattice)
    size = len(universe)
    for p, q in itertools.combinations(lattice, 2):
        meet = Partition(universe, p.ids.astype(np.int64) * size + q.ids)
        assert meet.key in keys


@pytest.mark.parametrize("n", [6, 8])
def test_generator_rows_need_no_product_table(n):
    """Generators, translations, congruence checks, closures, ideals and
    predictions read the 2k generator rows only; on OR_8 the table would
    exceed the default limit."""
    universe = enumerate_universe("OR", n)
    universe.generators()
    universe.translations()
    closure = congruence_closure(universe, [(0, 2)])
    assert is_congruence(universe, closure)
    assert enumerate_ideals(universe)
    assert predicted_congruences(universe)
    assert universe._table is None


@pytest.mark.parametrize("family", ["OR", "SR", "R"])
def test_lattice_and_principal_ideals_need_no_product_table(family):
    """The lattice's seeds and closures and the three ``principal_*``
    cross-checks read products and generator rows, not the N x N table."""
    universe = enumerate_universe(family, 4)
    assert congruence_lattice(universe)
    for idx in (0, 1, 19, len(universe) - 1):
        principal_right(universe, idx)
        principal_left(universe, idx)
        principal_twosided(universe, idx)
    assert universe._table is None


def test_lattice_of_toy_two_element_monoid():
    table = np.array([[0, 0], [0, 1]], dtype=np.int32)
    moves = _translations(table, [0, 1])
    found = {
        ids.tobytes()
        for ids in _set_partitions(2)
        if _is_congruence_ids(moves, ids)
    }
    assert len(found) == 2


def is_congruence_all_products(part):
    """Compatibility checked on all N² products: x·y must stay in its class
    when x or y is replaced by the least member of its class."""
    ids = part.ids
    rep = np.unique(ids, return_index=True)[1][ids]
    prod = ids[part.universe.multiplication_table()]
    return bool(np.array_equal(prod, prod[:, rep]) and np.array_equal(prod, prod[rep, :]))


def agrees_with_all_products(part):
    expected = is_congruence_all_products(part)
    assert is_congruence(part.universe, part) == expected, part
    return expected


def test_is_congruence_agrees_with_all_products(or4, sr4, or6, sr6):
    """The generator-row check against the all-products reference, on every
    lattice member, every predicted family, seeded merges of two singleton
    classes of a lattice member, and seeded one-sided closures: the least
    equivalence containing a pair that is compatible with the left rows
    only, or the right rows only."""
    rng = random.Random(23)
    rejected = 0
    for universe in (or4, sr4, or6, sr6):
        for part, _ in predicted_congruences(universe):
            assert agrees_with_all_products(part)
        if universe is not sr6:
            for part in congruence_lattice(universe):
                assert agrees_with_all_products(part)
                singles = [c[0] for c in part.classes() if len(c) == 1]
                for _ in range(10 if len(singles) > 1 else 0):
                    a, b = rng.sample(singles, 2)
                    ids = part.ids.copy()
                    ids[b] = ids[a]
                    rejected += not agrees_with_all_products(Partition(universe, ids))
        moves = _translations(universe.multiplication_table(), universe.generators())
        half = len(moves) // 2
        for rows in (moves[:half], moves[half:]):
            for _ in range(5):
                pair = (rng.randrange(len(universe)), rng.randrange(len(universe)))
                agrees_with_all_products(Partition(universe, _closure_ids(rows, [pair])))
    assert rejected >= 200


def test_set_partition_generator_counts():
    # Bell numbers 1, 1, 2, 5, 15, 52, 203, 877
    for size, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203), (7, 877)]:
        assert sum(1 for _ in _set_partitions(size)) == bell


def test_lattice_matches_naive_filter_at_degree_2(or2, sr2):
    assert lattice_keys(congruence_lattice(or2)) == lattice_keys(all_congruences_naive(or2))
    assert lattice_keys(congruence_lattice(sr2)) == lattice_keys(all_congruences_naive(sr2))
    assert len(congruence_lattice(or2)) == 7
    assert len(congruence_lattice(sr2)) == 4


def test_lattice_or4(or4):
    lattice = congruence_lattice(or4)
    assert len(lattice) == 17
    assert all(is_congruence(or4, p) for p in lattice)
    assert Partition.identity(or4) in lattice
    assert Partition.universal(or4) in lattice
    # canonical order: finest first, coarsest last
    assert lattice[0].num_classes == len(or4)
    assert lattice[-1].num_classes == 1


def test_lattice_is_join_closed(or4):
    lattice = congruence_lattice(or4)
    keys = set(lattice_keys(lattice))
    for p, q in itertools.combinations(lattice, 2):
        assert join(p, q).key in keys


def test_join_laws(or4):
    lattice = congruence_lattice(or4)
    ident = Partition.identity(or4)
    univ = Partition.universal(or4)
    rng = random.Random(1)
    for _ in range(30):
        p, q = rng.choice(lattice), rng.choice(lattice)
        assert join(p, ident) == p
        assert join(p, univ) == univ
        assert join(p, p) == p
        assert join(p, q) == join(q, p)
    with pytest.raises(ValueError):
        join(Partition.identity(or4), Partition.identity(enumerate_universe("OR", 2)))


def test_join_refinement(or4):
    lattice = congruence_lattice(or4)
    for p in lattice:
        for q in lattice:
            j = join(p, q)
            assert p.refines(j) and q.refines(j)


def test_lattice_dot_renders_covers(or2):
    lattice = congruence_lattice(or2)
    dot = lattice_to_dot(lattice)
    assert dot.startswith("digraph")
    assert dot.count("->") >= len(lattice) - 1


def test_partition_json_round_trip(or4):
    part = congruence_closure(or4, [(0, 2)])
    payload = part.to_json()
    assert payload["universe"] == {"family": "OR", "n": 4}
    assert partition_from_json(or4, payload) == part
    with pytest.raises(ValueError):
        partition_from_json(or4, {"universe": {"family": "SR", "n": 4}, "classes": []})


@pytest.mark.parametrize("stray", [-1, 37, True])
def test_partition_from_json_rejects_out_of_range_indices(or4, stray):
    classes = [[i] for i in range(len(or4) - 1)] + [[stray]]
    with pytest.raises(ValueError, match=f"element {stray} is not an index"):
        partition_from_json(or4, {"classes": classes})


# -- permutation groups ------------------------------------------------------

def test_perm_group_validation():
    with pytest.raises(ValueError):
        PermGroup(2, [(1, 2), (2, 2)])
    with pytest.raises(ValueError):
        PermGroup(2, [(2, 1)])  # no identity
    with pytest.raises(ValueError):
        PermGroup(3, [(1, 2, 3), (2, 3, 1)])  # not closed
    assert len(PermGroup(3, [(1, 2, 3), (2, 3, 1), (3, 1, 2)])) == 3


def test_perm_group_checks_every_product_of_a_large_set():
    s7 = sorted(itertools.permutations(range(1, 8)))
    assert len(PermGroup(7, s7)) == 5040
    for missing in (s7[1], s7[2500], s7[-1]):
        with pytest.raises(ValueError, match="not closed"):
            PermGroup(7, [p for p in s7 if p != missing])
    # K = Sym{3..7} sorts first and K·S stays in S = K ∪ K·(1 3), so only
    # products whose left factor lies in the coset escape; a generator's row
    # x -> x·g, which looks up every x, finds them.
    k = [p for p in s7 if p[:2] == (1, 2)]
    with pytest.raises(ValueError, match="not closed"):
        PermGroup(7, k + [perm_mul(p, (3, 2, 1, 4, 5, 6, 7)) for p in k])


def test_perm_arithmetic():
    p, q = (2, 3, 1), (2, 1, 3)
    assert perm_mul(p, q) == (3, 2, 1)
    assert perm_mul(q, p) == (1, 3, 2)
    assert perm_mul(p, perm_inv(p)) == (1, 2, 3)


def test_symmetric_group_sizes():
    for k, size in [(0, 1), (1, 1), (2, 2), (3, 6), (4, 24)]:
        assert len(symmetric_group(k)) == size


def test_normal_subgroups_of_small_symmetric_groups():
    assert [len(s) for s in normal_subgroups(symmetric_group(2))] == [1, 2]
    assert [len(s) for s in normal_subgroups(symmetric_group(3))] == [1, 3, 6]
    s4 = normal_subgroups(symmetric_group(4))
    assert [len(s) for s in s4] == [1, 4, 12, 24]
    klein = [s for s in s4 if len(s) == 4][0]
    assert all(perm_mul(p, p) == (1, 2, 3, 4) for p in klein)
    assert [len(s) for s in normal_subgroups(symmetric_group(6))] == [1, 360, 720]


def test_normal_subgroups_of_the_klein_unit_group(or4):
    group = or4.unit_group
    subs = normal_subgroups(group)
    assert [len(s) for s in subs] == [1, 2, 2, 2, 4]


def test_normal_subgroups_are_normal(sr4):
    w = sr4.unit_group
    assert len(w) == 8
    subs = normal_subgroups(w)
    assert [len(s) for s in subs] == [1, 2, 4, 4, 4, 8]
    for sub in subs:
        assert w.is_normal(sub)


def test_normal_subgroup_budget():
    """``symmetric_group(8)`` is refused before it lists its 40,320
    permutations.  Given them, ``PermGroup`` builds S_8 with no Cayley table
    (40,320² entries), and its normal subgroups come from its generator
    rows."""
    s8 = list(itertools.permutations(range(1, 9)))
    assert len(s8) > DEFAULT_GROUP_LIMIT
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            symmetric_group(8)
        assert tracemalloc.get_traced_memory()[1] < 2**20
        group = PermGroup(8, s8)
        assert not hasattr(group, "table")
        assert [len(s) for s in normal_subgroups(group)] == [1, 20160, 40320]
        assert tracemalloc.get_traced_memory()[1] < 2**26
    finally:
        tracemalloc.stop()


# The tuple group code that the array-backed group replaced, kept as the
# oracle: conjugacy classes, normality and normal subgroups by perm_mul.

def oracle_conjugacy_classes(group):
    """Conjugacy classes, sorted by (size, least member)."""
    seen = set()
    classes = []
    for g in sorted(group.elements):
        if g in seen:
            continue
        orbit = frozenset(perm_mul(perm_mul(h, g), perm_inv(h)) for h in group.elements)
        seen |= orbit
        classes.append(orbit)
    classes.sort(key=lambda c: (len(c), min(c)))
    return classes


def oracle_is_normal(group, subset):
    subset = frozenset(tuple(p) for p in subset)
    if group.identity not in subset or not subset <= group.elements:
        return False
    return all(perm_mul(a, b) in subset for a in subset for b in subset) and all(
        perm_mul(perm_mul(h, g), perm_inv(h)) in subset
        for h in group.elements
        for g in subset
    )


def oracle_normal_subgroups(group):
    """Unions of conjugacy classes that hold the identity and whose size
    divides the group order, kept when closed under products."""
    order = len(group)
    ident = frozenset({group.identity})
    rest = [c for c in oracle_conjugacy_classes(group) if c != ident]
    found = []
    for picks in itertools.product((False, True), repeat=len(rest)):
        candidate = ident.union(*(c for c, take in zip(rest, picks) if take))
        if order % len(candidate) == 0 and all(
            perm_mul(a, b) in candidate for a in candidate for b in candidate
        ):
            found.append(candidate)
    found.sort(key=lambda s: (len(s), sorted(s)))
    return found


def unit_groups():
    for family, n in itertools.product(("OR", "SR"), (2, 4, 6)):
        yield enumerate_universe(family, n).unit_group
    yield enumerate_universe("SR", 8).unit_group


def test_normal_subgroups_match_the_class_union_oracle():
    """Same subgroups in the same order on S_0..S_5 and on the unit groups
    of OR/SR 2, 4, 6 and of SR_8 (order 384, 20 conjugacy classes)."""
    groups = [symmetric_group(k) for k in range(6)] + list(unit_groups())
    assert len(groups[-1]) == 384
    for group in groups:
        assert list(normal_subgroups(group)) == oracle_normal_subgroups(group), group
        assert normal_subgroups(group) is normal_subgroups(group)


def test_coset_labels_are_the_cosets_of_each_normal_subgroup():
    """On S_0..S_5 and the unit groups, ``cosets`` labels each member of
    each coset g·N by the least index in it; the labels are read-only and
    cached, and a subgroup that is not normal has none."""
    for group in [symmetric_group(k) for k in range(6)] + list(unit_groups()):
        perms = list(group)
        for sub in normal_subgroups(group):
            labels = group.cosets(sub)
            assert not labels.flags.writeable and group.cosets(sub) is labels
            index = {p: i for i, p in enumerate(perms)}
            expected = [None] * len(perms)
            for i, g in enumerate(perms):
                if expected[i] is None:  # g is the least member of g·N
                    for x in sub:
                        expected[index[perm_mul(g, x)]] = i
            assert labels.tolist() == expected, (group, len(sub))
    assert symmetric_group(3).cosets({(1, 2, 3), (2, 1, 3)}) is None


def generated_subgroup(gens, degree):
    found = {tuple(range(1, degree + 1))}
    frontier = list(found)
    while frontier:
        frontier = [q for p in frontier for g in gens if (q := perm_mul(g, p)) not in found]
        found.update(frontier)
    return frozenset(found)


def test_perm_group_rows_are_the_generator_translations():
    """On S_0..S_5 and the unit groups, the translation rows are x -> g·x,
    then x -> x·g, for the generators g, by ``perm_mul``; and the
    generators generate the group."""
    for group in [symmetric_group(k) for k in range(6)] + list(unit_groups()):
        perms = list(group)
        index = {p: i for i, p in enumerate(perms)}
        gens = [perms[g] for g in group.generators()]
        expected = [[index[perm_mul(g, x)] for x in perms] for g in gens]
        expected += [[index[perm_mul(x, g)] for x in perms] for g in gens]
        moves = group.translations()
        assert moves.dtype == np.intp and not moves.flags.writeable
        assert moves.shape == (2 * len(gens), len(group)), group
        assert moves.tolist() == expected, group
        assert generated_subgroup(gens, group.degree) == group.elements, group


def test_normal_subgroup_seeds_are_one_pair_per_conjugacy_class(monkeypatch):
    """On S_0..S_5 and the unit groups, each built afresh, ``normal_subgroups``
    closes one pair (identity, g) per conjugacy class but the identity's,
    g the least member of its class (``oracle_conjugacy_classes``)."""
    passed = []
    lattice_ids = congruences._lattice_ids
    monkeypatch.setattr(congruences, "_lattice_ids",
                        lambda moves, seeds: passed.append(seeds) or lattice_ids(moves, seeds))
    fresh = [PermGroup(k, itertools.permutations(range(1, k + 1))) for k in range(6)]
    for group in fresh + list(unit_groups()):
        passed.clear()
        normal_subgroups(group)
        index = {p: i for i, p in enumerate(group)}
        classes = [c for c in oracle_conjugacy_classes(group) if group.identity not in c]
        assert len(passed) == 1, group
        assert [tuple(p) for p in passed[0].tolist()] == sorted(
            (0, index[min(c)]) for c in classes
        ), group


@pytest.mark.parametrize("which", ["s4", "sr4_units"])
def test_is_normal_agrees_with_the_oracle(which, sr4):
    """Every union of conjugacy classes holding the identity (normal or
    not closed under products), every subgroup generated by two elements
    (conjugation-closed or not), sets with a non-member or a non-permutation,
    a set of the wrong degree and the empty set."""
    group = symmetric_group(4) if which == "s4" else sr4.unit_group
    ident = frozenset({group.identity})
    rest = [c for c in oracle_conjugacy_classes(group) if c != ident]
    subsets = [
        ident.union(*(c for c, take in zip(rest, picks) if take))
        for picks in itertools.product((False, True), repeat=len(rest))
    ]
    subsets += {
        generated_subgroup(pair, 4)
        for pair in itertools.combinations(sorted(group.elements), 2)
    }
    verdicts = [group.is_normal(s) for s in subsets]
    assert verdicts == [oracle_is_normal(group, s) for s in subsets]
    assert any(verdicts) and not all(verdicts)
    outsiders = set(itertools.permutations(range(1, 5))) - group.elements
    # (1, 1, 8, 4) has the base-5 image code of the identity.
    strangers = [(1, 2, 3, 5), (2, 2, 3, 4), (1, 1, 8, 4)] + sorted(outsiders)[:1]
    for subset in [ident | {p} for p in strangers] + [[(1, 2, 3)], []]:
        assert not group.is_normal(subset) and not oracle_is_normal(group, subset)


def test_conjugacy_classes_partition_the_group():
    g = symmetric_group(4)
    classes = oracle_conjugacy_classes(g)
    assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]
    assert set().union(*classes) == set(g.elements)


# -- the forcing properties behind the classification ------------------------

def ideal_members(universe, kind, t=None):
    m = universe.n // 2
    if kind == "I":
        return {
            i for i in range(len(universe))
            if universe.ranks[i] < m or universe.mtypes[i] == t
        }
    raise ValueError(kind)


def test_related_pairs_of_unequal_rank_force_ideals_into_the_class(or4):
    """Over every congruence: if two related elements have different ranks,
    the class swallows the whole ideal generated by the larger one."""
    m = 2
    for part in congruence_lattice(or4):
        for block in part.classes():
            ranks = {int(or4.ranks[i]) for i in block}
            if len(ranks) <= 1:
                continue
            top = max(ranks)
            members = set(block)
            if top != m:
                assert {i for i in range(len(or4)) if or4.ranks[i] <= top} <= members
            else:
                halves = [ideal_members(or4, "I", t) for t in ("I", "II")]
                assert any(h <= members for h in halves)


def test_non_singleton_classes_force_lower_ideals_into_the_zero_class(or4):
    for part in congruence_lattice(or4):
        zero_class = set(part.class_of(0))
        for block in part.classes():
            if len(block) <= 1:
                continue
            for i in block:
                k = int(or4.ranks[i])
                if k <= 2:
                    assert {
                        j for j in range(len(or4)) if or4.ranks[j] <= k - 1
                    } <= zero_class
                else:
                    halves = [ideal_members(or4, "I", t) for t in ("I", "II")]
                    assert any(h <= zero_class for h in halves)


def test_small_zero_class_forces_singletons_above(or4):
    for part in congruence_lattice(or4):
        zero_class = set(part.class_of(0))
        for k in range(0, 2):
            if zero_class == {i for i in range(len(or4)) if or4.ranks[i] <= k}:
                for block in part.classes():
                    if any(int(or4.ranks[i]) > k + 1 for i in block):
                        assert len(block) == 1

import itertools
import random
import re
import tracemalloc

import numpy as np
import pytest

from rookmonoids import (
    DEFAULT_GROUP_LIMIT,
    PartialInjection,
    Partition,
    PermGroup,
    ResourceLimitError,
    congruence_closure,
    congruence_lattice,
    enumerate_ideals,
    enumerate_universe,
    is_congruence,
    join,
    lattice_to_dot,
    maximal_subgroup,
    normal_subgroups,
    partition_from_json,
    symmetric_group,
)
from rookmonoids import congruences
from rookmonoids.congruences import (
    _canonical_rows,
    _closure_ids,
    _is_compatible,
    _kernel_trace_seeds,
    _least_members,
    _lattice_ids,
    _merge,
    _orbit_minima,
)
from rookmonoids.core import InvariantViolation, MonoidUniverse, _canonical_ids, invert
from rookmonoids.families import predicted_congruences

from oracles import (all_congruences_naive, closure_reference, compatible_reference, merge_reference,
                     lattice_reference, perm_inv, perm_mul, plain_closure, principal_left,
                     principal_right, principal_twosided, set_partitions, table_translations)


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
            memo[key] = closure_reference(listed, [pair])
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


def test_partitions_hold_their_ids_once(or4, or6):
    """A partition keeps its ids and no copy of them: ``key`` makes their
    bytes on each call, hashing caches one int, and equality compares the
    ids of partitions on one universe only."""
    ids = np.arange(len(or6), dtype=np.int32) // 2
    tracemalloc.start()
    try:
        part = Partition._canonical(or6, ids)
        assert hash(part) == hash(part)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < ids.nbytes // 4
    assert part.key == ids.tobytes()
    same = Partition(or6, ids + 5)
    assert same == part and hash(same) == hash(part) and len({part, same}) == 1
    assert Partition(or6, ids // 2) != part
    other = enumerate_universe("OR", 4)
    assert Partition.identity(other) != Partition.identity(or4)
    assert Partition.identity(other).key == Partition.identity(or4).key


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
            assert np.array_equal(fast, closure_reference(listed, seeds)), seeds


@pytest.mark.parametrize("pair", [(0, 37), (-1, 0), (0.5, 1), (True, 2), (1, np.False_)])
def test_congruence_closure_rejects_bad_pairs(or4, pair):
    """An index out of range, a float or a bool, which numpy would read as
    1 or 0 in a list of ints, as ``relates`` and ``product`` refuse one."""
    with pytest.raises(ValueError):
        congruence_closure(or4, [pair])
    with pytest.raises(ValueError):
        congruence_closure(or4, [(0, 1), pair])


@pytest.mark.parametrize("pairs", [[0, 1, 2], [0, 1], [(0, 1, 2)], [[(0, 1)]]])
def test_congruence_closure_rejects_pairs_of_the_wrong_shape(or4, pairs):
    with pytest.raises(ValueError, match=r"element index pairs must form an \(M, 2\) integer array"):
        congruence_closure(or4, pairs)


@pytest.mark.parametrize("shape", [(36,), (38,), (37, 1)])
def test_partition_refuses_ids_of_the_wrong_shape(or4, shape):
    with pytest.raises(ValueError, match=rf"^expected 37 class ids, got shape {re.escape(str(shape))}$"):
        Partition(or4, np.zeros(shape, dtype=np.intp))


def test_orbit_minima_refuse_pairs_not_closed_under_conjugation():
    """S_3 has a trivial centre, so its one pair (identity, element 1) has
    a conjugate outside the set."""
    group = symmetric_group(3)
    moves, k = group.translations(), len(group.generators())
    with pytest.raises(InvariantViolation, match=r"^conjugating the pair \(0, 1\) by row \d+ leaves the pairs$"):
        _orbit_minima(np.array([1]), len(group), moves[:k], moves[k:])


def stratified_pairs(universe, seed, per_stratum=8):
    """Element pairs i < j drawn from the seed, the same number per rank
    stratum, a pair's stratum being the larger rank of its two elements:
    low-rank pairs, half-rank pairs and pairs with a unit all appear."""
    ranks = universe.ranks.astype(np.int64)
    iu, ju = np.triu_indices(ranks.size, k=1)
    top = np.maximum(ranks[iu], ranks[ju])
    rng = np.random.default_rng(seed)
    picks = []
    for stratum in np.unique(top):
        members = np.flatnonzero(top == stratum)
        picks.extend(rng.choice(members, min(per_stratum, members.size), replace=False))
    return [(int(iu[k]), int(ju[k])) for k in picks]


@pytest.mark.parametrize("name", ["or6", "sr6"])
def test_ideal_collapse_agrees_with_the_plain_rounds_on_stratified_pairs(name, request):
    """The closure that grows each zero class to its ideal against the plain
    closure rounds, on the pairs of three seeds drawn per rank stratum."""
    universe = request.getfixturevalue(name)
    moves = universe.translations()
    for seed in range(3):
        for pair in stratified_pairs(universe, seed):
            plain = Partition(universe, plain_closure(moves, [pair]))
            assert congruence_closure(universe, [pair]) == plain, pair


@pytest.mark.parametrize("name", ["r4", "or6", "sr6"])
def test_ideal_collapse_agrees_with_the_plain_rounds_on_kernel_trace_seeds(name, request):
    """The same on every seed the lattice closes."""
    universe = request.getfixturevalue(name)
    moves = universe.translations()
    for pair in _kernel_trace_seeds(universe).tolist():
        plain = Partition(universe, plain_closure(moves, [pair]))
        assert congruence_closure(universe, [pair]) == plain, pair


def test_ideal_collapse_cuts_the_closure_rounds(or6, monkeypatch):
    """The zero class reaches its ideal in one round instead of one round
    per step down the J-order: the seed-0 stratified pairs of OR_6 take
    fewer than half the rounds with the collapse (71 against 297)."""
    merges = []
    merge = congruences._merge

    def counted(*args):
        merges.append(args)
        return merge(*args)

    monkeypatch.setattr(congruences, "_merge", counted)
    moves, pairs = or6.translations(), stratified_pairs(or6, 0)
    for pair in pairs:
        _closure_ids(moves, [pair])
    plain, merges[:] = len(merges), []
    for pair in pairs:
        _closure_ids(moves, [pair], or6.j_order)
    assert len(merges) < plain / 2


def test_ideal_collapse_closes_in_the_round_that_reaches_it(or6, monkeypatch):
    """The classes that meet the ideal are relabelled in the round that
    reaches it, with no round that merges the pairs (0, x): the seed-0
    stratified pairs of OR_6 take 71 merges, and the rank-1 pair (22, 37)
    takes 2, the pair and its translates, whose collapse leaves nothing
    to translate."""
    merges = []
    merge = congruences._merge

    def counted(*args):
        merges.append(args)
        return merge(*args)

    monkeypatch.setattr(congruences, "_merge", counted)
    moves, j_order = or6.translations(), or6.j_order
    for pair in stratified_pairs(or6, 0):
        _closure_ids(moves, [pair], j_order)
    assert len(merges) == 71
    merges[:] = []
    _closure_ids(moves, [(22, 37)], j_order)
    assert len(merges) == 2


@pytest.mark.parametrize("name", ["or6", "sr6", "r4"])
def test_ideal_collapse_pulls_in_classes_from_outside_the_ideal(name, request):
    """Closures of two pairs (x, y) with rank x < rank y, against the plain
    closure rounds.  (0, z) collapses the ideal of z's J-class in the first
    round, and (x, y), x drawn from that J-class, has the collapse pull y's
    class in from outside the ideal, then y's own ideal.  For each J-class
    y is drawn from each higher rank, and is the identity once: as the
    least member of its class, only the collapse moves it."""
    universe = request.getfixturevalue(name)
    moves, ranks, j_ids = universe.translations(), universe.ranks, universe.j_order[0]
    rng = np.random.default_rng(len(universe))
    for j in np.unique(j_ids[(ranks > 0) & (ranks < universe.n)]):
        x, z = rng.choice(np.flatnonzero(j_ids == j), 2, replace=False)
        above = [rng.choice(np.flatnonzero(ranks == high)) for high in np.unique(ranks[ranks > ranks[x]])]
        for y in above + [1]:
            pairs = [(0, z), (x, y)]
            fast = _closure_ids(moves, pairs, universe.j_order)
            assert np.array_equal(fast, plain_closure(moves, pairs)), pairs


def test_each_row_of_a_block_grows_its_own_zero_class(or6, monkeypatch):
    """A block of seeds closes in the rounds of its slowest row, one merge
    a round: each row grows its own zero class, read off its own row zero,
    as it would alone."""
    rounds, closing = [], []
    merge, closure = congruences._merge, congruences._closure_rows

    def counted(*args):
        if closing:  # a closure round, not a join
            rounds.append(args[0].size)
        return merge(*args)

    def closed(*args):
        closing.append(True)
        try:
            return closure(*args)
        finally:
            closing.pop()

    monkeypatch.setattr(congruences, "_merge", counted)
    monkeypatch.setattr(congruences, "_closure_rows", closed)
    moves, j_order = or6.translations(), or6.j_order
    seeds = _kernel_trace_seeds(or6)[:congruences._block_rows(moves)]
    alone = []
    for pair in seeds.tolist():
        rounds[:] = []
        _closure_ids(moves, [pair], j_order)
        alone.append(len(rounds))
    rounds[:] = []
    _lattice_ids(moves, seeds, j_order)
    assert len(seeds) > 1 and set(rounds) == {len(seeds) * len(or6)}
    assert len(rounds) == max(alone)


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
    """``_lattice_ids`` closes seeds in blocks of label rows laid end to
    end, with and without the zero-class collapse, each row collapsing to
    its own zero; every per-seed ``_closure_ids`` result must be one of its
    members, each held once.  ``rows`` shrinks the block budget to 1 row
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
    for j_order in (None, universe.j_order):
        found = _lattice_ids(moves, seeds, j_order)
        assert {row.dtype for row in found} == {np.dtype(np.intp)}
        keys = {row.tobytes() for row in found}
        assert len(keys) == len(found) and keys >= expected.keys()


def test_a_block_of_closures_already_seen_adds_no_row(or4, monkeypatch):
    """The block budget is shrunk to one block of the seeds, so the second
    block, the same seeds reversed, closes only to members: ``_lattice_ids``
    must skip its check, add no member and still hold every per-seed
    ``_closure_ids`` result."""
    moves = or4.translations()
    seeds = _kernel_trace_seeds(or4)
    monkeypatch.setattr(congruences, "TABLE_BLOCK_BYTES", len(seeds) * (moves.nbytes + 16 * len(or4)))
    assert congruences._block_rows(moves) == len(seeds)
    calls = []
    check = congruences._is_compatible
    monkeypatch.setattr(congruences, "_is_compatible",
                        lambda moves, least: calls.append(len(least)) or check(moves, least))
    for j_order in (None, or4.j_order):
        expected = {_closure_ids(moves, [pair], j_order).tobytes() for pair in seeds}
        once = [row.tobytes() for row in _lattice_ids(moves, seeds, j_order)]
        calls[:] = []
        found = [row.tobytes() for row in _lattice_ids(moves, np.concatenate([seeds, seeds[::-1]]), j_order)]
        assert found == once and set(found) >= expected and len(calls) == 1


def first_occurrence_ids(row):
    """Class ids numbered by first occurrence, one element at a time."""
    ids = {}
    return [ids.setdefault(label, len(ids)) for label in row.tolist()]


def assert_canonical_rows(block):
    """``_canonical_rows`` on a block of least-member label rows, and on each
    row alone, against ``_canonical_ids`` and the first-occurrence count;
    ``_least_members`` gives each row back from its canonical ids."""
    found = _canonical_rows(block)
    assert found.dtype == np.int32 and found.shape == block.shape
    for row, ids in zip(block, found):
        expected = first_occurrence_ids(row)
        assert ids.tolist() == expected
        assert _canonical_rows(row).tolist() == expected
        assert _canonical_ids(row).tolist() == expected
        assert np.array_equal(_least_members(ids), row)


@pytest.mark.parametrize("family", ["OR", "SR", "R"])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_canonical_rows_match_canonical_ids_on_the_engine_rows(family, n):
    """Every distinct principal closure and every lattice member, each as
    one block."""
    universe = enumerate_universe(family, n)
    moves, j_order = universe.translations(), universe.j_order
    seeds = _kernel_trace_seeds(universe)
    assert_canonical_rows(np.unique([_closure_ids(moves, [pair], j_order) for pair in seeds], axis=0))
    assert_canonical_rows(np.array(_lattice_ids(moves, seeds, j_order)))


def test_canonical_rows_match_canonical_ids_on_random_merges():
    """Rows of ``_merge`` over random pairs, from no pair to enough to make
    one class, in blocks of one to five rows over one to 60 elements."""
    rng = np.random.default_rng(7)
    for size in (1, 2, 3, 10, 60):
        for count in (1, 2, 5):
            rows = []
            for pairs in rng.integers(0, 3 * size, count):
                u, v = rng.integers(0, size, (2, pairs))
                rows.append(_merge(np.arange(size), u, v))
            assert_canonical_rows(np.array(rows))


def assert_merge(ids, u, v):
    """``_merge`` against ``merge_reference`` on read-only labels, which it
    must not write; when every pair already lies in one class it returns
    the labels themselves."""
    ids = np.array(ids, dtype=np.intp)
    ids.setflags(write=False)
    u, v = np.asarray(u, dtype=np.intp), np.asarray(v, dtype=np.intp)
    found = _merge(ids, u, v)
    expected = merge_reference(ids, u, v)
    assert found.tolist() == expected.tolist()
    assert (found is ids) == np.array_equal(expected, ids)


def random_labels(rng, size):
    """Least-member labels of a random partition of ``size`` elements."""
    return merge_reference(np.arange(size), *rng.integers(0, max(size, 1), (2, size // 2)))


def test_merge_matches_the_union_find_reference():
    """Random pairs on random labels, hook chains listed either way, one
    root offered many labels, pairs already related, and blocks of label
    rows laid end to end with each row's pairs offset to it."""
    rng = np.random.default_rng(26)
    for size in (1, 2, 3, 10, 60, 500):
        for count in (0, 1, size // 2, 3 * size):
            u, v = rng.integers(0, size, (2, count))
            assert_merge(np.arange(size), u, v)
            assert_merge(random_labels(rng, size), u, v)
        ids = random_labels(rng, size)
        assert_merge(ids, np.arange(size), ids)  # each element with its own label
        chain = np.arange(size - 1)
        for order in (chain[::-1], chain):  # pairs (i, i+1), high to low, then low to high
            assert_merge(np.arange(size), order, order + 1)
            assert_merge(np.arange(size), order + 1, order)
        offered = rng.permutation(size)  # the last element offered every label
        assert_merge(np.arange(size), np.full(size, size - 1), offered)
        assert_merge(np.arange(size), offered, np.full(size, size - 1))
    for rows, size in ((2, 10), (5, 37), (3, 200)):
        shift = np.arange(rows) * size
        labels = np.concatenate([random_labels(rng, size) + s for s in shift])
        u, v = rng.integers(0, size, (2, rows, size)) + shift[:, None]
        assert_merge(labels, u.ravel(), v.ravel())
        chain = np.arange(size - 1)[::-1] + shift[:, None]
        assert_merge(np.arange(rows * size), chain.ravel(), chain.ravel() + 1)


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


def test_lattice_refuses_a_principal_closure_that_is_not_a_congruence(or4, monkeypatch):
    """Joins of equivalences that are not congruences need not stay in the
    lattice and can be exponentially many, so the lattice checks each
    principal closure as it closes: here one row of OR_4's one block, the
    first and then the second, relates the identity to element 2 and
    nothing else, and the other rows are the true closures."""
    closure, size = congruences._closure_rows, len(or4)
    assert congruences._block_rows(or4.translations()) >= len(_kernel_trace_seeds(or4))
    for row in (0, 1):

        def broken(moves, ids, u, v, j_order=None):
            ids = closure(moves, ids, u, v, j_order)
            ids[row * size:(row + 1) * size] = np.arange(size) + row * size
            ids[row * size + 2] = row * size + 1
            return ids

        monkeypatch.setattr(congruences, "_closure_rows", broken)
        with pytest.raises(InvariantViolation, match=f"with {size - 1} classes, is not a congruence"):
            congruence_lattice(or4)


@pytest.mark.parametrize("name, seeds, rows, distinct, calls", [
    ("or4", 21, 21, 9, [9]), ("or8", 124, 1, 22, [1] * 21),
], ids=["or4", "or8"])
def test_lattice_checks_each_new_closure_once(name, seeds, rows, distinct, calls, request, monkeypatch):
    """Only the closures that are not yet members are checked, all of a
    block in one ``_is_compatible`` call.  OR_4 closes its 21 seeds in one
    block, to its 9 distinct principal congruences.  From OR_8 up a block
    holds one seed, and most seeds close to a member found before, so the
    124 seeds of OR_8 make 21 calls, not 22: its 22nd distinct principal
    congruence is already a join of earlier ones when it closes."""
    universe = request.getfixturevalue(name)
    found = []
    check = congruences._is_compatible
    monkeypatch.setattr(congruences, "_is_compatible",
                        lambda moves, least: found.append(len(least)) or check(moves, least))
    moves, pairs, j_order = universe.translations(), _kernel_trace_seeds(universe), universe.j_order
    _lattice_ids(moves, pairs, j_order)
    assert found == calls
    assert (len(pairs), min(len(pairs), congruences._block_rows(moves))) == (seeds, rows)
    assert len({_closure_ids(moves, [pair], j_order).tobytes() for pair in pairs}) == distinct


@pytest.mark.parametrize("rows", [None, 1, 5])
@pytest.mark.parametrize("name", ["or2", "sr2", "r2", "or4", "sr4", "r4", "or6", "sr6", "r6",
                                  "or8", "sr8", "s4", "w4", "w6"])
def test_lattice_matches_the_two_pass_reference(name, rows, request, monkeypatch):
    """``_lattice_ids`` joins each new principal congruence into the
    members where it closes; ``lattice_reference`` finds the distinct
    principal congruences first, then joins from the identity with a
    worklist.  Same members as sets of label bytes, on each universe and
    on S_4 and the unit groups W′ of OR_4 and OR_6, with ``_block_rows``
    cut to 1 or 5 rows, or as it is (None)."""
    if name == "s4":
        (moves, seeds), j_order = group_lattice_args(symmetric_group(4)), None
    elif name in ("w4", "w6"):
        n = int(name[1])
        (moves, seeds), j_order = group_lattice_args(maximal_subgroup(request.getfixturevalue(f"or{n}"), n)), None
    else:
        universe = request.getfixturevalue(name)
        moves, seeds, j_order = universe.translations(), _kernel_trace_seeds(universe), universe.j_order
    expected = {ids.tobytes() for ids in lattice_reference(moves, seeds, j_order)}
    if rows is not None:
        monkeypatch.setattr(congruences, "_block_rows", lambda moves: rows)
    found = [ids.tobytes() for ids in _lattice_ids(moves, seeds, j_order)]
    assert len(found) == len(expected) > 1 and set(found) == expected


def group_lattice_args(group):
    """The generator rows and the seeds, one pair (identity, g) per
    conjugacy class, that ``normal_subgroups`` passes to ``_lattice_ids``."""
    moves, k = group.translations(), len(group.generators())
    return moves, _orbit_minima(np.arange(1, len(group)), len(group), moves[:k], moves[k:])


@pytest.mark.parametrize("name", ["or4", "or6"])
def test_lattice_joins_one_member_at_a_time(name, request, monkeypatch):
    """Every ``_merge`` that ``_lattice_ids`` makes outside a closure joins
    one member's N labels with the pairs of a new principal congruence.  A
    join that returns its input adds nothing: the members are the
    identity, the principal closures and the results of the other joins.
    OR_4 and OR_6 close several seeds a block, so joining a block of
    members at once would show here."""
    universe = request.getfixturevalue(name)
    moves, seeds, j_order = universe.translations(), _kernel_trace_seeds(universe), universe.j_order
    size = len(universe)
    assert min(len(seeds), congruences._block_rows(moves)) > 1
    merge, closure = congruences._merge, congruences._closure_rows
    joins, closed, closing = [], [], False

    def recording_merge(ids, u, v):
        out = merge(ids, u, v)
        if not closing:
            joins.append((ids, out))
        return out

    def recording_closure(moves, ids, u, v, j_order=None):
        nonlocal closing
        closing = True
        out = closure(moves, ids, u, v, j_order)
        closing = False
        closed.extend(out.reshape(-1, size) - np.arange(0, out.size, size)[:, None])
        return out

    monkeypatch.setattr(congruences, "_merge", recording_merge)
    monkeypatch.setattr(congruences, "_closure_rows", recording_closure)
    members = {ids.tobytes() for ids in _lattice_ids(moves, seeds, j_order)}
    assert all(ids.shape == (size,) and ids.tobytes() in members for ids, _ in joins)
    idle = [out is ids for ids, out in joins]
    assert any(idle) and not all(idle)
    added = {out.tobytes() for ids, out in joins if out is not ids}
    assert members == {np.arange(size, dtype=np.intp).tobytes()} | {row.tobytes() for row in closed} | added


@pytest.mark.parametrize("name", ["or6", "sr6", "r4", "s4"])
def test_lattice_members_share_no_memory(name, request):
    """Each member of ``_lattice_ids`` is a read-only view of its own key
    bytes, not a row of a closure's block or the array a join returned, so
    no finished member keeps a block alive or a second copy of itself, and
    ``normal_subgroups`` keeps its members as they are."""
    if name == "s4":
        members = _lattice_ids(*group_lattice_args(symmetric_group(4)))
    else:
        universe = request.getfixturevalue(name)
        members = _lattice_ids(universe.translations(), _kernel_trace_seeds(universe), universe.j_order)
    assert len(members) > 2
    for ids in members:
        assert not ids.flags.writeable
        assert isinstance(ids.base, bytes) and ids.base == ids.tobytes()
    for a, b in itertools.combinations(members, 2):
        assert not np.shares_memory(a, b)


def test_kernel_trace_seeds_refuse_a_monoid_that_is_not_inverse():
    """{0, 1, x} with x: 1 -> 2 is a monoid of partial injections, but the
    reverse map of x is not in it, so the kernel–trace argument fails."""
    universe = MonoidUniverse("R", 2, np.array([[0, 0], [1, 2], [2, 0]]))
    with pytest.raises(InvariantViolation, match="reverse map of element 2"):
        congruence_lattice(universe)


@pytest.mark.parametrize("family", ["OR", "R"])
def test_closures_of_a_submonoid_agree_with_the_oracles(family):
    """{0, 1, e1 = [1, 0], e2 = [0, 2]} is the whole of OR_2, where e1 and
    e2 are J-classes of two half-rank types, neither below the other.  As
    a submonoid of R_2 it has the same J-classes, but the rank rule of
    ``j_order`` would put e1 and e2 in one, so a zero class that meets e1
    must not take in e2 there.  Every principal closure and the lattice
    match the product-table oracles under both names."""
    universe = MonoidUniverse(family, 2, np.array([[0, 0], [1, 2], [1, 0], [0, 2]]))
    assert universe._whole_family == (family == "OR")
    assert congruence_closure(universe, [(0, 2)]).classes() == [[0, 2], [1], [3]]
    listed = universe.multiplication_table().tolist()
    for pair in itertools.combinations(range(len(universe)), 2):
        fast = congruence_closure(universe, [pair]).ids
        assert np.array_equal(fast, closure_reference(listed, [pair])), pair
    assert lattice_keys(congruence_lattice(universe)) == lattice_keys(
        all_congruences_naive(universe)
    )


def test_a_monoid_the_size_of_its_family_is_not_taken_for_it():
    """{0, 1, [1, 0], [0, 1]} has the four elements of OR_2, but [0, 1]
    maps a point of type II to one of type I, so it is not OR_2."""
    universe = MonoidUniverse("OR", 2, np.array([[0, 0], [1, 2], [1, 0], [0, 1]]))
    assert not universe._whole_family
    assert enumerate_universe("OR", 2)._whole_family


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
    moves = table_translations(table, [0, 1])
    found = {
        ids.tobytes()
        for ids in set_partitions(2)
        if _is_compatible(moves, _least_members(ids)[None])[0]
    }
    assert len(found) == 2


def compatibility_cases(name, request):
    """The translation rows of a universe or of ``symmetric_group(4)``, and
    class-id rows to check on them: every congruence, each with one element
    moved into the next class, and random partitions into 2 to 6 classes,
    shuffled with a fixed seed."""
    rng = np.random.default_rng(7)
    if name == "S4":
        group = symmetric_group(4)
        normal_subgroups(group)
        rows = [_canonical_rows(labels) for labels in group._cosets.values()]
        moves = group.translations()
    else:
        universe = request.getfixturevalue(name)
        rows = [part.ids for part in congruence_lattice(universe)]
        moves = universe.translations()
    size = moves.shape[1]
    moved = []
    for ids in rows:
        if ids.max() > 0:
            x = int(rng.integers(1, size))
            bent = ids.copy()
            bent[x] = (ids[x] + 1) % (ids.max() + 1)
            moved.append(_canonical_ids(bent))
    noise = [_canonical_ids(rng.integers(0, k, size)) for k in range(2, 7) for _ in range(3)]
    cases = np.array(rows + moved + noise, dtype=np.int32)
    return moves, cases[rng.permutation(len(cases))]


@pytest.mark.parametrize("rows", [1, 2, 5])
@pytest.mark.parametrize("name", ["or4", "sr4", "r4", "S4"])
def test_compatibility_matches_the_per_element_reference(name, rows, request):
    """``_is_compatible`` on blocks of 1, 2 and 5 rows, one flat gather a
    block, against a pure-Python check of every class under every
    translation row: congruences, near misses and random partitions."""
    moves, cases = compatibility_cases(name, request)
    found = []
    for start in range(0, len(cases), rows):
        block = cases[start:start + rows]
        least = np.array([_least_members(ids) for ids in block])
        found += _is_compatible(moves, least).tolist()
    assert found == compatible_reference(moves, cases)
    assert True in found and False in found


def test_compatibility_of_no_rows_is_no_bools(or4):
    found = _is_compatible(or4.translations(), np.empty((0, len(or4)), dtype=np.intp))
    assert found.dtype == bool and found.shape == (0,)


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
        moves = table_translations(universe.multiplication_table(), universe.generators())
        half = len(moves) // 2
        for rows in (moves[:half], moves[half:]):
            for _ in range(5):
                pair = (rng.randrange(len(universe)), rng.randrange(len(universe)))
                agrees_with_all_products(Partition(universe, _closure_ids(rows, [pair])))
    assert rejected >= 200


def test_set_partition_generator_counts():
    # Bell numbers 1, 1, 2, 5, 15, 52, 203, 877
    for size, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203), (7, 877)]:
        assert sum(1 for _ in set_partitions(size)) == bell


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


@pytest.mark.parametrize("name", ["or4", "sr4", "r2"])
def test_join_is_the_closure_of_both_partitions(name, request):
    """``join`` of any two partitions, congruences or not, against the
    plain reference closure of the pairs relating each element to the
    least member of its class in either one."""
    universe = request.getfixturevalue(name)
    size = len(universe)
    listed = universe.multiplication_table().tolist()
    lattice = congruence_lattice(universe)
    rng = np.random.default_rng(size)
    parts = [Partition(universe, rng.integers(0, k, size)) for k in (2, size // 2, size - 1) for _ in range(3)]
    parts += [Partition.identity(universe), lattice[len(lattice) // 2], Partition.from_classes(
        universe, [[2, 3]] + [[x] for x in range(size) if x not in (2, 3)])]
    for p, q in itertools.product(parts, repeat=2):
        pairs = [(x, int(y)) for part in (p, q) for x, y in enumerate(_least_members(part.ids))]
        assert np.array_equal(join(p, q).ids, closure_reference(listed, pairs))


def test_refines_refuses_a_partition_of_another_universe(or4, sr4):
    """``refines``, and so ``lattice_to_dot``, compares class ids, which
    mean nothing across universes of one size."""
    with pytest.raises(ValueError, match="different universes"):
        Partition.identity(or4).refines(Partition.universal(sr4))
    with pytest.raises(ValueError, match="different universes"):
        lattice_to_dot([Partition.identity(or4), Partition.universal(sr4)])


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


@pytest.mark.parametrize("n", [4.0, "4"])
def test_partition_from_json_refuses_a_degree_that_is_not_an_integer(or4, n):
    """The universe's degree follows ``core._is_integer``: 4.0 == 4, but a
    float names no degree."""
    payload = Partition.identity(or4).to_json()
    payload["universe"]["n"] = n
    with pytest.raises(ValueError, match="not this universe"):
        partition_from_json(or4, payload)


def test_partition_from_json_rejects_overlapping_and_missing_classes(or4):
    classes = [[i] for i in range(len(or4))]
    with pytest.raises(ValueError, match="element 1 listed in two classes"):
        partition_from_json(or4, {"classes": classes + [[1]]})
    with pytest.raises(ValueError, match="classes do not cover the universe"):
        partition_from_json(or4, {"classes": classes[:-1]})


@pytest.mark.parametrize("stray", [-1, 37, True])
def test_partition_from_json_rejects_out_of_range_indices(or4, stray):
    classes = [[i] for i in range(len(or4) - 1)] + [[stray]]
    with pytest.raises(ValueError, match=f"element {stray} is not an index"):
        partition_from_json(or4, {"classes": classes})


@pytest.mark.parametrize("bad", [-37, -1, 37, 1.0, True])
def test_partition_lookups_refuse_bad_indices(or4, bad):
    """``relates`` and ``class_of`` check an index as ``product`` does: -37
    does not wrap to element 0, nor -1 to element 36."""
    part = Partition.identity(or4)
    for call in (lambda: part.relates(bad, 0), lambda: part.relates(0, bad), lambda: part.class_of(bad)):
        with pytest.raises(ValueError, match=f"element {bad!r} is not an index in 0..36"):
            call()
    assert part.relates(np.int64(36), 36) and part.class_of(np.int64(36)) == [36]


# -- permutation groups ------------------------------------------------------

def test_perm_group_validation():
    with pytest.raises(ValueError):
        PermGroup(2, [(1, 2), (2, 2)])
    with pytest.raises(ValueError):
        PermGroup(2, [(2, 1)])  # no identity
    with pytest.raises(ValueError):
        PermGroup(3, [(1, 2, 3), (2, 3, 1)])  # not closed
    assert len(PermGroup(3, [(1, 2, 3), (2, 3, 1), (3, 1, 2)])) == 3
    # As a universe refuses a repeated element, a group does not drop one.
    with pytest.raises(ValueError, match=r"permutation \(1, 2\) is listed twice"):
        PermGroup(2, [(1, 2), (1, 2), (2, 1)])
    with pytest.raises(ValueError, match=r"permutation \(2, 3, 1\) is listed twice"):
        PermGroup(3, [(2, 3, 1), (1, 2, 3), (3, 1, 2), (2, 3, 1)])


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
    assert symmetric_group(np.int64(3)) is symmetric_group(3)
    assert len(PermGroup(0, [()])) == 1


@pytest.mark.parametrize("k", [True, False, 2.0, -1, "2", None])
def test_symmetric_group_refuses_a_degree_that_is_not_a_non_negative_integer(k):
    with pytest.raises(ValueError, match="degree must be a non-negative integer"):
        symmetric_group(k)


@pytest.mark.parametrize("degree", [2.9, 2.0, True, "2", -1])
def test_perm_group_refuses_a_degree_that_is_not_a_non_negative_integer(degree):
    with pytest.raises(ValueError, match=f"degree must be a non-negative integer, got {degree!r}"):
        PermGroup(degree, [(1, 2)])
    assert PermGroup(np.int64(2), [(1, 2)]).degree == 2


def test_perm_group_refuses_float_and_bool_images():
    """The element store takes integer image rows only, as a universe does:
    numpy would cast 1.0 or True to 1, and 1.5 to 1."""
    for rows in ([(1.0, 2.0), (2.0, 1.0)], [(1.5, 2), (2, 1)], [(True, 2), (2, 1)],
                 np.array([[1, 2], [2, 1]], dtype=float)):
        with pytest.raises(ValueError, match=r"need an \(N, 2\) integer matrix"):
            PermGroup(2, rows)
    with pytest.raises(ValueError, match="integer matrix"):
        PermGroup(1, [(True,)])
    s2 = symmetric_group(2)
    assert (1, 2) in s2 and (2, 1) in s2 and np.array([2, 1]) in s2
    for row in [(1.5, 2), (1.0, 2.0), (True, 2), (2, True), (1, 2, 3), (1,), (0, 1), ("1", "2")]:
        assert row not in s2, row
    assert (True,) not in symmetric_group(1)
    assert () in symmetric_group(0)


def test_normal_subgroups_of_small_symmetric_groups():
    assert [len(s) for s in normal_subgroups(symmetric_group(2))] == [1, 2]
    assert [len(s) for s in normal_subgroups(symmetric_group(3))] == [1, 3, 6]
    s4 = normal_subgroups(symmetric_group(4))
    assert [len(s) for s in s4] == [1, 4, 12, 24]
    klein = [s for s in s4 if len(s) == 4][0]
    assert all(perm_mul(p, p) == (1, 2, 3, 4) for p in klein)
    assert [len(s) for s in normal_subgroups(symmetric_group(6))] == [1, 360, 720]


def test_normal_subgroups_of_the_klein_unit_group(or4):
    group = maximal_subgroup(or4, 4)
    subs = normal_subgroups(group)
    assert [len(s) for s in subs] == [1, 2, 2, 2, 4]


def test_normal_subgroups_are_normal(sr4):
    w = maximal_subgroup(sr4, 4)
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
    for g in sorted(group):
        if g in seen:
            continue
        orbit = frozenset(perm_mul(perm_mul(h, g), perm_inv(h)) for h in group)
        seen |= orbit
        classes.append(orbit)
    classes.sort(key=lambda c: (len(c), min(c)))
    return classes


def oracle_is_normal(group, subset):
    subset = frozenset(tuple(p) for p in subset)
    if group.identity not in subset or not subset <= frozenset(group):
        return False
    return all(perm_mul(a, b) in subset for a in subset for b in subset) and all(
        perm_mul(perm_mul(h, g), perm_inv(h)) in subset
        for h in group
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


def family_unit_groups():
    for family, n in [*itertools.product(("OR", "SR"), (2, 4, 6)), ("SR", 8)]:
        yield maximal_subgroup(enumerate_universe(family, n), n)


def test_normal_subgroups_match_the_class_union_oracle():
    """Same subgroups in the same order on S_0..S_5 and on the unit groups
    of OR/SR 2, 4, 6 and of SR_8 (order 384, 20 conjugacy classes)."""
    groups = [symmetric_group(k) for k in range(6)] + list(family_unit_groups())
    assert len(groups[-1]) == 384
    for group in groups:
        assert list(normal_subgroups(group)) == oracle_normal_subgroups(group), group
        assert normal_subgroups(group) is normal_subgroups(group)


def test_coset_labels_are_the_cosets_of_each_normal_subgroup():
    """On S_0..S_5 and the unit groups, ``cosets`` labels each member of
    each coset g·N by the least index in it; the labels are read-only and
    cached, and a subgroup that is not normal has none."""
    for group in [symmetric_group(k) for k in range(6)] + list(family_unit_groups()):
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
    for group in [symmetric_group(k) for k in range(6)] + list(family_unit_groups()):
        perms = list(group)
        index = {p: i for i, p in enumerate(perms)}
        gens = [perms[g] for g in group.generators()]
        expected = [[index[perm_mul(g, x)] for x in perms] for g in gens]
        expected += [[index[perm_mul(x, g)] for x in perms] for g in gens]
        moves = group.translations()
        assert moves.dtype == np.intp and not moves.flags.writeable
        assert moves.shape == (2 * len(gens), len(group)), group
        assert moves.tolist() == expected, group
        assert generated_subgroup(gens, group.degree) == frozenset(group), group


def test_normal_subgroup_seeds_are_one_pair_per_conjugacy_class(monkeypatch):
    """On S_0..S_5 and the unit groups, each built afresh, ``normal_subgroups``
    closes one pair (identity, g) per conjugacy class but the identity's,
    g the least member of its class (``oracle_conjugacy_classes``)."""
    passed = []
    lattice_ids = congruences._lattice_ids
    monkeypatch.setattr(congruences, "_lattice_ids",
                        lambda moves, seeds: passed.append(seeds) or lattice_ids(moves, seeds))
    fresh = [PermGroup(k, itertools.permutations(range(1, k + 1))) for k in range(6)]
    fresh += [PermGroup(group.degree, group.perms) for group in family_unit_groups()]
    for group in fresh:
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
    group = symmetric_group(4) if which == "s4" else maximal_subgroup(sr4, 4)
    ident = frozenset({group.identity})
    rest = [c for c in oracle_conjugacy_classes(group) if c != ident]
    subsets = [
        ident.union(*(c for c, take in zip(rest, picks) if take))
        for picks in itertools.product((False, True), repeat=len(rest))
    ]
    subsets += {
        generated_subgroup(pair, 4)
        for pair in itertools.combinations(sorted(group), 2)
    }
    verdicts = [group.is_normal(s) for s in subsets]
    assert verdicts == [oracle_is_normal(group, s) for s in subsets]
    assert any(verdicts) and not all(verdicts)
    outsiders = set(itertools.permutations(range(1, 5))) - frozenset(group)
    # (1, 1, 8, 4) has the base-5 image code of the identity.
    strangers = [(1, 2, 3, 5), (2, 2, 3, 4), (1, 1, 8, 4)] + sorted(outsiders)[:1]
    for subset in [ident | {p} for p in strangers] + [[(1, 2, 3)], []]:
        assert not group.is_normal(subset) and not oracle_is_normal(group, subset)


def test_conjugacy_classes_partition_the_group():
    g = symmetric_group(4)
    classes = oracle_conjugacy_classes(g)
    assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]
    assert set().union(*classes) == set(g)


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

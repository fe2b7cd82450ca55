"""Slow, independent oracles that the tests check the engine against.

None of these is used by the library.  Some act on one permutation or
one map at a time, and the principal ideals look up one row or column of
products.  The others read a product table, run the plain closure
rounds, list every candidate of a rank stratum or build each family on its
own, so they stay small: the naive lattice filter refuses over
``NAIVE_LATTICE_LIMIT`` elements, and the product table itself is gated by
``DEFAULT_TABLE_LIMIT``.  ``lattice_reference`` keeps the engine's former
two-pass lattice over the engine's own closures and merges.
"""

import itertools

import numpy as np

from rookmonoids import (InvariantViolation, PartialInjection, Partition, ResourceLimitError,
                         admissible_subsets, is_admissible, is_congruence)
from rookmonoids.congruences import _block_rows, _closure_rows, _is_compatible, _least_members, _merge
from rookmonoids.core import _canonical_ids, _member_mask

NAIVE_LATTICE_LIMIT = 9


def perm_mul(p, q):
    """p after q, both tuples of 1-based images."""
    return tuple(p[x - 1] for x in q)


def is_even(p):
    """True when the permutation p has an even number of inversions."""
    inversions = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return inversions % 2 == 0


def perm_inv(p):
    out = [0] * len(p)
    for i, v in enumerate(p, start=1):
        out[v - 1] = i
    return tuple(out)


def apply_mu(sigma, mu):
    """Permute the image letters of sigma: with domain a_1 < ... < a_k and
    b_i = sigma(a_i), the result sends a_i to b_mu(i)."""
    points = sigma.domain()
    if len(mu) != len(points):
        raise ValueError(
            f"permutation of size {len(mu)} cannot act on rank {len(points)}"
        )
    letters = [sigma.images[p - 1] for p in points]
    return PartialInjection.from_pairs(
        sigma.n, ((p, letters[mu[i] - 1]) for i, p in enumerate(points))
    )


def maps_admissible_sets(f):
    """Slow full-rank characterization: every admissible subset is carried
    to an admissible subset.  Equivalent to the mirror-commuting test."""
    n = f.n
    if f.rank != n:
        raise ValueError("only defined for full-rank maps")
    for k in range(n // 2 + 1):
        for a in admissible_subsets(n, k):
            if not is_admissible(n, [f.images[p - 1] for p in a]):
                return False
    return True


def principal_right(universe, idx):
    """sigma*S by brute force, asserted equal to image containment."""
    universe._check_index(idx)
    brute = frozenset(universe._products([idx], np.arange(len(universe))).ravel().tolist())
    masks = universe.img_masks
    characterized = frozenset(np.flatnonzero((masks & ~masks[idx]) == 0).tolist())
    if brute != characterized:
        raise InvariantViolation(
            f"right ideal of element {idx} disagrees with image containment"
        )
    return brute


def principal_left(universe, idx):
    """S*sigma by brute force, asserted equal to domain containment."""
    universe._check_index(idx)
    brute = frozenset(universe._products(np.arange(len(universe)), [idx]).ravel().tolist())
    masks = universe.dom_masks
    characterized = frozenset(np.flatnonzero((masks & ~masks[idx]) == 0).tolist())
    if brute != characterized:
        raise InvariantViolation(
            f"left ideal of element {idx} disagrees with domain containment"
        )
    return brute


def principal_twosided(universe, idx):
    """S*sigma*S by brute force, asserted equal to the ideal of sigma's
    J-class in ``MonoidUniverse.j_order``.

    S*sigma is closed under the rows x -> x·g of ``translations``: every
    element of S is a product of generators.
    """
    universe._check_index(idx)
    moves = universe.translations()
    right = moves[len(moves) // 2:]
    reached = np.zeros(len(universe), dtype=bool)
    frontier = universe._products(np.arange(len(universe)), [idx]).ravel()
    while frontier.size:
        reached[frontier] = True
        new = np.zeros_like(reached)
        new[right[:, frontier]] = True
        frontier = np.flatnonzero(new & ~reached)
    brute = frozenset(np.flatnonzero(reached).tolist())
    j, below = universe.j_order
    characterized = frozenset(np.flatnonzero(below[j, j[idx]]).tolist())
    if brute != characterized:
        raise InvariantViolation(
            f"two-sided ideal of element {idx} disagrees with the J-order"
        )
    return brute


def filtered_stratum(family, n, k):
    """The rank-k members in canonical order, by generate and filter: the
    domain sets (admissible unless the family is R) in lexicographic
    order, each with every arrangement of k of the n letters in
    lexicographic order, filtered by one membership mask.  At k = n this
    lists all n! permutations, so it stays below degree 10."""
    sets = list(itertools.combinations(range(1, n + 1), k) if family == "R"
                else admissible_subsets(n, k))
    if not sets:
        return np.zeros((0, n), dtype=np.uint8)
    sets = np.array(sets, dtype=np.intp)
    arranged = np.array(list(itertools.permutations(range(1, n + 1), k)), dtype=np.uint8)
    block = np.zeros((len(sets), len(arranged), n), dtype=np.uint8)
    for t in range(k):
        block[np.arange(len(sets)), :, sets[:, t] - 1] = arranged[:, t]
    block = block.reshape(-1, n)
    return block[_member_mask(family, block)]


def table_translations(table, gens):
    """Rows x -> g·x, then rows x -> x·g, for each g in ``gens``, read off
    a product table: the naive filter's translation by every element, and
    the reference for ``MonoidUniverse.translations``."""
    gens = np.asarray(gens, dtype=np.intp)
    return np.concatenate([table[gens], table[:, gens].T]).astype(np.intp)


def closure_reference(table, pairs):
    """Plain dict union-find closure over every product of a table."""
    size = len(table)
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = list(pairs)
    while work:
        a, b = work.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[rb] = ra
        for x in range(size):
            work.append((table[x][a], table[x][b]))
            work.append((table[a][x], table[b][x]))
    return _canonical_ids([find(x) for x in range(size)])


def merge_reference(ids, u, v):
    """The join of the partition labelled ``ids`` with the pairs
    (u[i], v[i]), as least-member labels: a plain union-find over Python
    ints, the reference for ``congruences._merge``.  Each element starts
    joined to its label, and a union keeps the lesser root, so every root
    is the least member of its class."""
    parent = list(range(len(ids)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in itertools.chain(enumerate(np.asarray(ids).tolist()),
                                zip(np.asarray(u).tolist(), np.asarray(v).tolist())):
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    return np.array([find(x) for x in range(len(parent))], dtype=np.intp)


def plain_closure(moves, pairs):
    """The closure rounds without the zero-class collapse, as least-member
    labels: each round merges its pairs (``merge_reference``), then
    translates every pair (l, label of l) whose label changed by each
    generator row."""
    ids = np.arange(moves.shape[1], dtype=np.intp)
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    u, v = pairs[:, 0], pairs[:, 1]
    while u.size:
        merged = merge_reference(ids, u, v)
        moved = np.flatnonzero(merged != ids)
        ids = merged
        u, v = moves[:, moved].ravel(), moves[:, ids[moved]].ravel()
    return ids


def lattice_reference(moves, seeds, j_order=None):
    """Every congruence from the seed pairs, as least-member label rows, in
    two passes: the reference for ``congruences._lattice_ids``, which
    closes and joins in one loop with one key set.

    First the distinct principal congruences, a (P, N) array: seeds close
    in blocks of ``_block_rows`` label rows laid end to end, and a ``seen``
    dict keeps each first appearance.  Then the joins from the identity: a
    worklist member is tiled P times, row p offset by p·N, and one
    ``_merge`` joins row p with principal p's pairs (element, label), until
    nothing new appears.
    """
    count, size = moves.shape
    seeds = np.asarray(seeds, dtype=np.intp).reshape(-1, 2)
    rows = max(1, min(len(seeds), _block_rows(moves)))
    offsets = np.arange(rows, dtype=np.intp) * size
    tiled = (moves[:, None, :] + offsets[:, None]).reshape(count, rows * size)
    seen, found = {}, [np.empty((0, size), dtype=np.intp)]
    for start in range(0, len(seeds), rows):
        block = seeds[start:start + rows]
        shift, width = offsets[:len(block)], len(block) * size
        ids = _closure_rows(tiled[:, :width], np.arange(width, dtype=np.intp),
                            block[:, 0] + shift, block[:, 1] + shift, j_order)
        ids = ids.reshape(len(block), size) - shift[:, None]
        found.append(ids[[r for r, row in enumerate(ids)
                          if seen.setdefault(row.tobytes(), start + r) == start + r]])
    labels = np.concatenate(found)
    offsets = np.arange(len(labels), dtype=np.intp)[:, None] * size
    labels = (labels + offsets).ravel()
    u = np.flatnonzero(labels != np.arange(labels.size))
    v = labels[u]
    identity = np.arange(size, dtype=np.intp)
    distinct, worklist = {identity.tobytes(): identity}, [identity]
    while worklist:
        for joined in _merge((worklist.pop() + offsets).ravel(), u, v).reshape(-1, size) - offsets:
            if joined.tobytes() not in distinct:
                distinct[joined.tobytes()] = joined = joined.copy()
                worklist.append(joined)
    return list(distinct.values())


def set_partitions(size):
    """All set partitions of range(size) as restricted-growth id vectors."""
    ids = [0] * size

    def rec(i, maxid):
        if i == size:
            yield np.array(ids, dtype=np.int32)
            return
        for c in range(maxid + 2):
            ids[i] = c
            yield from rec(i + 1, max(maxid, c))

    yield from rec(1, 0) if size else iter([np.zeros(0, np.int32)])


def all_congruences_naive(universe):
    """Every congruence, by filtering every set partition for compatibility."""
    size = len(universe)
    if size > NAIVE_LATTICE_LIMIT:
        raise ResourceLimitError(
            f"naive congruence filter over {size} elements exceeds {NAIVE_LATTICE_LIMIT}"
        )
    # Translation by every element, so the filter does not rely on generators().
    moves = table_translations(universe.multiplication_table(), np.arange(size))
    block = np.array(list(set_partitions(size)))
    least = np.array([_least_members(ids) for ids in block])
    parts = [Partition(universe, ids) for ids in block[_is_compatible(moves, least)]]
    parts.sort(key=lambda p: (-p.num_classes, p.key))
    return parts


def least_rows_reference(universe, shapes):
    """The least-member labels of ``families._least_rows``, by a sort: each
    shape's class ids, a split member's id being N + h·|group| plus its
    coset label, h the least member of its H-class, then one ``np.unique``
    over the rows laid end to end, each offset past the ids of the row
    before.  It assumes no H-class layout."""
    size = len(universe)
    block = np.tile(np.arange(size, dtype=np.int64), (len(shapes), 1))
    for row, (zero, splits) in zip(block, shapes):
        row[zero] = 0  # the zero map, element 0, lies in every ideal
        for mask, group, labels in splits:
            members = np.flatnonzero(mask)
            pos, found = group._indices(universe.h_coords[members, :group.degree])
            assert found.all()
            codes = universe.dom_masks[members] << universe.n | universe.img_masks[members]
            _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
            h = members[first][inverse.ravel()]  # the least member of each H-class
            row[members] = size + h * len(group) + labels[pos]
    offsets = np.arange(len(shapes))[:, None]
    block += offsets * (block.max() + 1)
    _, first, inverse = np.unique(block, return_index=True, return_inverse=True)
    least = first[inverse.reshape(block.shape)]
    least -= offsets * size
    return least


def compatible_reference(moves, ids):
    """One bool per row of the class-id block ``ids``: True when every
    translation row of ``moves`` maps each class into one class, checked
    element by element in Python."""
    out = []
    for row in ids.tolist():
        image = {}
        out.append(all(image.setdefault((g, c), row[m[x]]) == row[m[x]]
                       for g, m in enumerate(moves.tolist()) for x, c in enumerate(row)))
    return out


def family_partition_reference(universe, zero, splits, unit_pairs=()):
    """The one shape every predicted family has (``families._shape``),
    built per family: the reference for ``families._family_partitions``,
    which looks each split stratum up once, keys its classes by arithmetic
    and builds every family in blocks of rows.

    ``zero`` masks the ideal that collapses into the zero class.  Each
    ``(mask, group, labels)`` split cuts the masked elements, of rank k =
    ``group.degree``, into their H-classes and each H-class into the cosets
    of a normal subgroup N of ``group``: members of one H-class are related
    when their H-coordinates (``h_coords``) lie in one coset of N, read off
    N's coset labels (``PermGroup.cosets``).  ``unit_pairs`` lists element
    pairs merged on top.  Everything else stays singleton.  The result is
    checked to be a congruence before it is returned.
    """
    ids = np.arange(len(universe), dtype=np.int64)
    ids[zero] = 0  # the zero map, element 0, lies in every ideal
    for mask, group, labels in splits:
        members = np.flatnonzero(mask)
        pos, found = group._indices(universe.h_coords[members, :group.degree])
        if not found.all():
            raise InvariantViolation(
                f"the H-coordinate of element {members[np.argmin(found)]} is not in {group!r}"
            )
        keys = [universe.dom_masks[members], universe.img_masks[members], labels[pos]]
        # One void scalar per row of int64 keys: a 1-D unique groups the rows.
        rows = np.column_stack(keys).view(np.dtype((np.void, 8 * len(keys)))).ravel()
        _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
        ids[members] = members[first][inverse.ravel()]
    for a, b in unit_pairs:
        ids[ids == ids[b]] = ids[a]
    part = Partition(universe, ids)
    if not is_congruence(universe, part):
        raise InvariantViolation("constructed family partition is not a congruence")
    return part

"""Finite-monoid congruence machinery.

Partitions are flat class-id vectors in a canonical form (classes numbered
by their smallest member), so equality of partitions is equality of
vectors.  Inside the closure engine a partition is held as least-member
labels instead: every element is labelled by the least member of its
class, which is just as canonical and lets classes be merged by hooking
labels (``_merge``).

An equivalence compatible with multiplication by each generator of the
monoid, on both sides, is a congruence, since every element is a product
of generators.  So a closure runs in rounds over the rows x -> g·x and
x -> x·g of the generators (``MonoidUniverse.generators``: 5 on OR_6, 4 on
SR_6): each round merges the generator translates of the pairs
(l, label of l) whose label changed in the round before.  ``is_congruence``
checks the same rows.  They come from ``MonoidUniverse.translations``,
which looks up 2k·N products, so the closures, congruence checks and the
lattice build no N x N product table; only the naive oracle reads it.

The lattice enumerator works on inverse monoids, which OR_n, SR_n and R_n
are: a congruence there is fixed by its kernel and trace, so it is a join
of principal congruences of kernel pairs (x⁻¹·x, x) and trace pairs
(e, f) of idempotents with f < e.  Pairs conjugate by a unit close to the
same principal congruence, so one pair per orbit of x -> g·x·g⁻¹ is a
seed (``_kernel_trace_seeds``): 21 on OR_4, 45 on OR_6, 124 on OR_8.  The
seeds close in blocks of label rows laid end to end, one set of closure
rounds per block (``_principal_ids``).  Every congruence of a finite monoid
is a join of principal ones, so each lattice member is then joined with
the principal congruences only, in one merge per member over the member
tiled once per principal congruence, until nothing new appears
(``_lattice_ids``).  The same engine lists the normal subgroups of a
permutation group, as the identity classes of its congruences, from the
same orbit step (``_orbit_minima``) and generator rows, and keeps each
congruence as the subgroup's coset labels; a group stores no Cayley table.
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

from .core import (TABLE_BLOCK_BYTES, InvariantViolation, ResourceLimitError, _generator_rows,
                   _locate, _product_codes, image_codes)

DEFAULT_GROUP_LIMIT = 10**4
NAIVE_LATTICE_LIMIT = 9


def _canonical_ids(ids):
    """Renumber class labels by first occurrence, as int32."""
    ids = np.asarray(ids)
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inverse.ravel()].astype(np.int32)


def _least_members(ids):
    """Least-member labels of a canonical class-id vector."""
    return np.unique(ids, return_index=True)[1][ids]


def _merge(ids, u, v):
    """Least-member labels of the join of ``ids`` with the pairs (u[i], v[i]).

    Each step hooks the greater of two distinct labels to the least label
    offered to it, then pointer-jumps until every label is a root.  Labels
    only fall and stay inside their class, so each class ends labelled by
    its least member.  Returns ``ids`` itself when nothing merges, and never
    writes to it.
    """
    a, b = ids[u], ids[v]
    keep = a != b
    if not keep.any():
        return ids
    ids = ids.copy()
    while keep.any():
        a, b = a[keep], b[keep]
        np.minimum.at(ids, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = ids[ids]
            if np.array_equal(jumped, ids):
                break
            ids = jumped
        a, b = ids[a], ids[b]
        keep = a != b
    return ids


def _is_congruence_ids(moves, ids):
    """True when the partition ``ids`` is compatible with every translation
    row of ``moves``: each element moves into the class that the least
    member of its class moves into."""
    ids = np.asarray(ids)
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    least = first[inverse.ravel()]
    labels = ids[moves]
    return bool(np.array_equal(labels, labels[:, least]))


def _translations(table, gens):
    """Rows x -> g·x, then rows x -> x·g, for each g in ``gens``, read off
    a product table: the naive oracle's translation by every element, and
    the reference for ``MonoidUniverse.translations``."""
    gens = np.asarray(gens, dtype=np.intp)
    return np.concatenate([table[gens], table[:, gens].T]).astype(np.intp)


def _closure_ids(moves, pairs):
    """Least congruence containing the seed pairs, as least-member labels.

    ``moves`` holds the generator rows of ``MonoidUniverse.translations``.
    Each round merges the pairs of the round before, then translates every
    pair (l, ids[l]) whose label changed by every generator on both sides;
    those translates are the next round's pairs.  At the end every
    (l, ids[l]) has been translated with its final label, so the partition
    is compatible with each generator, hence a congruence.
    """
    size = moves.shape[1]
    pairs = np.asarray(pairs).reshape(-1, 2)
    if pairs.size and pairs.dtype.kind not in "iu":
        raise ValueError("element index pairs must be integers")
    bad = np.flatnonzero(((pairs < 0) | (pairs >= size)).any(axis=1))
    if bad.size:
        a, b = pairs[bad[0]].tolist()
        raise ValueError(f"element index pair ({a}, {b}) out of range")
    return _closure_rows(moves, np.arange(size, dtype=np.intp), pairs[:, 0], pairs[:, 1])


def _closure_rows(moves, ids, u, v):
    """The closure rounds of ``_closure_ids``, from the labels ``ids`` and
    the seed pairs (u[i], v[i]).  Nothing here reads how many elements the
    algebra has, so ``_principal_ids`` runs it on several label rows laid
    end to end, with ``moves`` offset to match."""
    while u.size:
        merged = _merge(ids, u, v)
        moved = np.flatnonzero(merged != ids)
        ids = merged
        u, v = moves[:, moved].ravel(), moves[:, ids[moved]].ravel()
    return ids


def _closure_reference(table, pairs):
    """Plain dict union-find closure; slow, used as a cross-check oracle."""
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


def _set_partitions(size):
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


class Partition:
    """A partition of a universe as a canonical class-id vector."""

    __slots__ = ("universe", "ids", "_key")

    def __init__(self, universe, ids):
        ids = np.asarray(ids)
        if ids.shape != (len(universe),):
            raise ValueError(
                f"expected {len(universe)} class ids, got shape {ids.shape}"
            )
        self.universe = universe
        self.ids = _canonical_ids(ids)
        self.ids.setflags(write=False)
        self._key = self.ids.tobytes()

    @classmethod
    def identity(cls, universe):
        return cls(universe, np.arange(len(universe)))

    @classmethod
    def universal(cls, universe):
        return cls(universe, np.zeros(len(universe), dtype=np.int32))

    @classmethod
    def from_classes(cls, universe, classes):
        size = len(universe)
        ids = np.full(size, -1, dtype=np.int64)
        for label, block in enumerate(classes):
            for i in block:
                if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < size:
                    raise ValueError(f"element {i!r} is not an index in 0..{size - 1}")
                if ids[i] != -1:
                    raise ValueError(f"element {i} listed in two classes")
                ids[i] = label
        if (ids == -1).any():
            raise ValueError("classes do not cover the universe")
        return cls(universe, ids)

    @property
    def key(self):
        return self._key

    @property
    def num_classes(self):
        return int(self.ids.max()) + 1 if self.ids.size else 0

    def relates(self, i, j):
        return bool(self.ids[i] == self.ids[j])

    def class_of(self, i):
        return [int(x) for x in np.flatnonzero(self.ids == self.ids[i])]

    def classes(self):
        out = [[] for _ in range(self.num_classes)]
        for i, c in enumerate(self.ids.tolist()):
            out[c].append(i)
        return out

    def refines(self, other):
        """True when every class of self sits inside a class of other."""
        firsts = np.unique(self.ids, return_index=True)[1]
        return bool(np.array_equal(other.ids, other.ids[firsts][self.ids]))

    def to_json(self):
        return {
            "universe": {"family": self.universe.family, "n": self.universe.n},
            "classes": self.classes(),
        }

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.universe is other.universe
            and self._key == other._key
        )

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"<Partition of {self.universe.family}_{self.universe.n} into {self.num_classes} classes>"


def partition_from_json(universe, obj):
    meta = obj.get("universe", {})
    if meta and (meta.get("family") != universe.family or meta.get("n") != universe.n):
        raise ValueError(f"partition belongs to {meta}, not this universe")
    return Partition.from_classes(universe, obj["classes"])


def is_congruence(universe, partition):
    """Two-sided compatibility: related pairs stay related under left and
    right translation by each generator (``MonoidUniverse.generators``).

    That suffices because every element is a product of generators: the 2k
    rows of N entries of ``MonoidUniverse.translations`` for k generators,
    instead of all N² products, so no product table is built.
    """
    if partition.universe is not universe:
        raise ValueError("partition lives on another universe")
    return _is_congruence_ids(universe.translations(), partition.ids)


def congruence_closure(universe, pairs):
    """Least congruence of the universe containing the given index pairs,
    closed over ``MonoidUniverse.translations``; no product table is built."""
    return Partition(universe, _closure_ids(universe.translations(), list(pairs)))


def join(p, q):
    """Least congruence containing two congruences (their equivalence join)."""
    if p.universe is not q.universe:
        raise ValueError("partitions live on different universes")
    other = _least_members(q.ids)
    return Partition(p.universe, _merge(_least_members(p.ids), np.arange(other.size), other))


def _orbit_minima(codes, size, left, right):
    """The least pair of each orbit under x -> g·x·g⁻¹, as an (S, 2) array
    of (a, b) ascending in the code a·N + b, N = ``size``.

    ``codes`` are the sorted codes of pairs with a < b, a set closed under
    conjugation; ``left`` and ``right`` hold the rows x -> g·x and x -> x·g
    of units g that generate the group acting.  g·x·g⁻¹ is the y with
    y·g = g·x, read off the two rows, since x -> x·g is a bijection; so no
    product is computed.  One ``_merge`` over pair indices gives the orbits.
    """
    undo = np.empty(right.shape, dtype=np.intp)
    np.put_along_axis(undo, right, np.arange(size), axis=1)
    conjugate = np.take_along_axis(undo, left, axis=1)
    ends = conjugate[:, np.divmod(codes, size)]
    pos, found = _locate(codes, ends.min(axis=1) * size + ends.max(axis=1))
    if not found.all():
        g, i = np.unravel_index(np.argmin(found), found.shape)
        pair = divmod(int(codes[i]), size)
        raise InvariantViolation(f"conjugating the pair {pair} by row {g} leaves the pairs")
    index = np.arange(codes.size)
    least = _merge(index, np.broadcast_to(index, pos.shape).ravel(), pos.ravel())
    return np.stack(np.divmod(codes[least == index], size), axis=1)


def _kernel_trace_seeds(universe):
    """One seed pair per unit-conjugation orbit of kernel and trace pairs,
    as an (S, 2) array ascending in the pair code a·N + b, a < b.

    A congruence ρ on an inverse monoid is fixed by its trace, ρ on the
    idempotents, and its kernel, the union of the classes that hold an
    idempotent (Petrich, *Inverse Semigroups*, ch. III; Howie, ch. 5).  So
    ρ is generated by the pairs of two kinds that it holds: trace pairs
    (e, f) of idempotents with f < e, since e ρ f gives e ρ ef ρ f, and
    kernel pairs (e_x, x), e_x = x⁻¹·x the partial identity on dom x, since
    x ρ e gives x ρ x⁻¹·x.  Each congruence is then a join of the principal
    congruences of such pairs.  Conjugation by a unit g maps these pairs
    onto themselves, and (a, b) and (g·a·g⁻¹, g·b·g⁻¹) are translates of
    each other, so they close to the same principal congruence: each orbit
    keeps its least code (``_orbit_minima``).

    The reverse map of every element is looked up first, so the monoid is
    checked to be inverse, not assumed to be.  The unit generators, the
    rank-n entries of ``generators``, generate the unit group, since the
    greedy scan visits the units first; their two rows of ``translations``
    give the conjugations.
    """
    images = universe.image_matrix.astype(np.intp)
    size, n = images.shape
    everything = np.arange(size)
    slots = np.arange(1, n + 1)
    reverse = np.zeros((size, n + 1), dtype=np.intp)
    reverse[everything[:, None], images] = slots  # column 0 takes the unmapped slots
    universe._rows(reverse[:, 1:], "the reverse map")
    partial = universe._rows(np.where(images > 0, slots, 0), "the partial identity on the domain")
    idempotents = np.flatnonzero(partial == everything)
    kernel = np.flatnonzero(partial != everything)
    masks = universe.dom_masks[idempotents]
    lower, upper = np.nonzero((masks[:, None] & ~masks == 0) & (masks[:, None] != masks))
    a = np.concatenate([partial[kernel], idempotents[lower]])
    b = np.concatenate([kernel, idempotents[upper]])
    codes = np.sort(np.minimum(a, b) * size + np.maximum(a, b))
    gens, moves = universe.generators(), universe.translations()
    units = np.flatnonzero(universe.ranks[gens] == n)
    return _orbit_minima(codes, size, moves[units], moves[len(gens) + units])


def _principal_ids(moves, seeds):
    """The distinct principal congruences of the seed pairs, as a dict from
    label bytes to least-member labels, in the order of first appearance.

    A block of R seeds closes at once: its R label rows lie end to end, row
    r offset by r·N, and so do the generator rows, so no class crosses two
    rows and one set of ``_closure_rows`` rounds closes all R.  R is as
    large as ``TABLE_BLOCK_BYTES`` allows for the offset rows and one label
    row each: every seed of OR_4 at once, 22 on OR_6, one on OR_8.
    """
    count, size = moves.shape
    seeds = np.asarray(seeds, dtype=np.intp).reshape(-1, 2)
    rows = max(1, min(len(seeds), TABLE_BLOCK_BYTES // (moves.nbytes + 8 * size)))
    offsets = np.arange(rows, dtype=np.intp) * size
    # Named R·N, not -1: a group of order 1 has no generator rows.
    tiled = (moves[:, None, :] + offsets[:, None]).reshape(count, rows * size)
    found = {}
    for start in range(0, len(seeds), rows):
        block = seeds[start:start + rows]
        shift, width = offsets[:len(block)], len(block) * size
        ids = _closure_rows(tiled[:, :width], np.arange(width, dtype=np.intp),
                            block[:, 0] + shift, block[:, 1] + shift)
        for row in ids.reshape(len(block), size) - shift[:, None]:
            found.setdefault(row.tobytes(), row)
    return found


def _lattice_ids(moves, seeds):
    """Every congruence of the algebra whose generator translations are the
    rows of ``moves``, as least-member labels in no particular order.

    Closes the seed pairs (``_principal_ids``), adds the identity and the
    universal partition, and joins each member with the principal
    congruences until nothing new appears.  When the seeds reach every
    principal congruence this is the whole lattice, since every congruence
    of a finite algebra is a join of principal ones.
    """
    size = moves.shape[1]
    principal = _principal_ids(moves, seeds)
    distinct = dict(principal)
    for ids in (np.arange(size, dtype=np.intp), np.zeros(size, dtype=np.intp)):
        distinct.setdefault(ids.tobytes(), ids)

    # One merge joins a member with all P principal congruences: the member
    # is tiled P times, row p offset by p·N, and row p takes the pairs
    # (element, its label) of principal p.
    offsets = np.arange(len(principal), dtype=np.intp)[:, None] * size
    labels = np.array(list(principal.values()), dtype=np.intp).reshape(-1, size)
    labels = (labels + offsets).ravel()
    u = np.flatnonzero(labels != np.arange(labels.size))
    v = labels[u]
    worklist = list(distinct.values())
    while worklist:
        tiled = (worklist.pop() + offsets).ravel()
        for joined in _merge(tiled, u, v).reshape(-1, size) - offsets:
            key = joined.tobytes()
            if key not in distinct:
                distinct[key] = joined
                worklist.append(joined)
    return list(distinct.values())


def congruence_lattice(universe):
    """Every congruence of the universe, canonically sorted (finest first).

    ``_lattice_ids`` closes one kernel or trace pair per unit-conjugation
    orbit (``_kernel_trace_seeds``) over the generator rows and joins the
    principal congruences; no product table is built.  Output is
    deterministic.  There is no budget here: the universe is already
    within the element budget that ``enumerate_universe`` checked.
    """
    seeds = _kernel_trace_seeds(universe)
    parts = [Partition(universe, ids) for ids in _lattice_ids(universe.translations(), seeds)]
    parts.sort(key=lambda p: (-p.num_classes, p.key))
    return parts


def all_congruences_naive(universe):
    """Independent oracle: filter every set partition for compatibility."""
    size = len(universe)
    if size > NAIVE_LATTICE_LIMIT:
        raise ResourceLimitError(
            f"naive congruence filter over {size} elements exceeds {NAIVE_LATTICE_LIMIT}"
        )
    # Translation by every element, so the filter does not rely on generators().
    moves = _translations(universe.multiplication_table(), np.arange(size))
    parts = [
        Partition(universe, ids)
        for ids in _set_partitions(size)
        if _is_congruence_ids(moves, ids)
    ]
    parts.sort(key=lambda p: (-p.num_classes, p.key))
    return parts


def _hasse_dot(name, prefix, labels, below):
    """DOT digraph of a finite order drawn bottom to top: one node per
    label, and an edge i -> j for each covering relation, ``below[i][j]``
    with no k between them."""
    count = len(labels)
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    lines += [f'  {prefix}{i} [label="{label}"];' for i, label in enumerate(labels)]
    for i in range(count):
        for j in range(count):
            if below[i][j] and not any(below[i][k] and below[k][j] for k in range(count)):
                lines.append(f"  {prefix}{i} -> {prefix}{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def lattice_to_dot(partitions):
    """DOT digraph of the refinement order, edges being covering relations."""
    below = [[i != j and p.refines(q) for j, q in enumerate(partitions)]
             for i, p in enumerate(partitions)]
    return _hasse_dot("congruence_lattice", "c",
                      [f"{p.num_classes} classes" for p in partitions], below)


# -- permutation groups ------------------------------------------------------

def perm_mul(p, q):
    """p after q, both tuples of 1-based images."""
    return tuple(p[x - 1] for x in q)


def perm_inv(p):
    out = [0] * len(p)
    for i, v in enumerate(p, start=1):
        out[v - 1] = i
    return tuple(out)


class PermGroup:
    """A finite permutation group on {1..degree}: ``perms``, the sorted,
    read-only (order, degree) array of 1-based images (the identity is row
    0), with the generators and translation rows of ``_generator_rows``
    over them, as for a ``MonoidUniverse``.  Their products are looked up
    among the image codes, so building them checks closure.
    """

    def __init__(self, degree, elements):
        self.degree = int(degree)
        self.identity = tuple(range(1, self.degree + 1))
        perms = np.array([tuple(p) for p in elements], dtype=np.intp)
        if perms.shape[1:] != (self.degree,) or (np.sort(perms, axis=1) != self.identity).any():
            raise ValueError(f"elements must be permutations of 1..{self.degree}")
        self._codes, first = np.unique(image_codes(perms), return_index=True)
        self.perms = perms[first]  # sorted like the codes; the identity first
        if not np.array_equal(self.perms[0], self.identity):
            raise ValueError("group must contain the identity")
        self.perms.setflags(write=False)
        self._generators, self._translations = _generator_rows(self._products, range(len(self)), 0)
        self._normal = self._cosets = None

    def _products(self, left, right):
        """Indices of perms[i] after perms[j], i in ``left`` and j in ``right``,
        as one block; a product that is not a member raises ``ValueError``."""
        pos, found = _locate(self._codes, _product_codes(self.perms[left], self.perms[right].T))
        if not found.all():
            i, j = np.unravel_index(np.argmin(found), found.shape)
            a, b = self.perms[left[i]].tolist(), self.perms[right[j]].tolist()
            raise ValueError(f"not closed: {tuple(a)} * {tuple(b)} escapes the set")
        return pos

    def generators(self):
        return list(self._generators)

    def translations(self):
        """The 2k x order rows x -> g·x, then x -> x·g, for the k generators."""
        return self._translations

    def _indices(self, images):
        """Positions of the rows of an (M, degree) array of images 1..degree
        among the members, and whether each row is one."""
        return _locate(self._codes, image_codes(images))

    @property
    def elements(self):
        return frozenset(self)

    def __len__(self):
        return len(self.perms)

    def __iter__(self):
        return iter(map(tuple, self.perms.tolist()))

    def __contains__(self, p):
        row = np.array([tuple(p)], dtype=np.intp)
        if row.shape[1:] != (self.degree,) or ((row < 1) | (row > self.degree)).any():
            return False
        return bool(self._indices(row)[1][0])

    def cosets(self, subset):
        """The coset labels of ``subset``, a set of image tuples, when it is
        one of the normal subgroups (``normal_subgroups``), else None."""
        normal_subgroups(self)
        return self._cosets.get(frozenset(map(tuple, subset)))

    def is_normal(self, subset):
        """True when ``subset`` is one of the normal subgroups."""
        return self.cosets(subset) is not None

    def __repr__(self):
        return f"<PermGroup of degree {self.degree}, order {len(self)}>"


@functools.cache
def symmetric_group(k):
    """S_k, built once per degree."""
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    factorials = itertools.accumulate(range(1, k + 1), operator.mul)
    if any(f > DEFAULT_GROUP_LIMIT for f in factorials):
        raise ResourceLimitError(f"S_{k} exceeds the group bound {DEFAULT_GROUP_LIMIT}")
    return PermGroup(k, itertools.permutations(range(1, k + 1)))


def normal_subgroups(group):
    """Every normal subgroup as a frozenset of image tuples, smallest first,
    ties broken by the sorted members; computed once per group.

    A congruence on a group is the coset partition of a normal subgroup,
    its identity class, so ``_lattice_ids`` runs over the group's
    translation rows.  The seeds are the kernel–trace seeds of
    ``_kernel_trace_seeds`` on a group, whose one idempotent is the
    identity: no trace pairs, and one kernel pair (1, g) per conjugacy
    class (``_orbit_minima``).  Each subgroup's congruence is kept too, as
    read-only least-member labels over the group's indices, one label per
    coset (``PermGroup.cosets``); the family builder splits by them.
    """
    if group._normal is None:
        found = []
        moves, k = group.translations(), len(group.generators())
        seeds = _orbit_minima(np.arange(1, len(group)), len(group), moves[:k], moves[k:])
        for ids in _lattice_ids(moves, seeds):
            ids = ids.copy()  # a row of a block: keep it, not the block
            ids.setflags(write=False)
            found.append((np.flatnonzero(ids == 0), ids))
        found.sort(key=lambda item: (len(item[0]), item[0].tolist()))
        group._cosets = {frozenset(map(tuple, group.perms[m].tolist())): ids for m, ids in found}
        group._normal = tuple(group._cosets)
    return group._normal

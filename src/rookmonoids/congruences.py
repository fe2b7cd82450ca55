"""Finite-monoid congruence machinery, without a product table.  The engine
holds least-member labels, each element labelled by the least member of its
class: ``_merge`` joins them with pairs, ``_closure_rows`` closes them over
the generator rows, ``_lattice_ids`` closes the seeds of
``_kernel_trace_seeds`` and joins each new principal congruence into the
members, and ``Partition`` numbers the result canonically.
``normal_subgroups`` runs the same engine on a permutation group."""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

from .core import (TABLE_BLOCK_BYTES, InvariantViolation, ResourceLimitError, _canonical_ids,
                   _canonical_rows, _ElementStore, _holds_bool, _is_integer, _locate, image_codes)

DEFAULT_GROUP_LIMIT = 10**4


def _least_members(ids):
    """Least-member labels of a canonical class-id vector: class c begins
    where the running maximum of the ids first reaches c.  No sort."""
    return np.flatnonzero(np.diff(np.maximum.accumulate(ids), prepend=-1))[ids]


def _block_rows(moves):
    """How many label rows over the N elements of ``moves`` a block of
    ``_lattice_ids`` takes: ``moves.nbytes + 16·N`` bytes a row, the offset
    generator rows, one label row and one row of ``_closure_rows``' row
    zeros each, within ``TABLE_BLOCK_BYTES``, and at least one."""
    return max(1, TABLE_BLOCK_BYTES // (moves.nbytes + 16 * moves.shape[1]))


def _merge(ids, u, v):
    """Least-member labels of the join of ``ids`` with the pairs (u[i], v[i]).

    ``ids`` must be flat least-member labels, every element labelled by the
    least member of its class (``ids[ids] == ids``), as every caller holds
    them.  Each step hooks the greater of two distinct labels, a root, to
    the least label offered to it.  Then only the hooked roots point off a
    root, so their chains are jumped on the hooked entries alone, and one
    gather relabels every element.  Labels only fall and stay inside their
    class, so each class ends labelled by its least member.  Never writes
    to ``ids``, and returns ``ids`` itself when nothing merges: callers
    take that as the test that the pairs add nothing.
    """
    hi, lo = _hooks(ids, u, v)
    if not hi.size:
        return ids
    ids = ids.copy()
    while hi.size:
        np.minimum.at(ids, hi, lo)
        up = ids[hi]
        while True:
            top = ids[up]
            if (top == up).all():
                break
            ids[hi] = up = top
        del up, top
        ids = ids[ids]
        hi, lo = _hooks(ids, hi, lo)
    return ids


def _hooks(ids, u, v):
    """The pairs of distinct labels (ids[u[i]], ids[v[i]]), each ordered
    (greater, lesser).  Each pair array is filtered as soon as the mask is
    known, so at most three pair-sized arrays are alive at once."""
    a, b = ids[u], ids[v]
    keep = a != b
    a = a[keep]
    b = b[keep]
    hi = np.maximum(a, b)
    return hi, np.minimum(a, b, out=a)


def _is_compatible(moves, least):
    """One bool per row of an (R, N) block of least-member labels: True
    when that row is compatible with every translation row of ``moves``,
    each element moving into the class that the least member of its class
    moves into.  One gather of the transposed block puts element x of row
    r at x·R + r, so one flat index, least·R + r, reads the least members.
    Gathered as int32, the labels take 8 bytes per generator row and
    element, which ``_block_rows`` budgets for.  No rows give no bools."""
    rows, size = least.shape
    labels = np.take(np.ascontiguousarray(least.T, dtype=np.int32), moves, axis=0)
    labels = labels.reshape(len(moves), size * rows)
    index = least.T * rows + np.arange(rows)
    return (labels == np.take(labels, index.ravel(), axis=1)).all(axis=0).reshape(size, rows).all(axis=0)


def _closure_ids(moves, pairs, j_order=None):
    """Least congruence containing the seed pairs, as least-member labels.

    ``moves`` holds the generator rows of ``MonoidUniverse.translations``.
    Each round merges the pairs of the round before, then translates every
    pair (l, ids[l]) whose label changed by every generator on both sides;
    those translates are the next round's pairs.  At the end every
    (l, ids[l]) has been translated with its final label, or lies in an
    ideal inside the zero class (``_closure_rows``), so the partition is
    compatible with each generator, hence a congruence.
    """
    size = moves.shape[1]
    given, pairs = pairs, np.asarray(pairs)
    if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu"
                       or _holds_bool(given)):
        raise ValueError(f"element index pairs must form an (M, 2) integer array, got {pairs.shape}")
    pairs = pairs.reshape(-1, 2)
    bad = np.flatnonzero(((pairs < 0) | (pairs >= size)).any(axis=1))
    if bad.size:
        a, b = pairs[bad[0]].tolist()
        raise ValueError(f"element index pair ({a}, {b}) out of range")
    return _closure_rows(moves, np.arange(size, dtype=np.intp), pairs[:, 0], pairs[:, 1], j_order)


def _closure_rows(moves, ids, u, v, j_order=None):
    """The closure rounds of ``_closure_ids``, from the labels ``ids`` and
    the seed pairs (u[i], v[i]).  ``_lattice_ids`` runs it on several
    label rows laid end to end, with ``moves`` offset to match, so each
    element's row zero is read from one lookup built once a call.

    Given the ``MonoidUniverse.j_order`` of a monoid whose element 0 is its
    zero, each round also grows every row's zero class to the ideal it
    generates (Freese, "Computing congruences efficiently", 2008, adds
    implied pairs during a closure in the same way).  A zero class is an
    ideal, since x ρ 0 gives s·x·t ρ s·0·t = 0: once it meets a J-class,
    the down-set I of that class in the J-order lies in it in every
    congruence that holds the pairs so far.  So in the round that reaches
    I, every class that meets I is relabelled to its row zero, again while
    that pulls in an element whose J-class is not yet collapsed, and the
    result is the same least congruence.  The zero class then holds only
    collapsed ideals, whose members need no translation: g·x and x·g lie in
    the ideal too, with g·0 = 0·g = 0.  So the next round's pairs are the
    translates of the moved elements outside the zero class.  A
    permutation group has no zero and passes no ``j_order``.
    """
    if j_order is not None:
        j_ids, below = j_order
        size = len(j_ids)
        done = np.zeros((ids.size // size, len(below)), dtype=bool)  # J-classes collapsed per row
        collapsed = np.zeros(ids.size, dtype=bool)
        row_zero = np.repeat(np.arange(0, ids.size, size), size)  # the zero of each element's row
    while u.size and (merged := _merge(ids, u, v)) is not ids:  # the last round merges nothing
        moved = np.flatnonzero(merged != ids)
        ids = merged
        if j_order is not None:
            zero = moved[ids[moved] == row_zero[moved]]
            while zero.size:
                reached = np.zeros_like(done)
                reached[zero // size, j_ids[zero % size]] = True
                new = (reached @ below.T) & ~done
                done |= new
                grow = np.flatnonzero(new[:, j_ids])
                collapsed[grow] = True
                roots = np.zeros(ids.size, dtype=bool)
                roots[ids[grow]] = True
                pulled = roots[ids]
                ids = np.where(pulled, row_zero, ids)
                zero = np.flatnonzero(pulled & ~collapsed)
            moved = moved[~collapsed[moved]]
        u, v = moves[:, moved].ravel(), moves[:, ids[moved]].ravel()
    return ids


class Partition:
    """A partition of a universe as a canonical class-id vector: read-only
    int32 ids numbering the classes by first occurrence, held once (``key``
    makes their bytes).  The constructor canonicalizes any class ids
    (``_canonical_ids``); the engine, which holds least-member labels,
    builds through ``_canonical`` from ``_canonical_rows``, with no sort."""

    __slots__ = ("universe", "ids", "_hash")

    def __init__(self, universe, ids):
        ids = np.asarray(ids)
        if ids.shape != (len(universe),):
            raise ValueError(
                f"expected {len(universe)} class ids, got shape {ids.shape}"
            )
        self._set(universe, _canonical_ids(ids))

    def _set(self, universe, ids):
        self.universe = universe
        self.ids = ids
        ids.setflags(write=False)
        self._hash = None

    @classmethod
    def _canonical(cls, universe, ids):
        """The partition whose ids, an int32 row of N entries, are already
        canonical: taken as they are, unchecked and uncopied."""
        part = cls.__new__(cls)
        part._set(universe, ids)
        return part

    @classmethod
    def identity(cls, universe):
        return cls._canonical(universe, np.arange(len(universe), dtype=np.int32))

    @classmethod
    def universal(cls, universe):
        return cls._canonical(universe, np.zeros(len(universe), dtype=np.int32))

    @classmethod
    def from_classes(cls, universe, classes):
        size = len(universe)
        ids = np.full(size, -1, dtype=np.int64)
        for label, block in enumerate(classes):
            for i in block:
                universe._check_index(i)
                if ids[i] != -1:
                    raise ValueError(f"element {i} listed in two classes")
                ids[i] = label
        if (ids == -1).any():
            raise ValueError("classes do not cover the universe")
        return cls(universe, ids)

    @property
    def key(self):
        return self.ids.tobytes()

    @property
    def num_classes(self):
        return int(self.ids.max()) + 1 if self.ids.size else 0

    def relates(self, i, j):
        self.universe._check_index(i)
        self.universe._check_index(j)
        return bool(self.ids[i] == self.ids[j])

    def class_of(self, i):
        self.universe._check_index(i)
        return [int(x) for x in np.flatnonzero(self.ids == self.ids[i])]

    def classes(self):
        out = [[] for _ in range(self.num_classes)]
        for i, c in enumerate(self.ids.tolist()):
            out[c].append(i)
        return out

    def refines(self, other):
        """True when every class of self sits inside a class of other."""
        if self.universe is not other.universe:
            raise ValueError("partitions live on different universes")
        return bool(np.array_equal(other.ids, other.ids[_least_members(self.ids)]))

    def to_json(self):
        return {
            "universe": {"family": self.universe.family, "n": self.universe.n},
            "classes": self.classes(),
        }

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.universe is other.universe
            and np.array_equal(self.ids, other.ids)
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.ids.tobytes())
        return self._hash

    def __repr__(self):
        return f"<Partition of {self.universe.family}_{self.universe.n} into {self.num_classes} classes>"


def partition_from_json(universe, obj):
    meta = obj.get("universe", {})
    n = meta.get("n")
    if meta and (meta.get("family") != universe.family or not _is_integer(n) or n != universe.n):
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
    return bool(_is_compatible(universe.translations(), _least_members(partition.ids)[None])[0])


def _zero_order(universe):
    """``MonoidUniverse.j_order`` for the zero-class collapse on the whole
    family; None on a submonoid, whose J-classes ranks do not give."""
    return universe.j_order if universe._whole_family else None


def congruence_closure(universe, pairs):
    """Least congruence of the universe containing the given index pairs,
    closed over ``MonoidUniverse.translations`` with the zero class grown
    along ``_zero_order``; no product table is built."""
    moves = universe.translations()
    least = _closure_ids(moves, list(pairs), _zero_order(universe))
    return Partition._canonical(universe, _canonical_rows(least))


def join(p, q):
    """Least congruence containing two partitions: the pairs (x, least
    member of x's class) of both, closed as in ``congruence_closure``."""
    if p.universe is not q.universe:
        raise ValueError("partitions live on different universes")
    everything = np.arange(len(p.universe), dtype=np.intp)
    least = np.concatenate([_least_members(p.ids), _least_members(q.ids)])
    least = _closure_rows(p.universe.translations(), everything, np.tile(everything, 2), least,
                          _zero_order(p.universe))
    return Partition._canonical(p.universe, _canonical_rows(least))


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

    The reverse map of every element, uint8 as the image matrix it indexes,
    is looked up first, so the monoid is checked to be inverse, not assumed
    to be.  The unit generators, the rank-n entries of ``generators``,
    generate the unit group, since the greedy scan visits the units first;
    their two rows of ``translations`` give the conjugations.
    """
    images = universe.image_matrix
    size, n = images.shape
    everything = np.arange(size)
    slots = np.arange(1, n + 1, dtype=np.uint8)
    reverse = np.zeros((size, n + 1), dtype=np.uint8)
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


def _lattice_ids(moves, seeds, j_order=None):
    """Every congruence of the algebra whose generator translations are the
    rows of ``moves``, as least-member labels, each a read-only view of its key bytes.

    Seeds close R at a time, R = ``_block_rows``, all 21 of OR_4 and one
    from OR_8 up: R label rows lie end to end, row r offset by r·N, as do
    the generator rows, so one set of ``_closure_rows`` rounds closes all R,
    each row growing its own zero class when ``j_order`` is given.  The
    closures not yet members are checked in one ``_is_compatible`` call,
    since joins of closures that are not congruences can be exponentially
    many.  Each of them still not a member, ρ, is joined into each member x
    by a ``_merge`` with ρ's pairs (element, label), x itself if x holds ρ.
    After ρ_1..ρ_i the members are the joins of the subsets of {ρ_1..ρ_i},
    closed under join, so a closure already a member adds nothing.  Every
    congruence of a finite algebra is a join of principal ones, so seeds
    that reach every principal congruence give the whole lattice.
    """
    count, size = moves.shape
    seeds = np.asarray(seeds, dtype=np.intp).reshape(-1, 2)
    rows = max(1, min(len(seeds), _block_rows(moves)))
    offsets = np.arange(rows, dtype=np.intp) * size
    # Named R·N, not -1: a group of order 1 has no generator rows.
    tiled = (moves[:, None, :] + offsets[:, None]).reshape(count, rows * size)
    key = np.arange(size, dtype=np.intp).tobytes()
    members = {key: np.frombuffer(key, dtype=np.intp)}  # each member a view of its own key
    identity = members[key]
    for start in range(0, len(seeds), rows):
        block = seeds[start:start + rows]
        shift, width = offsets[:len(block)], len(block) * size
        ids = _closure_rows(tiled[:, :width], np.arange(width, dtype=np.intp),
                            block[:, 0] + shift, block[:, 1] + shift, j_order)
        new = {row.tobytes(): row for row in ids.reshape(len(block), size) - shift[:, None]}
        new = [row for key, row in new.items() if key not in members]
        if not new:
            continue
        bad = np.flatnonzero(~_is_compatible(moves, np.array(new)))
        if bad.size:
            roots = np.count_nonzero(new[bad[0]] == identity)
            raise InvariantViolation(f"the closure of a seed pair, with {roots} classes, is not a congruence")
        for rho in new:
            if rho.tobytes() in members:
                continue  # a join of the block's earlier closures
            u = np.flatnonzero(rho != identity)
            v = rho[u]
            for x in list(members.values()):
                joined = _merge(x, u, v)
                if joined is not x:
                    key = joined.tobytes()
                    members.setdefault(key, np.frombuffer(key, dtype=np.intp))
    return list(members.values())


def congruence_lattice(universe):
    """Every congruence of the universe, canonically sorted (finest first).

    ``_lattice_ids`` closes one kernel or trace pair per unit-conjugation
    orbit (``_kernel_trace_seeds``) over the generator rows, growing zero
    classes along ``_zero_order``, and joins each new principal congruence
    into the members; no product table is built.  Each member is
    canonicalized with no sort (``_canonical_rows``).  There is no budget
    here: the universe is already within the element budget that
    ``enumerate_universe`` checked.
    """
    moves = universe.translations()
    members = _lattice_ids(moves, _kernel_trace_seeds(universe), _zero_order(universe))
    parts = [Partition._canonical(universe, _canonical_rows(ids)) for ids in members]
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

class PermGroup(_ElementStore):
    """A finite permutation group on {1..degree}: ``perms``, the sorted,
    read-only (order, degree) array of 1-based images, the identity first,
    in an ``_ElementStore`` as a universe's image matrix is.  Its generator
    rows are built here, not on first use, so building a group checks closure.
    """

    _identity = 0  # the least image code

    def __init__(self, degree, elements):
        self.degree = _group_degree(degree)
        self.identity = tuple(range(1, self.degree + 1))
        perms = self._image_rows([tuple(p) for p in elements], self.degree).astype(np.intp)
        if (np.sort(perms, axis=1) != self.identity).any():
            raise ValueError(f"elements must be permutations of 1..{self.degree}")
        _, first, counts = np.unique(image_codes(perms), return_index=True, return_counts=True)
        if (counts > 1).any():
            raise ValueError(f"permutation {tuple(perms[first[counts > 1][0]].tolist())} is listed twice")
        self.perms = perms[first]
        if not np.array_equal(self.perms[0], self.identity):
            raise ValueError("group must contain the identity")
        self._keep(self.perms)
        self.generators()
        self._normal = self._cosets = None

    def _escaped(self, i, j):
        a, b = self.perms[i].tolist(), self.perms[j].tolist()
        return ValueError(f"not closed: {tuple(a)} * {tuple(b)} escapes the set")

    def __iter__(self):
        return iter(map(tuple, self.perms.tolist()))

    def __contains__(self, p):
        try:
            row = self._image_rows([tuple(p)], self.degree)
        except ValueError:
            return False
        return bool(((row >= 1) & (row <= self.degree)).all() and self._indices(row)[1][0])

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


def _group_degree(k):
    """A group's degree as an ``int``, refused unless a non-negative integer (``_is_integer``)."""
    if not _is_integer(k) or k < 0:
        raise ValueError(f"degree must be a non-negative integer, got {k!r}")
    return int(k)


def symmetric_group(k):
    """S_k, built once per degree k, checked before the cache keys on it."""
    return _symmetric_group(_group_degree(k))


@functools.cache
def _symmetric_group(k):
    factorials = itertools.accumulate(range(1, k + 1), operator.mul)
    if any(f > DEFAULT_GROUP_LIMIT for f in factorials):
        raise ResourceLimitError(f"S_{k} exceeds the group bound {DEFAULT_GROUP_LIMIT}")
    return PermGroup(k, itertools.permutations(range(1, k + 1)))


def normal_subgroups(group):
    """Every normal subgroup as a frozenset of image tuples, smallest first,
    ties broken by the sorted members; computed once per group.

    A congruence on a group is the coset partition of a normal subgroup,
    its identity class, so ``_lattice_ids`` runs over the group's
    translation rows.  Its seeds are one kernel pair (1, g) per conjugacy
    class (``_orbit_minima``); a group, whose one idempotent is the
    identity, has no trace pairs.  Each subgroup keeps its ``_lattice_ids``
    member, read-only least-member labels, one per coset, sharing memory
    with no other member (``PermGroup.cosets``); families split by them.
    """
    if group._normal is None:
        moves, k = group.translations(), len(group.generators())
        seeds = _orbit_minima(np.arange(1, len(group)), len(group), moves[:k], moves[k:])
        found = [(np.flatnonzero(ids == 0), ids) for ids in _lattice_ids(moves, seeds)]
        found.sort(key=lambda item: (len(item[0]), item[0].tolist()))
        group._cosets = {frozenset(map(tuple, group.perms[m].tolist())): ids for m, ids in found}
        group._normal = tuple(group._cosets)
    return group._normal

"""Finite-monoid congruence machinery.

Partitions are flat class-id vectors in a canonical form (classes numbered
by their smallest member), so equality of partitions is equality of
vectors.  The closure engine is a union-find worklist over translated
pairs.

The lattice enumerator closes one seed pair per orbit of the unit group
G×G acting by (a, b) -> (g·a·h, g·b·h): translation by units is invertible,
so translated pairs generate the same principal congruence.  Seeds are
(a, b) with a the least member of its element orbit and b the least member
of its orbit under the stabilizer of a.  Every congruence of a finite
monoid is a join of principal ones, so each lattice member is then joined
with the principal congruences only, until nothing new appears.

The enumerator keeps a registry of the principal congruences already
computed.  Whenever a closure in progress is forced to merge a pair, the
pair is carried to its seed's canonical form in O(1); if that seed's
principal congruence is known, it is folded in at once: it is necessarily
contained in the closure being built, and since it is itself
translation-closed none of its pairs need to be re-enqueued.  This
short-circuits the long merge cascades of the degree-6 monoids.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_TABLE_LIMIT, ResourceLimitError

DEFAULT_LATTICE_LIMIT = 600
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


def _class_groups(ids):
    """Member index arrays of the non-singleton classes of an id vector."""
    ids = np.asarray(ids)
    order = np.argsort(ids, kind="stable")
    cuts = np.flatnonzero(np.diff(ids[order])) + 1
    return tuple(g for g in np.split(order, cuts) if g.size > 1)


def _fold_groups(cls, groups):
    """Merge each member group into one class, in place.

    Re-reading ``cls`` between groups makes overlapping chains transitive,
    so a single pass suffices.
    """
    for members in groups:
        labels = np.unique(cls[members])
        if labels.size > 1:
            cls[np.isin(cls, labels)] = labels[0]
    return cls


def _join_ids(p, q):
    """Finest common coarsening of two id vectors (labels not canonical)."""
    return _fold_groups(np.array(p, dtype=np.int32, copy=True), _class_groups(q))


def _is_congruence_ids(table, ids):
    ids = _canonical_ids(ids)
    firsts = np.unique(ids, return_index=True)[1]
    rep = firsts[ids]
    prod = ids[table]
    return bool(np.array_equal(prod, prod[:, rep]) and np.array_equal(prod, prod[rep, :]))


def _closure_ids(table, pairs, known=None, registry=None, table_t=None):
    """Least translation-closed class-id vector containing the seed pairs.

    known/registry: index of already-computed principal congruences (any
    object whose ``get`` takes an element pair and returns a registry index
    or None), the registry holding their non-singleton class groups.
    """
    size = table.shape[0]
    if table_t is None:
        table_t = np.ascontiguousarray(table.T)
    cls = np.arange(size, dtype=np.int32)
    work = deque()
    for a, b in pairs:
        if not (0 <= a < size and 0 <= b < size):
            raise ValueError(f"element index pair ({a}, {b}) out of range")
        work.append((np.array([a]), np.array([b])))
    folded = set()
    while work:
        u, v = work.popleft()
        hits = np.flatnonzero(cls[u] != cls[v])
        for t in hits.tolist():
            uu, vv = int(u[t]), int(v[t])
            a, b = int(cls[uu]), int(cls[vv])
            if a == b:
                continue
            if known is not None:
                ki = known.get((uu, vv) if uu < vv else (vv, uu))
                if ki is not None and ki not in folded:
                    # (uu, vv) is forced, so its principal congruence is a
                    # lower bound for this closure; fold it in wholesale.
                    # Being a congruence, its pairs need no re-enqueueing.
                    _fold_groups(cls, registry[ki])
                    folded.add(ki)
                    continue
            if a > b:
                a, b = b, a
            cls[cls == b] = a
            work.append((table_t[uu], table_t[vv]))
            work.append((table[uu], table[vv]))
    return _canonical_ids(cls)


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
                if not isinstance(i, (int, np.integer)) or not 0 <= i < size:
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
    """Two-sided compatibility: related pairs stay related under every
    left and right translation."""
    return _is_congruence_ids(universe.multiplication_table(), partition.ids)


def congruence_closure(universe, pairs):
    """Least congruence of the universe containing the given index pairs."""
    table = universe.multiplication_table()
    return Partition(universe, _closure_ids(table, list(pairs)))


def join(p, q):
    """Least congruence containing two congruences (their equivalence join)."""
    if p.universe is not q.universe:
        raise ValueError("partitions live on different universes")
    return Partition(p.universe, _join_ids(p.ids, q.ids))


class _UnitOrbits:
    """Canonical forms of element pairs under two-sided unit translation.

    For units g, h the pairs (a, b) and (g·a·h, g·b·h) generate the same
    principal congruence, since each is a translate of the other.  Row t of
    ``act`` is x -> g_t·x·h_t for the t-th (g, h) in G×G; an element's
    representative is the least member of its orbit, reached by its
    transporter row.  A pair (u, v) is carried to (rep u, b), b being the
    least member of the stabilizer orbit of the transported v, in O(1).

    ``act`` holds |G|²·N entries in the table's dtype: 1.2 MB on OR_6, but
    392 M entries (1.6 GB) on OR_8, about 3.5 times the product table.  That
    is the limit this pass leaves for a degree-8 lattice, which the element
    budget refuses today.
    """

    def __init__(self, table, units):
        units = np.asarray(units, dtype=np.intp)
        size = table.shape[0]
        self.act = table[units][:, table[:, units].T].reshape(-1, size)
        self.rep = self.act.min(axis=0)
        self.transporter = self.act.argmin(axis=0)
        self.stab_min = {}
        for a in np.unique(self.rep).tolist():
            rows = np.flatnonzero(self.act[:, a] == a)
            self.stab_min[a] = self.act[rows].min(axis=0)
        self.index = {}  # canonical pair -> registry index

    def canonical(self, u, v):
        a = int(self.rep[u])
        return a, int(self.stab_min[a][self.act[self.transporter[u], v]])

    def get(self, pair):
        """Registry index of the principal congruence of an element pair,
        or None while the pair's seed has not been closed."""
        u, v = pair
        found = self.index.get(self.canonical(u, v))
        return found if found is not None else self.index.get(self.canonical(v, u))

    def seeds(self, ranks):
        """One pair (a, b) per representative a and stabilizer orbit of b,
        with b != a and rep b >= a, in ascending rank-profile order.

        Translating a pair can only lower ranks, so low-rank seeds come
        first: a closure in progress then keeps running into pairs whose
        principal congruence is already registered and can be folded in.
        The order only affects speed.
        """
        firsts, seconds = [], []
        for a, least in self.stab_min.items():
            bs = np.unique(least)
            bs = bs[(bs != a) & (self.rep[bs] >= a)]
            firsts.append(np.full(bs.size, a, dtype=np.intp))
            seconds.append(bs.astype(np.intp))
        iu, ju = np.concatenate(firsts), np.concatenate(seconds)
        ri, rj = ranks[iu].astype(np.int32), ranks[ju].astype(np.int32)
        order = np.lexsort((ju, iu, np.minimum(ri, rj), np.maximum(ri, rj)))
        return list(zip(iu[order].tolist(), ju[order].tolist()))


def _principal_closures(table, orbits, ranks):
    """Yield (seed pair, principal congruence ids) for every unit-orbit seed.

    Each distinct result is registered in ``orbits.index``, so a later
    closure that is forced to merge a pair whose canonical form is a
    registered seed folds that whole congruence in.
    """
    table_t = np.ascontiguousarray(table.T)
    registry = []
    by_key = {}
    for a, b in orbits.seeds(ranks):
        ids = _closure_ids(table, [(a, b)], orbits, registry, table_t)
        key = ids.tobytes()
        idx = by_key.get(key)
        if idx is None:
            idx = by_key[key] = len(registry)
            registry.append(_class_groups(ids))
        orbits.index[(a, b)] = idx
        yield (a, b), ids


def congruence_lattice(universe, *, max_elements=DEFAULT_LATTICE_LIMIT, force=False):
    """Every congruence of the universe, canonically sorted (finest first).

    Computes the principal congruence of one seed pair per unit-orbit class
    (see ``_UnitOrbits``), dedupes, and joins each lattice member with the
    principal congruences until nothing new appears: every congruence of a
    finite monoid is a join of principal ones.  The identity and universal
    partitions are added.  Output is deterministic.
    """
    size = len(universe)
    if not force and size > max_elements:
        raise ResourceLimitError(
            f"congruence lattice over {size} elements exceeds the budget"
            f" {max_elements}; pass force=True to override"
        )
    table = universe.multiplication_table(limit=None if force else DEFAULT_TABLE_LIMIT)
    orbits = _UnitOrbits(table, universe.units())
    principal = {}
    for _, ids in _principal_closures(table, orbits, universe.ranks):
        principal.setdefault(ids.tobytes(), ids)

    distinct = dict(principal)
    ident = _canonical_ids(np.arange(size))
    distinct.setdefault(ident.tobytes(), ident)
    universal = np.zeros(size, dtype=np.int32)
    distinct.setdefault(universal.tobytes(), universal)

    principal_groups = [_class_groups(ids) for ids in principal.values()]
    worklist = list(distinct.values())
    while worklist:
        current = worklist.pop()
        for groups in principal_groups:
            joined = _canonical_ids(_fold_groups(current.copy(), groups))
            key = joined.tobytes()
            if key not in distinct:
                distinct[key] = joined
                worklist.append(joined)

    parts = [Partition(universe, ids) for ids in distinct.values()]
    parts.sort(key=lambda p: (-p.num_classes, p.key))
    return parts


def all_congruences_naive(universe, *, max_size=NAIVE_LATTICE_LIMIT):
    """Independent oracle: filter every set partition for compatibility."""
    size = len(universe)
    if size > max_size:
        raise ResourceLimitError(
            f"naive congruence filter over {size} elements exceeds {max_size}"
        )
    table = universe.multiplication_table()
    parts = [
        Partition(universe, ids)
        for ids in _set_partitions(size)
        if _is_congruence_ids(table, ids)
    ]
    parts.sort(key=lambda p: (-p.num_classes, p.key))
    return parts


def lattice_to_dot(partitions):
    """DOT digraph of the refinement order, edges being covering relations."""
    count = len(partitions)
    below = [[False] * count for _ in range(count)]
    for i, p in enumerate(partitions):
        for j, q in enumerate(partitions):
            if i != j and p.refines(q):
                below[i][j] = True
    lines = ["digraph congruence_lattice {", "  rankdir=BT;"]
    for i, p in enumerate(partitions):
        lines.append(f'  c{i} [label="{p.num_classes} classes"];')
    for i in range(count):
        for j in range(count):
            if below[i][j] and not any(
                below[i][k] and below[k][j] for k in range(count)
            ):
                lines.append(f"  c{i} -> c{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


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
    """A finite permutation group on {1..degree} given by its element set."""

    def __init__(self, degree, elements, *, check=True):
        self.degree = int(degree)
        elems = set()
        for p in elements:
            p = tuple(int(v) for v in p)
            if sorted(p) != list(range(1, self.degree + 1)):
                raise ValueError(f"{p} is not a permutation of 1..{self.degree}")
            elems.add(p)
        self.elements = frozenset(elems)
        self.identity = tuple(range(1, self.degree + 1))
        if self.identity not in self.elements:
            raise ValueError("group must contain the identity")
        if check:
            self._check_closure()

    def _check_closure(self):
        elems = self.elements
        if len(elems) <= 1024:
            pairs = itertools.product(elems, elems)
        else:
            ordered = sorted(elems)
            draws = np.random.default_rng(0).integers(0, len(ordered), size=(10**5, 2))
            pairs = ((ordered[int(i)], ordered[int(j)]) for i, j in draws)
        for a, b in pairs:
            if perm_mul(a, b) not in elems:
                raise ValueError(f"not closed: {a} * {b} escapes the set")

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(sorted(self.elements))

    def __contains__(self, p):
        return tuple(p) in self.elements

    def conjugacy_classes(self):
        """Conjugacy classes, sorted by (size, least member)."""
        seen = set()
        classes = []
        for g in sorted(self.elements):
            if g in seen:
                continue
            orbit = {perm_mul(perm_mul(h, g), perm_inv(h)) for h in self.elements}
            seen |= orbit
            classes.append(frozenset(orbit))
        classes.sort(key=lambda c: (len(c), min(c)))
        return classes

    def is_subgroup(self, subset):
        subset = frozenset(tuple(p) for p in subset)
        if self.identity not in subset or not subset <= self.elements:
            return False
        return all(perm_mul(a, b) in subset for a in subset for b in subset)

    def is_normal(self, subset):
        subset = frozenset(tuple(p) for p in subset)
        if not self.is_subgroup(subset):
            return False
        return all(
            perm_mul(perm_mul(h, g), perm_inv(h)) in subset
            for h in self.elements
            for g in subset
        )

    def __repr__(self):
        return f"<PermGroup of degree {self.degree}, order {len(self)}>"


def _factorial_exceeds(k, bound):
    total = 1
    for i in range(2, k + 1):
        total *= i
        if total > bound:
            return True
    return False


def symmetric_group(k):
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    if _factorial_exceeds(k, 10**5):
        raise ResourceLimitError(f"symmetric group of degree {k} is too large")
    if k == 0:
        return PermGroup(0, [()], check=False)
    return PermGroup(k, itertools.permutations(range(1, k + 1)), check=False)


@dataclass
class NormalSubgroupList:
    """All normal subgroups of a parent group, smallest first."""

    parent: PermGroup
    subgroups: list = field(default_factory=list)

    def __iter__(self):
        return iter(self.subgroups)

    def __len__(self):
        return len(self.subgroups)


def normal_subgroups(group, *, max_order=DEFAULT_GROUP_LIMIT):
    """Exact enumeration via unions of conjugacy classes.

    Candidates are unions of classes containing the identity whose total
    size divides the group order; each candidate is kept when closed under
    products (inverses follow in a finite group of bijections).
    """
    order = len(group)
    if order > max_order:
        raise ResourceLimitError(f"group of order {order} exceeds the bound {max_order}")
    classes = group.conjugacy_classes()
    ident_class = frozenset({group.identity})
    rest = [c for c in classes if c != ident_class]
    found = []
    for picks in itertools.product((False, True), repeat=len(rest)):
        size = 1 + sum(len(c) for c, take in zip(rest, picks) if take)
        if order % size:
            continue
        candidate = set(ident_class)
        for c, take in zip(rest, picks):
            if take:
                candidate |= c
        if all(perm_mul(a, b) in candidate for a in candidate for b in candidate):
            found.append(frozenset(candidate))
    found.sort(key=lambda s: (len(s), sorted(s)))
    return NormalSubgroupList(parent=group, subgroups=found)

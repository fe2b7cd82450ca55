"""Constructors for the predicted congruence families and the verifier
that diffs them against the brute-force congruence lattice.

Every family has one shape, a ``(zero, splits)`` pair: an ideal collapses
into the zero class, the elements of one or more J-classes split into
their H-classes and, inside each, into the cosets of a normal subgroup of
the H-class group, ``green.maximal_subgroup``, and everything else stays
singleton.  A normal subgroup is given by its coset labels, the congruence
on the group that ``normal_subgroups`` computed; each member reads the
label of its H-coordinate, and a whole H-class is the full group's one
coset.  Work that depends only on a split stratum, ``green._h_split``'s
lookup of its H-coordinates in the group and an id base per H-class, is
done once per (group, mask) and universe; each family then sets its ids by
arithmetic.  One private builder, ``_family_partitions``, makes the
partitions of many shapes as rows of one block: one ``np.unique`` for the
least members, ``_canonical_rows`` for the ids, and one compatibility test
for every row.  The shape helpers check the parameters and pick the ideal
and the splits: a rank stratum at each level of ``_levels``
(``_rank_shape``), both half-rank types on OR (``_half_rank_shape``),
per-type variants at half rank on OR (``_typed_shape``), and, at degree 4
only, two OR congruences that also split the units by an order-2 subgroup
of the Klein unit group W′ (``_special_shape``).  ``predicted_congruences``
builds every shape in one call; each public ``build_eq_*`` builds its one
shape with the same call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .congruences import (
    Partition,
    _block_rows,
    _is_compatible,
    congruence_lattice,
    normal_subgroups,
)
from .core import InvariantViolation, TYPE_I, TYPE_II, _canonical_rows
from .green import _h_split, _ideal_name, green_partition, maximal_subgroup

@dataclass(frozen=True)
class FamilySpec:
    """Which family a congruence came from, with its parameters."""

    tag: str
    k: int | None = None
    n_label: str | None = None
    n1_label: str | None = None
    n2_label: str | None = None

    def to_json(self):
        return {name: value for name, value in vars(self).items() if value is not None}


def _require_family(universe, family):
    if universe.family != family:
        raise ValueError(f"expected an {family} universe, got {universe.family}")


def _as_subgroup(parent, subgroup):
    """The coset labels of a normal subgroup of ``parent`` (``PermGroup.cosets``)."""
    labels = parent.cosets(subgroup)
    if labels is None:
        raise ValueError("subgroup is not normal in its parent group")
    return labels


def _family_partitions(universe, shapes):
    """The partitions of the ``(zero, splits)`` shapes, an iterable, in
    order: the one shape every predicted family has.

    ``zero`` masks the ideal that collapses into the zero class.  Each
    ``(mask, group, labels)`` split cuts the masked elements, of rank k =
    ``group.degree``, into their H-classes and each H-class into the cosets
    of a normal subgroup N of ``group``: members of one H-class are related
    when their H-coordinates lie in one coset of N, read off the coset
    labels of ``_as_subgroup`` at the positions ``_h_split`` found, so a
    member's id is plain arithmetic.  ``_h_split`` looks a stratum up once
    per universe, across families and calls.  Everything else stays
    singleton.

    The shapes build as rows of class ids, in blocks of ``_block_rows``
    rows, each block read from ``shapes`` as it is built, so only its own
    masks are held.  Per block, ``_least_rows`` gives every element's least
    member, ``_canonical_rows`` numbers the classes, and one
    ``_is_compatible`` call checks every row to be a congruence, so a row
    that is not raises ``InvariantViolation``.
    """
    moves = universe.translations()
    rows, shapes, parts = _block_rows(moves), iter(shapes), []
    while chunk := list(itertools.islice(shapes, rows)):
        least = _least_rows(universe, chunk)
        ids = _canonical_rows(least)
        bad = np.flatnonzero(~_is_compatible(moves, ids, least))
        if bad.size:
            raise InvariantViolation(
                f"the family partition of shape {len(parts) + bad[0]} is not a congruence"
            )
        parts.extend(Partition._canonical(universe, row) for row in ids)
    return parts


def _least_rows(universe, shapes):
    """The least-member labels of the shapes' partitions, one row each:
    each shape's class ids, then one ``np.unique`` over the rows laid end
    to end, each offset past the ids of the row before."""
    size = len(universe)
    block = np.tile(np.arange(size, dtype=np.int64), (len(shapes), 1))
    for row, (zero, splits) in zip(block, shapes):
        row[zero] = 0  # the zero map, element 0, lies in every ideal
        for mask, group, labels in splits:
            members, pos, base = _h_split(universe, mask, group)
            row[members] = base + labels[pos]
    offsets = np.arange(len(shapes))[:, None]
    block += offsets * (block.max() + 1)
    _, first, inverse = np.unique(block, return_index=True, return_inverse=True)
    least = first[inverse.reshape(block.shape)]
    least -= offsets * size
    return least


def _levels(universe):
    """The ranks k of the rank-k family, each with the ``maximal_subgroup``
    whose normal subgroups parametrise it: S_k for 1 <= k <= top, where top
    is m-1 on OR, m on SR and n-1 on R, and the unit group at k = n on SR
    and R.  On R these are Liber's congruences of the symmetric inverse monoid."""
    n = universe.n
    top = {"OR": n // 2 - 1, "SR": n // 2, "R": n - 1}[universe.family]
    ranks = list(range(1, top + 1)) + ([] if universe.family == "OR" else [n])
    return {k: maximal_subgroup(universe, k) for k in ranks}


def _rank_shape(universe, k, subgroup):
    """The shape of ``build_eq_N``."""
    levels = _levels(universe)
    if k not in levels:
        raise ValueError(
            f"level must be one of {list(levels)} on {universe.family}_{universe.n}, got {k}"
        )
    group, ranks = levels[k], universe.ranks
    return ranks < k, [(ranks == k, group, _as_subgroup(group, subgroup))]


def _half_rank_shape(universe, sub1, sub2):
    """The shape of ``build_eq_N1N2``."""
    _require_family(universe, "OR")
    m = universe.n // 2
    parent = maximal_subgroup(universe, m)
    splits = [
        (universe.mtypes == TYPE_I, parent, _as_subgroup(parent, sub1)),
        (universe.mtypes == TYPE_II, parent, _as_subgroup(parent, sub2)),
    ]
    return universe.ranks < m, splits


def _typed_shape(universe, variant, subgroup):
    """The typed rule on OR, the shape of ``build_eq_type``: the zero class
    swallows everything of rank < m plus the whole opposite-type stratum,
    and the ``variant`` stratum splits by the cosets of ``subgroup``."""
    _require_family(universe, "OR")
    if variant not in (TYPE_I, TYPE_II):
        raise ValueError(f"variant must be {TYPE_I!r} or {TYPE_II!r}, got {variant!r}")
    m = universe.n // 2
    parent = maximal_subgroup(universe, m)
    other = TYPE_II if variant == TYPE_I else TYPE_I
    zero = (universe.ranks < m) | (universe.mtypes == other)
    return zero, [(universe.mtypes == variant, parent, _as_subgroup(parent, subgroup))]


def _special_shape(universe, which):
    """The shape of ``build_eq_special``."""
    _require_family(universe, "OR")
    if universe.n != 4:
        raise ValueError(f"special congruences exist only at degree 4, got {universe.n}")
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which}")
    zero, splits = _typed_shape(universe, TYPE_I if which == 1 else TYPE_II,
                                maximal_subgroup(universe, 2))
    units = maximal_subgroup(universe, 4)
    pairing = {1: (2, 1, 4, 3), 2: (3, 4, 1, 2)}[which]  # with 1234, a subgroup of W′
    unit_split = (universe.ranks == 4, units, _as_subgroup(units, {(1, 2, 3, 4), pairing}))
    return zero, splits + [unit_split]


def build_eq_N(universe, k, subgroup):
    """Rank-k family, k a level of ``_levels``: one class below rank k,
    the cosets of the normal subgroup inside each rank-k H-class,
    singletons above."""
    return _family_partitions(universe, [_rank_shape(universe, k, subgroup)])[0]


def build_eq_N1N2(universe, sub1, sub2):
    """Half-rank family on OR: one class below rank m, per-type subgroup
    orbits at rank m, unit singletons."""
    return _family_partitions(universe, [_half_rank_shape(universe, sub1, sub2)])[0]


def build_eq_type(universe, variant, subgroup):
    """Typed half-rank family on OR (``_typed_shape``); units stay singletons."""
    return _family_partitions(universe, [_typed_shape(universe, variant, subgroup)])[0]


def build_eq_special(universe, which):
    """The two degree-4 specials on OR: the typed family of type I (special
    1) or II (special 2) with whole H-classes, the full ``S_2``, and the
    units split by the cosets of an order-2 subgroup of W′."""
    return _family_partitions(universe, [_special_shape(universe, which)])[0]


def _labelled(parent):
    """The normal subgroups of ``parent``, smallest first, with
    deterministic short labels: 1, full, alt (even permutations), or
    order<d> with a #i disambiguator when several share an order."""
    subgroups = normal_subgroups(parent)
    perms = parent.perms
    inversions = np.triu(perms[:, :, None] > perms[:, None, :]).sum(axis=(1, 2))
    even = frozenset(map(tuple, perms[inversions % 2 == 0].tolist()))
    generic = [
        sub for sub in subgroups
        if 1 < len(sub) < len(parent) and sub != even
    ]
    clashes = {}
    for sub in generic:
        clashes[len(sub)] = clashes.get(len(sub), 0) + 1
    seen = {}
    out = []
    for sub in subgroups:
        if len(sub) == 1:
            label = "1"
        elif len(sub) == len(parent):
            label = "full"
        elif sub == even:
            label = "alt"
        else:
            i = seen[len(sub)] = seen.get(len(sub), 0) + 1
            label = f"order{len(sub)}" + (f"#{i}" if clashes[len(sub)] > 1 else "")
        out.append((label, sub))
    return out


def predicted_congruences(universe):
    """Instantiate every family over every admissible parameter, plus the
    universal partition; dedupe by partition, keeping all specs.  Every
    family builds in one ``_family_partitions`` call, which reads each
    shape from its helper only when its block is built; each split
    stratum's H-coordinates are looked up once per universe
    (``green._h_split``)."""
    m = universe.n // 2
    todo = []  # (spec, shape helper, its parameters)
    for k, parent in _levels(universe).items():
        for label, sub in _labelled(parent):
            todo.append((FamilySpec(f"{universe.family}_eqN", k=k, n_label=label),
                         _rank_shape, (k, sub)))
    if universe.family == "OR":
        sm = _labelled(maximal_subgroup(universe, m))
        for label1, sub1 in sm:
            for label2, sub2 in sm:
                todo.append((FamilySpec("OR_eqN1N2", n1_label=label1, n2_label=label2),
                             _half_rank_shape, (sub1, sub2)))
        for variant, tag in ((TYPE_I, "OR_eqI"), (TYPE_II, "OR_eqII")):
            for label, sub in sm:
                todo.append((FamilySpec(tag, k=m, n_label=label), _typed_shape, (variant, sub)))
        if universe.n == 4:
            todo.append((FamilySpec("OR_eq1"), _special_shape, (1,)))
            todo.append((FamilySpec("OR_eq2"), _special_shape, (2,)))
    parts = _family_partitions(universe, (shape(universe, *args) for _, shape, args in todo))
    pairs = [(spec, part) for (spec, _, _), part in zip(todo, parts)]
    pairs.append((FamilySpec("universal"), Partition.universal(universe)))

    by_key = {}
    for spec, part in pairs:
        by_key.setdefault(part.key, (part, []))[1].append(spec)
    merged = [(part, tuple(specs)) for part, specs in by_key.values()]
    merged.sort(key=lambda item: (-item[0].num_classes, item[0].key))
    return merged


@dataclass
class ClassificationReport:
    """Diff between the predicted congruences and the brute-force lattice."""

    family: str
    n: int
    lattice_size: int
    matched: list
    predicted_not_found: list
    found_not_predicted: list
    notes: list

    @property
    def ok(self):
        return not self.predicted_not_found

    def to_json(self):
        # The fields by name, not ``asdict``, which deep-copies every entry.
        return dict(vars(self))


def _annotate_unmatched(universe, part, lattice_index, green):
    """Describe a lattice member no family predicted.  Its zero class is an
    ideal, so a down-set of J-classes in ``MonoidUniverse.j_order``, named by
    ``_ideal_name``; the tag marks the Rees quotients by the union ideal,
    which holds every non-unit."""
    zero = part.ids == part.ids[0]
    held = np.zeros(len(green.j_meta), dtype=bool)
    held[green.j_ids[zero]] = True
    # The order is reflexive, so this down-closure of the zero class's
    # J-classes equals the zero class exactly when it is a down-set of them.
    if not np.array_equal(universe.j_order[1][:, held].any(axis=1)[green.j_ids], zero):
        raise InvariantViolation(
            f"the zero class of lattice member {lattice_index} is not a down-set of J-classes"
        )
    kind, k = _ideal_name(green, np.flatnonzero(held))
    units = np.asarray(universe.units())
    first = np.unique(part.ids[units], return_index=True)[1]
    return {
        "lattice_index": lattice_index,
        "num_classes": part.num_classes,
        "classes": part.classes(),
        "zero_class_kind": kind,
        "zero_class_k": k,
        "zero_class_size": int(zero.sum()),
        "unit_classes": [part.class_of(u) for u in units[np.sort(first)]],
        "tag": "rees_over_complement_of_units" if kind == "union" else "",
    }


def verify_classification(universe):
    """Enumerate the full congruence lattice and diff it against the
    predicted families.  Everything unmatched is reported, never dropped,
    with its zero class named from its J-classes."""
    predictions = predicted_congruences(universe)
    lattice = congruence_lattice(universe)
    lattice_keys = {part.key: i for i, part in enumerate(lattice)}
    green = green_partition(universe)

    matched = []
    predicted_not_found = []
    pred_by_key = {}
    for part, specs in predictions:
        pred_by_key[part.key] = specs
        entry = {
            "specs": [s.to_json() for s in specs],
            "num_classes": part.num_classes,
        }
        if part.key in lattice_keys:
            entry["lattice_index"] = lattice_keys[part.key]
            matched.append(entry)
        else:
            predicted_not_found.append(entry)

    found_not_predicted = [
        _annotate_unmatched(universe, part, i, green)
        for i, part in enumerate(lattice)
        if part.key not in pred_by_key
    ]

    notes = []
    if universe.family == "OR":  # only OR has typed families
        notes.append(
            "typed families are built with the zero class equal to everything of "
            "rank < m plus the opposite-type half-rank stratum; the named type "
            "splits into subgroup orbits inside H-classes and units stay singletons"
        )
    single_class = [p for p in lattice if p.num_classes == 1]
    if len(single_class) != 1:
        notes.append(
            f"unexpected: {len(single_class)} lattice members have a single class"
        )
    else:
        notes.append("the only single-class lattice member is the universal congruence")

    covered = len(matched) + len(found_not_predicted)
    if covered != len(lattice):
        raise InvariantViolation("classification report does not cover the lattice")

    return ClassificationReport(
        family=universe.family,
        n=universe.n,
        lattice_size=len(lattice),
        matched=matched,
        predicted_not_found=predicted_not_found,
        found_not_predicted=found_not_predicted,
        notes=notes,
    )

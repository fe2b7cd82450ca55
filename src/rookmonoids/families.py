"""The predicted congruence families and the verifier that diffs them
against the brute-force congruence lattice.

A family is named by a ``FamilySpec``: its tag, its level and the labels
of normal subgroups of maximal subgroups (``green.maximal_subgroup``).
``_specs`` lists every family of a universe, and a spec it does not list
names no congruence.  Every family has one shape: an ideal collapses into
the zero class, the elements of one or more J-classes split into their
H-classes and, inside each, into the cosets of a normal subgroup of the
H-class group, and everything else stays singleton.  A whole H-class is
the full group's one coset.
"""

from __future__ import annotations

import functools
import types
from collections import Counter
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


def _levels(universe):
    """The ranks k of the rank-k family, each with the ``maximal_subgroup``
    whose normal subgroups parametrise it: S_k for 1 <= k <= top, where top
    is m-1 on OR, m on SR and n-1 on R, and the unit group at k = n on SR
    and R.  On R these are Liber's congruences of the symmetric inverse monoid."""
    n = universe.n
    top = {"OR": n // 2 - 1, "SR": n // 2, "R": n - 1}[universe.family]
    ranks = list(range(1, top + 1)) + ([] if universe.family == "OR" else [n])
    return {k: maximal_subgroup(universe, k) for k in ranks}


@functools.cache
def _labelled(parent):
    """The normal subgroups of ``parent`` by deterministic short labels,
    smallest first: 1, full, alt (even permutations), or order<d> with a
    #i disambiguator when several share an order.  Built once per group, so
    read-only."""
    subgroups = normal_subgroups(parent)
    perms = parent.perms
    inversions = np.triu(perms[:, :, None] > perms[:, None, :]).sum(axis=(1, 2))
    even = frozenset(map(tuple, perms[inversions % 2 == 0].tolist()))
    clashes = Counter(len(sub) for sub in subgroups if 1 < len(sub) < len(parent) and sub != even)
    seen = Counter()
    out = {}
    for sub in subgroups:
        if len(sub) == 1:
            label = "1"
        elif len(sub) == len(parent):
            label = "full"
        elif sub == even:
            label = "alt"
        else:
            seen[len(sub)] += 1
            label = f"order{len(sub)}" + (f"#{seen[len(sub)]}" if clashes[len(sub)] > 1 else "")
        out[label] = sub
    return types.MappingProxyType(out)


def _specs(universe):
    """Every family of the universe, in build order: a rank family per
    level and label, on OR the half-rank pairs, the typed families and, at
    degree 4, the two specials, and last the universal congruence."""
    family, m = universe.family, universe.n // 2
    specs = [FamilySpec(f"{family}_eqN", k=k, n_label=label)
             for k, parent in _levels(universe).items() for label in _labelled(parent)]
    if family == "OR":
        labels = list(_labelled(maximal_subgroup(universe, m)))
        specs += [FamilySpec("OR_eqN1N2", n1_label=a, n2_label=b) for a in labels for b in labels]
        specs += [FamilySpec(tag, k=m, n_label=label)
                  for tag in ("OR_eqI", "OR_eqII") for label in labels]
        if universe.n == 4:
            specs += [FamilySpec("OR_eq1"), FamilySpec("OR_eq2")]
    return specs + [FamilySpec("universal")]


def _shape(universe, spec):
    """The ``(zero, splits)`` of a spec that ``_specs`` lists (see
    ``_family_partitions``).  The typed families on OR swallow the opposite
    half-rank type into the zero class; ``OR_eq1`` and ``OR_eq2`` are typed
    with whole H-classes and split the units by ``order2#1`` = {1234, 2143}
    and ``order2#2`` = {1234, 3412}, normal in the Klein unit group W′."""
    ranks, mtypes, m = universe.ranks, universe.mtypes, universe.n // 2

    def split(mask, k, label):
        group = maximal_subgroup(universe, k)
        return mask, group, group.cosets(_labelled(group)[label])

    if spec.tag == "universal":
        return np.ones(len(universe), dtype=bool), []
    kind = spec.tag.partition("_")[2]
    if kind == "eqN":
        return ranks < spec.k, [split(ranks == spec.k, spec.k, spec.n_label)]
    if kind == "eqN1N2":
        return ranks < m, [split(mtypes == TYPE_I, m, spec.n1_label),
                           split(mtypes == TYPE_II, m, spec.n2_label)]
    variant, other = (TYPE_I, TYPE_II) if kind in ("eqI", "eq1") else (TYPE_II, TYPE_I)
    splits = [split(mtypes == variant, m, spec.n_label or "full")]
    if kind in ("eq1", "eq2"):
        splits.append(split(ranks == 4, 4, "order2#1" if kind == "eq1" else "order2#2"))
    return (ranks < m) | (mtypes == other), splits


def _family_partitions(universe, specs):
    """The partitions of the families ``specs`` names, in order.

    In a shape (``_shape``), ``zero`` masks the ideal that collapses into
    the zero class, and each ``(mask, group, labels)`` split relates the
    members of one H-class whose H-coordinates share a coset label of a
    normal subgroup of ``group`` (``PermGroup.cosets``); the H-class layout
    is looked up once per universe (``_h_split``).  The families build in
    blocks of ``_block_rows`` rows, each block's shapes made as it is
    built, so only its masks are held.  Per block, ``_least_rows`` writes
    every element's least member, one ``_is_compatible`` call checks every
    row, so a row that is no congruence raises ``InvariantViolation``, and
    ``_canonical_rows`` numbers the classes.
    """
    moves = universe.translations()
    rows, parts = _block_rows(moves), []
    for start in range(0, len(specs), rows):
        block = specs[start:start + rows]
        shapes = [_shape(universe, spec) for spec in block]
        least = _least_rows(universe, shapes)
        bad = np.flatnonzero(~_is_compatible(moves, least))
        if bad.size:
            raise InvariantViolation(f"the family partition of {block[bad[0]]} is not a congruence")
        parts.extend(Partition._canonical(universe, row) for row in _canonical_rows(least))
    return parts


def _least_rows(universe, shapes):
    """The least-member labels of the shapes' partitions, one row each, with
    no sort: 0 on the zero class; on a split, the member of the H-class
    (``_h_split``) at the coset's least position (``PermGroup.cosets``);
    and every other element itself."""
    least = np.empty((len(shapes), len(universe)), dtype=np.intp)
    least[:] = np.arange(len(universe))
    for row, (zero, splits) in zip(least, shapes):
        row[zero] = 0  # the zero map, element 0, lies in every ideal
        for mask, group, labels in splits:
            at = _h_split(universe, mask, group)
            row[at] = at[:, labels]
    return least


def build_family(universe, spec):
    """The congruence of the family ``spec`` names, a ``FamilySpec`` as
    ``predicted_congruences`` and the verify report give it.  A spec that
    ``_specs`` does not list for the universe raises ``ValueError``."""
    if spec not in _specs(universe):
        raise ValueError(f"{spec!r} is not a family of {universe.family}_{universe.n}")
    return _family_partitions(universe, [spec])[0]


def predicted_congruences(universe):
    """Every family of ``_specs``, built by one ``_family_partitions`` call,
    deduplicated by partition with all its specs kept, finest first."""
    specs = _specs(universe)
    parts = _family_partitions(universe, specs)
    by_part = {}
    for spec, part in zip(specs, parts):
        by_part.setdefault(part, []).append(spec)
    merged = [(part, tuple(specs)) for part, specs in by_part.items()]
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
    lattice_index = {part: i for i, part in enumerate(lattice)}
    green = green_partition(universe)

    matched = []
    predicted_not_found = []
    for part, specs in predictions:
        entry = {
            "specs": [s.to_json() for s in specs],
            "num_classes": part.num_classes,
        }
        if part in lattice_index:
            entry["lattice_index"] = lattice_index[part]
            matched.append(entry)
        else:
            predicted_not_found.append(entry)

    predicted = {part for part, _ in predictions}
    found_not_predicted = [
        _annotate_unmatched(universe, part, i, green)
        for i, part in enumerate(lattice)
        if part not in predicted
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

"""Constructors for the predicted congruence families and the verifier
that diffs them against the brute-force congruence lattice.

Every family has one shape, built by a single private builder: an ideal
collapses into the zero class, the elements of one or two J-classes split
into their H-classes and, inside each, into the cosets of a normal subgroup
of the H-class group (read off the members' H-coordinates), and everything
else stays singleton.  The public ``build_eq_*`` functions only check their
parameters and pick the ideal and the splits: a rank stratum at each level
of ``_levels`` (``build_eq_N``), per-type variants at half rank on OR, and,
at degree 4 only, two OR congruences that also pair up the four units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .congruences import (
    Partition,
    congruence_lattice,
    is_congruence,
    normal_subgroups,
    symmetric_group,
)
from .core import (
    InvariantViolation,
    PartialInjection,
    TYPE_I,
    TYPE_II,
    image_codes,
)
from .green import enumerate_ideals

@dataclass(frozen=True)
class FamilySpec:
    """Which family a congruence came from, with its parameters."""

    tag: str
    k: int | None = None
    n_label: str | None = None
    n1_label: str | None = None
    n2_label: str | None = None

    def to_json(self):
        out = {"tag": self.tag}
        for name in ("k", "n_label", "n1_label", "n2_label"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


def _require_family(universe, family):
    if universe.family != family:
        raise ValueError(f"expected a {family} universe, got {universe.family}")


def _as_subgroup(parent, subgroup):
    sub = frozenset(tuple(int(v) for v in p) for p in subgroup)
    if not parent.is_normal(sub):
        raise ValueError("subgroup is not normal in its parent group")
    return sub


# Unit pairings of the two degree-4 specials, as full-rank image tuples.
_OR4_UNIT_PAIRS = {
    1: (((1, 2, 3, 4), (2, 1, 4, 3)), ((3, 4, 1, 2), (4, 3, 2, 1))),
    2: (((1, 2, 3, 4), (3, 4, 1, 2)), ((2, 1, 4, 3), (4, 3, 2, 1))),
}


def _family_partition(universe, zero, splits, unit_pairs=()):
    """The one shape every predicted family has.

    ``zero`` masks the ideal that collapses into the zero class.  Each
    ``(mask, subgroup)`` split cuts the masked elements (of rank k, the
    subgroup's degree) into their H-classes and, when a subgroup is given,
    each H-class into the cosets mu·N of that normal subgroup, keyed at
    once by the least image code of mu·x, x in N, from the H-coordinates
    mu (``h_coords``); ``None`` keeps whole H-classes.  ``unit_pairs``
    lists element pairs merged on top.  Everything else stays singleton.
    The result is checked to be a congruence before it is returned.
    """
    ids = np.arange(len(universe), dtype=np.int64)
    ids[zero] = 0  # the zero map, element 0, lies in every ideal
    for mask, subgroup in splits:
        members = np.flatnonzero(mask)
        keys = [universe.dom_masks[members], universe.img_masks[members]]
        if subgroup is not None:
            perms = np.array(sorted(subgroup), dtype=np.intp)
            k = perms.shape[1]
            mu = universe.h_coords[members, :k].astype(np.intp)
            # (mu·x)(t) = mu(x(t)) for every member and every x at once.
            codes = image_codes(mu[:, perms - 1].reshape(-1, k))
            keys.append(codes.reshape(len(members), len(perms)).min(axis=1))
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


def _levels(universe):
    """The ranks k of the rank-k family, each with the group whose normal
    subgroups parametrise it: S_k for 1 <= k <= m-1 on OR and 1 <= k <= m
    on SR, and the unit group at k = n on SR.  None on R."""
    m = universe.n // 2
    if universe.family == "OR":
        return {k: symmetric_group(k) for k in range(1, m)}
    if universe.family == "SR":
        levels = {k: symmetric_group(k) for k in range(1, m + 1)}
        levels[universe.n] = universe.unit_group
        return levels
    return {}


def build_eq_N(universe, k, subgroup):
    """Rank-k family, k a level of ``_levels``: one class below rank k,
    the cosets of the normal subgroup inside each rank-k H-class,
    singletons above."""
    levels = _levels(universe)
    if k not in levels:
        raise ValueError(
            f"level must be one of {list(levels)} on {universe.family}_{universe.n}, got {k}"
        )
    sub = _as_subgroup(levels[k], subgroup)
    ranks = universe.ranks
    return _family_partition(universe, ranks < k, [(ranks == k, sub)])


def build_eq_N1N2(universe, sub1, sub2):
    """Half-rank family on OR: one class below rank m, per-type subgroup
    orbits at rank m, unit singletons."""
    _require_family(universe, "OR")
    m = universe.n // 2
    parent = symmetric_group(m)
    splits = [
        (universe.mtypes == TYPE_I, _as_subgroup(parent, sub1)),
        (universe.mtypes == TYPE_II, _as_subgroup(parent, sub2)),
    ]
    return _family_partition(universe, universe.ranks < m, splits)


def build_eq_type(universe, variant, subgroup):
    """Typed half-rank family on OR: the zero class swallows everything of
    rank < m plus the whole opposite-type stratum; the named type splits
    into subgroup orbits; units stay singletons."""
    _require_family(universe, "OR")
    if variant not in (TYPE_I, TYPE_II):
        raise ValueError(f"variant must be {TYPE_I!r} or {TYPE_II!r}, got {variant!r}")
    m = universe.n // 2
    sub = _as_subgroup(symmetric_group(m), subgroup)
    other = TYPE_II if variant == TYPE_I else TYPE_I
    zero = (universe.ranks < m) | (universe.mtypes == other)
    return _family_partition(universe, zero, [(universe.mtypes == variant, sub)])


def build_eq_special(universe, which):
    """The two degree-4 specials on OR: units pair up, one half-rank type
    collapses into the zero class, the other splits into full H-classes."""
    _require_family(universe, "OR")
    if universe.n != 4:
        raise ValueError(f"special congruences exist only at degree 4, got {universe.n}")
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which}")
    swallowed, kept = (TYPE_II, TYPE_I) if which == 1 else (TYPE_I, TYPE_II)
    zero = (universe.ranks < 2) | (universe.mtypes == swallowed)
    unit_pairs = [
        tuple(universe.element_index(PartialInjection(4, images)) for images in pair)
        for pair in _OR4_UNIT_PAIRS[which]
    ]
    return _family_partition(
        universe, zero, [(universe.mtypes == kept, None)], unit_pairs
    )


def _labelled(parent):
    """The normal subgroups of ``parent``, smallest first, with
    deterministic short labels: 1, full, alt (even permutations), or
    order<d> with a #i disambiguator when several share an order."""
    subgroups = normal_subgroups(parent)
    even = frozenset(p for p in parent if _is_even(p))
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


def _is_even(p):
    inversions = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return inversions % 2 == 0


def predicted_congruences(universe):
    """Instantiate every family over every admissible parameter, plus the
    universal partition; dedupe by partition, keeping all specs."""
    if universe.family not in ("OR", "SR"):
        raise ValueError(f"no predicted families for family {universe.family}")
    m = universe.n // 2
    pairs = []
    for k, parent in _levels(universe).items():
        for label, sub in _labelled(parent):
            pairs.append((
                FamilySpec(f"{universe.family}_eqN", k=k, n_label=label),
                build_eq_N(universe, k, sub),
            ))
    if universe.family == "OR":
        sm = _labelled(symmetric_group(m))
        for label1, sub1 in sm:
            for label2, sub2 in sm:
                pairs.append((
                    FamilySpec("OR_eqN1N2", n1_label=label1, n2_label=label2),
                    build_eq_N1N2(universe, sub1, sub2),
                ))
        for variant, tag in ((TYPE_I, "OR_eqI"), (TYPE_II, "OR_eqII")):
            for label, sub in sm:
                pairs.append((
                    FamilySpec(tag, k=m, n_label=label),
                    build_eq_type(universe, variant, sub),
                ))
        if universe.n == 4:
            pairs.append((FamilySpec("OR_eq1"), build_eq_special(universe, 1)))
            pairs.append((FamilySpec("OR_eq2"), build_eq_special(universe, 2)))
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
        return {
            "family": self.family,
            "n": self.n,
            "lattice_size": self.lattice_size,
            "matched": self.matched,
            "predicted_not_found": self.predicted_not_found,
            "found_not_predicted": self.found_not_predicted,
            "notes": self.notes,
        }


def _annotate_unmatched(universe, part, lattice_index, ideal_by_members):
    zero_class = part.class_of(0)
    descriptor = ideal_by_members.get(tuple(zero_class))
    units = set(universe.units())
    unit_classes = []
    seen = set()
    for u in sorted(units):
        cid = int(part.ids[u])
        if cid not in seen:
            seen.add(cid)
            unit_classes.append(part.class_of(u))
    tag = ""
    if descriptor is not None and descriptor.kind == "union" and all(
        set(c) <= units for c in unit_classes
    ):
        tag = "rees_over_complement_of_units"
    return {
        "lattice_index": lattice_index,
        "num_classes": part.num_classes,
        "classes": part.classes(),
        "zero_class_kind": descriptor.kind if descriptor else "not_an_enumerated_ideal",
        "zero_class_k": descriptor.k if descriptor else None,
        "zero_class_size": len(zero_class),
        "unit_classes": unit_classes,
        "tag": tag,
    }


def verify_classification(universe):
    """Enumerate the full congruence lattice and diff it against the
    predicted families.  Everything unmatched is reported, never dropped.
    The predictions come first, so a family with none is refused before
    the lattice is built."""
    predictions = predicted_congruences(universe)
    lattice = congruence_lattice(universe)
    lattice_keys = {part.key: i for i, part in enumerate(lattice)}
    ideal_by_members = {d.members: d for d in enumerate_ideals(universe)}

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
        _annotate_unmatched(universe, part, i, ideal_by_members)
        for i, part in enumerate(lattice)
        if part.key not in pred_by_key
    ]

    notes = [
        "typed families are built with the zero class equal to everything of "
        "rank < m plus the opposite-type half-rank stratum; the named type "
        "splits into subgroup orbits inside H-classes and units stay singletons",
    ]
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

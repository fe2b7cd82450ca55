"""Green's relations, ideals, and idempotent subgroup structure.

Classes are computed from the structural characterizations over the
universe's arrays (equal domain mask for L, equal image mask for R, both
for H, rank plus half-rank type for J); the tests cross-check them
against principal ideals computed by brute force (the ``principal_*``
oracles).  The J-classes and the J-order come from
``MonoidUniverse.j_order``, which the closure engine reads too: the
ideals are its down-sets (``enumerate_ideals``), each named by
``_ideal_name``, and the DOT drawing reads it as well.
``MonoidUniverse.h_coords`` holds each ``h_coordinate``.  The maximal
subgroup at rank k, S_k or the unit group at k = n, is built once per
family and degree (``maximal_subgroup``); ``_h_split`` maps H-coordinates
onto it once per stratum, for the builder and ``h_class_group`` alike.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .congruences import PermGroup, _hasse_dot, symmetric_group
from .core import InvariantViolation, _canonical_ids, _is_integer, _stratum


@dataclass
class GreenData:
    """Per-element class ids for L, R, H, J plus per-J-class metadata.

    H refines L and R, which refine J; on these monoids D coincides with J,
    so D is stored as an alias.  ``j_meta[c]`` is (rank, type) with type
    empty except for the half-rank classes of the orthogonal family.
    """

    universe: object
    l_ids: np.ndarray
    r_ids: np.ndarray
    h_ids: np.ndarray
    j_ids: np.ndarray
    j_meta: list

    @property
    def d_ids(self):
        return self.j_ids

    def ids(self, relation):
        return {
            "L": self.l_ids, "R": self.r_ids, "H": self.h_ids,
            "J": self.j_ids, "D": self.j_ids,
        }[relation.upper()]

    def num_classes(self, relation):
        return int(self.ids(relation).max()) + 1

    def class_sizes(self, relation):
        return np.bincount(self.ids(relation)).tolist()


def green_partition(universe):
    """Compute the Green class structure of a universe.  The J-classes come
    from ``MonoidUniverse.j_order``, so a universe that is not a whole
    family raises ``ValueError``."""
    ranks, dom, img = universe.ranks, universe.dom_masks, universe.img_masks
    j_ids = universe.j_order[0]
    firsts = np.unique(j_ids, return_index=True)[1]
    return GreenData(
        universe=universe,
        l_ids=_canonical_ids(dom),
        r_ids=_canonical_ids(img),
        h_ids=_canonical_ids(dom << universe.n | img),
        j_ids=j_ids,
        j_meta=[(int(ranks[i]), str(universe.mtypes[i])) for i in firsts.tolist()],
    )


def _green_for(universe, green):
    """``green``, or ``green_partition(universe)`` when None; Green data
    built for another universe is refused with ``ValueError``."""
    if green is None:
        return green_partition(universe)
    if green.universe is not universe:
        raise ValueError("Green data lives on another universe")
    return green


def class_count_formulas(m):
    """Closed-form Green class counts and sizes for the orthogonal family.

    The rank-m D entry carries two values: ``combined`` counts the two
    half-rank classes together, ``per_class`` is the size of each one.
    """
    if not _is_integer(m) or m < 1:
        raise ValueError(f"half-degree must be an integer >= 1, got {m!r}")
    m = int(m)
    n = 2 * m
    w_prime = 2 ** (m - 1) * factorial(m)
    l_size = {k: comb(m, k) * 2**k * factorial(k) for k in range(m)}
    l_size[m] = w_prime
    l_size[n] = w_prime
    h_size = {k: factorial(k) for k in range(m + 1)}
    h_size[n] = w_prime
    d_size = {k: comb(m, k) ** 2 * 4**k * factorial(k) for k in range(m)}
    d_size[m] = {"combined": 4**m * factorial(m) // 2,
                 "per_class": 4 ** (m - 1) * factorial(m)}
    d_size[n] = w_prime
    return {
        "m": m,
        "n": n,
        "unit_group_order": w_prime,
        "symplectic_unit_group_order": 2**m * factorial(m),
        "l_class_size_by_rank": l_size,
        "r_class_size_by_rank": dict(l_size),
        "l_class_count": 1 + sum(comb(m, k) * 2**k for k in range(m + 1)),
        "r_class_count": 1 + sum(comb(m, k) * 2**k for k in range(m + 1)),
        "h_class_size_by_rank": h_size,
        "h_class_count": 1 + 4**m // 2 + sum(comb(m, k) ** 2 * 4**k for k in range(m)),
        "d_class_size_by_rank": d_size,
        "j_class_count": m + 3,
    }


@dataclass(frozen=True)
class IdealDescriptor:
    """A two-sided absorbing subset, labelled against the expected shapes.

    kind is "I_k" (everything of rank <= k), "I_m_I" / "I_m_II" (a single
    half-rank type on top of the lower ranks), or "union" (both half-rank
    types but no units).
    """

    kind: str
    k: int | None
    members: tuple

    @property
    def size(self):
        return len(self.members)


def _is_absorbing(moves, mask):
    """True when the set ``mask`` is a two-sided ideal, given the rows
    ``moves`` of left and right translation by each generator: closure
    under those suffices, since every element is a product of generators."""
    return bool(mask[moves[:, mask]].all())


def enumerate_ideals(universe, green=None):
    """Every nonempty down-set of ``MonoidUniverse.j_order``, verified absorbing.

    Every subset of the J-classes is tested at once: it is a down-set when
    no class below one of its members lies outside it.  Absorption is
    checked on the 2k generator translation rows of
    ``MonoidUniverse.translations`` (``_is_absorbing``), so no product
    table is built.  Each is named by ``_ideal_name``.
    """
    green = _green_for(universe, green)
    moves = universe.translations()
    below = universe.j_order[1]
    count = len(below)
    subsets = (np.arange(1, 2**count)[:, None] >> np.arange(count) & 1).astype(bool)
    # escapes[s, a, b]: class b is in subset s, and a is below b but not in s.
    escapes = subsets[:, None, :] & below & ~subsets[:, :, None]
    out = []
    for held in subsets[~escapes.any(axis=(1, 2))]:
        chosen, mask = np.flatnonzero(held), held[green.j_ids]
        if not _is_absorbing(moves, mask):
            raise InvariantViolation(
                f"down-set of J-classes {chosen.tolist()} is not absorbing in "
                f"{universe.family}_{universe.n}"
            )
        kind, k = _ideal_name(green, chosen)
        out.append(IdealDescriptor(kind, k, tuple(np.flatnonzero(mask).tolist())))
    out.sort(key=lambda d: (d.size, d.kind))
    return out


def _ideal_name(green, chosen):
    """The (kind, k) of the down-set of J-classes ``chosen``.  It holds
    every class of lower rank, so its top rank k names it, "I_k"; at OR
    half rank the types it holds there do, "I_m_I", "I_m_II" or both,
    "union", with k None."""
    meta = [green.j_meta[c] for c in chosen]
    top = max(k for k, _ in meta)
    types = [t for k, t in meta if k == top]
    if not types[0]:
        return "I_k", top
    if len(types) == 2:
        return "union", None
    return f"I_m_{types[0]}", None


def h_coordinate(elem):
    """Position of an element inside its H-class: the pattern of its image
    letters in domain order, so the order-preserving member reads as the
    identity.  At full rank this is the element's own image tuple."""
    img = elem.image_in_domain_order()
    letters = sorted(img)
    return tuple(letters.index(v) + 1 for v in img)


def maximal_subgroup(universe, k):
    """The maximal subgroup at rank k of a whole family, built once per
    family and degree: S_k below n, the unit stratum's group at k = n.  A
    rank with no element, one above m and below n on OR and SR, whose
    elements have admissible domains, or one outside 0..n, raises
    ``ValueError``."""
    universe.j_order  # raises ValueError on a universe that is not a whole family
    n = universe.n
    if not _is_integer(k) or not 0 <= k <= n or (universe.family != "R" and n // 2 < k < n):
        raise ValueError(f"{universe.family}_{n} has no element of rank {k!r}")
    return _unit_group(universe.family, n) if k == n else symmetric_group(k)


@functools.cache
def _unit_group(family, n):
    return PermGroup(n, _stratum(family, n, n))


def _h_split(universe, mask, group):
    """A split stratum as the builder reads it, for any subgroup of
    ``group``: a read-only int32 array with a row per H-class, whose entry
    p is the member with H-coordinate (``h_coords``) the p-th of ``group``.
    A row must also list its members in index order, as ``core._stratum``
    lays them out, else ``InvariantViolation``: so a set of positions has
    its least member at its least position.  Kept on the universe
    (``MonoidUniverse._splits``) per (group, mask) for every family and
    ``h_class_group``, each mask keyed by its packed bits, N/8 bytes."""
    key = (group, np.packbits(mask).tobytes())
    if key not in universe._splits:
        members = np.flatnonzero(mask)
        pos, found = group._indices(universe.h_coords[members, :group.degree])
        if not found.all():
            raise InvariantViolation(
                f"the H-coordinate of element {members[np.argmin(found)]} is not in {group!r}"
            )
        codes = universe.dom_masks[members] << universe.n | universe.img_masks[members]
        order = np.argsort(codes, kind="stable")  # by H-class, each in index order
        whole = members.size % len(group) == 0  # so each H-class can fill a row
        if whole:
            at, pos, codes = (a[order].reshape(-1, len(group)) for a in (members, pos, codes))
        if not whole or ((pos != np.arange(len(group))) | (codes != codes[:, :1])).any():
            raise InvariantViolation(f"the H-classes of {group!r} do not list their members in its order")
        universe._splits[key] = at = at.astype(np.int32)
        at.setflags(write=False)
    return universe._splits[key]


def h_class_group(universe, idx):
    """The H-class of an idempotent as a permutation group: the cached
    ``maximal_subgroup`` at its rank, acting on the positions of its
    domain, with the bijection read through ``_h_split`` that maps each
    member to its ``h_coordinate``.  Only a whole family has these groups,
    so on any other universe ``maximal_subgroup`` raises ``ValueError``."""
    universe._check_index(idx)
    row, dom = universe.image_matrix[idx], universe.dom_masks[idx]
    if ((row != 0) & (row != np.arange(1, universe.n + 1))).any():
        raise ValueError(f"element {idx} (images {tuple(row.tolist())}) is not idempotent")
    group = maximal_subgroup(universe, universe.ranks[idx])
    (at,) = _h_split(universe, (universe.dom_masks == dom) & (universe.img_masks == dom), group)
    return group, dict(zip(at.tolist(), map(tuple, group.perms.tolist())))


def j_order_dot(green):
    """DOT digraph of the J-class order (edges are covering relations)."""
    below = green.universe.j_order[1] & ~np.eye(len(green.j_meta), dtype=bool)
    labels = [f"rank {k}" + (f" type {t}" if t else "") for k, t in green.j_meta]
    return _hasse_dot("j_order", "j", labels, below)


def green_report(universe, green=None):
    """Counts, formula comparison, and discrepancies, ready for JSON."""
    green = _green_for(universe, green)
    m = universe.n // 2
    counts = {}
    for rel in ("L", "R", "H", "J"):
        sizes = green.class_sizes(rel)
        counts[rel] = {"classes": green.num_classes(rel), "sizes": sorted(sizes)}
    report = {
        "family": universe.family,
        "n": universe.n,
        "size": len(universe),
        "classes": {rel: green.ids(rel).tolist() for rel in ("L", "R", "H", "J")},
        "counts": counts,
        "formulas": None,
        "discrepancies": [],
    }
    if universe.family != "OR":
        return report
    formulas = class_count_formulas(m)
    report["formulas"] = {
        key: ({str(k): v for k, v in val.items()} if isinstance(val, dict) else val)
        for key, val in formulas.items()
    }
    discrepancies = []
    for rel, key in (("L", "l_class_count"), ("R", "r_class_count"),
                     ("H", "h_class_count"), ("J", "j_class_count")):
        if green.num_classes(rel) != formulas[key]:
            discrepancies.append({
                "kind": f"{rel}_class_count",
                "formula": formulas[key],
                "observed": green.num_classes(rel),
            })
    per_class = sorted(
        int((green.j_ids == c).sum())
        for c, (k, _) in enumerate(green.j_meta) if k == m
    )
    entry = formulas["d_class_size_by_rank"][m]
    discrepancies.append({
        "kind": "rank_m_d_class_size",
        "combined_formula": entry["combined"],
        "per_class_formula": entry["per_class"],
        "observed_per_class": per_class,
        "note": "the combined closed form counts the two half-rank classes "
                "together; each class separately has the per_class size",
    })
    report["discrepancies"] = discrepancies
    return report

"""Green's relations, ideals, and idempotent subgroup structure.

Classes are computed from the structural characterizations over the
universe's arrays (equal domain mask for L, equal image mask for R, both
for H, rank plus half-rank type for J) with the principal-ideal
computations kept as cross-checks: the ``principal_*`` functions compute
their answer by brute force and assert the characterization before
returning it.  They look up one row or column of products, and a
two-sided ideal closes it under the generator rows of
``MonoidUniverse.translations``, so no product table is built.
``MonoidUniverse.h_coords`` holds each ``h_coordinate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .congruences import PermGroup, _canonical_ids, _hasse_dot
from .core import InvariantViolation, PartialInjection, TYPE_I, TYPE_II, is_idempotent


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
    """Compute the Green class structure of a universe."""
    ranks, dom, img = universe.ranks, universe.dom_masks, universe.img_masks
    j_ids = _canonical_ids(ranks * 2 + (universe.mtypes == TYPE_II))
    firsts = np.unique(j_ids, return_index=True)[1]
    return GreenData(
        universe=universe,
        l_ids=_canonical_ids(dom),
        r_ids=_canonical_ids(img),
        h_ids=_canonical_ids(dom << universe.n | img),
        j_ids=j_ids,
        j_meta=[(int(ranks[i]), str(universe.mtypes[i])) for i in firsts.tolist()],
    )


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
    """S*sigma*S by brute force, asserted equal to the rank/type bound.

    S*sigma is closed under the rows x -> x·g of ``translations``, as in
    ``enumerate_ideals``: every element of S is a product of generators.
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
    ranks = universe.ranks
    r = int(ranks[idx])
    m = universe.n // 2
    if universe.family == "OR" and r == m:
        keep = (ranks < m) | ((ranks == m) & (universe.mtypes == universe.mtypes[idx]))
    else:
        keep = ranks <= r
    characterized = frozenset(np.flatnonzero(keep).tolist())
    if brute != characterized:
        raise InvariantViolation(
            f"two-sided ideal of element {idx} disagrees with the rank/type bound"
        )
    return brute


def class_count_formulas(m):
    """Closed-form Green class counts and sizes for the orthogonal family.

    The rank-m D entry carries two values: ``combined`` counts the two
    half-rank classes together, ``per_class`` is the size of each one.
    """
    if m < 1:
        raise ValueError(f"half-degree must be >= 1, got {m}")
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


def _j_below(a, b, m, family):
    """Order of the J-poset: is class a contained in the ideal of class b?"""
    (ka, ta), (kb, tb) = a, b
    if ka == kb:
        return family != "OR" or ka != m or ta == tb
    return ka < kb


def _is_absorbing(moves, mask):
    """True when the set ``mask`` is a two-sided ideal, given the rows
    ``moves`` of left and right translation by each generator: closure
    under those suffices, since every element is a product of generators."""
    return bool(mask[moves[:, mask]].all())


def enumerate_ideals(universe, green=None):
    """Every nonempty down-closed union of J-classes, verified absorbing.

    Absorption is checked on the 2k generator translation rows of
    ``MonoidUniverse.translations`` (``_is_absorbing``), so no product
    table is built.  Each is named by ``_ideal_kind``.
    """
    green = green or green_partition(universe)
    moves = universe.translations()
    meta = green.j_meta
    count = len(meta)
    m = universe.n // 2
    out = []
    for bits in range(1, 2**count):
        chosen = [c for c in range(count) if bits >> c & 1]
        down_closed = all(
            _j_below(meta[other], meta[c], m, universe.family)
            <= (other in chosen)
            for c in chosen
            for other in range(count)
        )
        if not down_closed:
            continue
        mask = np.isin(green.j_ids, chosen)
        members = np.flatnonzero(mask)
        if not _is_absorbing(moves, mask):
            raise InvariantViolation(
                f"down-set of J-classes {chosen} is not absorbing in "
                f"{universe.family}_{universe.n}"
            )
        out.append(IdealDescriptor(
            kind=_ideal_kind(chosen, meta, m, universe),
            k=_ideal_level(chosen, meta, m, universe),
            members=tuple(int(i) for i in members),
        ))
    out.sort(key=lambda d: (d.size, d.kind))
    return out


def _ideal_kind(chosen, meta, m, universe):
    """A down-set holds every J-class of lower rank (``_j_below``), so its
    top rank names it, and at OR half rank which types it holds there."""
    top = max(meta[c][0] for c in chosen)
    at_top = [c for c in chosen if meta[c][0] == top]
    if universe.family == "OR" and top == m:
        if len(at_top) == 2:
            return "union"
        return "I_m_I" if meta[at_top[0]][1] == TYPE_I else "I_m_II"
    return "I_k"


def _ideal_level(chosen, meta, m, universe):
    top = max(meta[c][0] for c in chosen)
    if universe.family == "OR" and top == m:
        return None
    return top


def h_coordinate(elem):
    """Position of an element inside its H-class: the pattern of its image
    letters in domain order, so the order-preserving member reads as the
    identity.  At full rank this is the element's own image tuple."""
    img = elem.image_in_domain_order()
    letters = sorted(img)
    return tuple(letters.index(v) + 1 for v in img)


def h_class_group(universe, idx):
    """The H-class of an idempotent as a permutation group.

    For rank k between 1 and n/2 the group acts on the positions of the
    idempotent's domain; for rank n it is the whole unit group.  Returns
    the group together with the element-to-permutation bijection, which
    maps each member to its ``h_coordinate``.
    """
    universe._check_index(idx)
    elem = PartialInjection(universe.n, universe.image_matrix[idx])
    if not is_idempotent(elem):
        raise ValueError(f"element {idx} ({elem!r}) is not idempotent")
    points = elem.domain()
    dom = universe.dom_masks[idx]
    members = np.flatnonzero((universe.dom_masks == dom) & (universe.img_masks == dom))
    coords = universe.h_coords[members, :len(points)].tolist()
    bijection = dict(zip(members.tolist(), map(tuple, coords)))
    group = PermGroup(len(points), bijection.values())
    if len(group) != len(bijection):
        raise InvariantViolation("H-class does not map bijectively onto its group")
    return group, bijection


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


def j_order_dot(green):
    """DOT digraph of the J-class order (edges are covering relations)."""
    meta = green.j_meta
    m = green.universe.n // 2
    family = green.universe.family
    below = [[a != b and _j_below(meta[a], meta[b], m, family) for b in range(len(meta))]
             for a in range(len(meta))]
    labels = [f"rank {k}" + (f" type {t}" if t else "") for k, t in meta]
    return _hasse_dot("j_order", "j", labels, below)


def green_report(universe, green=None):
    """Counts, formula comparison, and discrepancies, ready for JSON."""
    green = green or green_partition(universe)
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

"""Partial injections of {1..n} and the rook monoid families built from them.

The degree n is always even, n = 2m.  The mirror involution pairs each point
i with n+1-i, and a subset is *admissible* when it is disjoint from its own
mirror image (the empty set and the full set count as admissible).  Three
monoid families live on top of that combinatorics:

* ``R``  -- the full rook monoid: every injective partial self-map.
* ``SR`` -- the symplectic rook monoid: domain and image admissible, and
  full-rank members commute with the mirror involution.
* ``OR`` -- the orthogonal rook monoid: as SR, but rank-m members must have
  domain and image of the same parity type and full-rank members must move
  an even number of {1..m} across the middle.
"""

from __future__ import annotations

import itertools
import math
import os

import numpy as np

FAMILIES = ("R", "SR", "OR")
TYPE_I = "I"
TYPE_II = "II"

DEFAULT_ELEMENT_LIMIT = 15000
DEFAULT_TABLE_LIMIT = 2000
TABLE_BLOCK_BYTES = 1 << 20
ELEMENT_LIMIT_ENV = "RCL_BUDGET_ELEMENTS"


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds a configured budget."""


class InvariantViolation(RuntimeError):
    """A structural fact the code relies on failed to hold."""


def element_limit(override=None):
    """Active element budget: explicit override, else env var, else default."""
    if override is not None:
        return int(override)
    env = os.environ.get(ELEMENT_LIMIT_ENV)
    return int(env) if env else DEFAULT_ELEMENT_LIMIT


def _check_degree(n):
    if not isinstance(n, int) or n < 2 or n % 2:
        raise ValueError(f"degree must be an even integer >= 2, got {n!r}")
    return n


def _family(family):
    fam = str(family).upper()
    if fam not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    return fam


def theta(n, i):
    """Mirror involution i -> n+1-i on {1..n}."""
    _check_degree(n)
    if not 1 <= i <= n:
        raise ValueError(f"point {i} out of range 1..{n}")
    return n + 1 - i


def _point_set(n, points):
    s = set(int(p) for p in points)
    for p in s:
        if not 1 <= p <= n:
            raise ValueError(f"point {p} out of range 1..{n}")
    return s


def is_admissible(n, points) -> bool:
    """True when the set avoids its own mirror image, or is {} or {1..n}."""
    _check_degree(n)
    s = _point_set(n, points)
    if not s or len(s) == n:
        return True
    return all(n + 1 - p not in s for p in s)


def admissible_subsets(n, k):
    """All admissible k-subsets of {1..n}, sorted.

    Nonempty proper admissible sets pick at most one point from each mirror
    pair, so there are C(m,k)*2^k of them for k <= m and none for m < k < n.
    """
    _check_degree(n)
    m = n // 2
    if not 0 <= k <= n:
        raise ValueError(f"cardinality {k} out of range 0..{n}")
    if k == n:
        return [tuple(range(1, n + 1))]
    if k > m:
        return []
    out = []
    for pairs in itertools.combinations(range(1, m + 1), k):
        for flips in itertools.product((False, True), repeat=k):
            out.append(tuple(sorted(n + 1 - p if f else p for p, f in zip(pairs, flips))))
    out.sort()
    return out


def type_of(n, points):
    """Parity type of a proper admissible set: "I" iff evenly many points exceed n/2."""
    _check_degree(n)
    s = _point_set(n, points)
    if len(s) == n:
        raise ValueError("type is only defined for proper admissible subsets")
    if not is_admissible(n, s):
        raise ValueError(f"{sorted(s)} is not admissible for degree {n}")
    m = n // 2
    return TYPE_I if sum(1 for p in s if p > m) % 2 == 0 else TYPE_II


class PartialInjection:
    """Injective partial self-map of {1..n}.

    ``images[i-1]`` holds the image of i, with 0 marking an unmapped point.
    Instances are immutable and hashable; ``f * g`` composes with g applied
    first, matching ordinary function composition.
    """

    __slots__ = ("n", "images")

    def __init__(self, n, images):
        _check_degree(n)
        images = tuple(int(v) for v in images)
        if len(images) != n:
            raise ValueError(f"expected {n} image slots, got {len(images)}")
        seen = set()
        for v in images:
            if v == 0:
                continue
            if not 1 <= v <= n:
                raise ValueError(f"target {v} out of range 1..{n}")
            if v in seen:
                raise ValueError(f"target {v} repeated; map is not injective")
            seen.add(v)
        self.n = n
        self.images = images

    @classmethod
    def from_pairs(cls, n, pairs):
        images = [0] * n
        for s, t in pairs:
            s, t = int(s), int(t)
            if not 1 <= s <= n:
                raise ValueError(f"source {s} out of range 1..{n}")
            if images[s - 1]:
                raise ValueError(f"source {s} repeated")
            images[s - 1] = t
        return cls(n, images)

    def pairs(self):
        return tuple((i + 1, v) for i, v in enumerate(self.images) if v)

    @property
    def rank(self):
        return sum(1 for v in self.images if v)

    def domain(self):
        return tuple(i + 1 for i, v in enumerate(self.images) if v)

    def image(self):
        return tuple(sorted(v for v in self.images if v))

    def image_in_domain_order(self):
        return tuple(v for v in self.images if v)

    def domain_mask(self):
        mask = 0
        for i, v in enumerate(self.images):
            if v:
                mask |= 1 << i
        return mask

    def image_mask(self):
        mask = 0
        for v in self.images:
            if v:
                mask |= 1 << (v - 1)
        return mask

    def __call__(self, i):
        if not 1 <= i <= self.n:
            raise ValueError(f"point {i} out of range 1..{self.n}")
        return self.images[i - 1] or None

    def __mul__(self, other):
        return compose(self, other)

    def sort_key(self):
        return (self.rank, self.domain(), self.image_in_domain_order())

    def __eq__(self, other):
        return (
            isinstance(other, PartialInjection)
            and self.n == other.n
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.n, self.images))

    def __repr__(self):
        return f"PartialInjection({self.n}, {format_element_text(self)!r})"


def compose(f, g):
    """f after g: defined at x iff g is defined at x and f at g(x)."""
    if f.n != g.n:
        raise ValueError(f"degree mismatch: {f.n} vs {g.n}")
    fi = f.images
    return PartialInjection(f.n, tuple(0 if t == 0 else fi[t - 1] for t in g.images))


def invert(f):
    """Swap every (source, target) pair; f * invert(f) fixes the image of f."""
    images = [0] * f.n
    for s, t in f.pairs():
        images[t - 1] = s
    return PartialInjection(f.n, images)


def identity_map(n):
    return PartialInjection(n, range(1, n + 1))


def zero_map(n):
    return PartialInjection(n, (0,) * n)


def idempotent_of(n, points):
    """Identity restricted to an admissible set."""
    if not is_admissible(n, points):
        raise ValueError(f"{sorted(set(points))} is not admissible for degree {n}")
    s = set(int(p) for p in points)
    return PartialInjection(n, tuple(i if i in s else 0 for i in range(1, n + 1)))


def is_idempotent(f):
    return compose(f, f) == f


def in_unit_group(family, f):
    """Membership in the unit group: rank n, commuting with the mirror map;
    for OR additionally an even count of {1..m} sent across the middle."""
    fam = _family(family)
    n = f.n
    if f.rank != n:
        return False
    if fam == "R":
        return True
    img = f.images
    if any(img[n - i] != n + 1 - img[i - 1] for i in range(1, n + 1)):
        return False
    if fam == "SR":
        return True
    m = n // 2
    crossings = sum(1 for i in range(m) if img[i] > m)
    return crossings % 2 == 0


def is_member(family, f):
    """Membership predicate for the three families."""
    fam = _family(family)
    if fam == "R":
        return True
    n = f.n
    m = n // 2
    r = f.rank
    if r == n:
        return in_unit_group(fam, f)
    dom, img = f.domain(), f.image()
    if not (is_admissible(n, dom) and is_admissible(n, img)):
        return False
    if fam == "OR" and r == m:
        return type_of(n, dom) == type_of(n, img)
    return True


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


def conjugation_escape_witness(n=8):
    """A full-rank OR member sigma and a permutation s whose conjugate
    s^-1 sigma s falls outside SR.  The pattern needs n >= 6."""
    _check_degree(n)
    if n < 6:
        raise ValueError("witness pattern needs degree >= 6")
    sigma = list(range(1, n + 1))
    for src, dst in ((1, 3), (2, 1), (3, 2), (n - 2, n - 1), (n - 1, n), (n, n - 2)):
        sigma[src - 1] = dst
    s = list(range(1, n + 1))
    for src, dst in ((1, 2), (2, n), (3, n - 1), (n - 2, 3), (n - 1, n - 2), (n, 1)):
        s[src - 1] = dst
    return PartialInjection(n, sigma), PartialInjection(n, s)


def image_codes(image_matrix):
    """Base-(n+1) integer code of each row of an (N, n) image matrix, the
    image of 1 the most significant digit.  Distinct maps get distinct codes."""
    images = np.asarray(image_matrix, dtype=np.int64)
    n = images.shape[1]
    if (n + 1) ** n > np.iinfo(np.int64).max:
        raise ResourceLimitError(f"image codes of degree {n} overflow int64")
    return images @ (n + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)


def _unit_elements(family, n):
    """The unit group of SR (all signed permutations) or OR (even ones)."""
    m = n // 2
    out = []
    for perm in itertools.permutations(range(1, m + 1)):
        for flips in itertools.product((False, True), repeat=m):
            images = [0] * n
            for i, (p, f) in enumerate(zip(perm, flips), start=1):
                v = n + 1 - p if f else p
                images[i - 1] = v
                images[n - i] = n + 1 - v
            e = PartialInjection(n, images)
            if family == "SR" or in_unit_group("OR", e):
                out.append(e)
    return out


def _rank_stratum(n, doms, imgs):
    for dom in doms:
        for img in imgs:
            for arranged in itertools.permutations(img):
                yield PartialInjection.from_pairs(n, zip(dom, arranged))


def predicted_size(family, n):
    """Closed-form universe size, summed over rank strata."""
    fam = _family(family)
    _check_degree(n)
    m = n // 2
    if fam == "R":
        return sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))
    adm = [math.comb(m, k) * 2**k for k in range(m + 1)]
    lower = sum(adm[k] ** 2 * math.factorial(k) for k in range(m))
    if fam == "SR":
        return lower + adm[m] ** 2 * math.factorial(m) + 2**m * math.factorial(m)
    per_type = (2 ** (m - 1)) ** 2 * math.factorial(m)
    return lower + 2 * per_type + 2 ** (m - 1) * math.factorial(m)


class MonoidUniverse:
    """An enumerated finite monoid with a product oracle over element indices.

    Element 0 is always the zero map and element 1 the identity; the rest
    are sorted by (rank, domain, image in domain order).  Instances are
    immutable after construction and safe to share.
    """

    def __init__(self, family, n, elements):
        self.family = family
        self.n = n
        self.elements = list(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise InvariantViolation("duplicate elements in universe")
        if self.elements[0] != zero_map(n) or self.elements[1] != identity_map(n):
            raise InvariantViolation("zero and identity must sit at indices 0 and 1")
        size = len(self.elements)
        # Row i holds the images of element i, 0 marking an unmapped point.
        self.image_matrix = np.fromiter(
            itertools.chain.from_iterable(e.images for e in self.elements),
            dtype=np.uint8, count=size * n,
        ).reshape(size, n)
        mapped = self.image_matrix > 0
        bits = np.int64(1) << np.arange(n + 1, dtype=np.int64)
        self.ranks = np.count_nonzero(mapped, axis=1).astype(np.int16)
        self.dom_masks = (mapped * bits[:n]).sum(axis=1)
        self.img_masks = (bits[self.image_matrix] >> 1).sum(axis=1)
        m = n // 2
        self.mtypes = [
            type_of(n, e.domain()) if (family == "OR" and r == m) else ""
            for e, r in zip(self.elements, self.ranks.tolist())
        ]
        self._table = None
        self._generators = None
        self._units = np.flatnonzero(self.ranks == n).tolist()

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def element_index(self, e):
        try:
            return self.index[e]
        except KeyError:
            raise ValueError(f"{e!r} is not a member of {self.family}_{self.n}") from None

    def _check_index(self, i):
        if not isinstance(i, (int, np.integer)) or not 0 <= i < len(self):
            raise ValueError(f"element {i!r} is not an index in 0..{len(self) - 1}")

    def product(self, i, j):
        self._check_index(i)
        self._check_index(j)
        if self._table is not None:
            return int(self._table[i, j])
        try:
            return self.index[compose(self.elements[i], self.elements[j])]
        except KeyError:
            raise InvariantViolation(
                f"product of members {i}, {j} escaped {self.family}_{self.n}"
            ) from None

    def multiplication_table(self, *, limit=DEFAULT_TABLE_LIMIT):
        """Full N x N product table, ``table[i, j]`` the index of e_i * e_j; cached.

        Gated by ``limit`` because it is quadratic.  Each element is encoded
        as its base-(n+1) image code (``image_codes``) and the codes are
        sorted once.  For each block of rows the codes of every product
        e_i * e_j are computed with numpy gathers, one image slot at a time,
        and looked up with ``searchsorted``.  A code that is not found
        raises ``InvariantViolation`` naming the pair, so every table build
        is an exhaustive closure check.  Each block's temporaries are held
        to about ``TABLE_BLOCK_BYTES``.  The table is int16 below 32,768
        elements and int32 above.
        """
        if self._table is None:
            size = len(self)
            if limit is not None and size > limit:
                raise ResourceLimitError(
                    f"product table for {size} elements exceeds the limit {limit}"
                )
            dtype = np.int16 if size < 2**15 else np.int32
            codes = image_codes(self.image_matrix)
            order = np.argsort(codes, kind="stable").astype(dtype)
            sorted_codes = codes[order]
            # padded[i, t] is the image of t under e_i, and 0 for t = 0.
            padded = np.zeros((size, self.n + 1), dtype=np.uint8)
            padded[:, 1:] = self.image_matrix
            slots = self.image_matrix.T.astype(np.intp)
            # About 32 bytes per product: the int64 code, its searchsorted
            # position, the code found there, the match mask and the entry.
            rows = max(1, TABLE_BLOCK_BYTES // (size * 32))
            table = np.empty((size, size), dtype=dtype)
            for start in range(0, size, rows):
                block = padded[start:start + rows]
                # (e_i * e_j)(t) = e_i(e_j(t)): Horner over the slots t.
                code = block.take(slots[0], axis=1).astype(np.int64)
                for slot in slots[1:]:
                    code *= self.n + 1
                    code += block.take(slot, axis=1)
                pos = np.searchsorted(sorted_codes, code)
                np.minimum(pos, size - 1, out=pos)
                found = sorted_codes[pos] == code
                if not found.all():
                    i, j = np.unravel_index(np.argmin(found), found.shape)
                    raise InvariantViolation(
                        f"product of members {start + i}, {j} escaped {self.family}_{self.n}"
                    )
                table[start:start + rows] = order[pos]
            self._table = table
        return self._table

    def generators(self):
        """A generating set of the monoid as element indices; cached.

        Greedy over the product table: elements are scanned by descending
        rank, ties by index, and each one not yet in the submonoid generated
        so far is kept.  Every element is then a product of generators.
        """
        if self._generators is None:
            table = self.multiplication_table()
            reached = np.zeros(len(self), dtype=bool)
            reached[1] = True
            gens = []
            for x in np.argsort(-self.ranks, kind="stable").tolist():
                if reached[x]:
                    continue
                gens.append(x)
                frontier = np.flatnonzero(reached)
                while frontier.size:
                    prod = table[np.ix_(frontier, gens)].ravel()
                    frontier = np.unique(prod[~reached[prod]])
                    reached[frontier] = True
            self._generators = gens
        return list(self._generators)

    def units(self):
        return list(self._units)

    def unit_permutations(self):
        return [self.elements[i].images for i in self._units]

    def indices_of_rank(self, k):
        return [int(i) for i in np.flatnonzero(self.ranks == k)]

    def idempotent_index(self, points):
        return self.element_index(idempotent_of(self.n, points))

    def rank_histogram(self):
        return {int(k): int((self.ranks == k).sum()) for k in sorted(set(self.ranks.tolist()))}


def enumerate_universe(family, n, *, limit=None):
    """Materialize a full monoid universe in canonical order.

    Each element is checked for membership and the count against the
    closed-form size.  Closure under products is checked exhaustively by
    the first ``multiplication_table`` build, not here.
    """
    fam = _family(family)
    _check_degree(n)
    m = n // 2
    size = predicted_size(fam, n)
    lim = element_limit(limit)
    if size > lim:
        raise ResourceLimitError(
            f"{fam}_{n} has {size} elements, over the budget {lim}"
            f" (override with {ELEMENT_LIMIT_ENV} or limit=)"
        )

    members = []
    if fam == "R":
        for k in range(n):
            subsets = list(itertools.combinations(range(1, n + 1), k))
            members.extend(_rank_stratum(n, subsets, subsets))
        members.extend(PartialInjection(n, p) for p in itertools.permutations(range(1, n + 1)))
    else:
        top = m if fam == "SR" else m - 1
        for k in range(top + 1):
            subsets = admissible_subsets(n, k)
            members.extend(_rank_stratum(n, subsets, subsets))
        if fam == "OR":
            by_type = {TYPE_I: [], TYPE_II: []}
            for a in admissible_subsets(n, m):
                by_type[type_of(n, a)].append(a)
            for subsets in by_type.values():
                members.extend(_rank_stratum(n, subsets, subsets))
        members.extend(_unit_elements(fam, n))

    if len(members) != size:
        raise InvariantViolation(
            f"enumerated {len(members)} elements of {fam}_{n}, expected {size}"
        )
    bad = next((e for e in members if not is_member(fam, e)), None)
    if bad is not None:
        raise InvariantViolation(f"enumerated non-member {bad!r}")

    zero, ident = zero_map(n), identity_map(n)
    rest = sorted((e for e in members if e not in (zero, ident)), key=PartialInjection.sort_key)
    return MonoidUniverse(fam, n, [zero, ident] + rest)


# -- serialization -----------------------------------------------------------

def element_to_json(f):
    return {"n": f.n, "map": [[s, t] for s, t in f.pairs()]}


def element_from_json(obj):
    return PartialInjection.from_pairs(int(obj["n"]), obj["map"])


def format_element_text(f):
    """Flattened two-line notation: sources, a slash, then their images."""
    pairs = f.pairs()
    left = " ".join(str(s) for s, _ in pairs)
    right = " ".join(str(t) for _, t in pairs)
    return f"{left} / {right}".strip() if pairs else "/"


def parse_element_text(n, text):
    left, _, right = text.partition("/")
    if not _:
        raise ValueError("element text needs a '/' between sources and images")
    sources = [int(tok) for tok in left.split()]
    targets = [int(tok) for tok in right.split()]
    if len(sources) != len(targets):
        raise ValueError(f"{len(sources)} sources but {len(targets)} images")
    return PartialInjection.from_pairs(n, zip(sources, targets))


def universe_to_json(universe):
    return {
        "family": universe.family,
        "n": universe.n,
        "elements": [[[s, t] for s, t in e.pairs()] for e in universe.elements],
    }

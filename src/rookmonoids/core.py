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

A universe (``MonoidUniverse``) is one (N, n) image matrix in the
``_ElementStore`` it shares with ``congruences.PermGroup``, built by
``enumerate_universe`` one rank stratum at a time.  Below full rank a
member is a bijection between two admissible sets, and a unit of SR or OR
a permutation commuting with the mirror map, so each stratum is built from
those sets and signed permutations, and every row is a member by
construction; the tests check each stratum against listing every
arrangement and filtering it with ``_member_mask``.
``PartialInjection`` is the single-element type and the tests' oracle.
"""

from __future__ import annotations

import functools
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


def _is_integer(x):
    """The one integer rule, for degrees, indices and budgets: no bool, no float."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def element_limit(override=None):
    """Active element budget: explicit override, else env var, else default.
    Either must be a non-negative integer (``_is_integer``)."""
    if override is not None:
        if not _is_integer(override) or override < 0:
            raise ValueError(f"limit= must be a non-negative integer, got {override!r}")
        return int(override)
    env = os.environ.get(ELEMENT_LIMIT_ENV)
    if not env:
        return DEFAULT_ELEMENT_LIMIT
    try:
        value = int(env)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise ValueError(f"{ELEMENT_LIMIT_ENV} must be a non-negative integer, got {env!r}")


def _check_degree(n):
    """The degree as an ``int``, refused unless an even integer >= 2."""
    if not _is_integer(n) or n < 2 or n % 2:
        raise ValueError(f"degree must be an even integer >= 2, got {n!r}")
    return int(n)


def _family(family):
    fam = str(family).upper()
    if fam not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    return fam


def _check_point(n, p, what="point"):
    """A point of {1..n} as an ``int``, refused unless an integer (``_is_integer``)."""
    if not _is_integer(p):
        raise ValueError(f"{what} {p!r} is not an integer")
    if not 1 <= p <= n:
        raise ValueError(f"{what} {p} out of range 1..{n}")
    return int(p)


def theta(n, i):
    """Mirror involution i -> n+1-i on {1..n}."""
    n = _check_degree(n)
    return n + 1 - _check_point(n, i)


def _point_set(n, points):
    return {_check_point(n, p) for p in points}


def is_admissible(n, points) -> bool:
    """True when the set avoids its own mirror image, or is {} or {1..n}."""
    n = _check_degree(n)
    s = _point_set(n, points)
    if not s or len(s) == n:
        return True
    return all(n + 1 - p not in s for p in s)


def admissible_subsets(n, k):
    """All admissible k-subsets of {1..n}, sorted.

    Nonempty proper admissible sets pick at most one point from each mirror
    pair, so there are C(m,k)*2^k of them for k <= m and none for m < k < n.
    """
    n = _check_degree(n)
    m = n // 2
    if not _is_integer(k) or not 0 <= k <= n:
        raise ValueError(f"cardinality must be an integer in 0..{n}, got {k!r}")
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
    n = _check_degree(n)
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
        n = _check_degree(n)
        images = tuple(0 if _is_integer(v) and v == 0 else _check_point(n, v, "target") for v in images)
        if len(images) != n:
            raise ValueError(f"expected {n} image slots, got {len(images)}")
        seen = set()
        for v in images:
            if v == 0:
                continue
            if v in seen:
                raise ValueError(f"target {v} repeated; map is not injective")
            seen.add(v)
        self.n = n
        self.images = images

    @classmethod
    def from_pairs(cls, n, pairs):
        n = _check_degree(n)
        images = [0] * n
        for s, t in pairs:
            s = _check_point(n, s, "source")
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

    def __call__(self, i):
        return self.images[_check_point(self.n, i) - 1] or None

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
    s = _point_set(n, points)
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


def conjugation_escape_witness(n=8):
    """A full-rank OR member sigma and a permutation s whose conjugate
    s^-1 sigma s falls outside SR.  The pattern needs n >= 6."""
    n = _check_degree(n)
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


def _product_codes(left, slots):
    """Image codes of the products f·g, f a row of the image matrix ``left``
    and g a column of ``slots`` (the right factors' images, transposed), as
    one block: (f·g)(t) = f(g(t)), by Horner over the slots t."""
    # padded[i, t] is the image of t under row i, and 0 for t = 0.
    padded = np.zeros((len(left), left.shape[1] + 1), dtype=np.int64)
    padded[:, 1:] = left
    code = np.zeros((len(left), slots.shape[1]), dtype=np.int64)
    for slot in slots:
        code *= padded.shape[1]
        code += padded.take(slot, axis=1)
    return code


def _locate(sorted_codes, codes):
    """Positions of ``codes`` in ``sorted_codes``, and whether each is there."""
    pos = np.searchsorted(sorted_codes, codes)
    np.minimum(pos, len(sorted_codes) - 1, out=pos)
    return pos, sorted_codes[pos] == codes


def _canonical_rows(least):
    """Canonical class ids, as int32, of least-member labels: each row of an
    (R, N) block, or one row, labels every element by the least member of
    its class.  A class is numbered by the count of roots, the elements
    labelled by themselves, before its least member, so classes count up by
    first occurrence.  One ``cumsum`` and one flat gather; no sort."""
    size = least.shape[-1]
    rank = np.cumsum(least == np.arange(size), axis=-1, dtype=np.int32)
    rank -= 1
    return rank[least] if least.ndim == 1 else rank.ravel()[least + size * np.arange(len(least))[:, None]]


def _canonical_ids(ids):
    """Renumber class labels by first occurrence, as int32: ``np.unique``
    finds where each label first occurs, and the labels rank by that place."""
    _, first, inverse = np.unique(np.asarray(ids), return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int32)
    rank[np.argsort(first)] = np.arange(first.size, dtype=np.int32)
    return rank[inverse.ravel()]


class _ElementStore:
    """Maps as the rows of one image matrix, indexed by their sorted image
    codes: the store of ``MonoidUniverse`` and ``congruences.PermGroup``.
    A subclass names the index of its identity (``_identity``) and the
    error for a product that is not a member (``_escaped``)."""

    _generators = _translations = None

    def _image_rows(self, rows, width):
        """``rows`` as an (M, width) integer array: a float or bool, even a bool
        entry numpy would read as 0 or 1, raises ``ValueError``; ``[()]`` passes."""
        images = np.asarray(rows)
        if images.ndim != 2 or images.shape[1] != width or images.size and (
                images.dtype.kind not in "iu" or not isinstance(rows, np.ndarray)
                and not {bool, np.bool_}.isdisjoint(map(type, itertools.chain.from_iterable(rows)))):
            raise ValueError(f"need an (N, {width}) integer matrix, got {images.dtype} {images.shape}")
        return images

    def _keep(self, images):
        """Store the element rows ``images``, read-only; returns their sorted codes."""
        images.setflags(write=False)
        codes = image_codes(images)
        self._images, self._order = images, np.argsort(codes, kind="stable")
        self._sorted_codes = codes[self._order]
        return self._sorted_codes

    def __len__(self):
        return len(self._images)

    def _indices(self, images):
        """Indices of the rows of an image matrix, and whether each is a member."""
        pos, found = _locate(self._sorted_codes, image_codes(images))
        return self._order[pos], found

    def _products(self, left, right):
        """Indices of e_i·e_j, i in ``left`` and j in ``right``, as one block of
        codes (``_product_codes``) looked up at once; a non-member raises ``_escaped``."""
        left, right = np.asarray(left, dtype=np.intp), np.asarray(right, dtype=np.intp)
        codes = _product_codes(self._images[left], self._images[right].T.astype(np.intp))
        pos, found = _locate(self._sorted_codes, codes)
        if not found.all():
            i, j = np.unravel_index(np.argmin(found), found.shape)
            raise self._escaped(left[i], right[j])
        return self._order[pos]

    def generators(self):
        """Generators picked greedily by descending rank, ties by index (a
        universe's units first), cached with ``translations``.  An element not
        yet in the submonoid generated so far is kept, with its row x -> x·g,
        and the submonoid grows from the identity along these rows.  So every
        element is a product of generators, and every generator translate of
        every element is a member: the set is closed under products."""
        if self._generators is None:
            everything = np.arange(len(self))
            reached = everything == self._identity
            gens, right = [], []
            for x in np.argsort(-np.count_nonzero(self._images, axis=1), kind="stable").tolist():
                if reached[x]:
                    continue
                gens.append(x)
                right.append(self._products(everything, everything[x:x + 1]).ravel())
                rows, frontier = np.array(right), np.flatnonzero(reached)
                while frontier.size:
                    new = np.zeros_like(reached)
                    new[rows[:, frontier]] = True
                    frontier = np.flatnonzero(new & ~reached)
                    reached[frontier] = True
            left = self._products(np.array(gens, dtype=np.intp), everything)
            moves = np.concatenate([left, np.reshape(right, left.shape)]).astype(np.intp)
            moves.setflags(write=False)
            self._generators, self._translations = gens, moves
        return list(self._generators)

    def translations(self):
        """The read-only 2k x N rows x -> g·x, then x -> x·g, of the k generators;
        cached.  Closures and congruence and ideal checks read them, not a table."""
        self.generators()
        return self._translations


def _member_mask(family, image_matrix):
    """Vectorized ``is_member`` over the rows of an (N, n) image matrix."""
    images = np.asarray(image_matrix).astype(np.intp)
    size, n = images.shape
    if family == "R":
        return np.ones(size, dtype=bool)
    m = n // 2
    mapped = images > 0
    present = np.zeros((size, n + 1), dtype=bool)
    present[np.arange(size)[:, None], images] = True
    present = present[:, 1:]
    # Column i - 1 holds point i, so reversing the columns mirrors a set.
    keep = ~(mapped & mapped[:, ::-1]).any(axis=1) & ~(present & present[:, ::-1]).any(axis=1)
    full = mapped.all(axis=1)
    keep[full] = (images[full, ::-1] == n + 1 - images[full]).all(axis=1)
    if family == "OR":
        half = np.count_nonzero(mapped, axis=1) == m
        dom_type = np.count_nonzero(mapped[:, m:], axis=1) % 2
        img_type = np.count_nonzero(present[:, m:], axis=1) % 2
        crossings = np.count_nonzero(images[:, :m] > m, axis=1)
        keep &= (~half | (dom_type == img_type)) & (~full | (crossings % 2 == 0))
    return keep


def _arrangements(sets):
    """Every arrangement of each row of ``sets``, a (count, k) matrix of
    k-sets, as one (count * k!, k) uint8 matrix in lexicographic order."""
    k = sets.shape[1]
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.intp).reshape(-1, k)
    rows = sets[:, perms].reshape(-1, k)
    return rows[np.lexsort(rows.T[::-1])].astype(np.uint8)


def _units(family, n):
    """The units of SR_n or OR_n in lexicographic order: the permutations
    that commute with the mirror map, sending 1..m to one point of each
    mirror pair, in any order and on either side, and the mirror points to
    the mirrors, σ(n+1-i) = n+1-σ(i).  OR keeps the even ones, which send
    evenly many of 1..m across the middle (``_member_mask``)."""
    m = n // 2
    pairs = np.array(list(itertools.permutations(range(1, m + 1))), dtype=np.uint8)
    sides = np.array(list(itertools.product((False, True), repeat=m)), dtype=bool)
    first = np.where(sides, n + 1 - pairs[:, None], pairs[:, None]).reshape(-1, m)
    units = np.concatenate([first, (n + 1 - first)[:, ::-1]], axis=1)
    if family == "OR":
        units = units[_member_mask(family, units)]
    return units[np.lexsort(units.T[::-1])]


def _stratum(family, n, k):
    """The rank-k members in canonical order, as rows of an image matrix:
    the domain sets in lexicographic order, each with the arrangements of
    its image sets in lexicographic order (``_arrangements``).  Every row
    is a member by construction; no candidate is filtered, except OR's odd
    units.  The domain and image sets are every k-set on R, the admissible
    k-sets on SR and OR, and at OR half rank a domain takes the image sets
    of its own parity type only.  SR and OR units come from ``_units``.
    The tests check every stratum against generating all arrangements and
    filtering them with ``_member_mask``."""
    if family != "R" and k == n:
        return _units(family, n)
    subsets = itertools.combinations(range(1, n + 1), k) if family == "R" else admissible_subsets(n, k)
    sets = np.array(list(subsets), dtype=np.intp).reshape(-1, k)
    if not len(sets):
        return np.zeros((0, n), dtype=np.uint8)
    # The parity type of a set counts its points above m; only OR's half
    # rank pairs domains and image sets by it.
    typed = family == "OR" and k == n // 2
    kinds = np.count_nonzero(sets > n // 2, axis=1) % 2 if typed else np.zeros(len(sets), np.intp)
    arrangements = [_arrangements(sets[kinds == kind]) for kind in range(kinds.max() + 1)]
    block = np.zeros((len(sets), len(arrangements[0]), n), dtype=np.uint8)
    for kind, arranged in enumerate(arrangements):
        doms = np.flatnonzero(kinds == kind)
        for t in range(k):
            block[doms, :, sets[doms, t] - 1] = arranged[:, t]
    return block.reshape(-1, n)


def predicted_size(family, n):
    """Closed-form universe size, summed over rank strata."""
    fam = _family(family)
    n = _check_degree(n)
    m = n // 2
    if fam == "R":
        return sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))
    adm = [math.comb(m, k) * 2**k for k in range(m + 1)]
    lower = sum(adm[k] ** 2 * math.factorial(k) for k in range(m))
    if fam == "SR":
        return lower + adm[m] ** 2 * math.factorial(m) + 2**m * math.factorial(m)
    per_type = (2 ** (m - 1)) ** 2 * math.factorial(m)
    return lower + 2 * per_type + 2 ** (m - 1) * math.factorial(m)


class MonoidUniverse(_ElementStore):
    """An enumerated finite monoid, stored as its (N, n) uint8 image matrix.

    Row i of ``image_matrix`` holds the images of element i, 0 marking an
    unmapped point; element 0 is the zero map and element 1 the identity.
    Per-element facts are arrays derived from it: ``ranks``, the bit masks
    ``dom_masks`` and ``img_masks``, the half-rank types ``mtypes`` ("I" or
    "II" at rank n/2 of OR, else "") and ``h_coords``, each ``h_coordinate``
    padded with zeros.  Lookups and products are the ``_ElementStore``'s;
    ``elements`` builds ``PartialInjection`` objects on first use.
    ``generators``, ``translations``, ``multiplication_table`` and
    ``j_order`` are computed on first use and cached, as is each
    split stratum the family builder reads (``_splits``, filled by
    ``green._h_split``).  The constructor checks the matrix; instances
    are immutable after it."""

    _identity = 1

    def __init__(self, family, n, image_matrix):
        n = _check_degree(n)
        self.family, self.n = _family(family), n
        images = self._image_rows(image_matrix, n)
        bad = (images < 0) | (images > n)
        if bad.any():
            raise ValueError(f"row {np.argwhere(bad)[0, 0]}: targets must lie in 0..{n}")
        images = images.astype(np.uint8)
        size, m = len(images), n // 2
        ones = np.array([x.bit_count() for x in range(1 << n)], dtype=np.int16)
        bits = np.int64(1) << np.arange(n + 1, dtype=np.int64)
        self.dom_masks = sum(np.where(images[:, t], bits[t], 0) for t in range(n))
        self.img_masks = sum(bits[images[:, t]] >> 1 for t in range(n))
        self.ranks = ones[self.dom_masks]
        repeated = np.flatnonzero(ones[self.img_masks] != self.ranks)
        if repeated.size:
            raise ValueError(f"row {repeated[0]}: a target is repeated; map is not injective")
        if size < 2 or images[0].any() or not np.array_equal(images[1], np.arange(1, n + 1)):
            raise InvariantViolation("zero and identity must sit at indices 0 and 1")
        codes = self._keep(images)
        if (codes[1:] == codes[:-1]).any():
            raise InvariantViolation("duplicate elements in universe")
        self.image_matrix = images
        # A letter's H-coordinate counts the image letters <= it.  The p-th mapped
        # slot writes it to column p; an unmapped one writes 0 where the next will.
        self.h_coords = np.zeros_like(images)
        pos = np.zeros(size, dtype=np.intp)
        for t in range(n):
            letter = images[:, t].astype(np.int64)
            self.h_coords[np.arange(size), pos] = ones[self.img_masks & ((1 << letter) - 1)]
            pos += letter > 0
        # An OR half-rank domain is of type II when oddly many points exceed m.
        typed = np.where(ones[self.dom_masks >> m] % 2, TYPE_II, TYPE_I)
        self.mtypes = np.where((self.ranks == m) & (self.family == "OR"), typed, "")
        self._table = None
        self._splits = {}

    @functools.cached_property
    def elements(self):
        """The elements as ``PartialInjection`` objects, built on first use."""
        return tuple(PartialInjection(self.n, row) for row in self.image_matrix.tolist())

    def __iter__(self):
        return iter(self.elements)

    def element_index(self, e):
        if isinstance(e, PartialInjection) and e.n == self.n:
            index, found = self._indices([e.images])
            if found[0]:
                return int(index[0])
        raise ValueError(f"{e!r} is not a member of {self.family}_{self.n}")

    def _check_index(self, i):
        if not _is_integer(i) or not 0 <= i < len(self):
            raise ValueError(f"element {i!r} is not an index in 0..{len(self) - 1}")

    def _rows(self, images, what):
        """Indices of the rows of an (M, n) image matrix, each a member; the
        first row that is not raises ``InvariantViolation``, as ``what`` of
        the element with that row's index."""
        index, found = self._indices(images)
        if not found.all():
            raise InvariantViolation(
                f"{what} of element {np.argmin(found)} is not a member of {self.family}_{self.n}"
            )
        return index

    def _escaped(self, i, j):
        return InvariantViolation(f"product of members {i}, {j} escaped {self.family}_{self.n}")

    def product(self, i, j):
        self._check_index(i)
        self._check_index(j)
        return int(self._products([i], [j])[0, 0])

    def multiplication_table(self, *, limit=DEFAULT_TABLE_LIMIT):
        """Full N x N product table, ``table[i, j]`` the index of e_i * e_j; cached.

        Gated by ``limit`` because it is quadratic.  Built from the Cayley
        graph of the generators (Froidure & Pin, 1997): a breadth-first walk
        over x -> g·x from the identity, element 1, finds each element i of
        a level as g·e_p, p on the level before, so row i is the left
        translation row of g gathered at row p: table[i] = left[g][table[p]].
        Each level's rows are filled as it is found, in blocks of about
        ``TABLE_BLOCK_BYTES`` of temporaries.  No product is looked up:
        ``translations`` and ``generators`` have checked every generator
        translate of every element, and an element the walk does not reach
        raises ``InvariantViolation``.  int16 below 32,768 elements, else
        int32.
        """
        if self._table is None:
            size = len(self)
            if limit is not None and size > limit:
                raise ResourceLimitError(
                    f"product table for {size} elements exceeds the limit {limit}"
                )
            dtype = np.int16 if size < 2**15 else np.int32
            left = self.translations()[:len(self.generators())].astype(dtype)
            flat = left.ravel()
            table = np.empty((size, size), dtype=dtype)
            table[1] = np.arange(size)
            # Per product: the parent's entry, its 8-byte index and the result.
            rows = max(1, TABLE_BLOCK_BYTES // (size * (2 * dtype().itemsize + 8)))
            reached = np.arange(size) == 1
            frontier = np.array([1], dtype=np.intp)
            while frontier.size:
                # A child's first occurrence in the level names its generator and parent.
                children, first = np.unique(left[:, frontier], return_index=True)
                new = ~reached[children]
                children, first = children[new].astype(np.intp), first[new]
                reached[children] = True
                gens, parents = np.divmod(first, frontier.size)
                for start in range(0, len(children), rows):
                    block = slice(start, start + rows)
                    index = table[frontier[parents[block]]].astype(np.intp)
                    index += gens[block, None] * size
                    table[children[block]] = flat.take(index)
                frontier = children
            if not reached.all():
                raise InvariantViolation(
                    f"element {np.argmin(reached)} of {self.family}_{self.n} is not"
                    " reached from the identity by the generators"
                )
            self._table = table
        return self._table

    def units(self):
        return np.flatnonzero(self.ranks == self.n).tolist()

    @functools.cached_property
    def j_order(self):
        """The J-classes and their order, as read-only ``(j_ids, below)``.

        ``j_ids`` gives each element's J-class, its rank plus, at OR half
        rank, its type, numbered by first member.  ``below[a, b]`` when
        class a lies in the ideal of class b: every class of lower rank,
        and b itself, since only OR has two classes of one rank, the
        half-rank types, and neither holds the other.  This rule is the
        J-order of the whole family (``_whole_family``), not of a submonoid,
        so on any other universe this raises ``ValueError``."""
        if not self._whole_family:
            raise ValueError(
                f"the J-order is read off the rank rule of the whole {self.family}_{self.n},"
                " and this universe is not all of it"
            )
        j_ids = _canonical_ids(self.ranks * 2 + (self.mtypes == TYPE_II))
        ranks = self.ranks[np.unique(j_ids, return_index=True)[1]]
        below = (ranks[:, None] < ranks) | np.eye(len(ranks), dtype=bool)
        j_ids.setflags(write=False)
        below.setflags(write=False)
        return j_ids, below

    @functools.cached_property
    def _whole_family(self):
        """True when the elements are every member of the family;
        ``enumerate_universe`` records it without this check."""
        return (len(self) == predicted_size(self.family, self.n)
                and bool(_member_mask(self.family, self.image_matrix).all()))

    def idempotent_index(self, points):
        return self.element_index(idempotent_of(self.n, points))

    def rank_histogram(self):
        return {int(k): int((self.ranks == k).sum()) for k in sorted(set(self.ranks.tolist()))}


def enumerate_universe(family, n, *, limit=None):
    """Build a full monoid universe in canonical order: the zero map, the
    identity, then the rank strata of ``_stratum``, whose rows are members
    by construction.  The budget is checked before any stratum is built,
    the count against the closed-form size after, and closure under
    products by the first ``translations`` call (which
    ``multiplication_table`` makes).  Members only, as many as the family
    has: so the universe records that it is the whole family."""
    fam = _family(family)
    n = _check_degree(n)
    size = predicted_size(fam, n)
    lim = element_limit(limit)
    if size > lim:
        raise ResourceLimitError(
            f"{fam}_{n} has {size} elements, over the budget {lim}"
            f" (override with {ELEMENT_LIMIT_ENV} or limit=)"
        )
    *strata, units = (_stratum(fam, n, k) for k in range(1, n + 1))
    # The identity is the first unit: its images are the least tuple.
    images = np.concatenate([np.zeros((1, n), dtype=np.uint8), units[:1], *strata, units[1:]])
    if len(images) != size:
        raise InvariantViolation(
            f"enumerated {len(images)} elements of {fam}_{n}, expected {size}"
        )
    universe = MonoidUniverse(fam, n, images)
    universe._whole_family = True
    return universe


# -- serialization -----------------------------------------------------------

def element_to_json(f):
    return {"n": f.n, "map": [[s, t] for s, t in f.pairs()]}


def element_from_json(obj):
    return PartialInjection.from_pairs(obj["n"], obj["map"])


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
        "elements": [[[i + 1, t] for i, t in enumerate(row) if t]
                     for row in universe.image_matrix.tolist()],
    }

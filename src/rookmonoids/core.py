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

A universe (``MonoidUniverse``) is stored once, as an (N, n) image matrix
that ``enumerate_universe`` builds in numpy, one rank stratum at a time.
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


def element_limit(override=None):
    """Active element budget: explicit override, else env var, else default.
    Either must be a non-negative integer; a bool or a float is not one."""
    if override is not None:
        if isinstance(override, bool) or not isinstance(override, (int, np.integer)) or override < 0:
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


def _generator_rows(products, scan, identity):
    """Generators picked greedily from the element indices ``scan``, and
    their 2k x N rows x -> g·x, then x -> x·g, as read-only intp indices.
    ``products(left, right)`` is the (len(left), len(right)) block of
    product indices, each looked up and checked to be a member.

    Each element not yet in the submonoid generated so far is kept, and
    gets its row x -> x·g; the submonoid grows from ``identity`` along these
    rows, with no product table.  So every element is a product of
    generators, and every generator translate of every element is a member:
    the set is the submonoid they generate, hence closed under products.
    """
    everything = np.arange(len(scan))
    reached = everything == identity
    gens, right = [], []
    for x in scan:
        if reached[x]:
            continue
        gens.append(x)
        right.append(products(everything, everything[x:x + 1]).ravel())
        rows, frontier = np.array(right), np.flatnonzero(reached)
        while frontier.size:
            new = np.zeros_like(reached)
            new[rows[:, frontier]] = True
            frontier = np.flatnonzero(new & ~reached)
            reached[frontier] = True
    left = products(np.array(gens, dtype=np.intp), everything)
    moves = np.concatenate([left, np.reshape(right, left.shape)]).astype(np.intp)
    moves.setflags(write=False)
    return gens, moves


def _cayley_tree(left):
    """Breadth-first tree over x -> g·x from the identity, element 1, given
    the generators' left translation rows ``left``: per level, the new
    elements, the generator g and the parent p of each, e = g·e_p; and the
    mask of elements reached."""
    edges = []
    reached = np.zeros(left.shape[1], dtype=bool)
    reached[1] = True
    frontier = np.array([1], dtype=np.intp)
    while frontier.size:
        # A child's first occurrence in the level names its edge.
        children, first = np.unique(left[:, frontier], return_index=True)
        new = ~reached[children]
        children, first = children[new].astype(np.intp), first[new]
        reached[children] = True
        gens, slots = np.divmod(first, frontier.size)
        edges.append((children, gens, frontier[slots]))
        frontier = children
    return edges, reached


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


def _stratum(family, n, k):
    """The rank-k members in canonical order, as rows of an image matrix:
    the domain sets (admissible unless the family is R) in lexicographic
    order, each with every arrangement of k images in lexicographic order,
    filtered by one membership mask."""
    sets = list(itertools.combinations(range(1, n + 1), k) if family == "R"
                else admissible_subsets(n, k))
    if not sets:
        return np.zeros((0, n), dtype=np.uint8)
    sets = np.array(sets, dtype=np.intp)
    arranged = np.array(list(itertools.permutations(range(1, n + 1), k)), dtype=np.uint8)
    block = np.zeros((len(sets), len(arranged), n), dtype=np.uint8)
    for t in range(k):
        block[np.arange(len(sets)), :, sets[:, t] - 1] = arranged[:, t]
    block = block.reshape(-1, n)
    return block[_member_mask(family, block)]


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
    """An enumerated finite monoid, stored as its (N, n) uint8 image matrix.

    Row i of ``image_matrix`` holds the images of element i, 0 marking an
    unmapped point; element 0 is the zero map and element 1 the identity.
    Per-element facts are arrays derived from it: ``ranks``, the bit masks
    ``dom_masks`` and ``img_masks``, the half-rank types ``mtypes`` ("I" or
    "II" at rank n/2 of OR, else "") and ``h_coords``, each ``h_coordinate``
    padded with zeros.  Lookups use ``searchsorted`` in the sorted image
    codes; ``elements`` builds ``PartialInjection`` objects on first use.
    ``generators``, ``translations``, ``multiplication_table`` and
    ``unit_group`` are computed on first use and cached.
    The constructor checks the matrix; instances are immutable after it."""

    def __init__(self, family, n, image_matrix):
        self.family, self.n = _family(family), _check_degree(n)
        images = np.asarray(image_matrix)
        if images.ndim != 2 or images.shape[1] != n or images.dtype.kind not in "iu":
            raise ValueError(f"need an (N, {n}) integer matrix, got {images.dtype} {images.shape}")
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
        codes = image_codes(images)
        self._order = np.argsort(codes, kind="stable")
        self._sorted_codes = codes[self._order]
        if (self._sorted_codes[1:] == self._sorted_codes[:-1]).any():
            raise InvariantViolation("duplicate elements in universe")
        images.setflags(write=False)
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
        self._generators = None
        self._translations = None
        self._units = np.flatnonzero(self.ranks == n).tolist()

    @functools.cached_property
    def elements(self):
        """The elements as ``PartialInjection`` objects, built on first use."""
        return tuple(PartialInjection(self.n, row) for row in self.image_matrix.tolist())

    def __len__(self):
        return len(self.image_matrix)

    def __iter__(self):
        return iter(self.elements)

    def element_index(self, e):
        if isinstance(e, PartialInjection) and e.n == self.n:
            pos, found = _locate(self._sorted_codes, image_codes([e.images]))
            if found[0]:
                return int(self._order[pos[0]])
        raise ValueError(f"{e!r} is not a member of {self.family}_{self.n}")

    def _check_index(self, i):
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < len(self):
            raise ValueError(f"element {i!r} is not an index in 0..{len(self) - 1}")

    def _rows(self, images, what):
        """Indices of the rows of an (M, n) image matrix, each a member; the
        first row that is not raises ``InvariantViolation``, as ``what`` of
        the element with that row's index."""
        pos, found = _locate(self._sorted_codes, image_codes(images))
        if not found.all():
            raise InvariantViolation(
                f"{what} of element {np.argmin(found)} is not a member of {self.family}_{self.n}"
            )
        return self._order[pos]

    def _products(self, left, right):
        """Indices of the products e_i·e_j, i in ``left`` and j in ``right``,
        as one (len(left), len(right)) block: the image codes of the products
        (``_product_codes``) looked up in the sorted codes.  A code not found
        raises ``InvariantViolation`` naming the pair."""
        left = np.asarray(left, dtype=np.intp)
        right = np.asarray(right, dtype=np.intp)
        codes = _product_codes(self.image_matrix[left], self.image_matrix[right].T.astype(np.intp))
        pos, found = _locate(self._sorted_codes, codes)
        if not found.all():
            i, j = np.unravel_index(np.argmin(found), found.shape)
            raise InvariantViolation(
                f"product of members {left[i]}, {right[j]} escaped {self.family}_{self.n}"
            )
        return self._order[pos]

    def product(self, i, j):
        self._check_index(i)
        self._check_index(j)
        return int(self._products([i], [j])[0, 0])

    def multiplication_table(self, *, limit=DEFAULT_TABLE_LIMIT):
        """Full N x N product table, ``table[i, j]`` the index of e_i * e_j; cached.

        Gated by ``limit`` because it is quadratic.  Built from the Cayley
        graph of the generators (Froidure & Pin, 1997): a breadth-first tree
        over x -> g·x from the identity gives each element i a parent p and
        a generator g with e_i = g·e_p, so row i is the left translation row
        of g gathered at row p, ``table[i] = left[g][table[p]]``.  Rows are
        filled level by level, in blocks of about ``TABLE_BLOCK_BYTES`` of
        temporaries.  No product is looked up here: ``translations`` and
        ``generators`` have checked every generator translate of every
        element, and an element the tree does not reach raises
        ``InvariantViolation``.  int16 below 32,768 elements, else int32.
        """
        if self._table is None:
            size = len(self)
            if limit is not None and size > limit:
                raise ResourceLimitError(
                    f"product table for {size} elements exceeds the limit {limit}"
                )
            dtype = np.int16 if size < 2**15 else np.int32
            left = self.translations()[:len(self.generators())].astype(dtype)
            edges, reached = _cayley_tree(left)
            if not reached.all():
                raise InvariantViolation(
                    f"element {np.argmin(reached)} of {self.family}_{self.n} is not"
                    " reached from the identity by the generators"
                )
            left = left.ravel()
            table = np.empty((size, size), dtype=dtype)
            table[1] = np.arange(size)
            # Per product: the parent's entry, its 8-byte index and the result.
            rows = max(1, TABLE_BLOCK_BYTES // (size * (2 * dtype().itemsize + 8)))
            for children, gens, parents in edges:
                for start in range(0, len(children), rows):
                    block = slice(start, start + rows)
                    index = table[parents[block]].astype(np.intp)
                    index += gens[block, None] * size
                    table[children[block]] = left.take(index)
            self._table = table
        return self._table

    def generators(self):
        """A generating set of the monoid as element indices, found by
        ``_generator_rows`` scanning the elements by descending rank, ties
        by index; cached with the translation rows."""
        if self._generators is None:
            scan = np.argsort(-self.ranks, kind="stable").tolist()
            self._generators, self._translations = _generator_rows(self._products, scan, 1)
        return list(self._generators)

    def translations(self):
        """The 2k x N rows x -> g·x, then x -> x·g, for the k generators
        (``_generator_rows``); cached.  Closures, congruence checks and ideal
        checks read these rows, not the table."""
        self.generators()
        return self._translations

    def units(self):
        return list(self._units)

    @functools.cached_property
    def unit_group(self):
        """The units' images as a ``PermGroup``, built on first use."""
        from .congruences import PermGroup  # congruences imports this module

        return PermGroup(self.n, self.image_matrix[self._units])

    def idempotent_index(self, points):
        return self.element_index(idempotent_of(self.n, points))

    def rank_histogram(self):
        return {int(k): int((self.ranks == k).sum()) for k in sorted(set(self.ranks.tolist()))}


def enumerate_universe(family, n, *, limit=None):
    """Build a full monoid universe in canonical order: the zero map, the
    identity, then the rank strata of ``_stratum``, each one numpy block
    filtered by a vectorized membership mask.  So enumeration alone checks
    membership; the count is checked against the closed-form size, and
    closure under products by the first ``translations`` call (which
    ``multiplication_table`` makes)."""
    fam = _family(family)
    _check_degree(n)
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
    return MonoidUniverse(fam, n, images)


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

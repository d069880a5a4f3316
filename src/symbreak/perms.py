"""Permutations on 0..n-1, and permutation groups held as image tuples or
as a stabilizer chain whose products are formed only when read. A group's
maps_to table is folded from its chain, or else built from its image tuples
by its definition."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import prod
from operator import itemgetter
from types import MappingProxyType

from .errors import DegreeError


@dataclass(frozen=True)
class Perm:
    """A bijection on 0..n-1 in array form: images[v] is the image of v."""

    images: tuple[int, ...]

    def __post_init__(self):
        check_bijection(self.images)

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(tuple(range(n)))

    @property
    def degree(self) -> int:
        return len(self.images)

    @property
    def is_identity(self) -> bool:
        return all(img == v for v, img in enumerate(self.images))


def apply_mask(images: tuple[int, ...], mask: int) -> int:
    """Image of the vertex bitmask mask under the permutation images."""
    img = 0
    while mask:
        low = mask & -mask
        img |= 1 << images[low.bit_length() - 1]
        mask ^= low
    return img


def check_bijection(images: tuple[int, ...]) -> None:
    """ValueError unless images is a bijection on 0..len(images)-1."""
    n = len(images)
    if sorted(images) != list(range(n)):
        raise ValueError(f"not a bijection on 0..{n - 1}: {images}")


def _cycle_lengths(images: tuple[int, ...]) -> tuple[int, ...]:
    """Per vertex, the length of the cycle of images through it."""
    lengths = [0] * len(images)
    for start, v in enumerate(images):
        if lengths[start]:
            continue
        k = 1
        while v != start:
            v = images[v]
            k += 1
        lengths[start] = k
        v = images[start]
        while v != start:
            lengths[v] = k
            v = images[v]
    return tuple(lengths)


def _type_of(lengths: tuple[int, ...]) -> tuple[int, ...]:
    """The cycle type, sorted descending, of a permutation whose cycle
    lengths per vertex are lengths: a cycle of length k is k entries k."""
    ordered = sorted(lengths, reverse=True)
    cycle_lengths, i, n = [], 0, len(ordered)
    while i < n:
        cycle_lengths.append(ordered[i])
        i += ordered[i]
    return tuple(cycle_lengths)


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Multiset of cycle lengths, sorted descending; lengths sum to the degree."""
    return _type_of(_cycle_lengths(p.images))


def _folded(n: int, levels) -> tuple[tuple[int, ...], ...]:
    """maps_to of the group whose images are the products of levels, in the
    order PermGroup.images forms them: H, the stabilizer so far, then
    for the j-th representative t (j >= 1) of the next level the block t
    after H at offset j|H|. t after h sends u to t[y] where h sends u to y, so each
    level ORs row_u[y] << j|H| into row_u[t[y]], over the y h can send u to:
    the orbit of u under H, kept as a list so that no empty entry is read.
    H's row and orbit are copied first, since the ORs write into both."""
    rows = [[0] * n for _ in range(n)]
    orbits = []
    for u, row in enumerate(rows):
        row[u] = 1
        orbits.append([u])
    size = 1
    for reps in reversed(levels):
        if reps:
            for row, orbit in zip(rows, orbits):
                below = row[:]
                for y in orbit[:]:
                    bits, shift = below[y], size
                    for t in reps:
                        x = t[y]
                        if not row[x]:
                            orbit.append(x)
                        row[x] |= bits << shift
                        shift += size
            size *= len(reps) + 1
    return tuple(map(tuple, rows))


class PermGroup:
    """A permutation group on 0..degree-1, held in one of two ways:
    - as images, its elements' image tuples. PermGroup(degree, images) keeps
      them as given; from_images and from_elements sort them and drop
      duplicates, which puts the identity first. levels is None.
    - as levels, a stabilizer chain (from_levels, which automorphism_group
      uses): per base point, first base point first, the coset
      representatives besides the identity. The elements are every product
      of one representative or the identity per level. order, is_trivial,
      maps_to and identity_bits are read from the levels, and images forms
      the products only when first read, the identity first. The search's
      levels, on the base 0..degree-1 with the least element of each coset,
      depend only on the group: autgroup.group_key, the key by which the
      scan and equivalence_classes share results, is read from them.
    Construction does not verify closure, that each tuple is a bijection
    or that levels form a group; the cheap degree check runs on given
    images. Two groups are equal when they have the same degree and the
    same elements, however each is held and in whatever order; the hash is
    that of the element set. The views are built once, on first use, and
    cached on the group:
    - elements holds the same elements as Perm objects, and is built only
      for callers that ask for it; image_set holds the image tuples.
    - maps_to, identity_bits and chain_generators, which the searches on the
      group read. maps_to needs degree <= 256. It is folded from the levels
      (_folded) when the group has them, else built from the images by its
      definition, one column of marks per (vertex, image); both give the
      same table for the same images.
    - cycle_types, vertex_signatures, cycle_index, signature_index and
      type_bits, all from one cycle-length pass over the elements
      (_cycle_views). They take any degree. A vertex signature is computed
      once per orbit and shared along it, which holds only for a group:
      for a set of image tuples that is not closed, vertex_signatures (and
      signature_index) may differ from the per-element count.
    elements and cycle_types are aligned with images, and bit i of a
    maps_to, identity_bits or type_bits bitset stands for images[i], also
    before images is formed. The group is not itself a container: callers
    iterate over images and test membership of an image tuple in image_set.
    """

    def __init__(self, degree: int, images: tuple[tuple[int, ...], ...]):
        wrong = set(map(len, images)) - {degree}
        if wrong:
            raise DegreeError(f"element of degree {min(wrong)} in group of degree {degree}")
        self.degree = degree
        self.images = images  # shadows the cached property, which forms products
        self.levels: list[list[tuple[int, ...]]] | None = None

    @classmethod
    def from_levels(cls, degree: int, levels: list[list[tuple[int, ...]]]) -> "PermGroup":
        """The group whose elements are the products of levels."""
        group = cls.__new__(cls)
        group.degree, group.levels = degree, levels
        return group

    @classmethod
    def from_images(cls, degree: int, images) -> "PermGroup":
        """The group of the given image tuples, duplicates dropped, the
        identity added, sorted."""
        uniq = dict.fromkeys(images)
        uniq[tuple(range(degree))] = None
        return cls(degree, tuple(sorted(uniq)))

    @classmethod
    def from_elements(cls, degree: int, elements) -> "PermGroup":
        return cls.from_images(degree, (p.images for p in elements))

    def __eq__(self, other):
        if not isinstance(other, PermGroup):
            return NotImplemented
        return self.degree == other.degree and self.image_set == other.image_set

    def __hash__(self):
        return hash(self.image_set)

    def __repr__(self):
        """A group held as levels is shown by them, so that no product is
        formed; either form evaluates to an equal group."""
        if self.levels is not None:
            return f"PermGroup.from_levels({self.degree}, {self.levels!r})"
        return f"PermGroup(degree={self.degree}, images={self.images!r})"

    @cached_property
    def images(self) -> tuple[tuple[int, ...], ...]:
        """A group held as levels: its products, formed from the bottom level
        up. The stabilizer H built so far comes first, then for the j-th
        representative t (j >= 1) of the next level the block t after H, in
        H's order, at offset j|H|."""
        elements = [tuple(range(self.degree))]
        getters = []  # itemgetter(*h)(t) is t after h, a tuple as reps need degree >= 2
        for reps in reversed(self.levels):
            if reps:
                getters += [itemgetter(*h) for h in elements[len(getters) :]]
                elements += [get(t) for t in reps for get in getters]
        return tuple(elements)

    @cached_property
    def order(self) -> int:
        """The number of elements; for a group held as levels, the product
        of the level sizes, known before any element is formed."""
        if self.levels is None:
            return len(self.images)
        return prod(len(reps) + 1 for reps in self.levels)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    @cached_property
    def elements(self) -> tuple[Perm, ...]:
        return tuple(map(Perm, self.images))

    @cached_property
    def image_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.images)

    @cached_property
    def maps_to(self) -> tuple[tuple[int, ...], ...]:
        """maps_to[u][x] is the bitset of the elements sending u to x, so
        each row partitions the elements by the image of one vertex.

        A group held as levels has its table folded from them (_folded):
        one shifted OR per coset block and orbit point, and no image is
        formed. Without levels it is built by its definition: per vertex u,
        the column of u's images, last element first, is translated to "1"
        where the image is x and "0" elsewhere, which spelled in binary has
        bit i for images[i]. An image is spelled as one byte: DegreeError
        above degree 256.
        """
        n = self.degree
        if n > 256:
            raise DegreeError(f"maps_to supports degree <= 256, got {n}")
        if self.levels is not None:
            return _folded(n, self.levels)
        images = self.images
        if not images:  # no element sends anything anywhere, and int("", 2) raises
            return ((0,) * n,) * n
        marks = [b"0" * x + b"1" + b"0" * (255 - x) for x in range(n)]
        columns = (bytes(map(itemgetter(u), reversed(images))) for u in range(n))
        return tuple(tuple(int(col.translate(m), 2) for m in marks) for col in columns)

    @cached_property
    def identity_bits(self) -> int:
        """The bitset of the elements that fix every vertex: for a group
        held as levels, bit 0, its first product."""
        if self.levels is not None:
            return 1
        bits = (1 << len(self.images)) - 1
        for u, row in enumerate(self.maps_to):
            bits &= row[u]
        return bits

    @cached_property
    def chain_generators(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """For each i and each x != i that an element fixing 0..i-1 sends i
        to, the lexicographically least such element, as its index in images
        and its inverse's image tuple: transversal representatives of the
        point-stabilizer chain, which generate the group (Sims). Read from
        maps_to, whatever the order of images: the elements of such a coset
        agree on 0..i, and the least of them takes the least image of i+1
        that any of them takes, then of i+2, and so on."""
        rows = self.maps_to
        stab = (1 << self.order) - 1
        gens = []
        for i, row in enumerate(rows):
            for x, least in enumerate(row):
                least &= stab
                if x == i or not least:
                    continue
                for later in rows[i + 1 :]:
                    if not least & (least - 1):
                        break
                    least &= next(bits for bits in later if bits & least)
                gens.append((least & -least).bit_length() - 1)
            stab &= row[i]
        return tuple(
            (j, tuple(sorted(range(self.degree), key=self.images[j].__getitem__)))
            for j in gens
        )

    @property
    def cycle_types(self) -> tuple[tuple[int, ...], ...]:
        return self._cycle_views[0]

    @property
    def vertex_signatures(self) -> tuple[tuple, ...]:
        """Per vertex, the multiset over elements of (cycle type, length of
        the cycle through the vertex), held counted: its sorted ((cycle type,
        cycle length), multiplicity) pairs. Conjugation preserves it."""
        return self._cycle_views[1]

    @property
    def cycle_index(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The multiset of cycle_types as sorted (cycle type, multiplicity)
        pairs: two groups have equal cycle-type multisets exactly when their
        cycle indexes are equal."""
        return self._cycle_views[2]

    @property
    def signature_index(self) -> tuple[tuple[tuple, int], ...]:
        """The multiset of vertex_signatures as sorted (signature, number of
        vertices) pairs."""
        return self._cycle_views[3]

    @property
    def type_bits(self) -> MappingProxyType[tuple[int, ...], int]:
        """Per cycle type, the bitset of the elements of that type."""
        return self._cycle_views[4]

    @cached_property
    def _cycle_views(self):
        """The cycle views from one _cycle_lengths pass over the elements.
        The cycle type is derived once per distinct tuple of lengths, and
        equal types share one tuple, which keeps Aut(K9)'s list small. A
        signature is counted once per orbit, read from the images: vertices
        in one orbit of a group have equal signatures, since conjugating by
        an element that sends u to v maps the one multiset onto the other.
        That assumes closure, which construction does not check. Each type's
        bitset is parsed once from a string of marks, so that building them
        all is linear in the order."""
        images, n = self.images, self.degree
        lengths = list(map(_cycle_lengths, images))
        type_of, shared = {}, {}
        for lt in dict.fromkeys(lengths):
            ct = _type_of(lt)
            type_of[lt] = shared.setdefault(ct, ct)
        cycle_types = tuple(map(type_of.__getitem__, lengths))
        signatures: list = [None] * n
        for v in range(n):
            if signatures[v] is None:
                counted = Counter(zip(cycle_types, map(itemgetter(v), lengths)))
                sig = tuple(sorted(counted.items()))
                for u in set(map(itemgetter(v), images)):
                    signatures[u] = sig
        # per type, its elements marked "1" in a string spelling its bitset
        marks = {ct: bytearray(b"0") * len(images) for ct in shared}
        for i, ct in enumerate(reversed(cycle_types)):
            marks[ct][i] = 49
        type_bits = {ct: int(m, 2) for ct, m in marks.items()}
        cycle_index = tuple(sorted((ct, b.bit_count()) for ct, b in type_bits.items()))
        signature_index = tuple(sorted(Counter(signatures).items()))
        views = cycle_types, tuple(signatures), cycle_index, signature_index
        return *views, MappingProxyType(type_bits)

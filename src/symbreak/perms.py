"""Permutations on 0..n-1 and explicit permutation groups held as image
tuples."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter
from types import MappingProxyType

from .errors import DegreeError

# A part of maps_to's split with at most this many elements is placed element
# by element: that keeps a small group's table as cheap as one pass over its
# elements, and 4 to 32 measured the same on the benchmark's groups.
_PLACED_PART = 8
# _BIT_PLANES[j] translates a byte to "1" if its bit j is set, else to "0"
_BIT_PLANES = [bytes(48 + (b >> j & 1) for b in range(256)) for j in range(8)]


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
    order automorphism_elements forms them: H, the stabilizer so far, then
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


@dataclass(frozen=True)
class PermGroup:
    """A permutation group whose data is images, its elements' image tuples.

    from_images keeps them sorted and duplicate-free, which puts the
    identity first. Construction does not verify closure, that each tuple
    is a bijection or that levels forms images; the cheap degree check
    always runs. The views are built once, on first use, and cached on the
    group:
    - elements holds the same elements as Perm objects, and is built only
      for callers that ask for it; image_set holds the image tuples.
    - maps_to, identity_bits and chain_generators, which the searches on the
      group read. maps_to needs degree <= 256, and the other two read it.
      It has two builders. A group that automorphism_group built in the
      order it formed the products keeps levels, the coset representatives
      of its stabilizer chain per base point, first base point first, and
      maps_to is folded from them (_folded) without reading the images.
      Every other group (from_images, from_elements, a hand-built one, or
      a searched group whose sorted images moved) has levels None, and
      maps_to is split from the images by a few bit planes per vertex.
      levels takes no part in equality, hashing or repr.
    - cycle_types, vertex_signatures, cycle_index, signature_index and
      type_bits, all from one cycle-length pass over the elements
      (_cycle_views). They take any degree. A vertex signature is computed
      once per orbit and shared along it, which holds only for a group:
      for a set of image tuples that is not closed, vertex_signatures (and
      signature_index) may differ from the per-element count.
    elements and cycle_types are aligned with images, and bit i of a
    maps_to, identity_bits or type_bits bitset stands for images[i]. The
    group is not itself a container: callers iterate over images and test
    membership of an image tuple in image_set.
    """

    degree: int
    images: tuple[tuple[int, ...], ...]
    levels: list[list[tuple[int, ...]]] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        wrong = set(map(len, self.images)) - {self.degree}
        if wrong:
            raise DegreeError(
                f"element of degree {min(wrong)} in group of degree {self.degree}"
            )

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

    @property
    def order(self) -> int:
        return len(self.images)

    @property
    def is_trivial(self) -> bool:
        return len(self.images) == 1

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

        A group with levels has its table folded from them (_folded): one
        shifted OR per coset block and orbit point, no pass over the images.
        Without levels it is built by splitting, not by testing each (u, x),
        and both builders give the same table. The images are
        flattened into one bytes object, last element first, so that a
        column slice [u::n] spelled in binary has bit i for images[i]; plane
        j is that object translated to "1" where bit j of the image is set
        and "0" elsewhere. Each vertex's elements are split by the planes,
        most significant bit first, into parts of equal image: the leaves,
        in ascending order of x, are the row. That parses ceil(log2 n)
        columns per vertex instead of one per (u, x), and only while some
        part of the vertex is still split. A part of at most _PLACED_PART
        elements is placed element by element, at images[i][u] for each
        element i, so a small group parses nothing. An image is spelled as
        one byte: DegreeError above degree 256.
        """
        n, images = self.degree, self.images
        if n > 256:
            raise DegreeError(f"maps_to supports degree <= 256, got {n}")
        if self.levels is not None:
            return _folded(n, self.levels)
        rows = [[0] * n for _ in range(n)]
        pending = []  # (u, the image's bits above the next plane, elements)

        def keep(u, high, part, planes_left):
            if part.bit_count() <= _PLACED_PART:
                while part:  # element i goes to images[i][u]
                    low = part & -part
                    rows[u][images[low.bit_length() - 1][u]] |= low
                    part ^= low
            elif planes_left:
                pending.append((u, high, part))
            else:
                rows[u][high] = part

        depth, every = (n - 1).bit_length(), (1 << len(images)) - 1
        for u in range(n):
            keep(u, 0, every, depth)
        flat = bytes(chain.from_iterable(reversed(images))) if pending else b""
        for j in reversed(range(depth)):
            if not pending:
                break
            plane = flat.translate(_BIT_PLANES[j])
            todo, pending = pending, []
            parsed = -1  # the vertex whose column col is
            for u, high, part in todo:
                if u != parsed:
                    col, parsed = int(plane[u::n], 2), u
                one = part & col
                keep(u, high << 1, part ^ one, j)
                keep(u, high << 1 | 1, one, j)
        return tuple(map(tuple, rows))

    @cached_property
    def identity_bits(self) -> int:
        """The bitset of the elements that fix every vertex."""
        bits = (1 << len(self.images)) - 1
        for u, row in enumerate(self.maps_to):
            bits &= row[u]
        return bits

    @cached_property
    def chain_generators(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """For each i and each x != i that an element fixing 0..i-1 sends i
        to, the first such element, as its index in images and its inverse's
        image tuple: transversal representatives of the point-stabilizer
        chain, which generate the group (Sims). Read from maps_to."""
        stab = (1 << len(self.images)) - 1
        gens = []
        for i, row in enumerate(self.maps_to):
            for x, bits in enumerate(row):
                hit = stab & bits
                if x != i and hit:
                    gens.append((hit & -hit).bit_length() - 1)
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

"""Permutations on 0..n-1 and explicit permutation groups held as image
tuples."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

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


def _cycle_structure(images: tuple[int, ...]):
    """The cycle type of images and, per vertex, the length of its cycle."""
    lengths = [0] * len(images)
    cycle_lengths = []
    for start in range(len(images)):
        if lengths[start]:
            continue
        cyc = [start]
        v = images[start]
        while v != start:
            cyc.append(v)
            v = images[v]
        cycle_lengths.append(len(cyc))
        for v in cyc:
            lengths[v] = len(cyc)
    return tuple(sorted(cycle_lengths, reverse=True)), tuple(lengths)


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Multiset of cycle lengths, sorted descending; lengths sum to the degree."""
    return _cycle_structure(p.images)[0]


@dataclass(frozen=True)
class PermGroup:
    """A permutation group whose data is images, its elements' image tuples.

    from_images keeps them sorted and duplicate-free, which puts the
    identity first. Construction does not verify closure or that each tuple
    is a bijection; the cheap degree check always runs. The
    views (elements, image_set, maps_to, identity_bits, cycle_types,
    vertex_signatures) are built once, on first use; elements holds the
    same elements as Perm objects, and is built only for callers that ask
    for it. elements and cycle_types are aligned with images, and bit i of
    a maps_to or identity_bits bitset stands for images[i]. maps_to, which
    identity_bits and the searches on the group read, is split from the
    images by a few bit planes per vertex and needs degree <= 256; the
    other views take any degree. The group is
    not itself a container: callers iterate over images and test membership
    of an image tuple in image_set.
    """

    degree: int
    images: tuple[tuple[int, ...], ...]

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

        Built by splitting, not by testing each (u, x). The images are
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

    @property
    def cycle_types(self) -> tuple[tuple[int, ...], ...]:
        return self._cycle_views[0]

    @property
    def vertex_signatures(self) -> tuple[tuple, ...]:
        """Per vertex, the multiset over elements of (cycle type, length of
        the cycle through the vertex), held counted: its sorted ((cycle type,
        cycle length), multiplicity) pairs. Conjugation preserves it."""
        return self._cycle_views[1]

    @cached_property
    def _cycle_views(self):
        """cycle_types and vertex_signatures from one cycle decomposition
        per element; elements with the same (cycle type, cycle length per
        vertex) are counted once per vertex, with their multiplicity, so a
        signature holds a few pairs instead of one entry per element. Equal
        cycle types share one tuple, which keeps Aut(K9)'s list small."""
        types: dict[tuple, tuple] = {}
        cycle_types = []
        structures: Counter = Counter()
        for t in self.images:
            ct, lengths = _cycle_structure(t)
            ct = types.setdefault(ct, ct)
            cycle_types.append(ct)
            structures[ct, lengths] += 1
        per_vertex = [Counter() for _ in range(self.degree)]
        for (ct, lengths), count in structures.items():
            for v, k in enumerate(lengths):
                per_vertex[v][ct, k] += count
        signatures = tuple(tuple(sorted(sig.items())) for sig in per_vertex)
        return tuple(cycle_types), signatures

"""Permutations on 0..n-1, and permutation groups held as a stabilizer
chain whose products are formed only when read. A group's maps_to table is
folded from its chain."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import prod
from operator import itemgetter

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


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Multiset of cycle lengths, sorted descending; lengths sum to the
    degree. Each cycle is walked once, from its least point."""
    images = p.images
    seen = [False] * len(images)
    lengths = []
    for start, v in enumerate(images):
        if seen[start]:
            continue
        k = 1
        while v != start:
            seen[v] = True
            v = images[v]
            k += 1
        lengths.append(k)
    lengths.sort(reverse=True)
    return tuple(lengths)


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


def _sifts(t: tuple[int, ...], inverses: list[dict]) -> bool:
    """Whether t is a product of one representative or the identity per
    level, given per level i the representatives' inverses by the image of
    i: t is sifted, each i it moves undone by the inverse of the
    representative that sends i where t does, and must end as the identity."""
    for i, by_image in enumerate(inverses):
        if t[i] != i:
            if t[i] not in by_image:
                return False
            t = itemgetter(*t)(by_image[t[i]])
    return t == tuple(range(len(t)))  # fails only where some tuple is no bijection


def _by_count(bitsets, every: int) -> dict[int, int]:
    """Per count c, the bitset of the elements of every that lie in exactly
    c of bitsets. The bitsets are added element-wise into carry-save bit
    planes, plane k holding bit k of each element's count; then the elements
    are split plane by plane into the groups with equal counts."""
    planes: list[int] = []
    for carry in bitsets:
        k = 0
        while carry:
            if k == len(planes):
                planes.append(0)
            planes[k], carry = planes[k] ^ carry, planes[k] & carry
            k += 1
    parts = {0: every}
    for k, plane in enumerate(planes):
        split = {}
        for c, bits in parts.items():
            if bits & plane:
                split[c | 1 << k] = bits & plane
            if bits & ~plane:
                split[c] = bits & ~plane
        parts = split
    return parts


class PermGroup:
    """A permutation group on 0..degree-1, held as a stabilizer chain on the
    base 0..degree-1: per base point, first base point first, levels holds
    the coset representatives besides the identity, and the elements are
    every product of one representative or the identity per level.
    PermGroup(degree, levels=...) keeps the levels as given (levels is
    keyword-only). automorphism_group and from_images give the least element
    of each coset, in ascending order of the base point's image, without
    trailing empty levels, so that their levels depend only on the group:
    autgroup.group_key, the key by which the scan and equivalence_classes
    share results, is read from them.
    Construction does not verify closure, that each representative is a
    bijection or that the levels form a group. Two groups are equal when
    they have the same degree and the same elements, whatever their levels;
    the hash is that of the element set. The views are built once, on first
    use, and cached on the group:
    - order, is_trivial, orbits and maps_to are read from the levels, and
      cycle_profile from maps_to; no product is formed. identity_bits is
      bit 0, since images forms the identity first. maps_to and
      cycle_profile need degree <= 256; orbits takes any degree.
    - images forms the products; elements holds them as Perm objects, and
      is built only for callers that ask for it; image_set holds the image
      tuples.
    elements is aligned with images, and bit i of a maps_to or
    identity_bits bitset stands for images[i], also before images is
    formed. The group is not itself a container: callers
    iterate over images and test membership of an image tuple in image_set.
    """

    identity_bits = 1  # the elements fixing every vertex: the first product

    def __init__(self, degree: int, *, levels: list[list[tuple[int, ...]]]):
        self.degree = degree
        self.levels = levels

    @classmethod
    def from_images(cls, degree: int, images) -> "PermGroup":
        """The group of the given image tuples, duplicates dropped and the
        identity added, held as its least coset representatives. In one pass
        over the sorted tuples, the first that fixes 0..i-1 and sends i to x
        is the least element of its coset, whose elements all agree on 0..i.
        ValueError unless the products of those levels are the given set:
        each tuple must sift to the identity through them, and there must be
        as many products as tuples. Closure is not verified."""
        identity = tuple(range(degree))
        uniq = set(images)
        wrong = set(map(len, uniq)) - {degree}
        if wrong:
            raise DegreeError(f"element of degree {min(wrong)} in group of degree {degree}")
        uniq.discard(identity)
        inverses = [{} for _ in range(degree)]  # per level, image of i -> inverse
        levels = [[] for _ in range(degree)]
        for t in sorted(uniq):
            i = next(v for v, x in enumerate(t) if v != x)
            if t[i] not in inverses[i]:
                inverses[i][t[i]] = tuple(sorted(identity, key=t.__getitem__))
                levels[i].append(t)
        while levels and not levels[-1]:
            levels.pop()
        group = cls(degree, levels=levels)
        if group.order != len(uniq) + 1 or not all(_sifts(t, inverses) for t in uniq):
            raise ValueError(f"{len(uniq) + 1} image tuples are not the products of their levels")
        return group

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
        """Shown by the levels, so that no product is formed."""
        return f"PermGroup({self.degree}, levels={self.levels!r})"

    @cached_property
    def images(self) -> tuple[tuple[int, ...], ...]:
        """The products, formed from the bottom level up. The stabilizer H
        built so far comes first, then for the j-th representative t (j >= 1)
        of the next level the block t after H, in H's order, at offset j|H|."""
        elements = [tuple(range(self.degree))]
        getters = []  # itemgetter(*h)(t) is t after h, a tuple as reps need degree >= 2
        for reps in reversed(self.levels):
            if reps:
                getters += [itemgetter(*h) for h in elements[len(getters) :]]
                elements += [get(t) for t in reps for get in getters]
        return tuple(elements)

    @cached_property
    def order(self) -> int:
        """The number of products, known before any is formed."""
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
    def orbits(self) -> tuple[frozenset[int], ...]:
        """Vertex orbits, as a partition sorted by least member. The coset
        representatives of every level generate the group (Sims), so the
        orbits are the classes of the union-find that joins u and t[u] for
        every representative t and vertex u that t moves; a fixed point
        joins nothing."""
        least = list(range(self.degree))  # a vertex -> a smaller one of its orbit, or itself
        for reps in self.levels:
            for t in reps:
                for u, x in enumerate(t):
                    if u == x:
                        continue
                    while least[u] != u:
                        least[u] = u = least[least[u]]
                    while least[x] != x:
                        least[x] = x = least[least[x]]
                    if u < x:
                        least[x] = u
                    elif x < u:
                        least[u] = x
        blocks: dict[int, list[int]] = {}  # least member -> its orbit, in ascending order
        for v, up in enumerate(least):
            if up != v:  # up < v, whose entry already holds its orbit's least member
                least[v] = least[up]
            blocks.setdefault(least[v], []).append(v)
        return tuple(map(frozenset, blocks.values()))

    @cached_property
    def maps_to(self) -> tuple[tuple[int, ...], ...]:
        """maps_to[u][x] is the bitset of the elements sending u to x, so
        each row partitions the elements by the image of one vertex. Folded
        from the levels (_folded): one shifted OR per coset block and orbit
        point, and no image is formed. DegreeError above degree 256.
        """
        n = self.degree
        if n > 256:
            raise DegreeError(f"maps_to supports degree <= 256, got {n}")
        return _folded(n, self.levels)

    @cached_property
    def cycle_profile(self) -> Counter:
        """The multiset of (fixed points, 2-cycles) over the elements,
        counted; conjugation keeps both numbers, since it keeps each
        element's cycle type. Read off maps_to, so no product is formed: an
        element fixes u iff it lies in maps_to[u][u], and swaps u < x iff it
        lies in maps_to[u][x] & maps_to[x][u]. DegreeError above degree 256."""
        rows = self.maps_to
        every = (1 << self.order) - 1
        fixed = _by_count((row[u] for u, row in enumerate(rows)), every)
        swapped = _by_count(
            (row[x] & rows[x][u] for u, row in enumerate(rows) for x in range(u + 1, len(rows))),
            every,
        )
        return Counter({
            (f, s): (a & b).bit_count()
            for f, a in fixed.items() for s, b in swapped.items() if a & b
        })

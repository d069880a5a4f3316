"""Permutations on 0..n-1, explicit permutation groups, and labeled cycle output.

Composition is right-to-left: compose(p, q) applies q first, then p.
Cycle printout is deterministic: cycles ordered by least member, each cycle
rotated to start at its least member, singleton cycles included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import permutations

from .errors import DegreeError


@dataclass(frozen=True)
class Perm:
    """A bijection on 0..n-1 in array form: images[v] is the image of v."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError(f"not a bijection on 0..{n - 1}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(tuple(range(n)))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Perm":
        images = list(range(n))
        for cyc in cycles:
            for i, v in enumerate(cyc):
                images[v] = cyc[(i + 1) % len(cyc)]
        return cls(tuple(images))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Perm":
        return cls.from_cycles(n, [(a, b)])

    @property
    def degree(self) -> int:
        return len(self.images)

    @property
    def is_identity(self) -> bool:
        return all(img == v for v, img in enumerate(self.images))

    def __call__(self, v: int) -> int:
        return self.images[v]

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles covering 0..n-1, singletons included."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            v = self.images[start]
            while v != start:
                cyc.append(v)
                seen[v] = True
                v = self.images[v]
            out.append(tuple(cyc))
        return tuple(out)

    def __mul__(self, other: "Perm") -> "Perm":
        return compose(self, other)


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: result(v) = p(q(v))."""
    if p.degree != q.degree:
        raise DegreeError(f"degree mismatch: {p.degree} vs {q.degree}")
    qi = q.images
    pi = p.images
    return Perm(tuple(pi[qi[v]] for v in range(len(pi))))


def inverse(p: Perm) -> Perm:
    images = [0] * p.degree
    for v, img in enumerate(p.images):
        images[img] = v
    return Perm(tuple(images))


def apply_mask(images: tuple[int, ...], mask: int) -> int:
    """Image of the vertex bitmask mask under the permutation images."""
    img = 0
    while mask:
        low = mask & -mask
        img |= 1 << images[low.bit_length() - 1]
        mask ^= low
    return img


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Multiset of cycle lengths, sorted descending; lengths sum to the degree."""
    return tuple(sorted((len(c) for c in p.cycles()), reverse=True))


@dataclass(frozen=True)
class Labeling:
    """Injective naming of 0..n-1 for display purposes."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("labeling names must be injective")

    @classmethod
    def identity(cls, n: int) -> "Labeling":
        return cls(tuple(str(v) for v in range(n)))

    @property
    def degree(self) -> int:
        return len(self.names)


def relabel(p: Perm, labeling: Labeling) -> str:
    """Cycle expression of p with indices replaced by their names.

    The identity of degree n emits n singleton cycles, e.g. "(0)(1)(2)".
    """
    if p.degree != labeling.degree:
        raise DegreeError(f"degree mismatch: {p.degree} vs {labeling.degree}")
    parts = []
    for cyc in p.cycles():
        parts.append("(" + ",".join(labeling.names[v] for v in cyc) + ")")
    return "".join(parts)


@dataclass(frozen=True)
class PermGroup:
    """A permutation group as an explicit, duplicate-free element list.

    Elements are kept sorted by image tuple, which puts the identity first.
    Construction does not verify closure (see validate); the cheap degree
    check always runs. The views derived from the elements (images,
    image_set, maps_to, identity_bits, cycle_types, vertex_signatures) are
    built once, on first use; images and cycle_types are aligned with
    elements, and bit i of a maps_to or identity_bits bitset stands for
    elements[i].
    """

    degree: int
    elements: tuple[Perm, ...]

    def __post_init__(self):
        for p in self.elements:
            if p.degree != self.degree:
                raise DegreeError(
                    f"element of degree {p.degree} in group of degree {self.degree}"
                )

    @classmethod
    def from_elements(cls, degree: int, elements) -> "PermGroup":
        uniq = {p.images: p for p in elements}
        ident = tuple(range(degree))
        if ident not in uniq:
            uniq[ident] = Perm(ident)
        return cls(degree, tuple(uniq[k] for k in sorted(uniq)))

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls(degree, (Perm.identity(degree),))

    @classmethod
    def symmetric(cls, degree: int) -> "PermGroup":
        return cls(degree, tuple(Perm(imgs) for imgs in permutations(range(degree))))

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def is_trivial(self) -> bool:
        return len(self.elements) == 1

    def __contains__(self, p: Perm) -> bool:
        return p.images in self.image_set

    def __iter__(self):
        return iter(self.elements)

    @cached_property
    def images(self) -> tuple[tuple[int, ...], ...]:
        return tuple(p.images for p in self.elements)

    @cached_property
    def image_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.images)

    @cached_property
    def maps_to(self) -> tuple[tuple[int, ...], ...]:
        """maps_to[u][x] is the bitset of the elements sending u to x, so
        each row partitions the elements by the image of one vertex."""
        n = self.degree
        rows = []
        for col in zip(*self.images):
            # one character per element, the last element first: translated
            # to "1" at x and "0" elsewhere it spells maps_to[u][x] in binary
            spelled = "".join(map(chr, reversed(col)))
            row = [0] * n
            for x in set(col):
                row[x] = int(spelled.translate("0" * x + "1" + "0" * (n - 1 - x)), 2)
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def identity_bits(self) -> int:
        """The bitset of the elements that fix every vertex."""
        bits = (1 << len(self.elements)) - 1
        for u, row in enumerate(self.maps_to):
            bits &= row[u]
        return bits

    @cached_property
    def cycle_types(self) -> tuple[tuple[int, ...], ...]:
        return tuple(cycle_type(p) for p in self.elements)

    @cached_property
    def vertex_signatures(self) -> tuple[tuple, ...]:
        """Per vertex, the sorted multiset over elements of (cycle type,
        length of the cycle through the vertex); conjugation preserves it."""
        sigs: list[list] = [[] for _ in range(self.degree)]
        for p, ct in zip(self.elements, self.cycle_types):
            for cyc in p.cycles():
                for v in cyc:
                    sigs[v].append((ct, len(cyc)))
        return tuple(tuple(sorted(s)) for s in sigs)

    def validate(self) -> None:
        """Check identity membership, closure, inverses, and Lagrange
        divisibility. Quadratic in the order; meant for tests."""
        images = self.image_set
        if tuple(range(self.degree)) not in images:
            raise ValueError("identity missing")
        if len(images) != len(self.elements):
            raise ValueError("duplicate elements")
        for p in self.elements:
            if inverse(p).images not in images:
                raise ValueError(f"inverse of {p.images} missing")
            for q in self.elements:
                if compose(p, q).images not in images:
                    raise ValueError(f"product {p.images}*{q.images} missing")
        fact = reduce(lambda a, b: a * b, range(1, self.degree + 1), 1)
        if fact % len(self.elements) != 0:
            raise ValueError("order does not divide degree factorial")

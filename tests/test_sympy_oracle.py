"""Differential check of distinguishable equivalence against sympy's
permutation groups, an implementation independent of the package's bijection
search. Skipped when sympy is not installed; the package itself never
imports it."""

import random

import pytest

from symbreak.autgroup import automorphism_group
from symbreak.equivalence import distinguishably_equivalent, equivalence_classes
from symbreak.graphs import complement, enumerate_graphs, permuted
from symbreak.perms import Perm

combinatorics = pytest.importorskip("sympy.combinatorics")


def sympy_group(n, generators):
    """The sympy group on n points generated by image tuples (the trivial
    group when there are none)."""
    perms = [combinatorics.Permutation(list(t)) for t in generators]
    return combinatorics.PermutationGroup(perms or [combinatorics.Permutation(n - 1)])


def test_sigma_conjugates_the_representatives_generators_onto_the_members_group():
    rng = random.Random(11)
    base = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    graphs = base + [
        permuted(complement(g), Perm(tuple(rng.sample(range(g.n), g.n)))) for g in base
    ]
    partition, unresolved = equivalence_classes(graphs)
    assert unresolved == []
    checked = 0
    for cls in partition:
        rep = graphs[cls[0]]
        aut_rep = automorphism_group(rep)
        gens = [a for reps in aut_rep.levels for a in reps]
        for i in cls[1:]:
            g = graphs[i]
            aut = automorphism_group(g)
            if aut.image_set == aut_rep.image_set:
                continue
            sigma = distinguishably_equivalent(rep, g, aut1=aut_rep, aut2=aut).images
            conjugated = []
            for a in gens:
                c = [0] * g.n
                for v in range(g.n):
                    c[sigma[v]] = sigma[a[v]]  # sigma . a . sigma^-1
                conjugated.append(tuple(c))
            image = sympy_group(g.n, conjugated)
            target = sympy_group(g.n, (a for reps in aut.levels for a in reps))
            assert image.is_subgroup(target) and target.is_subgroup(image), i
            assert target.order() == aut.order
            checked += 1
    assert checked >= len(graphs) // 2

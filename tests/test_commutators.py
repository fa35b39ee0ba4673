import random
from math import comb

import pytest

from coxkit import commutators
from coxkit.commutators import (CommutatorGenerator, NotFlagError,
                                commutator_subgroup_is_free, coxeter_spec,
                                enumerate_generators, generator_count,
                                generator_words, per_length_counts)
from coxkit.simplicial import SimplicialComplex, reduced_homology
from coxkit.words import (abelianization, geometric_representation,
                          is_identity_matrix)
from helpers import (all_complexes, components, free_product_counts,
                     random_complex, support)

PATH4 = SimplicialComplex.from_maximal_faces(4, [[1, 2], [2, 3], [4]])


def test_worked_four_vertex_example():
    got = {str(g) for g in enumerate_generators(PATH4)}
    assert got == {"(g3,g1)", "(g4,g1)", "(g4,g2)", "(g4,g3)",
                   "(g2,(g4,g1))", "(g3,(g4,g1))", "(g1,(g4,g3))",
                   "(g3,(g4,g2))", "(g2,(g3,(g4,g1)))"}
    assert generator_count(PATH4) == 9


def test_three_points():
    got = {str(g) for g in enumerate_generators(SimplicialComplex.points(3))}
    assert got == {"(g2,g1)", "(g3,g1)", "(g3,g2)",
                   "(g1,(g3,g2))", "(g2,(g3,g1))"}


def test_four_cycle():
    got = {str(g) for g in enumerate_generators(SimplicialComplex.cycle(4))}
    assert got == {"(g3,g1)", "(g4,g2)"}


def test_simplex_has_no_generators():
    K = SimplicialComplex.simplex(4)
    assert enumerate_generators(K) == []
    assert generator_count(K) == 0
    assert generator_words(K, enumerate_generators(K)) == []


def test_free_product_counts():
    for m in range(3, 9):
        K = SimplicialComplex.points(m)
        assert generator_count(K) == (m - 2) * 2 ** (m - 1) + 1
        counts = per_length_counts(K)
        assert counts == free_product_counts(m)
        assert counts == {ell: (ell - 1) * comb(m, ell)
                          for ell in range(2, m + 1)}


def test_count_identity_three_paths():
    rng = random.Random(55)
    for _ in range(60):
        m = rng.randint(1, 6)
        K = random_complex(m, rng)
        enumerated = len(enumerate_generators(K))
        counted = generator_count(K)
        homological = sum(
            reduced_homology(K.full_subcomplex(
                [i + 1 for i in range(m) if mask >> i & 1]))[1].betti
            for mask in range(1, 1 << m))
        assert enumerated == counted == homological
        assert sum(per_length_counts(K).values()) == counted


def test_generator_structure_and_ordering():
    rng = random.Random(20261020)
    complexes = [PATH4, SimplicialComplex.points(8), SimplicialComplex.cycle(8)]
    complexes += [random_complex(m, rng) for m in range(4, 10)
                  for _ in range(2)]

    def mask(vertices):
        return sum(1 << (v - 1) for v in vertices)
    for K in complexes:
        gens = enumerate_generators(K)
        assert len(gens) == generator_count(K)
        keys = [(len(support(g)), mask(support(g)), g.i) for g in gens]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        for g in gens:
            assert g.j == max(support(g))
            assert g.i < g.j and g.i not in g.ks
            assert list(g.ks) == sorted(g.ks)
            # i is the smallest vertex of its component avoiding j
            # the restriction numbers support(g) 1..l in increasing order
            sub = K.full_subcomplex(list(support(g)))
            new = {v: k + 1 for k, v in enumerate(support(g))}
            comp = next(c for c in components(sub) if new[g.i] in c)
            assert new[g.j] not in comp and min(comp) == new[g.i]


def test_generator_validation():
    with pytest.raises(ValueError):
        CommutatorGenerator((), 1, 2)
    with pytest.raises(ValueError):
        CommutatorGenerator((3, 2), 4, 1)
    with pytest.raises(ValueError):
        CommutatorGenerator((2,), 4, 2)
    with pytest.raises(ValueError, match="ks must stay below j"):
        CommutatorGenerator((3,), 2, 1)


def test_nested_serialisation():
    gen = CommutatorGenerator((2, 3), 4, 1)
    assert gen.nested() == [2, [3, [4, 1]]]
    assert str(gen) == "(g2,(g3,(g4,g1)))"


def test_generator_words_kernel_and_nontrivial():
    rng = random.Random(77)
    complexes = [PATH4, SimplicialComplex.points(3),
                 SimplicialComplex.cycle(4)]
    complexes += [random_complex(rng.randint(2, 6), rng) for _ in range(25)]
    for K in complexes:
        spec = coxeter_spec(K)
        zero = (0,) * K.m
        for word in generator_words(K, enumerate_generators(K)):
            assert word != ()
            assert abelianization(word, spec) == zero
            assert not is_identity_matrix(
                geometric_representation(word, spec))


def test_generator_words_match_each_generators_own_word():
    rng = random.Random(20261018)
    complexes = [K for m in range(1, 5) for K in all_complexes(m)]
    complexes += [random_complex(m, rng) for m in (6, 7, 8) for _ in range(3)]
    complexes += [SimplicialComplex.points(9), SimplicialComplex.cycle(9)]
    for K in complexes:
        gens = enumerate_generators(K)
        seen = set()
        for g in gens:
            # the inner commutator is itself a generator, enumerated earlier
            assert not g.ks or (g.ks[1:], g.j, g.i) in seen
            seen.add((g.ks, g.j, g.i))
        spec = coxeter_spec(K)
        assert generator_words(K, gens) == [g.word(spec) for g in gens]


def test_reduced_shortcut_keeps_every_generator_word(monkeypatch):
    # a generator word that passes the byte test is read off its vertices;
    # with the test forced to False every word goes through commutator,
    # and the words must be the same.  A rejected word is "not reduced"
    # when the entries without their carry tables (b = a only) reject it
    rng = random.Random(20261020)
    complexes = [f(m) for m in range(4, 10) for f in (
        SimplicialComplex.points, SimplicialComplex.cycle)]
    complexes += [random_complex(rng.randint(4, 9), rng) for _ in range(12)]
    routes = {"shortcut": 0, "not reduced": 0, "not least": 0}
    test = commutators._in_normal_form

    def recorded(live, tables):
        if test(live, tables):
            routes["shortcut"] += 1
            return True
        reduced = test(live, [(fill, own, None) for fill, own, _ in tables])
        routes["not least" if reduced else "not reduced"] += 1
        return False
    monkeypatch.setattr(commutators, "_in_normal_form", recorded)
    expected = [generator_words(K, enumerate_generators(K))
                for K in complexes]
    assert sum(map(len, expected)) == sum(routes.values())
    assert min(routes.values()) >= 200, routes
    monkeypatch.setattr(commutators, "_in_normal_form",
                        lambda live, tables: False)
    for K, got in zip(complexes, expected):
        assert generator_words(K, enumerate_generators(K)) == got


def test_freeness_criterion():
    assert commutator_subgroup_is_free(PATH4) is True
    assert commutator_subgroup_is_free(SimplicialComplex.simplex(3)) is True
    for m in (4, 5, 6):
        assert commutator_subgroup_is_free(SimplicialComplex.cycle(m)) is False
    boundary = SimplicialComplex.from_maximal_faces(
        3, [[1, 2], [1, 3], [2, 3]])
    with pytest.raises(NotFlagError) as err:
        commutator_subgroup_is_free(boundary)
    assert err.value.witness == (1, 2, 3)


def test_enumeration_deterministic():
    first = [g.nested() for g in enumerate_generators(PATH4)]
    second = [g.nested() for g in enumerate_generators(PATH4)]
    assert first == second

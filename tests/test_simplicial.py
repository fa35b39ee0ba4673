import itertools
import random

import pytest

from coxkit.simplicial import (Graph, SimplicialComplex,
                               _reduced_homology_key, clique_complex,
                               is_chordal, is_flag, reduced_homology)
from helpers import (all_graphs, brute_missing_faces, components,
                     has_chordless_cycle, random_complex, random_graph)


def test_from_maximal_faces_worked_example():
    K = SimplicialComplex.from_maximal_faces(4, [[1, 2], [2, 3], [4]])
    assert len(K.faces) == 7
    assert K.maximal_faces() == [[1, 2], [2, 3], [4]]
    # idempotent under re-listing non-maximal faces
    K2 = SimplicialComplex.from_maximal_faces(4, [[1, 2], [2], [2, 3], [4], [1]])
    assert K == K2


def test_from_maximal_faces_simplex_and_minimal():
    assert len(SimplicialComplex.simplex(3).faces) == 8
    assert len(SimplicialComplex.from_maximal_faces(2, []).faces) == 3


def test_from_maximal_faces_validation():
    with pytest.raises(ValueError):
        SimplicialComplex.from_maximal_faces(3, [[1, 4]])
    with pytest.raises(ValueError):
        SimplicialComplex.from_maximal_faces(0, [])
    with pytest.raises(ValueError):
        SimplicialComplex.from_maximal_faces(25, [])


def test_full_subcomplex():
    C4 = SimplicialComplex.cycle(4)
    sub = C4.full_subcomplex([1, 3])
    # the restriction is renumbered 1..|J|: 1 and 3 become 1 and 2
    assert components(sub) == [(1,), (2,)]
    assert C4.full_subcomplex([1, 2, 3, 4]) == C4
    empty = C4.full_subcomplex([])
    assert empty.m == 0 and len(empty.faces) == 1


def test_full_subcomplex_composes_by_intersection():
    rng = random.Random(11)
    for _ in range(60):
        m = rng.randint(1, 6)
        K = random_complex(m, rng)
        J1 = [v for v in range(1, m + 1) if rng.random() < 0.6]
        J2 = [v for v in range(1, m + 1) if rng.random() < 0.6]
        both = sorted(set(J1) & set(J2))
        # the restriction to J1 numbers J1 1..|J1| in increasing order
        new = {v: k + 1 for k, v in enumerate(J1)}
        assert K.full_subcomplex(J1).full_subcomplex(
            [new[v] for v in both]) == K.full_subcomplex(both)


def test_full_subcomplex_is_renumbered():
    K = SimplicialComplex.from_maximal_faces(6, [[2, 5, 6], [3, 5], [1, 4]])
    sub = K.full_subcomplex([6, 2, 3, 5, 2])
    assert sub.m == 4
    assert sub.maximal_faces() == [[1, 3, 4], [2, 3]]
    assert sub == SimplicialComplex.from_maximal_faces(
        4, [[1, 3, 4], [2, 3]])
    boundary = SimplicialComplex.from_maximal_faces(
        5, [[2, 4], [2, 5], [4, 5], [1, 3]])
    assert is_flag(boundary.full_subcomplex([2, 4, 5])) == (False, (1, 2, 3))
    path = SimplicialComplex.cycle(6).full_subcomplex([2, 3, 4, 5, 6])
    assert is_chordal(path.one_skeleton()).ordering == (1, 2, 3, 4, 5)


def test_full_subcomplex_rejects_bad_vertices():
    C4 = SimplicialComplex.cycle(4)
    for bad in (True, 1.0, 0, 5, "1"):
        with pytest.raises(ValueError, match=r"vertex .* out of range 1\.\.4"):
            C4.full_subcomplex([bad, 3])


def test_is_flag():
    boundary = SimplicialComplex.from_maximal_faces(3, [[1, 2], [1, 3], [2, 3]])
    assert is_flag(boundary) == (False, (1, 2, 3))
    assert is_flag(SimplicialComplex.cycle(4)) == (True, None)
    assert is_flag(SimplicialComplex.simplex(3)) == (True, None)


def test_flag_witness_is_minimal_nonface():
    rng = random.Random(23)
    for _ in range(150):
        K = random_complex(rng.randint(1, 6), rng)
        flag, witness = is_flag(K)
        missing = brute_missing_faces(K)
        big = [w for w in missing if len(w) >= 3]
        assert flag == (not big)
        if not flag:
            assert witness in missing and len(witness) >= 3


def test_clique_complex_is_flag_and_inverts_skeleton():
    rng = random.Random(3)
    for _ in range(120):
        g = random_graph(rng.randint(1, 8), rng)
        K = clique_complex(g)
        assert is_flag(K) == (True, None)
        assert K.one_skeleton() == g


def test_flag_complexes_are_clique_complexes_of_their_skeleton():
    rng = random.Random(4)
    seen = 0
    for _ in range(200):
        K = random_complex(rng.randint(1, 6), rng)
        if is_flag(K)[0]:
            seen += 1
            assert clique_complex(K.one_skeleton()) == K
    assert seen > 20


def test_clique_complex_examples():
    assert clique_complex(Graph(3, [(1, 2), (1, 3), (2, 3)])) == \
        SimplicialComplex.simplex(3)
    c4 = clique_complex(Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)]))
    assert c4 == SimplicialComplex.cycle(4)
    path = clique_complex(Graph(4, [(1, 2), (2, 3)]))
    assert path == SimplicialComplex.from_maximal_faces(4, [[1, 2], [2, 3], [4]])


def test_connected_components():
    K = SimplicialComplex.points(5)
    assert components(K) == [(1,), (2,), (3,), (4,), (5,)]
    C4 = SimplicialComplex.cycle(4)
    assert components(C4) == [(1, 2, 3, 4)]
    # components list their vertices sorted and come ordered by smallest
    # vertex, also when they interleave
    K = clique_complex(Graph(6, [(6, 2), (5, 1), (3, 5), (4, 6)]))
    assert components(K) == [(1, 3, 5), (2, 4, 6)]


def test_components_match_reduced_h0():
    rng = random.Random(17)
    for _ in range(80):
        m = rng.randint(1, 6)
        K = random_complex(m, rng)
        for _ in range(4):
            J = [v for v in range(1, m + 1) if rng.random() < 0.7]
            if not J:
                continue
            sub = K.full_subcomplex(J)
            assert reduced_homology(sub)[1].betti == \
                len(components(sub)) - 1


def test_is_chordal_examples():
    res = is_chordal(Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)]))
    assert not res.chordal and len(res.cycle) == 4
    assert is_chordal(Graph(5, [(1, 2), (2, 3), (2, 4), (4, 5)])).chordal
    assert is_chordal(Graph(4, [(1, 2), (2, 3)])).chordal
    assert is_chordal(Graph(1, [])).chordal


def _edge(g, a, b):
    return g.adj[a - 1] >> (b - 1) & 1


def _check_peo(g, ordering):
    pos = {v: i for i, v in enumerate(ordering)}
    for v in ordering:
        earlier = [u for u in ordering
                   if _edge(g, u, v) and pos[u] < pos[v]]
        for a, b in itertools.combinations(earlier, 2):
            assert _edge(g, a, b), (ordering, v, a, b)


def _check_chordless(g, cycle):
    k = len(cycle)
    assert k >= 4
    for i in range(k):
        assert _edge(g, cycle[i], cycle[(i + 1) % k])
    for i in range(k):
        for j in range(i + 2, k):
            if (i, j) != (0, k - 1):
                assert not _edge(g, cycle[i], cycle[j])


def test_is_chordal_exhaustive_small():
    for m in range(1, 6):
        for g in all_graphs(m):
            res = is_chordal(g)
            assert res.chordal == (not has_chordless_cycle(g))
            if res.chordal:
                _check_peo(g, res.ordering)
            else:
                _check_chordless(g, res.cycle)


def test_is_chordal_against_brute_force():
    rng = random.Random(41)
    for _ in range(1500):
        g = random_graph(rng.randint(6, 7), rng, p=rng.random())
        res = is_chordal(g)
        assert res.chordal == (not has_chordless_cycle(g))
        if res.chordal:
            _check_peo(g, res.ordering)
        else:
            _check_chordless(g, res.cycle)


def test_reduced_homology_basics():
    assert reduced_homology(SimplicialComplex.points(2))[1].betti == 1
    hs = reduced_homology(SimplicialComplex.cycle(4))
    assert hs[1].is_trivial() and hs[2].betti == 1
    empty = SimplicialComplex.cycle(4).full_subcomplex([])
    hs = reduced_homology(empty)
    assert hs[0].betti == 1 and len(hs) == 1
    assert all(h.is_trivial() for h in reduced_homology(SimplicialComplex.simplex(4)))


def test_reduced_homology_cache_is_bounded():
    maxsize = _reduced_homology_key.cache_info().maxsize
    assert isinstance(maxsize, int) and maxsize >= 1 << 10
    # the key is (m, faces): distinct m give distinct entries cheaply
    faces = SimplicialComplex.points(1).faces
    _reduced_homology_key.cache_clear()
    try:
        for m in range(1, (1 << 10) + 1):
            _reduced_homology_key(m, faces)
        misses = _reduced_homology_key.cache_info().misses
        for m in range(1, (1 << 10) + 1):   # 2^10 subsets: nothing evicted
            _reduced_homology_key(m, faces)
        assert _reduced_homology_key.cache_info().misses == misses
        for m in range(1, maxsize + 50):
            _reduced_homology_key(m, faces)
            assert _reduced_homology_key.cache_info().currsize <= maxsize
    finally:
        _reduced_homology_key.cache_clear()


def test_reduced_homology_sphere_and_torsion():
    sphere = SimplicialComplex.from_maximal_faces(
        3, [[1, 2], [1, 3], [2, 3]])
    hs = reduced_homology(sphere)
    assert hs[2].betti == 1 and hs[1].is_trivial()
    rp2 = SimplicialComplex.from_maximal_faces(6, [
        [1, 2, 4], [1, 2, 6], [1, 3, 4], [1, 3, 5], [1, 5, 6],
        [2, 3, 5], [2, 3, 6], [2, 4, 5], [3, 4, 6], [4, 5, 6]])
    hs = reduced_homology(rp2)
    assert hs[2] .betti == 0 and hs[2].torsion == (2,)
    assert hs[3].is_trivial()


def test_from_maximal_faces_rejects_boolean_vertices():
    with pytest.raises(ValueError, match="vertex True"):
        SimplicialComplex.from_maximal_faces(3, [[True, 3]])


def test_boolean_vertex_counts_rejected():
    with pytest.raises(ValueError, match="vertex count True"):
        Graph(True)
    with pytest.raises(ValueError, match="vertex count True"):
        SimplicialComplex.from_maximal_faces(True, [[1]])
    with pytest.raises(ValueError, match="vertex count True"):
        SimplicialComplex(True, [0, 1])

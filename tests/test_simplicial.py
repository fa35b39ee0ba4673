import hashlib
import itertools
import random
from collections import Counter

import pytest

from coxkit import simplicial
from coxkit.commutators import enumerate_generators
from coxkit.intlinalg import HomologyGroup, boundary_maps, chain_homology
from coxkit.simplicial import (Graph, SimplicialComplex, _bits, _cliques,
                               _components_masks, _reduced_homology_key,
                               _simplex_faces, clique_complex, is_chordal,
                               is_flag, reduced_homology)
from helpers import (RP2, all_complexes, all_graphs, brute_missing_faces,
                     components, has_chordless_cycle, random_complex,
                     random_graph)


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


def test_components_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(18)
    complexes = [SimplicialComplex.points(9), SimplicialComplex.cycle(9),
                 SimplicialComplex.from_maximal_faces(6, RP2)]
    complexes += [random_complex(rng.randint(4, 9), rng) for _ in range(30)]
    for K in complexes:
        graph = nx.Graph(K.one_skeleton().edges())
        graph.add_nodes_from(range(1, K.m + 1))
        for mask in range(1 << K.m):
            J = [i + 1 for i in _bits(mask)]
            want = sorted(sorted(c) for c in
                          nx.connected_components(graph.subgraph(J)))
            got = [[i + 1 for i in _bits(c)]
                   for c in _components_masks(K, mask)]
            assert got == want


def _simplicial_corpus():
    rng = random.Random(18)
    corpus = []
    for m in range(1, 13):
        corpus += [SimplicialComplex.simplex(m), SimplicialComplex.points(m)]
        if m >= 3:
            corpus.append(SimplicialComplex.cycle(m))
    corpus.append(SimplicialComplex.from_maximal_faces(6, RP2))
    for m in range(4, 15):
        corpus += [random_complex(m, rng) for _ in range(2)]
    return corpus


def test_simplicial_output_is_pinned():
    # A digest of what the bitmask kernels return over a seeded corpus: the
    # set-bit walk, every restriction with m <= 8, the components of every
    # vertex subset with m <= 10, the clique walk, the flag verdict and
    # witness, the maximal faces, the generators and the reduced homology.
    # A faster kernel must return the same values in the same order.
    digest = hashlib.sha256()
    rng = random.Random(18)
    for bits in (0, 1, 2, 5, 24, 63, 64, 65, 200):
        for _ in range(20):
            x = rng.getrandbits(bits)
            digest.update(repr((x, list(_bits(x)))).encode())
    corpus = _simplicial_corpus()
    for K in corpus:
        full = (1 << K.m) - 1
        if K.m <= 8:
            for mask in range(full + 1):
                sub = K.full_subcomplex([i + 1 for i in _bits(mask)])
                digest.update(repr((sub.m, sorted(sub.faces))).encode())
        if K.m <= 10:
            for mask in range(full + 1):
                digest.update(repr(_components_masks(K, mask)).encode())
        digest.update(repr(list(_cliques(K.one_skeleton()))).encode())
        digest.update(repr((is_flag(K), K.maximal_faces())).encode())
        digest.update(repr([g.nested()
                            for g in enumerate_generators(K)]).encode())
        digest.update(repr(reduced_homology(K)).encode())
    assert len(corpus) == 57
    assert digest.hexdigest() == ("21f63c945d1241d449c67bd65ce60ef2"
                                  "ca0c92cf0a9a9868fd5241fd14d402b1")


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


def _random_chordal_graph(m, rng):
    # each new vertex joins a random subset of the clique that an earlier
    # vertex was added with, so it is simplicial among the vertices so far
    # and the reverse of the build order is a perfect elimination ordering
    cliques, edges = [(0,)], []
    for v in range(1, m):
        base = rng.choice(cliques)
        joined = tuple(u for u in base if rng.random() < 0.5)
        edges += [(u, v) for u in joined]
        cliques.append(joined + (v,))
    label = list(range(1, m + 1))
    rng.shuffle(label)
    return Graph(m, [(label[u], label[v]) for u, v in edges])


def _chordality_corpus():
    rng = random.Random(33)
    corpus = [g for m in range(6) for g in all_graphs(m)]
    for i in range(600):
        corpus.append(random_graph(rng.randint(6, 24), rng,
                                   p=(0.1, 0.3, 0.6, 0.9)[i % 4]))
    for _ in range(300):
        corpus.append(_random_chordal_graph(rng.randint(6, 24), rng))
    return corpus


def test_chordality_output_is_pinned():
    # A digest of the MCS verdict, its visit order and the chordless-cycle
    # witness over every graph with m <= 5, seeded G(n, p) graphs and
    # seeded chordal graphs with m 6-24.  A rewrite of is_chordal must
    # return the same orderings and witnesses.
    digest = hashlib.sha256()
    chordal = 0
    corpus = _chordality_corpus()
    for g in corpus:
        res = is_chordal(g)
        chordal += res.chordal
        digest.update(repr((g.m, g.adj, res.chordal, res.ordering,
                            res.cycle)).encode())
    assert (len(corpus), chordal) == (2000, 1321)
    assert digest.hexdigest() == ("db517529b47b50c80af90e5cda9aef6f"
                                  "d2d4a27eeb2e8b780558ee7619d164cf")


def test_is_chordal_matches_networkx():
    # the brute-force oracle stops at m = 7; networkx reaches m = 24
    nx = pytest.importorskip("networkx")
    checked = 0
    for g in _chordality_corpus():
        if g.m < 8:
            continue
        graph = nx.Graph(g.edges())
        graph.add_nodes_from(range(1, g.m + 1))
        res = is_chordal(g)
        assert res.chordal == nx.is_chordal(graph)
        if res.chordal:
            _check_peo(g, res.ordering)
        else:
            _check_chordless(g, res.cycle)
        checked += 1
    assert checked == 799


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


def _cone(K):
    """The cone over K: vertex m + 1 added to every maximal face."""
    return SimplicialComplex.from_maximal_faces(
        K.m + 1, [f + [K.m + 1] for f in K.maximal_faces()])


def _graph_complex(g):
    """The graph ``g`` as a complex of vertices and edges."""
    return SimplicialComplex.from_maximal_faces(g.m, g.edges())


def test_reduced_homology_of_cones_matches_the_chain_complex():
    # Every complex with m <= 4, every graph on 5 vertices, seeded random
    # complexes with m 5-9 and graphs with m 6-12, and RP^2, each with its
    # cone: reduced_homology against the augmented chain complex built
    # here, and a brute-force apex search against the count of faces
    # through each vertex.
    rng = random.Random(19)
    graphs = [_graph_complex(g) for g in all_graphs(5)]
    graphs += [_graph_complex(random_graph(m, rng, p=rng.random()))
               for m in range(6, 13) for _ in range(12)]
    base = [K for m in range(5) for K in all_complexes(m)] + graphs
    base += [random_complex(m, rng) for m in range(5, 10) for _ in range(4)]
    base.append(SimplicialComplex.from_maximal_faces(6, RP2))
    corpus = base + [_cone(K) for K in base]
    cones = 0
    kinds = Counter()
    _reduced_homology_key.cache_clear()
    for K in corpus:
        top = max(f.bit_count() for f in K.faces)
        levels = [sorted(f for f in K.faces if f.bit_count() == k)
                  for k in range(top + 1)]
        want = chain_homology(boundary_maps(levels, _simplex_faces))
        assert reduced_homology(K) == want
        apex = any(all(f | 1 << v in K.faces for f in K.faces)
                   for v in range(K.m))
        half = any(2 * sum(1 for f in K.faces if f >> v & 1) == len(K.faces)
                   for v in range(K.m))
        assert apex == half, K
        if apex:
            assert all(h.is_trivial() for h in want), K
            cones += 1
        if top == 2 and not apex:
            covered = 0
            for f in levels[2]:
                covered |= f
            kinds.update({"forest": want[2].betti == 0,
                          "cycles": want[2].betti > 0,
                          "isolated vertex": covered != (1 << K.m) - 1,
                          "components": want[1].betti > 0})
    assert cones >= len(base)
    assert min(kinds[k] for k in ("forest", "cycles", "isolated vertex",
                                  "components")) >= 100, kinds
    _reduced_homology_key.cache_clear()


def test_cones_build_no_chain_complex(monkeypatch):
    calls = []

    def counting(boundaries):
        calls.append(len(boundaries))
        return chain_homology(boundaries)

    monkeypatch.setattr(simplicial, "chain_homology", counting)
    S = SimplicialComplex
    rp2 = S.from_maximal_faces(6, RP2)
    star = S.from_maximal_faces(5, [[1, 2], [1, 3], [1, 4], [1, 5]])
    cones = [S.simplex(k) for k in range(1, 7)]
    cones += [star, _cone(S.cycle(5)), _cone(rp2), S.points(1)]
    # graphs that are not cones, with their (H0, H1) ranks
    graphs = [(S.cycle(4), 0, 1), (S.points(2), 1), (S.points(5), 4),
              (S.from_maximal_faces(6, [[1, 2], [2, 3], [4, 5]]), 2, 0),
              (S.from_maximal_faces(7, [[1, 2], [2, 3], [1, 3], [4, 5],
                                        [5, 6], [4, 6], [3, 4]]), 1, 2)]
    others = [rp2,
              S.from_maximal_faces(4, [[1, 2, 3], [1, 2, 4], [1, 3, 4],
                                       [2, 3, 4]]),
              S.cycle(4).full_subcomplex([])]
    cases = [(K, 0, [0] * (K.dim() + 2)) for K in cones]
    cases += [(K, 0, [0, *ranks]) for K, *ranks in graphs]
    cases += [(K, 1, None) for K in others]
    try:
        for K, want_calls, betti in cases:
            _reduced_homology_key.cache_clear()
            calls.clear()
            hs = reduced_homology(K)
            assert len(calls) == want_calls, K
            assert len(hs) == K.dim() + 2
            if betti is not None:
                assert hs == [HomologyGroup(b) for b in betti], K
    finally:
        _reduced_homology_key.cache_clear()


def test_reduced_homology_returns_a_new_list():
    # the cache's answer must survive a caller that mutates the result
    for K in (SimplicialComplex.cycle(4), SimplicialComplex.simplex(3)):
        want = reduced_homology(K)
        want_repr = repr(want)
        got = reduced_homology(K)
        got.pop()
        got.append(None)
        want.clear()
        assert repr(reduced_homology(K)) == want_repr
        assert reduced_homology(K) is not reduced_homology(K)


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


def test_constructor_rejects_a_face_set_that_is_not_closed():
    # {1,2,3} without any of its edges: before the check, is_flag said
    # True and the homology raised a bare KeyError
    with pytest.raises(ValueError, match=r"face \[1, 2, 3\] is present but "
                                         r"its face \[2, 3\] is not"):
        SimplicialComplex(3, {0, 1, 2, 4, 7})
    with pytest.raises(ValueError, match=r"its face \[1, 3\] is not"):
        SimplicialComplex(3, {0, 1, 2, 4, 3, 6, 7})
    K = SimplicialComplex(3, {0, 1, 2, 4, 3, 5, 6, 7})
    assert K == SimplicialComplex.simplex(3) and K.listed == K.faces


def test_constructor_input_checks():
    with pytest.raises(ValueError, match="empty face must be present"):
        SimplicialComplex(2, {1, 2, 3})
    with pytest.raises(ValueError, match="uses vertices beyond 2"):
        SimplicialComplex(2, {0, 1, 2, 4})
    with pytest.raises(ValueError, match="missing singleton face for vertex 2"):
        SimplicialComplex(2, {0, 1})
    with pytest.raises(ValueError, match="loops not allowed"):
        Graph(3, [(1, 2), (2, 2)])
    with pytest.raises(ValueError, match="at least 3 vertices"):
        SimplicialComplex.cycle(2)


def test_builders_adopt_their_faces_unchecked(monkeypatch):
    # from_maximal_faces, full_subcomplex and clique_complex make closed
    # face sets themselves, so they never run the constructor's checks
    rng = random.Random(20261020)
    complexes = [random_complex(m, rng) for m in range(1, 8)]

    def checked(self, m, faces):
        raise AssertionError("the constructor ran")
    monkeypatch.setattr(SimplicialComplex, "__init__", checked)
    for K in complexes:
        assert SimplicialComplex.from_maximal_faces(
            K.m, K.maximal_faces()) == K
        assert clique_complex(K.one_skeleton()).one_skeleton() == \
            K.one_skeleton()
        J = [v for v in range(1, K.m + 1) if rng.random() < 0.6]
        sub = K.full_subcomplex(J)
        assert sub.m == len(J) and sub.listed is sub.faces
    monkeypatch.undo()
    for K in complexes:
        assert SimplicialComplex(K.m, K.faces) == K

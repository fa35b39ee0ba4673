import random

import pytest

from coxkit import cubical, intlinalg
from coxkit.commutators import (coxeter_spec, enumerate_generators,
                                generator_count, generator_words)
from coxkit.cubical import (CubeComplex, basis_certificate, build,
                            fundamental_group_presentation, homology,
                            homology_splitting_check, word_class,
                            word_to_loop)
from coxkit.intlinalg import (HomologyGroup, IntMatrix, chain_homology,
                              smith_normal_form)
from coxkit.simplicial import SimplicialComplex, clique_complex
from coxkit.words import GroupSpec, commutator, generator, multiply
from helpers import (RP2, all_complexes, cube_faces, entry, random_complex,
                     random_graph, wedge_of_circles_signature)

C4 = SimplicialComplex.cycle(4)
PATH4 = SimplicialComplex.from_maximal_faces(4, [[1, 2], [2, 3], [4]])


def boundary_complex(m):
    return SimplicialComplex.from_maximal_faces(
        m, [[v for v in range(1, m + 1) if v != skip]
            for skip in range(1, m + 1)])


def test_build_examples():
    seg = build(SimplicialComplex.from_maximal_faces(1, [[1]]))
    assert seg.cell_counts() == [2, 1]
    for m in (2, 3, 4):
        pts = build(SimplicialComplex.points(m))
        assert pts.cell_counts() == [2 ** m, m * 2 ** (m - 1)]
    for m in (3, 4):
        bd = build(boundary_complex(m))
        assert bd.cell_counts()[m - 1] == 2 * m


def test_cell_count_formula():
    rng = random.Random(13)
    for _ in range(40):
        K = random_complex(rng.randint(1, 7), rng)
        R = build(K)
        for k, count in enumerate(R.cell_counts()):
            faces = sum(1 for f in K.faces if bin(f).count("1") == k)
            assert count == faces * 2 ** (K.m - k)


def test_boundary_squares_to_zero():
    rng = random.Random(29)
    for _ in range(25):
        R = build(random_complex(rng.randint(1, 6), rng))
        for k in range(1, len(R.boundaries)):
            assert (R.boundaries[k - 1] @ R.boundaries[k]).is_zero()


def test_int_keyed_builder_matches_the_tuple_faces():
    # cells as (free, signs) pairs, listed by (free, signs) in each degree
    rng = random.Random(53)
    Ks = [K for m in range(1, 5) for K in all_complexes(m)]
    Ks += [random_complex(m, rng) for m in (6, 7, 8) for _ in range(2)]
    Ks += [SimplicialComplex.cycle(9), SimplicialComplex.simplex(6),
           SimplicialComplex.points(5)]
    # maximal faces of mixed sizes: the cells of a maximal face have no
    # cofaces, so their rows in the boundary above are empty
    Ks += [random_complex(m, rng) for m in (9, 10) for _ in range(2)]
    Ks += [SimplicialComplex.points(6), SimplicialComplex.simplex(7)]
    for K in Ks:
        R = build(K)
        R.homology()
        assert R._cells is None         # homology builds no pairs
        want = [sorted((f, s) for f in K.faces if f.bit_count() == k
                       for s in range(1 << K.m) if not s & f)
                for k in range(K.dim() + 2)]
        assert R.cells == want
        assert R.boundaries == intlinalg.boundary_maps(R.cells, cube_faces)
        # the rows are adopted unchecked, and is_zero() trusts that none
        # is empty
        counts = [0] + R.cell_counts()
        for k, d in enumerate(R.boundaries):
            assert (d.rows, d.cols) == (counts[k], counts[k + 1])
            assert all(d._row.values())
            assert all(0 <= r < d.rows and 0 <= c < d.cols and v
                       for (r, c), v in d.items())


def test_build_takes_m_above_the_command_cap():
    # the size caps belong to the commands (tests/test_cli.py), not to the
    # library: H_1 of the 13-cube's graph has rank E - V + 1, the generator
    # count of points(13)
    K = SimplicialComplex.points(13)
    assert build(K).homology() == [HomologyGroup(1), HomologyGroup(45057)]
    assert generator_count(K) == 45057


def test_homology_sphere_torus_genus5():
    assert [str(h) for h in homology(build(boundary_complex(3)))] == \
        ["Z", "0", "Z"]
    assert [str(h) for h in homology(build(C4))] == ["Z", "Z^2", "Z"]
    hs = homology(build(SimplicialComplex.cycle(5)))
    assert [h.betti for h in hs] == [1, 10, 1]
    assert all(not h.torsion for h in hs)


def test_cycle_surfaces():
    for m in (4, 5, 6):
        genus = (m - 4) * 2 ** (m - 3) + 1
        R = build(SimplicialComplex.cycle(m))
        hs = homology(R)
        assert [h.betti for h in hs] == [1, 2 * genus, 1]
        assert all(not h.torsion for h in hs)
        assert R.euler_characteristic() == 2 - 2 * genus


def test_homology_returns_a_new_list():
    R = CubeComplex(SimplicialComplex.cycle(4))
    hs = R.homology()
    want = [HomologyGroup(1), HomologyGroup(2), HomologyGroup(1)]
    assert hs == want
    hs.pop()
    assert R.homology() == want
    assert R.homology() is not R.homology()


def test_boundaries_returns_a_new_list():
    R = CubeComplex(SimplicialComplex.cycle(4))
    bs = R.boundaries
    want = list(bs)
    bs.pop()
    assert R.boundaries == want
    assert R.homology() == [HomologyGroup(1), HomologyGroup(2),
                            HomologyGroup(1)]
    assert R.boundaries is not R.boundaries


def test_cells_returns_new_lists():
    R = CubeComplex(SimplicialComplex.cycle(4))
    cells = R.cells
    cells[2].clear()
    cells.pop()
    assert [len(level) for level in R.cells] == R.cell_counts() == \
        [16, 32, 16]
    assert R.cells[2] is not R.cells[2]


def test_cycle10_homology():
    # genus (m - 4) * 2 ** (m - 3) + 1 = 769, from a 1,024 x 5,120 and a
    # 5,120 x 2,560 boundary
    hs = CubeComplex(SimplicialComplex.cycle(10)).homology()
    assert [h.betti for h in hs] == [1, 1538, 1]
    assert all(not h.torsion for h in hs)


def test_euler_characteristic():
    assert build(C4).euler_characteristic() == 0
    for m in (2, 3, 4, 5):
        K = SimplicialComplex.points(m)
        chi = build(K).euler_characteristic()
        assert chi == 2 ** m - m * 2 ** (m - 1)
        assert chi == 1 - generator_count(K)
    # Euler characteristic always equals the alternating Betti sum
    # (torsion never contributes)
    rng = random.Random(3)
    for _ in range(20):
        R = build(random_complex(rng.randint(1, 6), rng))
        alt = sum((-1) ** k * h.betti for k, h in enumerate(homology(R)))
        assert R.euler_characteristic() == alt


def test_splitting_check_examples():
    for K in (C4, SimplicialComplex.simplex(3), boundary_complex(3),
              SimplicialComplex.points(4), PATH4):
        report = homology_splitting_check(K)
        assert report.passed
    report = homology_splitting_check(C4)
    degree1 = report.rows[1]
    assert degree1.left.betti == 2
    js = [J for J, _ in degree1.contributions]
    assert (1, 3) in js and (2, 4) in js
    # the simplex is contractible: only the empty subset contributes
    report = homology_splitting_check(SimplicialComplex.simplex(3))
    assert report.rows[0].contributions == [((), report.rows[0].right)]
    # degree-2 of the 3-cube boundary comes from the full vertex set
    report = homology_splitting_check(boundary_complex(3))
    assert report.rows[2].contributions == \
        [((1, 2, 3), report.rows[2].right)]


def test_splitting_check_exhaustive_m3():
    for K in all_complexes(3):
        assert homology_splitting_check(K).passed


def test_splitting_check_random_m6():
    rng = random.Random(61)
    for _ in range(12):
        assert homology_splitting_check(random_complex(6, rng)).passed


def test_splitting_check_random_m9():
    assert homology_splitting_check(random_complex(9, random.Random(9))).passed


def test_splitting_check_sees_torsion():
    rp2 = SimplicialComplex.from_maximal_faces(6, [
        [1, 2, 4], [1, 2, 6], [1, 3, 4], [1, 3, 5], [1, 5, 6],
        [2, 3, 5], [2, 3, 6], [2, 4, 5], [3, 4, 6], [4, 5, 6]])
    report = homology_splitting_check(rp2)
    assert report.passed
    assert report.rows[2].left.torsion == (2,)


def test_pi1_presentation():
    pres = fundamental_group_presentation(build(SimplicialComplex.points(3)))
    assert pres.generator_count == 5
    assert pres.relator_count == 0
    assert pres.abelianized_rank == 5
    pres = fundamental_group_presentation(build(C4))
    assert pres.generator_count == 17
    assert pres.relator_count == 16
    assert pres.abelianized_rank == 2
    pres = fundamental_group_presentation(build(SimplicialComplex.simplex(3)))
    assert pres.abelianized_rank == 0
    # generator count is always E - V + 1 of the cube graph
    rng = random.Random(19)
    for _ in range(10):
        K = random_complex(rng.randint(1, 6), rng)
        pres = fundamental_group_presentation(build(K))
        assert pres.generator_count == \
            K.m * 2 ** (K.m - 1) - 2 ** K.m + 1


def test_pi1_relators_match_two_cell_boundaries():
    # each relator word, read as signed non-tree traversal counts, must be
    # exactly the corresponding boundary column restricted to those edges
    rng = random.Random(47)
    complexes = [C4, boundary_complex(3)] + \
        [random_complex(rng.randint(2, 5), rng) for _ in range(10)]
    for K in complexes:
        R = build(K)
        pres = fundamental_group_presentation(R)
        loops = R.loop_system()
        for col, word in enumerate(pres.relators):
            counts = {}
            for signed in word:
                idx = abs(signed) - 1
                counts[idx] = counts.get(idx, 0) + (1 if signed > 0 else -1)
            for row in range(loops.rank_cycles):
                assert counts.get(row, 0) == entry(loops.relators, row, col)


def _nontree_index(loops, m):
    """Each non-tree edge's int key ``free << m | signs`` -> its id, read
    off ``nontree``."""
    return {1 << axis << m | signs: idx
            for idx, (axis, signs) in enumerate(loops.nontree)}


def test_pi1_relators_are_corner_walks():
    # each relator walks its square from the (-,-) corner, +i at j=-1, +j
    # at i=+1, -i at j=+1, -j at i=-1 (axes i < j), keeping non-tree edges
    rng = random.Random(47)
    complexes = [C4, boundary_complex(3)] + \
        [random_complex(rng.randint(2, 5), rng) for _ in range(10)]
    for K in complexes:
        R = build(K)
        index = _nontree_index(R.loop_system(), K.m)
        want = []
        for free, signs in (R.cells[2] if len(R.cells) > 2 else ()):
            i, j = [a for a in range(K.m) if free >> a & 1]
            walk = [(i, signs, 1), (j, signs | 1 << i, 1),
                    (i, signs | 1 << j, -1), (j, signs, -1)]
            keys = [(1 << a << K.m | s, d) for a, s, d in walk]
            want.append(tuple(d * (index[key] + 1) for key, d in keys
                              if key in index))
        assert fundamental_group_presentation(R).relators == want


def _bfs_tree(m):
    """Tree edges (axis, signs) of a breadth-first search of the m-cube
    graph from the all-plus corner, trying axes in increasing order."""
    base = (1 << m) - 1
    seen = {base}
    queue = [base]
    tree = set()
    for v in queue:
        for axis in range(m):
            w = v ^ (1 << axis)
            if w not in seen:
                seen.add(w)
                tree.add((axis, v & ~(1 << axis)))
                queue.append(w)
    return tree


def test_nontree_edges_complement_a_breadth_first_tree():
    rng = random.Random(53)
    complexes = [SimplicialComplex.points(m) for m in range(1, 11)] + \
        [random_complex(rng.randint(1, 7), rng) for _ in range(15)]
    for K in complexes:
        R = build(K)
        tree = _bfs_tree(K.m)
        assert len(tree) == 2 ** K.m - 1
        edges = [(free.bit_length() - 1, signs) for free, signs in R.cells[1]]
        assert R.loop_system().nontree == [e for e in edges if e not in tree]


def test_loop_system_builds_relators_without_boundaries():
    relator_nnz = []
    for K in (SimplicialComplex.cycle(5), SimplicialComplex.points(4),
              random_complex(6, random.Random(6))):
        R = build(K)
        loops = R.loop_system()
        assert R._boundaries is None
        edges = R._keys(1)
        d2 = (R.boundaries[2] if len(R.boundaries) > 2
              else IntMatrix(len(edges), 0))
        index = _nontree_index(loops, K.m)
        want = {}
        for (r, c), v in d2.items():
            idx = index.get(edges[r])
            if idx is not None:
                want[idx, c] = v
        assert loops.relators == IntMatrix(loops.rank_cycles, d2.cols, want)
        relator_nnz.append(loops.relators.nnz())
    assert relator_nnz[0] > 0 and relator_nnz[1] == 0 and relator_nnz[2] > 0


def test_loop_system_of_the_rank_0_model():
    # the complex on no vertex has a one-point model: no edge, no square,
    # a rank-0 loop system, and the empty word's class is empty
    K = SimplicialComplex(0, [0])
    R = build(K)
    assert cubical._edge_ranks(0) == (None,)
    assert R._boundary(2) == IntMatrix(0, 0)
    loops = R.loop_system()
    assert (loops.rank_cycles, loops.betti1, loops.nontree,
            loops.relator_words) == (0, 0, [], [])
    assert loops.relators == IntMatrix(0, 0)
    assert word_class(R, (), coxeter_spec(K)) == ()
    pres = fundamental_group_presentation(R)
    assert (pres.generators, pres.relators, pres.abelianized_rank) == \
        ([], [], 0)


def test_loop_system_reads_int_keys(monkeypatch):
    # the loop system and the certificate read edges and squares as int
    # keys and never build the (free, signs) pairs
    built = []
    cells = CubeComplex.cells
    monkeypatch.setattr(CubeComplex, "cells", property(
        lambda R: built.append(R) or cells.fget(R)))
    rng = random.Random(20261018)
    complexes = [K for m in range(1, 5) for K in all_complexes(m)]
    complexes += [random_complex(m, rng) for m in (6, 7, 8) for _ in range(3)]
    for K in complexes:
        R = build(K)
        loops = R.loop_system()
        assert R._cells is None
        assert cubical.certify(K).verdict
        assert built == []
        m = K.m
        edges = R._keys(1)
        tree = _bfs_tree(m)
        want = [key for key in edges
                if ((key >> m).bit_length() - 1, key & (1 << m) - 1)
                not in tree]
        assert [1 << a << m | s for a, s in loops.nontree] == want
        spec = coxeter_spec(K)
        edge_set = set(edges)
        for w in generator_words(K, enumerate_generators(K)):
            steps = word_to_loop(R, w, spec)
            assert steps
            assert all(key in edge_set and d in (1, -1) for key, d in steps)


def test_loop_system_builds_only_edges_and_squares(monkeypatch):
    # the loop system reads the 1- and 2-cells, so it asks the complex for
    # its vertices and edges only, however high the model's dimension
    asked = []
    faces_of_size = SimplicialComplex.faces_of_size
    monkeypatch.setattr(SimplicialComplex, "faces_of_size",
                        lambda K, k: asked.append(k) or faces_of_size(K, k))
    R = build(SimplicialComplex.simplex(6))
    assert R.dim == 6
    loops = R.loop_system()
    assert sorted(asked) == [1, 2]
    assert (loops.rank_cycles, len(loops.relator_words)) == (129, 240)


def test_word_loops_on_torus():
    R = build(C4)
    spec = coxeter_spec(C4)
    a1 = commutator(generator(3), generator(1), spec)
    b1 = commutator(generator(4), generator(2), spec)
    ca = word_class(R, a1, spec)
    cb = word_class(R, b1, spec)
    assert smith_normal_form(IntMatrix.from_dense([list(ca), list(cb)])) == \
        [1, 1]
    assert word_class(R, (), spec) == (0, 0)
    w = commutator(generator(2), generator(1), spec)
    w_inv = tuple((v, -e) for v, e in reversed(w))
    assert word_class(R, w + w_inv, spec) == (0, 0)


def _vector(index, steps):
    """The signed traversal counts {non-tree id: n} of ``word_to_loop``'s
    steps, read through ``index``, a :func:`_nontree_index`."""
    vec = {}
    for edge, direction in steps:
        idx = index.get(edge)
        if idx is not None:
            vec[idx] = vec.get(idx, 0) + direction
    return vec


def test_word_to_loop_requirements():
    R = build(C4)
    spec = coxeter_spec(C4)
    with pytest.raises(ValueError):
        word_to_loop(R, generator(1), spec)          # does not close up
    artin = GroupSpec.artin(C4.one_skeleton())
    with pytest.raises(ValueError):
        word_to_loop(R, (), artin)                   # orders must be 2
    with pytest.raises(ValueError, match="different ranks"):
        word_to_loop(R, (), coxeter_spec(PATH4.full_subcomplex([1, 2, 3])))
    # an even exponent is the identity: no step
    assert word_to_loop(R, ((1, 2),), spec) == []
    # a closing word really is a closed path
    loop = word_to_loop(R, ((1, 1), (2, 1), (1, 1), (2, 1)), spec)
    assert len(loop) == 4
    loops = R.loop_system()
    vec = _vector(_nontree_index(loops, R.m), loop)
    assert loops.reduction.cokernel_class(vec)[1] == \
        word_class(R, ((1, 1), (2, 1), (1, 1), (2, 1)), spec)


BAD_WORDS = [(((1, True), (1, True)), "exponent True"),
             (((5, 1), (5, 1)), "vertex 5 out of range"),
             (((0, 1), (0, 1)), "vertex 0 out of range"),
             (((True, 1), (True, 1)), "vertex True out of range"),
             (((1, 1), (2, 1), (1, 1)), "does not close up")]


def test_word_to_loop_checks_every_letter():
    R = build(C4)
    spec = coxeter_spec(C4)
    for w, message in BAD_WORDS:
        with pytest.raises(ValueError, match=message):
            word_to_loop(R, w, spec)
        with pytest.raises(ValueError, match=message):
            word_class(R, w, spec)


def test_certificate_path_checks_every_letter():
    # the basis check walks each word once for its loop vector; a bad
    # letter or an open walk raises there as in word_to_loop
    spec = coxeter_spec(C4)
    gen_words = generator_words(C4, enumerate_generators(C4))
    assert cubical._is_homology_basis(C4, spec, gen_words)
    for w, message in BAD_WORDS:
        for r in (0, len(gen_words) - 1):
            changed = gen_words[:r] + [w] + gen_words[r + 1:]
            with pytest.raises(ValueError, match=message):
                cubical._is_homology_basis(C4, spec, changed)


def test_one_walk_ids_match_the_steps():
    # the ids and counts that the one walk reads off each corner are those
    # of _nontree_index over word_to_loop's steps, summed by direction
    rng = random.Random(20261023)
    complexes = [make(m) for m in range(3, 9)
                 for make in (SimplicialComplex.points,
                              SimplicialComplex.cycle)]
    complexes += [random_complex(rng.randint(1, 8), rng) for _ in range(12)]
    walked = 0
    for K in complexes:
        R = build(K)
        index = _nontree_index(R.loop_system(), K.m)
        spec = coxeter_spec(K)
        for w in generator_words(K, enumerate_generators(K)):
            steps = []
            assert cubical._walk(K.m, w, spec, steps) == \
                _vector(index, steps)
            assert steps == word_to_loop(R, w, spec)
            walked += len(steps)
    assert walked > 60_000


def test_relators_are_d2_rekeyed_to_nontree_ids():
    # the row rule of the loop system against d2 re-keyed through the
    # int keys of the edges and a breadth-first tree
    for m in range(1, 11):
        for K in (SimplicialComplex.points(m), SimplicialComplex.simplex(m)) \
                if m < 8 else (SimplicialComplex.cycle(m),):
            R = build(K)
            loops = R.loop_system()
            tree = _bfs_tree(m)
            ids = {}
            for r, key in enumerate(R._keys(1)):
                if ((key >> m).bit_length() - 1, key & (1 << m) - 1) \
                        not in tree:
                    ids[r] = len(ids)
            assert loops.rank_cycles == len(ids)
            d2 = R._boundary(2)
            assert loops.relators == IntMatrix._from_rows(
                len(ids), d2.cols,
                {ids[r]: e for r, e in d2._row.items() if r in ids})


def test_basis_certificate_examples():
    assert basis_certificate(PATH4)
    assert basis_certificate(C4)
    assert basis_certificate(SimplicialComplex.simplex(3))
    assert basis_certificate(SimplicialComplex.points(3))
    rng = random.Random(83)
    for _ in range(15):
        assert basis_certificate(random_complex(rng.randint(1, 6), rng))


def test_basis_certificate_exhaustive_m4():
    for K in all_complexes(4):
        assert basis_certificate(K), K


def test_basis_matrix_rows_are_the_word_classes(monkeypatch):
    # the basis check fills its rows sparsely; the reference stacks the
    # public word_class tuples
    built = []

    def recording(mat):
        built.append(mat)
        return smith_normal_form(mat)

    monkeypatch.setattr(cubical, "smith_normal_form", recording)
    rng = random.Random(20261020)
    complexes = [K for m in range(1, 5) for K in all_complexes(m)]
    complexes += [random_complex(m, rng) for m in (6, 7, 8) for _ in range(3)]
    complexes += [SimplicialComplex.points(8), SimplicialComplex.cycle(8)]
    for K in complexes:
        spec = coxeter_spec(K)
        gen_words = generator_words(K, enumerate_generators(K))
        assert cubical._is_homology_basis(K, spec, gen_words)
        R = build(K)
        assert built.pop() == IntMatrix.from_dense(
            [list(word_class(R, w, spec)) for w in gen_words])


def test_basis_check_rejects_a_repeated_or_squared_generator():
    rng = random.Random(20261021)
    complexes = [PATH4, C4, SimplicialComplex.points(4)]
    complexes += [random_complex(m, rng) for m in (5, 6) for _ in range(3)]
    complexes = [K for K in complexes if generator_count(K) >= 2]
    assert len(complexes) >= 6
    for K in complexes:
        spec = coxeter_spec(K)
        gen_words = generator_words(K, enumerate_generators(K))
        n = len(gen_words)
        for r in range(n):
            for w in (gen_words[(r + 1) % n],
                      multiply(gen_words[r], gen_words[r], spec)):
                changed = gen_words[:r] + [w] + gen_words[r + 1:]
                assert not cubical._is_homology_basis(K, spec, changed)


def test_basis_check_rejects_a_dropped_generator():
    # one word short fails the count check; a word replaced by a copy of
    # another, the right count, is the test above
    rng = random.Random(20261022)
    complexes = [PATH4, C4, SimplicialComplex.points(4)]
    complexes += [random_complex(m, rng) for m in (5, 6) for _ in range(3)]
    complexes = [K for K in complexes if generator_count(K)]
    assert len(complexes) >= 6
    for K in complexes:
        spec = coxeter_spec(K)
        gen_words = generator_words(K, enumerate_generators(K))
        assert not cubical._is_homology_basis(K, spec, gen_words[:-1])


def test_wedge_signature():
    assert wedge_of_circles_signature(PATH4)
    assert not wedge_of_circles_signature(C4)
    rng = random.Random(101)
    chordal_seen = non_seen = 0
    from coxkit.simplicial import is_chordal
    while chordal_seen < 8 or non_seen < 8:
        g = random_graph(rng.randint(4, 6), rng)
        K = clique_complex(g)
        if is_chordal(g):
            chordal_seen += 1
            assert wedge_of_circles_signature(K)
        else:
            non_seen += 1
            assert not wedge_of_circles_signature(K)


def test_no_caller_reaches_the_euclidean_phase(monkeypatch):
    # A measurement on this corpus, not a theorem: every pivot of the
    # relator matrix's LeftReduction, of certify's basis-matrix Smith call
    # and of each homology degree's Smith call is a unit.  No complex here
    # has torsion; test_torsion_reaches_the_euclidean_phase records what
    # torsion does.  Degree 1 is the m-cube's incidence matrix, which
    # smith_normal_form reduces without the kernel: a spanning tree.
    runs, smiths = [], []
    run, smith = intlinalg._Reduction.run, intlinalg.smith_normal_form

    def recording(red):
        run(red)
        runs.append((red.left is not None, red.units < len(red.pivots)))

    def recording_smith(mat, **kwargs):
        smiths.append(smith(mat, **kwargs))
        return smiths[-1]

    monkeypatch.setattr(intlinalg._Reduction, "run", recording)
    monkeypatch.setattr(intlinalg, "smith_normal_form", recording_smith)
    rng = random.Random(20261018)
    complexes = [K for m in range(1, 5) for K in all_complexes(m)]
    complexes += [random_complex(m, rng) for m in range(5, 9)
                  for _ in range(25)]
    complexes += [SimplicialComplex.points(m) for m in range(2, 10)]
    complexes += [SimplicialComplex.cycle(m) for m in range(4, 10)]
    complexes += [SimplicialComplex.simplex(m) for m in range(2, 10)]
    assert len(complexes) == 248
    relator, basis, degrees = [], [], []
    for K in complexes:
        assert cubical.certify(K).verdict
        assert [left for left, _ in runs] == [True, False]
        relator.append(runs[0][1])
        basis.append(runs[1][1])
        del runs[:], smiths[:]
        CubeComplex(K).homology()
        assert [left for left, _ in runs] == [False] * (K.dim() + 1)
        assert len(smiths) == K.dim() + 2
        assert smiths[1] == [1] * (2**K.m - 1)
        degrees += [euclidean for _, euclidean in runs]
        del runs[:]
    assert (len(relator), len(basis), len(degrees)) == (248, 248, 728)
    assert (sum(relator), sum(basis), sum(degrees)) == (0, 0, 0)


def test_torsion_reaches_the_euclidean_phase(monkeypatch):
    # A record, as above: the cube model of a 6-vertex RP^2 has a Z/2 in
    # degree 2, and so do the models of RP^2 plus isolated vertices and of
    # two disjoint copies, 2^k times over.  Each Z/2 is one non-unit pivot
    # in the top degree's Smith call, and every other pivot is a unit.
    # Degree 1, the m-cube's incidence matrix, reaches no kernel.
    nonunits, smiths = [], []
    run, smith = intlinalg._Reduction.run, intlinalg.smith_normal_form

    def recording(red):
        run(red)
        nonunits.append(len(red.pivots) - red.units)

    def recording_smith(mat, **kwargs):
        smiths.append(smith(mat, **kwargs))
        return smiths[-1]

    monkeypatch.setattr(intlinalg._Reduction, "run", recording)
    monkeypatch.setattr(intlinalg, "smith_normal_form", recording_smith)
    two = RP2 + [[v + 6 for v in face] for face in RP2]
    for m, faces, count in ((6, RP2, 1), (7, RP2, 2), (8, RP2, 4),
                            (12, two, 128)):
        K = SimplicialComplex.from_maximal_faces(m, faces)
        hs = CubeComplex(K).homology()
        assert nonunits == [0, 0, count]
        assert len(smiths) == K.dim() + 2
        assert smiths[1] == [1] * (2**m - 1)
        assert [h.torsion for h in hs] == [(), (), (2,) * count, ()]
        del nonunits[:], smiths[:]


def test_chain_homology_clears_rows_of_unit_pivot_columns(monkeypatch):
    ds = CubeComplex(random_complex(6, random.Random(6))).boundaries
    calls = []

    def recording(mat, **kwargs):
        factors = smith_normal_form(mat, **kwargs)
        calls.append((mat, factors, set(kwargs["_units"])))
        return factors

    monkeypatch.setattr(intlinalg, "smith_normal_form", recording)
    chain_homology(ds)
    assert len(calls) == len(ds)
    cleared = set()
    for d, (mat, factors, units) in zip(ds, calls):
        assert (mat.rows, mat.cols) == (d.rows, d.cols)
        kept = set(d._row) - cleared
        assert set(mat._row) == kept
        assert all(mat._row[r] == d._row[r] for r in kept)
        assert factors == smith_normal_form(d)
        # every pivot on this input is a unit, and each clears a row above
        assert len(units) == len(factors)
        cleared = units
    assert sum(d.nnz() for d in ds) > sum(mat.nnz() for mat, _, _ in calls)

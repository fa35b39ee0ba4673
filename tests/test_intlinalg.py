import math
import random
import time

import pytest

from coxkit.cubical import build
from coxkit.intlinalg import (ChainComplexError, HomologyGroup, IntMatrix,
                              LeftReduction, _Reduction, boundary_maps,
                              chain_homology, direct_sum, smith_normal_form)
from coxkit.simplicial import _simplex_faces
from helpers import (dense, entry, minor_gcd_invariant_factors,
                     random_complex)


def test_snf_examples():
    assert smith_normal_form(IntMatrix.from_dense([[2, 0], [0, 3]])) == [1, 6]
    assert smith_normal_form(IntMatrix.from_dense([[0]])) == []
    assert smith_normal_form(IntMatrix.from_dense(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == [1, 1, 1]


def test_snf_empty_and_zero():
    assert smith_normal_form(IntMatrix(0, 5)) == []
    assert smith_normal_form(IntMatrix(5, 0)) == []
    assert smith_normal_form(IntMatrix(0, 0)) == []
    assert smith_normal_form(IntMatrix(3, 4)) == []


def test_snf_against_minor_gcd_oracle():
    rng = random.Random(2024)
    for _ in range(500):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        dense = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
        got = smith_normal_form(IntMatrix.from_dense(dense))
        assert got == minor_gcd_invariant_factors(dense), dense


def test_snf_divisibility_chain():
    rng = random.Random(7)
    for _ in range(300):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        dense = [[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)]
        factors = smith_normal_form(IntMatrix.from_dense(dense))
        assert all(d > 0 for d in factors)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


def test_snf_invariance_under_permutation_and_negation():
    rng = random.Random(99)
    for _ in range(200):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        dense = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        base = smith_normal_form(IntMatrix.from_dense(dense))
        rows = dense[:]
        rng.shuffle(rows)
        cols = list(range(c))
        rng.shuffle(cols)
        shuffled = [[row[j] for j in cols] for row in rows]
        neg_row = rng.randrange(r)
        shuffled[neg_row] = [-v for v in shuffled[neg_row]]
        assert smith_normal_form(IntMatrix.from_dense(shuffled)) == base


def test_snf_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    rng = random.Random(11)
    for _ in range(150):
        r = rng.randint(1, 9)
        c = rng.randint(1, 9)
        density = rng.choice([0.3, 0.6, 1.0])
        scale = rng.choice([1, 1, 2, 6])
        dense = [[scale * rng.randint(-5, 5) if rng.random() < density else 0
                  for _ in range(c)] for _ in range(r)]
        D = sympy_snf(sympy.Matrix(dense), domain=sympy.ZZ)
        want = [abs(int(D[k, k])) for k in range(min(r, c)) if D[k, k]]
        assert smith_normal_form(IntMatrix.from_dense(dense)) == want, dense


def test_left_reduction_transform():
    rng = random.Random(5)
    torsion_seen = 0
    for _ in range(200):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        # a scaled matrix holds no unit, so only the Euclidean phase runs
        scale = rng.choice([1, 1, 2, 3])
        dense = [[scale * rng.randint(-9 // scale, 9 // scale)
                  for _ in range(c)] for _ in range(r)]
        M = IntMatrix.from_dense(dense)
        red = LeftReduction(M)
        assert red.factors == minor_gcd_invariant_factors(dense), dense
        U = IntMatrix(r, r, {(i, k): v for i, urow in enumerate(red._u_rows)
                             for k, v in urow.items()})
        assert smith_normal_form(U) == [1] * r
        assert all(i < red.rank for (i, _), _ in (U @ M).items())
        torsion_seen += any(d > 1 for d in red.factors)
    assert torsion_seen >= 20


def _bareiss_det(dense):
    """Exact determinant by fraction-free elimination."""
    a = [row[:] for row in dense]
    n, sign, prev = len(a), 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _scrambled_diagonal(rng, r, c):
    """P D Q for random unimodular P, Q made of elementary operations and a
    diagonal D whose nonzero entries are a divisibility chain of 1s and
    torsion, followed by zeros.  Returns the matrix and D's factors."""
    rank = rng.randint(min(r, c) // 2, min(r, c))
    ones = rng.randint(0, rank)
    factors, d = [1] * ones, 1
    for _ in range(rank - ones):
        d *= rng.choice([1, 2, 2, 3, 5])
        factors.append(d)
    dense = [[0] * c for _ in range(r)]
    for k, d in enumerate(factors):
        dense[k][k] = d
    for _ in range(r + c):
        k = rng.choice([-1, 1])
        if rng.random() < 0.5:
            i, j = rng.sample(range(r), 2)
            dense[i] = [x + k * y for x, y in zip(dense[i], dense[j])]
        else:
            i, j = rng.sample(range(c), 2)
            for row in dense:
                row[i] += k * row[j]
    rng.shuffle(dense)
    return dense, factors


def test_pivot_routine_on_large_scrambled_diagonals():
    rng = random.Random(40)
    for _ in range(30):
        r, c = rng.randint(20, 40), rng.randint(20, 40)
        entries, factors = _scrambled_diagonal(rng, r, c)
        M = IntMatrix.from_dense(entries)
        assert smith_normal_form(M) == factors
        red = LeftReduction(M)
        assert red.factors == factors and red.rank == len(factors)
        U = [[urow.get(k, 0) for k in range(r)] for urow in red._u_rows]
        assert _bareiss_det(U) in (1, -1)
        UM = dense(IntMatrix.from_dense(U) @ M)
        assert not any(any(row) for row in UM[red.rank:])
        # U M = D V^-1 and a row of a unimodular matrix has content 1
        for k, d in enumerate(factors):
            assert math.gcd(*UM[k]) == d


def test_left_reduction_cokernel_classes():
    # Z^3 / colspan([[2,0],[0,3],[0,0]]) = Z/2 + Z/3 + Z
    M = IntMatrix.from_dense([[2, 0], [0, 3], [0, 0]])
    red = LeftReduction(M)
    assert sorted(red.factors) in ([1, 6], [2, 3])
    # every column of M must map to the trivial class
    for col in range(2):
        vec = {r: entry(M, r, col) for r in range(3)}
        torsion, free = red.cokernel_class(vec)
        assert not any(torsion) and not any(free)
    # e3 generates the free part
    _, free = red.cokernel_class({2: 1})
    assert any(free)


def test_left_reduction_kills_image_vectors():
    rng = random.Random(321)
    for _ in range(150):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        dense = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
        M = IntMatrix.from_dense(dense)
        red = LeftReduction(M)
        x = [rng.randint(-4, 4) for _ in range(c)]
        image = {i: sum(dense[i][j] * x[j] for j in range(c))
                 for i in range(r)}
        torsion, free = red.cokernel_class(image)
        assert not any(torsion) and not any(free)


def test_intmatrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, {(2, 0): 1})
    with pytest.raises(ValueError):
        IntMatrix.from_dense([[1, 2], [3]])
    M = IntMatrix.from_dense([[1, 2], [3, 4]])
    assert dense(M) == [[1, 2], [3, 4]]
    MT = IntMatrix(2, 2, (((c, r), v) for (r, c), v in M.items()))
    assert dense(MT) == [[1, 3], [2, 4]]
    with pytest.raises(ValueError):
        IntMatrix(2, 3) @ IntMatrix(2, 3)


def test_intmatrix_rejects_booleans():
    for make in (lambda: IntMatrix(1, 1, {(0, 0): True}),
                 lambda: IntMatrix(2, 2, [((1, 0), False)]),
                 lambda: IntMatrix.from_dense([[1, False]]),
                 lambda: IntMatrix(True, 2),
                 lambda: IntMatrix(2, False),
                 lambda: IntMatrix(True, 1)):
        with pytest.raises(ValueError):
            make()


def _random_dense(rng, r, c, density=0.5):
    return [[rng.randint(-4, 4) if rng.random() < density else 0
             for _ in range(c)] for _ in range(r)]


def _dense_product(a, b, c):
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(c)]
            for row in a]


def _matrix(dense, c):
    """The validating constructor, fed every entry, zeros included."""
    return IntMatrix(len(dense), c, {(i, j): v for i, row in enumerate(dense)
                                     for j, v in enumerate(row)})


def test_row_format_agrees_with_dense_reference():
    rng = random.Random(61)
    for _ in range(200):
        r, k, c = (rng.randint(0, 6) for _ in range(3))
        a = _random_dense(rng, r, k)
        b = _random_dense(rng, k, c)
        A = _matrix(a, k)
        if r and k:
            assert A == IntMatrix.from_dense(a)
        assert dense(A) == a
        assert sorted(A.items()) == [((i, j), a[i][j]) for i in range(r)
                                     for j in range(k) if a[i][j]]
        assert A.nnz() == sum(v != 0 for row in a for v in row)
        assert A.is_zero() == (A.nnz() == 0)
        AT = IntMatrix(A.cols, A.rows,
                       (((c, r), v) for (r, c), v in A.items()))
        assert dense(AT) == [[a[i][j] for i in range(r)]
                             for j in range(k)]
        ab = _dense_product(a, b, c)
        assert dense(A @ _matrix(b, c)) == ab
        assert A @ _matrix(b, c) == _matrix(ab, c)


def test_cancelling_products_are_zero():
    rng = random.Random(62)
    for _ in range(100):
        r, k, c = (rng.randint(1, 6) for _ in range(3))
        x = _random_dense(rng, r, k, 0.7)
        y = _random_dense(rng, k, c, 0.7)
        # [x | x] @ [y ; -y] = xy - xy, and every nonzero term cancels
        left = IntMatrix.from_dense([row + row for row in x])
        right = IntMatrix.from_dense(y + [[-v for v in row] for row in y])
        product = left @ right
        assert product.is_zero() and product.nnz() == 0
        assert product == IntMatrix(r, c)
        assert list(product.items()) == []
        # rows that cancel leave no trace beside rows that do not
        keep = rng.randrange(r)
        x2 = [row + (row if i != keep else [0] * k)
              for i, row in enumerate(x)]
        mixed = IntMatrix.from_dense(x2) @ right
        xy = _dense_product(x, y, c)
        want = [row if i == keep else [0] * c for i, row in enumerate(xy)]
        assert mixed == IntMatrix.from_dense(want)


def test_reduction_leaves_its_input_unchanged():
    rng = random.Random(63)
    for _ in range(200):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        entries = [[rng.choice([0, 0, 1, -1, 2, 3]) * rng.choice([1, 2])
                    for _ in range(c)] for _ in range(r)]
        M = _matrix(entries, c)
        copy = IntMatrix.from_dense(entries)
        smith_normal_form(M)
        assert M == copy
        LeftReduction(M)
        assert M == copy and dense(M) == entries
    # boundary matrices are filled as rows and reduced without change
    levels = [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)]]
    ds = boundary_maps(levels, lambda e: [((e[1],), 1), ((e[0],), -1)])
    copies = [_matrix(dense(d), d.cols) for d in ds]
    assert chain_homology(ds) == [HomologyGroup(1), HomologyGroup(1)]
    assert ds == copies and ds[1].nnz() == 6


def test_homology_group_validation():
    with pytest.raises(ValueError):
        HomologyGroup(-1)
    with pytest.raises(ValueError):
        HomologyGroup(0, (1,))
    with pytest.raises(ValueError):
        HomologyGroup(0, (4, 6))
    # only exact integers: no floats, no bools
    for betti, torsion in [(1.5, ()), (0, (2.5,)), (0, (2, 4.0)),
                           (True, ()), (0, (2, True))]:
        with pytest.raises(ValueError, match="not an exact integer"):
            HomologyGroup(betti, torsion)
    assert str(HomologyGroup(2, (2, 4))) == "Z^2 + Z/2 + Z/4"
    assert str(HomologyGroup(0)) == "0"


def test_direct_sum_regroups_torsion():
    a = HomologyGroup(1, (2,))
    b = HomologyGroup(0, (3,))
    assert direct_sum([a, b]) == HomologyGroup(1, (6,))
    assert direct_sum([a, a]) == HomologyGroup(2, (2, 2))
    assert direct_sum([]) == HomologyGroup(0)
    assert direct_sum([HomologyGroup(0, (4,)), HomologyGroup(0, (6,))]) == \
        HomologyGroup(0, (2, 12))
    assert direct_sum([HomologyGroup(0, (2, 6)), HomologyGroup(0, (3, 9)),
                       HomologyGroup(0, (5,))]) == \
        HomologyGroup(0, (3, 6, 90))


def _prime_power_direct_sum(groups):
    """Reference: split every factor into prime powers by trial division,
    then let the k-th largest factor be the product over primes of each
    prime's k-th largest power."""
    powers = {}
    for g in groups:
        for t in g.torsion:
            p = 2
            while t > 1:
                q = 1
                while t % p == 0:
                    t //= p
                    q *= p
                if q > 1:
                    powers.setdefault(p, []).append(q)
                p += 1
    chains = [sorted(qs, reverse=True) for qs in powers.values()]
    depth = max(map(len, chains), default=0)
    factors = [math.prod(c[k] for c in chains if k < len(c))
               for k in range(depth)]
    return HomologyGroup(sum(g.betti for g in groups),
                         tuple(reversed(factors)))


def test_direct_sum_matches_prime_power_reference():
    rng = random.Random(909)
    for _ in range(2500):
        groups = []
        for _ in range(rng.randint(0, 12)):
            chain, f = [], rng.randint(1, 12)
            for _ in range(rng.randint(0, 3)):
                if f > 1:
                    chain.append(f)
                f *= rng.randint(1, 6)
            groups.append(HomologyGroup(rng.randint(0, 2), tuple(chain)))
        assert direct_sum(groups) == _prime_power_direct_sum(groups)


def test_direct_sum_of_large_prime_factors():
    # 2^60 + 33 and 2^60 + 91 are prime; no factorisation is attempted
    p, q = 2 ** 60 + 33, 2 ** 60 + 91
    start = time.perf_counter()
    got = direct_sum([HomologyGroup(0, (p * q,)), HomologyGroup(0, (6,))])
    shared = direct_sum([HomologyGroup(0, (2 * p * q,)),
                         HomologyGroup(0, (6,))])
    assert time.perf_counter() - start < 1
    assert got == HomologyGroup(0, (6 * p * q,))
    assert shared == HomologyGroup(0, (2, 6 * p * q))


def test_chain_homology_circle():
    d0 = IntMatrix(0, 4)
    d1 = IntMatrix.from_dense([[-1, 0, 0, 1],
                               [1, -1, 0, 0],
                               [0, 1, -1, 0],
                               [0, 0, 1, -1]])
    hs = chain_homology([d0, d1])
    assert [h.betti for h in hs] == [1, 1]
    assert all(not h.torsion for h in hs)


def test_chain_homology_point():
    hs = chain_homology([IntMatrix(0, 1)])
    assert hs == [HomologyGroup(1)]


def test_chain_homology_rejects_bad_complexes():
    d0 = IntMatrix(0, 2)
    bad_dim = IntMatrix(3, 1)
    with pytest.raises(ChainComplexError):
        chain_homology([d0, bad_dim])
    not_zero = [IntMatrix(0, 1),
                IntMatrix.from_dense([[1]]),
                IntMatrix.from_dense([[1]])]
    with pytest.raises(ChainComplexError):
        chain_homology(not_zero)


def test_chain_homology_rejects_nonzero_degree_minus_one():
    # boundaries[0] maps into the zero module, so it must have 0 rows
    with pytest.raises(ChainComplexError):
        chain_homology([IntMatrix.from_dense([[1]])])
    with pytest.raises(ChainComplexError):
        chain_homology([IntMatrix(1, 2), IntMatrix(2, 1)])


def test_chain_homology_torsion():
    # Z --2--> Z in degrees 1 -> 0 gives H_0 = Z/2
    hs = chain_homology([IntMatrix(0, 1), IntMatrix.from_dense([[2]])])
    assert hs[0] == HomologyGroup(0, (2,))
    assert hs[1] == HomologyGroup(0)


def test_unit_pivot_ties_ignore_entry_order():
    # rows 0 and 8 share a hash slot in a small set, so the order they go
    # into column 0's row set is the order they are met in; both hold +-1
    # and are equally short
    tie = IntMatrix(9, 2, [((0, 0), 1), ((8, 0), -1), ((8, 1), 1),
                           ((0, 1), 1), ((4, 1), 1)])
    mats = [tie]
    levels = [[(v,) for v in range(9)],
              [(u, v) for u in range(9) for v in range(u + 1, 9)
               if (u * v + u + v) % 3]]
    mats.append(boundary_maps(levels, lambda e: [((e[1],), 1),
                                                 ((e[0],), -1)])[1])
    for M in mats:
        MT = IntMatrix(M.cols, M.rows,
                       (((c, r), v) for (r, c), v in M.items()))
        for A in (M, MT):
            red = _Reduction(A)
            red.run()
            assert red.units == len(red.pivots)
            B = IntMatrix(A.rows, A.cols, list(A.items())[::-1])
            assert A == B and list(A.items()) != list(B.items())
            assert LeftReduction(A)._u_rows == LeftReduction(B)._u_rows


def test_euclidean_pivot_ties_ignore_entry_order():
    # no entry is +-1, so the Euclidean phase makes every pivot: its row
    # walk, its least-remainder column and its folded row go by index, so
    # U must not depend on the order the entries came in.  In the first
    # matrix, rows 0 and 8 share a hash slot of column 0's row set and both
    # leave a remainder against the pivot 2 in row 4.
    rng = random.Random(61)
    mats = [[((0, 0), 3), ((4, 0), 2), ((8, 0), 3)]]
    for _ in range(80):
        rows, cols = rng.randint(6, 30), rng.randint(6, 14)
        p = rng.choice([0.2, 0.5, 1])
        mats.append([((r, c), rng.choice([2, -2, 3, 4, 6]))
                     for r in range(rows) for c in range(cols)
                     if rng.random() < p])
    for entries in mats:
        rows = 1 + max(r for (r, _), _ in entries)
        cols = 1 + max(c for (_, c), _ in entries)
        A = IntMatrix(rows, cols, entries)
        B = IntMatrix(rows, cols, entries[::-1])
        assert A == B and list(A.items()) != list(B.items())
        red = _Reduction(A)
        red.run()
        assert red.units == 0 and red.pivots
        assert LeftReduction(A)._u_rows == LeftReduction(B)._u_rows


def _add_multiple(dst, src, mult):
    for k, v in src.items():
        dst[k] = dst.get(k, 0) + mult * v
        if not dst[k]:
            del dst[k]


def _unit_phase_reference(M, track_left):
    """The unit phase by brute force: among the columns holding +-1 the one
    with the fewest nonzeros, then the lowest index; in it the unit row
    with the fewest entries, then the lowest index.  Returns the pivots,
    the rows left and the left transform (None unless tracked)."""
    row = {}
    for (r, c), v in M.items():
        row.setdefault(r, {})[c] = v
    left = ({r: {r: 1} for r in range(M.rows)} if track_left else None)
    pivots = []
    while True:
        cols = {}
        for r, entries in row.items():
            for c in entries:
                cols.setdefault(c, []).append(r)
        units = [c for c, rs in cols.items()
                 if any(abs(row[r][c]) == 1 for r in rs)]
        if not units:
            return pivots, row, left
        c = min(units, key=lambda c: (len(cols[c]), c))
        p = min((r for r in cols[c] if abs(row[r][c]) == 1),
                key=lambda r: (len(row[r]), r))
        d = row[p][c]
        for r in cols[c]:
            if r != p:
                f = row[r][c] * d
                _add_multiple(row[r], row[p], -f)
                if left is not None:
                    _add_multiple(left[r], left[p], -f)
        if d < 0 and left is not None:
            left[p] = {k: -v for k, v in left[p].items()}
        del row[p]
        pivots.append((p, c, 1))


class _UnitPhaseDone(Exception):
    pass


def _stop_at_the_euclidean_phase(r, c):
    raise _UnitPhaseDone


def test_unit_phase_order_matches_a_brute_force_reference():
    # the unit phase is the reference's order exactly, so U is pinned, and
    # no column holding a unit leaves the queue for the Euclidean phase
    rng = random.Random(65)
    mats = []
    for m in (3, 4, 5, 6):
        for _ in range(3):
            K = random_complex(m, rng)
            mats += build(K).boundaries[1:]
            levels = [K.faces_of_size(k) for k in range(K.dim() + 2)]
            mats += boundary_maps(levels, _simplex_faces)[1:]
    for _ in range(120):
        rows, cols = rng.randint(1, 14), rng.randint(1, 14)
        mats.append(IntMatrix(rows, cols, [
            ((r, c), rng.choice([0, 0, 0, 1, -1, 2, -2, 3]))
            for r in range(rows) for c in range(cols)]))
    euclidean = 0
    for M in mats:
        for track in (False, True):
            want, rest, left = _unit_phase_reference(M, track)
            red = _Reduction(M, track_left=track)
            red.run()
            assert red.pivots[:red.units] == want and red.units == len(want)
            euclidean += red.units < len(red.pivots)
            red = _Reduction(M, track_left=track)
            red.pivot = _stop_at_the_euclidean_phase
            try:
                red.run()
            except _UnitPhaseDone:
                pass
            assert red.pivots == want and red.row == rest and red.left == left
    # some matrices go on to the Euclidean phase, so the stub is reached
    assert euclidean >= 20


def _unimodular_pair(rng, n):
    """A random unimodular P and its inverse Q, as dense rows: products of
    elementary operations with multipliers +-1, +-2, then a permutation."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Q = [row[:] for row in P]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        a = rng.choice([-2, -1, 1, 2])
        for row in P:                       # P <- P (I + a e_ij)
            row[j] += a * row[i]
        Q[i] = [x - a * y for x, y in zip(Q[i], Q[j])]  # Q <- (I - a e_ij) Q
    perm = list(range(n))
    rng.shuffle(perm)
    return [[row[p] for p in perm] for row in P], [Q[p] for p in perm]


def _prescribed_complex(rng, top):
    """Boundaries d_k = P_{k-1} E_k P_k^-1 and the homology read off E.

    C_k has a basis of a_k targets, h_k cycles and s_k sources, in that
    order; E_k sends the i-th source to f_{k,i} times the i-th target of
    C_{k-1}, so E_{k-1} E_k = 0.  Each f_k is a divisibility chain, holding
    no 1 at all in some degrees."""
    sources = [0] + [rng.randint(0, 4) for _ in range(top)]
    targets = sources[1:] + [0]
    cycles = [rng.randint(0, 2) for _ in range(top + 1)]
    dims = [a + h + s for a, h, s in zip(targets, cycles, sources)]
    factors = [[]]
    for k in range(1, top + 1):
        chain, d = [], rng.choice([1, 1, 2, 3])
        for _ in range(sources[k]):
            d *= rng.choice([1, 1, 2, 3])
            chain.append(d)
        factors.append(chain)
    pairs = [_unimodular_pair(rng, n) for n in dims]
    for (P, Q), n in zip(pairs, dims):
        assert IntMatrix.from_dense(P) @ IntMatrix.from_dense(Q) == \
            IntMatrix(n, n, {(i, i): 1 for i in range(n)})
    boundaries = [IntMatrix(0, dims[0])]
    for k in range(1, top + 1):
        first = targets[k] + cycles[k]
        E = IntMatrix(dims[k - 1], dims[k], {
            (i, first + i): f for i, f in enumerate(factors[k])})
        P = IntMatrix(dims[k - 1], dims[k - 1],
                      {(i, j): v for i, row in enumerate(pairs[k - 1][0])
                       for j, v in enumerate(row)})
        Q = IntMatrix(dims[k], dims[k],
                      {(i, j): v for i, row in enumerate(pairs[k][1])
                       for j, v in enumerate(row)})
        boundaries.append(P @ E @ Q)
    factors.append([])
    want = [HomologyGroup(cycles[k], tuple(f for f in factors[k + 1] if f > 1))
            for k in range(top + 1)]
    return boundaries, want


def test_chain_homology_prescribed_torsion():
    rng = random.Random(64)
    euclidean_then_more = 0
    for _ in range(150):
        ds, want = _prescribed_complex(rng, rng.randint(2, 5))
        assert chain_homology(ds) == want
        for k in range(1, len(ds) - 1):
            red = _Reduction(ds[k])
            red.run()
            if red.units < len(red.pivots) and not ds[k + 1].is_zero():
                euclidean_then_more += 1
    # the Euclidean phase runs, and clearing must then leave its rows alone
    assert euclidean_then_more >= 30

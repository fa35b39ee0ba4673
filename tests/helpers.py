"""Shared test utilities: exhaustive complex enumeration, random samples,
and independent brute-force oracles."""

import itertools
from math import comb, gcd

from coxkit.commutators import generator_count
from coxkit.cubical import CubeComplex
from coxkit.simplicial import (Graph, SimplicialComplex, _bits,
                               _components_masks)
from coxkit.words import _inverse_letters, normal_form


def all_complexes(m):
    """Every simplicial complex on exactly m labelled vertices (all
    singletons present), as SimplicialComplex objects."""
    subsets = [s for s in range(1 << m) if bin(s).count("1") >= 2]
    subsets.sort(key=lambda s: (bin(s).count("1"), s))
    base = {0} | {1 << i for i in range(m)}
    out = []

    def closed_under(faces, s):
        for b in range(m):
            if s >> b & 1:
                t = s & ~(1 << b)
                if bin(t).count("1") >= 2 and t not in faces:
                    return False
        return True

    def rec(i, faces):
        if i == len(subsets):
            out.append(SimplicialComplex(m, base | faces))
            return
        rec(i + 1, faces)
        s = subsets[i]
        if closed_under(faces, s):
            faces.add(s)
            rec(i + 1, faces)
            faces.remove(s)

    rec(0, set())
    return out


def random_complex(m, rng, edge_p=0.45, tri_p=0.18, quad_p=0.06):
    verts = range(1, m + 1)
    maximal = [list(c) for c in itertools.combinations(verts, 2)
               if rng.random() < edge_p]
    maximal += [list(c) for c in itertools.combinations(verts, 3)
                if rng.random() < tri_p]
    maximal += [list(c) for c in itertools.combinations(verts, 4)
                if rng.random() < quad_p]
    return SimplicialComplex.from_maximal_faces(m, maximal)


def random_graph(m, rng, p=0.5):
    edges = [c for c in itertools.combinations(range(1, m + 1), 2)
             if rng.random() < p]
    return Graph(m, edges)


def components(K):
    """Components of the 1-skeleton of K, as sorted vertex tuples,
    ordered by their smallest vertex."""
    comps = [tuple(i + 1 for i in _bits(mask))
             for mask in _components_masks(K, (1 << K.m) - 1)]
    return sorted(comps, key=lambda c: c[0])


def to_nested(expr):
    """The nested-array form of a CommutatorExpr, e.g. [2, [3, 1]] for
    (g_2, (g_3, g_1)).  At most one child of each node is a commutator,
    so the tree is one path: walk down it, then build from the bottom."""
    path = []
    while not isinstance(expr, int):
        path.append(expr)
        expr = expr.right if isinstance(expr.left, int) else expr.left
    for node in reversed(path):
        expr = [node.left, expr] if isinstance(node.left, int) \
            else [expr, node.right]
    return expr


def cube_faces(cell):
    """The boundary of a cube-model cell ``(free, signs)`` as ((free,
    signs), sign) pairs: for the t-th free coordinate i, from the lowest,
    the face with i pinned to +1 with sign (-1)^(t-1), then the face with
    i pinned to -1 with the opposite sign."""
    free, signs = cell
    sign = 1
    for i in _bits(free):
        smaller = free & ~(1 << i)
        yield (smaller, signs | (1 << i)), sign
        yield (smaller, signs), -sign
        sign = -sign


def entry(M, r, c):
    """Entry (r, c) of the IntMatrix ``M``, zero where nothing is stored."""
    if not (0 <= r < M.rows and 0 <= c < M.cols):
        raise IndexError((r, c))
    return M._row.get(r, {}).get(c, 0)


def dense(M):
    """The IntMatrix ``M`` as a list of rows, zeros included."""
    return [[entry(M, r, c) for c in range(M.cols)] for r in range(M.rows)]


def support(gen):
    """The vertices of a CommutatorGenerator: its ks, j and i, sorted."""
    return tuple(sorted(gen.ks + (gen.j, gen.i)))


def inverse(u, spec):
    """Normal form of u^-1, from the letter reversal that ``commutator``
    uses (it checks every letter before negating its exponent)."""
    return normal_form(_inverse_letters(u, spec), spec)


def free_product_counts(m):
    """Generators per length for m disjoint points in closed form:
    (l - 1) * C(m, l) of length l."""
    return {ell: (ell - 1) * comb(m, ell) for ell in range(2, m + 1)
            if (ell - 1) * comb(m, ell)}


def wedge_of_circles_signature(K):
    """Whether the cubical model of K looks like a wedge of circles:
    homology vanishes above degree 1, no torsion anywhere, and betti_1 ==
    generator count == 1 - Euler characteristic."""
    R = CubeComplex(K)
    hom = R.homology()
    count = generator_count(K)
    higher_trivial = all(h.is_trivial() for h in hom[2:])
    torsion_free = all(not h.torsion for h in hom)
    b1 = hom[1].betti if len(hom) > 1 else 0
    return (higher_trivial and torsion_free and b1 == count
            and count == 1 - R.euler_characteristic())


# -- brute-force oracles ------------------------------------------------------

def minor_gcd_invariant_factors(dense):
    """Invariant factors from first principles: the product of the first k
    factors is the gcd of all k x k minors."""
    r = len(dense)
    c = len(dense[0]) if r else 0

    def det(mat):
        n = len(mat)
        if n == 0:
            return 1
        if n == 1:
            return mat[0][0]
        total = 0
        for j in range(n):
            sub = [row[:j] + row[j + 1:] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * det(sub)
        return total

    prev = 1
    factors = []
    for k in range(1, min(r, c) + 1):
        g = 0
        for rows in itertools.combinations(range(r), k):
            for cols in itertools.combinations(range(c), k):
                g = gcd(g, det([[dense[i][j] for j in cols] for i in rows]))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def has_chordless_cycle(graph):
    """Exhaustive search: is some induced subgraph on >= 4 vertices a
    single cycle?"""
    m = graph.m
    for subset in range(1 << m):
        verts = [i for i in range(m) if subset >> i & 1]
        if len(verts) < 4:
            continue
        if any(bin(graph.adj[v] & subset).count("1") != 2 for v in verts):
            continue
        comp = {verts[0]}
        stack = [verts[0]]
        while stack:
            x = stack.pop()
            for y in verts:
                if graph.adj[x] >> y & 1 and y not in comp:
                    comp.add(y)
                    stack.append(y)
        if len(comp) == len(verts):
            return True
    return False


def brute_missing_faces(K):
    """All minimal non-faces by direct enumeration (m small)."""
    out = []
    for s in range(1 << K.m):
        if s in K.faces:
            continue
        if all((s & ~(1 << b)) in K.faces for b in range(K.m) if s >> b & 1):
            out.append(tuple(i + 1 for i in range(K.m) if s >> i & 1))
    return sorted(out)


def all_graphs(m):
    """Every labelled graph on m vertices."""
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(m, [p for i, p in enumerate(pairs) if mask >> i & 1])

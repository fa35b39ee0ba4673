"""The cubical model of a simplicial complex inside [-1, 1]^m.

For a complex K on [m], the model is the union, over faces I of K, of the
faces of the cube [-1, 1]^m whose free coordinates are exactly I and whose
remaining coordinates are pinned to +-1.  Each face I with k vertices
contributes 2^(m-k) k-dimensional cells.  The 1-skeleton is always the full
cube graph (every singleton is a face), so the model is connected and words
in the associated Coxeter group trace edge paths on it: the letter g_i walks
along the axis-i edge at the current corner.  Its spanning tree is read off
in closed form: an axis-i edge is a tree edge exactly when every coordinate
above i is +1.

This gives exact, independently computable invariants against which the
group-theoretic layer is verified: cellular homology, the Euler
characteristic, an edge-path fundamental-group presentation, and first
homology classes of word loops.
"""

from collections import namedtuple
from dataclasses import dataclass, field

from . import words
from .commutators import coxeter_spec, generator_count, generator_words
# unused here, but the benchmark's spans wrap ``cubical.enumerate_generators``
from .commutators import enumerate_generators  # noqa: F401
from .intlinalg import (HomologyGroup, IntMatrix, LeftReduction,
                        boundary_maps, chain_homology, direct_sum,
                        smith_normal_form)
from .simplicial import _bits, reduced_homology

MAX_CUBE_VERTICES = 12
MAX_CHECK_VERTICES = 10     # cap of the splitting check and the certificate


def _check_size(K, what):
    if K.m > MAX_CHECK_VERTICES:
        raise ValueError(f"m = {K.m} too large for {what} "
                         f"(cap {MAX_CHECK_VERTICES})")


class CubeComplex:
    """Cubical cell structure of the model of a complex K in [-1, 1]^m.

    A k-cell is a pair (free, signs): ``free`` is the bitmask of a k-vertex
    face of K and ``signs`` assigns +-1 (bit set = +1) to the coordinates
    outside ``free``.  Cells are listed per dimension, ordered by (free,
    signs), and the boundary of a cell with free set {i_1 < ... < i_k} is
    the alternating sum over t of (cell with i_t pinned to +1) minus (cell
    with i_t pinned to -1), with sign (-1)^(t-1).
    """

    def __init__(self, K):
        if K.m > MAX_CUBE_VERTICES:
            raise ValueError(f"m = {K.m} too large for the cubical model "
                             f"(cap {MAX_CUBE_VERTICES})")
        self.K = K
        self.m = K.m
        # a face with k vertices spans k-dimensional cube faces, so the cell
        # dimensions run up to (simplicial dimension + 1)
        self.dim = K.dim() + 1
        self._cells = None
        self._boundaries = None
        self._homology = None
        self._loops = None

    @property
    def cells(self):
        if self._cells is None:
            full = (1 << self.m) - 1
            cells = []
            for k in range(self.dim + 1):
                level = []
                for free in self.K.faces_of_size(k):
                    rest = full & ~free
                    # the subsets of rest in increasing order
                    signs = 0
                    while True:
                        level.append((free, signs))
                        if signs == rest:
                            break
                        signs = (signs - rest) & rest
                cells.append(level)
            self._cells = cells
        return self._cells

    @property
    def boundaries(self):
        if self._boundaries is None:
            self._boundaries = boundary_maps(self.cells, _cube_faces)
        return self._boundaries

    def cell_counts(self):
        """Cells per dimension: each face with k vertices carries a cube
        face for every sign pattern on the other m - k coordinates."""
        counts = [0] * (self.dim + 1)
        for f in self.K.faces:
            k = f.bit_count()
            counts[k] += 1 << (self.m - k)
        return counts

    def euler_characteristic(self):
        chi = 0
        for k, count in enumerate(self.cell_counts()):
            chi += count if k % 2 == 0 else -count
        return chi

    def homology(self):
        """Exact integral cellular homology, one group per degree 0..dim."""
        if self._homology is None:
            self._homology = chain_homology(self.boundaries)
        return self._homology

    def loop_system(self):
        if self._loops is None:
            self._loops = _LoopSystem(self)
        return self._loops


def _cube_faces(cell):
    free, signs = cell
    sign = 1
    for i in _bits(free):
        smaller = free & ~(1 << i)
        yield (smaller, signs | (1 << i)), sign
        yield (smaller, signs), -sign
        sign = -sign


def build(K):
    """The cubical model of ``K`` (vertex count capped at 12)."""
    return CubeComplex(K)


def euler_characteristic(R):
    return R.euler_characteristic()


def homology(R):
    return R.homology()


# ---------------------------------------------------------------------------
# Degree-by-degree comparison against the full-subcomplex decomposition
# ---------------------------------------------------------------------------

@dataclass
class SplittingRow:
    degree: int
    left: HomologyGroup
    right: HomologyGroup
    contributions: list = field(default_factory=list)

    @property
    def equal(self):
        # both sides are canonical: Betti number plus a divisibility chain
        return self.left == self.right


@dataclass
class SplittingReport:
    passed: bool
    rows: list

    def __bool__(self):
        return self.passed


def homology_splitting_check(K):
    """Compare the cubical model's homology with the direct sum, over all
    vertex subsets J, of the reduced homology of K restricted to J shifted
    up by one degree.  The two sides are computed by entirely independent
    code paths and must agree (Betti numbers and torsion) in every degree.
    """
    _check_size(K, "the splitting check")
    left = CubeComplex(K).homology()
    per_degree = [[] for _ in range(K.m + 1)]
    for mask in range(1 << K.m):
        J = [i + 1 for i in _bits(mask)]
        sub = K.full_subcomplex(J)
        reduced = reduced_homology(sub)
        for idx, group in enumerate(reduced):
            degree = idx       # reduced degree idx-1 contributes to idx
            if degree <= K.m and not group.is_trivial():
                per_degree[degree].append((tuple(J), group))
    rows = []
    for k in range(K.m + 1):
        left_k = left[k] if k < len(left) else HomologyGroup(0)
        right_k = direct_sum([g for (_, g) in per_degree[k]])
        rows.append(SplittingRow(k, left_k, right_k, per_degree[k]))
    return SplittingReport(all(r.equal for r in rows), rows)


# ---------------------------------------------------------------------------
# Edge loops, fundamental group data and first-homology coordinates
# ---------------------------------------------------------------------------

class _LoopSystem:
    """Spanning-tree and first-homology bookkeeping for the 1-skeleton.

    The 1-skeleton is the full cube graph on sign vectors.  An edge is
    (axis, signs-of-the-other-coordinates) and is oriented from its -1
    endpoint to its +1 endpoint.  The spanning tree is the set of edges
    whose coordinates above ``axis`` are all +1: it joins every corner to
    the all-plus one by flipping -1 coordinates from the highest down, and
    it is the tree that a breadth-first search from the all-plus corner,
    trying axes in increasing order, grows.  Cycle-space coordinates of a
    loop are its signed traversal counts on non-tree edges; first-homology
    coordinates follow by reducing modulo the image of the 2-cell
    boundaries via a Smith left transform.  ``relator_words`` holds each
    square's boundary walk as signed 1-based non-tree edge ids.
    """

    def __init__(self, R):
        full = (1 << R.m) - 1
        edge_cells = R.cells[1] if len(R.cells) > 1 else []
        self.nontree = []
        self.nontree_index = {}
        for free, signs in edge_cells:
            axis = free.bit_length() - 1
            if signs >> (axis + 1) != full >> (axis + 1):
                self.nontree_index[axis, signs] = len(self.nontree)
                self.nontree.append((axis, signs))
        self.rank_cycles = len(self.nontree)    # = E - V + 1
        # each square's boundary on the non-tree edges, once as a relator
        # word and once as a column of the relator matrix
        two_cells = R.cells[2] if len(R.cells) > 2 else []
        rows = {}
        self.relator_words = []
        for c, cell in enumerate(two_cells):
            faces = list(_cube_faces(cell))
            # for a square on axes i < j the faces come as: j at i=+1 (+),
            # j at i=-1 (-), i at j=+1 (-), i at j=-1 (+); the walk from the
            # (-,-) corner takes them in the order 3, 0, 2, 1, each along
            # its sign
            word = []
            for k in (3, 0, 2, 1):
                (free, signs), sign = faces[k]
                idx = self.nontree_index.get((free.bit_length() - 1, signs))
                if idx is not None:
                    rows.setdefault(idx, {})[c] = sign
                    word.append(sign * (idx + 1))
            self.relator_words.append(tuple(word))
        self.relators = IntMatrix._from_rows(self.rank_cycles,
                                             len(two_cells), rows)
        self.reduction = LeftReduction(self.relators)
        if any(d > 1 for d in self.reduction.factors):
            raise AssertionError(
                "unexpected torsion in degree-1 homology of a cubical model")
        self.betti1 = self.rank_cycles - self.reduction.rank


@dataclass
class Pi1Presentation:
    """Raw edge-path presentation of the fundamental group: one generator
    per non-tree edge of the 1-skeleton, one relator per 2-cell."""

    generators: list                 # non-tree edges (axis, signs)
    relators: list                   # tuples of signed 1-based generator ids
    abelianized_rank: int

    @property
    def generator_count(self):
        return len(self.generators)

    @property
    def relator_count(self):
        return len(self.relators)


def fundamental_group_presentation(R):
    """Presentation read off the 2-skeleton: spanning-tree edges collapse,
    each square contributes the word of its boundary path."""
    loops = R.loop_system()
    return Pi1Presentation(list(loops.nontree), list(loops.relator_words),
                           loops.betti1)


def word_to_loop(R, w, spec):
    """The closed edge path traced by ``w`` from the all-plus corner.

    Requires every generator order to be 2 and the exponent sum of ``w``
    to vanish mod 2 in each coordinate, that is, the walk ends at its
    starting corner (otherwise the path does not close).  Letters traverse
    the axis edge at the current corner; the result is a list of ((axis,
    signs), direction) steps with direction +1 when walking from the -1
    endpoint to the +1 endpoint.
    """
    if spec.m != R.m:
        raise ValueError("word group and cubical model have different ranks")
    if not spec.is_coxeter():
        raise ValueError("edge paths need every generator of order 2")
    start = pos = (1 << R.m) - 1
    steps = []
    for v, e in w:
        spec.check_letter(v, e)
        if e % 2 == 0:
            continue
        bit = 1 << (v - 1)
        direction = -1 if pos & bit else 1
        steps.append((((v - 1), pos & ~bit), direction))
        pos ^= bit
    if pos != start:
        raise ValueError("word does not close up: nonzero exponent sum")
    return steps


def loop_class(R, steps):
    """First-homology coordinates of a closed edge path."""
    loops = R.loop_system()
    vec = {}
    for edge, direction in steps:
        idx = loops.nontree_index.get(edge)
        if idx is not None:
            vec[idx] = vec.get(idx, 0) + direction
    # every factor is 1 (checked by the loop system), so no torsion part
    # is left
    return loops.reduction.cokernel_class(vec)[1]


def word_class(R, w, spec):
    return loop_class(R, word_to_loop(R, w, spec))


def _is_homology_basis(K, spec, gen_words):
    R = CubeComplex(K)
    loops = R.loop_system()
    if len(gen_words) != loops.betti1:
        return False
    entries = {}
    for r, w in enumerate(gen_words):
        for c, v in enumerate(word_class(R, w, spec)):
            if v:
                entries[r, c] = v
    mat = IntMatrix(len(gen_words), loops.betti1, entries)
    factors = smith_normal_form(mat)
    return factors == [1] * len(gen_words)


def basis_certificate(K):
    """Whether the commutator generators' loop classes form a basis of the
    first homology of the cubical model.

    Expands every generator to a word, traces it to a loop, collects the
    homology coordinates into an integer matrix, and demands Smith rank
    equal to the generator count with every invariant factor 1, plus
    agreement between the count and the first Betti number.
    """
    _check_size(K, "the basis certificate")
    return _is_homology_basis(K, coxeter_spec(K), generator_words(K))


Certificate = namedtuple("Certificate",
                         "count kernel nontrivial basis verdict")


def certify(K):
    """Check the commutator generators of ``K`` (m <= 10), expanding each
    to its word once: every word has zero abelianization (``kernel``), none
    is trivial by normal form or by the reflection oracle (``nontrivial``),
    and the loop classes form a first-homology basis (``basis``, which
    needs closed loops, so it fails whenever ``kernel`` does)."""
    _check_size(K, "the certificate")
    spec = coxeter_spec(K)
    gen_words = generator_words(K)
    zero = (0,) * K.m
    kernel = all(words.abelianization(w, spec) == zero for w in gen_words)
    nontrivial = all(w and not words.is_identity_matrix(
        words.geometric_representation(w, spec)) for w in gen_words)
    basis = kernel and _is_homology_basis(K, spec, gen_words)
    return Certificate(len(gen_words), kernel, nontrivial, basis,
                       kernel and nontrivial and basis)


def wedge_of_circles_signature(K):
    """(homology vanishes above degree 1, no torsion anywhere,
    betti_1 == generator count == 1 - Euler characteristic)."""
    R = CubeComplex(K)
    hom = R.homology()
    count = generator_count(K)
    higher_trivial = all(h.is_trivial() for h in hom[2:])
    torsion_free = all(not h.torsion for h in hom)
    b1 = hom[1].betti if len(hom) > 1 else 0
    return (higher_trivial and torsion_free and b1 == count
            and count == 1 - R.euler_characteristic())

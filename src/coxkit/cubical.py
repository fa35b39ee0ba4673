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
# ``generator_count`` stays a name of this module, though nothing here calls
# it: the benchmark's spans wrap it here
from .commutators import (coxeter_spec, enumerate_generators,
                          generator_count, generator_words)
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

    The boundaries and the loop system are built on one int key per cell,
    ``free << m | signs``, in the same order, so neither builds the pairs.
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

    def _keys(self, k):
        """The k-cells as int keys ``free << m | signs``, in the order of
        :attr:`cells`."""
        m = self.m
        full = (1 << m) - 1
        level = []
        for free in self.K.faces_of_size(k):
            rest = full & ~free
            # the subsets of rest in increasing order
            signs = 0
            while True:
                level.append(free << m | signs)
                if signs == rest:
                    break
                signs = (signs - rest) & rest
        return level

    def _key_faces(self, key):
        """The (face key, sign) pairs of a cell's boundary, in the class
        docstring's order, two per free coordinate from the lowest up:
        pinning coordinate i clears bit i of ``free`` and, for +1, sets
        bit i of ``signs``."""
        m = self.m
        out = []
        free = key >> m
        sign = 1
        while free:
            low = free & -free
            free -= low
            face = key - (low << m)
            out += ((face + low, sign), (face, -sign))
            sign = -sign
        return out

    @property
    def cells(self):
        """The cells per dimension, as new lists on each access."""
        if self._cells is None:
            n = 1 << self.m
            self._cells = tuple(tuple(divmod(key, n) for key in self._keys(k))
                                for k in range(self.dim + 1))
        return [list(level) for level in self._cells]

    @property
    def boundaries(self):
        """The boundary matrices, as a new list on each access."""
        if self._boundaries is None:
            self._boundaries = tuple(boundary_maps(
                [self._keys(k) for k in range(self.dim + 1)], self._key_faces))
        return list(self._boundaries)

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
        """Exact integral cellular homology, one group per degree 0..dim,
        as a new list on each call."""
        if self._homology is None:
            self._homology = tuple(chain_homology(self.boundaries))
        return list(self._homology)

    def loop_system(self):
        if self._loops is None:
            self._loops = _LoopSystem(self)
        return self._loops


def build(K):
    """The cubical model of ``K`` (vertex count capped at 12)."""
    return CubeComplex(K)


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
    boundaries via a Smith left transform.

    Edges and squares are read as the cube model's int keys, ``free << m
    | signs``, and a square's faces come from ``R._key_faces``.
    ``nontree`` lists the non-tree edges as (axis, signs) pairs,
    ``nontree_index`` maps each one's int key to its position there, and
    ``relator_words`` holds each square's boundary walk as signed 1-based
    non-tree edge ids.
    """

    def __init__(self, R):
        m = R.m
        full = (1 << m) - 1
        self.nontree = []
        self.nontree_index = {}
        for key in R._keys(1):
            axis = (key >> m).bit_length() - 1
            signs = key & full
            if signs >> (axis + 1) != full >> (axis + 1):
                self.nontree_index[key] = len(self.nontree)
                self.nontree.append((axis, signs))
        self.rank_cycles = len(self.nontree)    # = E - V + 1
        # each square's boundary on the non-tree edges, once as a relator
        # word and once as a column of the relator matrix
        squares = R._keys(2)
        rows = {}
        self.relator_words = []
        for c, key in enumerate(squares):
            faces = R._key_faces(key)
            # for a square on axes i < j the faces come as: j at i=+1 (+),
            # j at i=-1 (-), i at j=+1 (-), i at j=-1 (+); the walk from the
            # (-,-) corner takes them in the order 3, 0, 2, 1, each along
            # its sign
            word = []
            for k in (3, 0, 2, 1):
                face, sign = faces[k]
                idx = self.nontree_index.get(face)
                if idx is not None:
                    rows.setdefault(idx, {})[c] = sign
                    word.append(sign * (idx + 1))
            self.relator_words.append(tuple(word))
        self.relators = IntMatrix._from_rows(self.rank_cycles,
                                             len(squares), rows)
        self.reduction = LeftReduction(self.relators)
        if any(d > 1 for d in self.reduction.factors):
            raise AssertionError(
                "unexpected torsion in degree-1 homology of a cubical model")
        self.betti1 = self.rank_cycles - self.reduction.rank

    def vector(self, steps):
        """A closed edge path's signed traversal counts {non-tree edge: n},
        from the (edge key, direction) steps of :func:`word_to_loop`."""
        vec = {}
        for edge, direction in steps:
            idx = self.nontree_index.get(edge)
            if idx is not None:
                vec[idx] = vec.get(idx, 0) + direction
        return vec


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
    the axis edge at the current corner; the result is a list of (edge
    key, direction) steps, the key ``free << m | signs`` of
    :class:`CubeComplex` with ``free`` the axis bit, and direction +1 when
    walking from the -1 endpoint to the +1 endpoint.
    """
    if spec.m != R.m:
        raise ValueError("word group and cubical model have different ranks")
    if not spec.is_coxeter():
        raise ValueError("edge paths need every generator of order 2")
    m = R.m
    start = pos = (1 << m) - 1
    steps = []
    for v, e in w:
        spec.check_letter(v, e)
        if e % 2 == 0:
            continue
        bit = 1 << (v - 1)
        direction = -1 if pos & bit else 1
        steps.append((bit << m | pos & ~bit, direction))
        pos ^= bit
    if pos != start:
        raise ValueError("word does not close up: nonzero exponent sum")
    return steps


def word_class(R, w, spec):
    """First-homology coordinates of the closed edge path of ``w``."""
    loops = R.loop_system()
    # every factor is 1 (checked by the loop system), so no torsion part
    # is left
    return loops.reduction.cokernel_class(
        loops.vector(word_to_loop(R, w, spec)))[1]


def _is_homology_basis(K, spec, gen_words):
    R = CubeComplex(K)
    loops = R.loop_system()
    if len(gen_words) != loops.betti1:
        return False
    # row r is word_class of word r, kept sparse: U @ vector past the rank
    # (every factor is 1, so the torsion part is empty)
    rank = loops.reduction.rank
    rows = {}
    for r, w in enumerate(gen_words):
        y = loops.reduction.apply(loops.vector(word_to_loop(R, w, spec)))
        row = {k - rank: v for k, v in y.items() if k >= rank}
        if row:
            rows[r] = row
    mat = IntMatrix._from_rows(len(gen_words), loops.betti1, rows)
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
    return _is_homology_basis(K, coxeter_spec(K),
                              generator_words(K, enumerate_generators(K)))


Certificate = namedtuple("Certificate",
                         "count kernel nontrivial basis verdict")


def certify(K):
    """Check the commutator generators of ``K`` (m <= 10), expanding each
    to its word once: every word has zero abelianization (``kernel``), none
    is trivial by normal form or by the chamber test of the reflection
    representation (``nontrivial``), and the loop classes form a
    first-homology basis (``basis``, which needs closed loops, so it fails
    whenever ``kernel`` does)."""
    _check_size(K, "the certificate")
    spec = coxeter_spec(K)
    gen_words = generator_words(K, enumerate_generators(K))
    zero = (0,) * K.m
    kernel = all(words.abelianization(w, spec) == zero for w in gen_words)
    nontrivial = all(w and not words.is_identity_chamber(w, spec)
                     for w in gen_words)
    basis = kernel and _is_homology_basis(K, spec, gen_words)
    return Certificate(len(gen_words), kernel, nontrivial, basis,
                       kernel and nontrivial and basis)


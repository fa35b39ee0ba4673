"""The cubical model of a simplicial complex inside [-1, 1]^m.

For a complex K on [m], the model is the union, over faces I of K, of the
faces of the cube [-1, 1]^m whose free coordinates are exactly I and whose
remaining coordinates are pinned to +-1.  Each face I with k vertices
contributes 2^(m-k) k-dimensional cells, one per sign pattern on the other
coordinates, and every boundary incidence follows from I, the pinned
coordinate and a bit count.  The 1-skeleton is always the full cube graph
(every singleton is a face), so the model is connected and words in the
associated Coxeter group trace edge paths on it: the letter g_i walks
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
from functools import cached_property

from . import words
# ``generator_count`` stays a name of this module, though nothing here calls
# it: the benchmark's spans wrap it here
from .commutators import (coxeter_spec, enumerate_generators,
                          generator_count, generator_words)
from .intlinalg import (HomologyGroup, IntMatrix, LeftReduction,
                        chain_homology, direct_sum, smith_normal_form)
from .simplicial import _bits, reduced_homology


class CubeComplex:
    """Cubical cell structure of the model of a complex K in [-1, 1]^m.

    A k-cell is a pair (free, signs): ``free`` is the bitmask of a k-vertex
    face of K and ``signs`` assigns +-1 (bit set = +1) to the coordinates
    outside ``free``.  Cells are listed per dimension, ordered by (free,
    signs), and the boundary of a cell with free set {i_1 < ... < i_k} is
    the alternating sum over t of (cell with i_t pinned to +1) minus (cell
    with i_t pinned to -1), with sign (-1)^(t-1).

    Each face of K owns one contiguous block of cells per degree, its signs
    in increasing order, so the boundaries are built by block arithmetic
    (:meth:`_boundary`): a face's row is its block's offset plus its signs'
    rank, with no per-cell lookup.  The loop system reads d_2 from the same
    builder, and walks edges and squares as one int key per cell,
    ``free << m | signs``, in the same order; neither builds the pairs.
    """

    def __init__(self, K):
        self.K = K
        self.m = K.m
        # a face with k vertices spans k-dimensional cube faces, so the cell
        # dimensions run up to (simplicial dimension + 1)
        self.dim = K.dim() + 1
        self._face_lists = {}
        self._cells = None
        self._boundaries = None
        self._homology = None
        self._loops = None

    def _faces(self, k):
        """The faces of K with k vertices, in increasing order, listed once
        per model."""
        faces = self._face_lists.get(k)
        if faces is None:
            faces = self._face_lists[k] = self.K.faces_of_size(k)
        return faces

    def _keys(self, k):
        """The k-cells as int keys ``free << m | signs``, in the order of
        :attr:`cells`."""
        m = self.m
        full = (1 << m) - 1
        level = []
        for free in self._faces(k):
            rest = full & ~free
            # the subsets of rest in increasing order
            signs = 0
            while True:
                level.append(free << m | signs)
                if signs == rest:
                    break
                signs = (signs - rest) & rest
        return level

    @property
    def cells(self):
        """The cells per dimension, as new lists on each access."""
        if self._cells is None:
            n = 1 << self.m
            self._cells = tuple(tuple(divmod(key, n) for key in self._keys(k))
                                for k in range(self.dim + 1))
        return [list(level) for level in self._cells]

    def _boundary(self, k):
        """d_k, the boundary from the k-cells to the (k-1)-cells, built
        afresh on each call.

        A face F with k vertices owns the block of 2^(m-k) columns that
        follows the blocks of the faces before it, with its signs in
        increasing order, so the column at rank t inside the block has
        signs t spread over the coordinates outside F.  Pinning coordinate
        i of F lands in the block of F - i, where the sign of i is one more
        bit, at position p = the number of coordinates outside F below i:
        the -1 face is at rank ((t >> p) << (p + 1)) + (t & (2^p - 1)) and
        the +1 face 2^p further on, with the signs of the class docstring.
        Rows are filled one column at a time, so the 2k entries of a column
        share its index.
        """
        m = self.m
        full = (1 << m) - 1
        below = self._faces(k - 1) if k else ()
        width = m - k + 1               # a (k-1)-face owns 2^width rows
        offset = {face: i << width for i, face in enumerate(below)}
        rows = [{} for _ in range(len(below) << width)]
        faces = self._faces(k)
        n = 1 << (m - k) if faces else 0
        c0 = 0
        for free in faces:
            rest = full & ~free
            pins = []
            sign = 1
            f = free
            while f:
                low = f & -f
                f -= low
                p = (rest & (low - 1)).bit_count()
                half = 1 << p
                pins.append((offset[free - low], p, p + 1, half - 1, half,
                             -sign, sign))
                sign = -sign
            for t in range(n):
                c = c0 + t
                for base, p, p1, mask, half, minus, plus in pins:
                    r = base + (t >> p << p1) + (t & mask)
                    rows[r][c] = minus
                    rows[r + half][c] = plus
            c0 += n
        return IntMatrix._from_rows(len(rows), c0,
                                    {r: e for r, e in enumerate(rows) if e})

    @property
    def boundaries(self):
        """The boundary matrices, as a new list on each access."""
        if self._boundaries is None:
            self._boundaries = tuple(map(self._boundary, range(self.dim + 1)))
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
    """The cubical model of ``K``, with 2^(m - |f|) cells per face f of K;
    the library sets no size cap (the ``coxkit`` commands do)."""
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
    left = CubeComplex(K).homology()
    per_degree = [[] for _ in range(K.m + 1)]
    for mask in range(1 << K.m):
        J = [i + 1 for i in _bits(mask)]
        sub = K.full_subcomplex(J)
        reduced = reduced_homology(sub)
        for k, group in enumerate(reduced):     # reduced degree k - 1 adds to k
            if not group.is_trivial():
                per_degree[k].append((tuple(J), group))
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

    Edges are read as the cube model's int keys, ``free << m | signs``.
    ``nontree`` lists the non-tree edges as (axis, signs) pairs, and
    ``nontree_index`` maps each one's int key to its position there.  The
    relator matrix is the model's d_2 (``R._boundary(2)``) on the non-tree
    rows, re-keyed to their positions.  ``relator_words``, built on first
    use, holds each square's boundary walk as signed 1-based non-tree edge
    ids, in the squares' order.  Nothing here holds the model itself: the
    model caches its loop system, and a reference back would make a cycle
    that only the garbage collector frees.
    """

    def __init__(self, R):
        self._m = m = R.m
        full = (1 << m) - 1
        self._edges = R._faces(2)       # the faces of K that span squares
        self.nontree = []
        self.nontree_index = {}
        ids = {}                        # row of d2 -> non-tree id
        for r, key in enumerate(R._keys(1)):
            axis = (key >> m).bit_length() - 1
            signs = key & full
            if signs >> (axis + 1) != full >> (axis + 1):
                ids[r] = self.nontree_index[key] = len(self.nontree)
                self.nontree.append((axis, signs))
        self.rank_cycles = len(self.nontree)    # = E - V + 1
        # d2's rows on the non-tree edges, re-keyed to their ids
        d2 = R._boundary(2)
        self.relators = IntMatrix._from_rows(
            self.rank_cycles, d2.cols,
            {ids[r]: e for r, e in d2._row.items() if r in ids})
        self.reduction = LeftReduction(self.relators)
        if any(d > 1 for d in self.reduction.factors):
            raise AssertionError(
                "unexpected torsion in degree-1 homology of a cubical model")
        self.betti1 = self.rank_cycles - self.reduction.rank

    @cached_property
    def relator_words(self):
        """Each square's boundary walk, as signed 1-based non-tree ids."""
        m, index = self._m, self.nontree_index
        full = (1 << m) - 1
        out = []
        for free in self._edges:
            i = free & -free
            j = free - i
            rest = full & ~free
            signs = 0
            while True:
                # the walk from the (-,-) corner of the square on axes
                # i < j: +i at j=-1, +j at i=+1, -i at j=+1, -j at i=-1
                word = []
                for key, d in ((i << m | signs, 1), (j << m | signs | i, 1),
                               (i << m | signs | j, -1), (j << m | signs, -1)):
                    idx = index.get(key)
                    if idx is not None:
                        word.append(d * (idx + 1))
                out.append(tuple(word))
                if signs == rest:
                    break
                signs = (signs - rest) & rest
        return out

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
    return _is_homology_basis(K, coxeter_spec(K),
                              generator_words(K, enumerate_generators(K)))


Certificate = namedtuple("Certificate",
                         "count kernel nontrivial basis verdict")


def certify(K):
    """Check the commutator generators of ``K``, expanding each to its word
    once: every word has zero abelianization (``kernel``), none is trivial
    by normal form or by the chamber test of the reflection representation
    (``nontrivial``), and the loop classes form a first-homology basis
    (``basis``, which needs closed loops, so it fails whenever ``kernel``
    does)."""
    spec = coxeter_spec(K)
    gen_words = generator_words(K, enumerate_generators(K))
    zero = (0,) * K.m
    kernel = all(words.abelianization(w, spec) == zero for w in gen_words)
    nontrivial = all(w and not words.is_identity_chamber(w, spec)
                     for w in gen_words)
    basis = kernel and _is_homology_basis(K, spec, gen_words)
    return Certificate(len(gen_words), kernel, nontrivial, basis,
                       kernel and nontrivial and basis)


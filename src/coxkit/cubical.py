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
above i is +1.  The fundamental-group relators are the columns of d_2
restricted to the non-tree edges, read as words.

This gives exact, independently computable invariants against which the
group-theoretic layer is verified: cellular homology, the Euler
characteristic, an edge-path fundamental-group presentation, and first
homology classes of word loops.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cache, cached_property

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
    builder, relator words included, and never builds the pairs.
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
        # width < 0 only above the top degree, where there is no face below
        rows = [{} for _ in below for _ in range(1 << width)]
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

@cache
def _edge_ranks(m):
    """The edge numbering of :class:`_LoopSystem`, per vertex v (index 0
    unused) and i = v - 1: the bit of axis i, 2^i - 1 and its complement,
    the first tree rank 2^(m-1) - 2^i of block i, and the id of the
    block's rank 0."""
    half = 1 << m >> 1
    return (None,) + tuple((1 << i, (1 << i) - 1, ~((1 << i) - 1),
                            half - (1 << i), i * half - (1 << i) + 1)
                           for i in range(m))


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

    The rows of the model's d_2 (``R._boundary(2)``) are axis-major: block
    i holds the 2^(m-1) axis-i edges, the edge at rank t having signs t
    spread over the coordinates other than i.  Its tree edges are the last
    2^i ranks, so rank t is a non-tree edge exactly when t < 2^(m-1) - 2^i,
    and its id, its position among the non-tree edges, is then
    row - (2^i - 1).  The relator matrix is d_2 on those rows, re-keyed by
    that rule, and there are m 2^(m-1) - 2^m + 1 non-tree edges.  The
    rule's constants per axis are :func:`_edge_ranks`, which
    :func:`_walk` shares to read a word's loop vector off its corners.
    ``nontree`` lists the non-tree edges as (axis, signs) pairs, built on
    first read, for the presentation and the tests.  ``relator_words``,
    also built on first use, holds each square's boundary walk as signed
    1-based non-tree ids, in the squares' order, read off the columns of
    the relator matrix: d_2's signs are the walk's directions.  At m = 0
    the model is one point, with no edge and no relator.
    Nothing here holds the model itself: the model caches its loop system,
    and a reference back would make a cycle that only the garbage
    collector frees.
    """

    def __init__(self, R):
        self._m = m = R.m
        half = 1 << m >> 1
        self.rank_cycles = m * half - (1 << m) + 1     # = E - V + 1
        d2 = R._boundary(2)
        ranks = _edge_ranks(m)
        rows = {}
        for r, e in d2._row.items():
            _, _, _, tree, base = ranks[(r >> (m - 1)) + 1]    # block i
            t = r & (half - 1)
            if t < tree:
                rows[base + t] = e
        self.relators = IntMatrix._from_rows(self.rank_cycles, d2.cols, rows)
        self.reduction = LeftReduction(self.relators)
        if any(d > 1 for d in self.reduction.factors):
            raise AssertionError(
                "unexpected torsion in degree-1 homology of a cubical model")
        self.betti1 = self.rank_cycles - self.reduction.rank

    @cached_property
    def nontree(self):
        """The non-tree edges as (axis, signs) pairs, in id order."""
        m = self._m
        half = 1 << m >> 1
        return [(i, t & (1 << i) - 1 | t >> i << (i + 1))
                for i in range(m) for t in range(half - (1 << i))]

    @cached_property
    def relator_words(self):
        """Each square's boundary walk, as signed 1-based non-tree ids, in
        the squares' order: its column of ``relators``, the +1 entries and
        then the -1 entries, each in increasing row order.

        A square on axes i < j, walked from its (-,-) corner, takes +i at
        j = -1, +j at i = +1, -i at j = +1 and -j at i = -1.  Every id of
        block i comes before every id of block j, so that walk lists the
        +1 entries and then the -1 entries of d_2, each in increasing
        order, less its tree edges."""
        words = [[] for _ in range(self.relators.cols)]
        rows = sorted(self.relators._row.items())
        for sign in (1, -1):
            for r, entries in rows:
                for c, v in entries.items():
                    if v == sign:
                        words[c].append(sign * (r + 1))
        return list(map(tuple, words))


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


def _walk(m, w, spec, steps=None):
    """The closed edge path of ``w`` from the all-plus corner of the model
    with rank ``m``, as its signed traversal counts {non-tree id: n}; with a
    list ``steps``, each (edge key, direction) step is appended to it.

    An odd letter g_v walks the axis-i edge (i = v - 1) at the current
    corner, whose rank in block i is the corner with bit i squeezed out;
    every letter is checked, and a walk that does not close raises."""
    if spec.m != m:
        raise ValueError("word group and cubical model have different ranks")
    if not spec.is_coxeter():
        raise ValueError("edge paths need every generator of order 2")
    check = spec.check_letter
    ranks = _edge_ranks(m)
    start = pos = (1 << m) - 1
    vec = {}
    for v, e in w:
        check(v, e)
        if e & 1:
            bit, low, high, tree, base = ranks[v]
            t = pos & low | pos >> 1 & high
            d = -1 if pos & bit else 1
            if t < tree:
                k = base + t
                vec[k] = vec.get(k, 0) + d
            if steps is not None:
                steps.append((bit << m | pos & ~bit, d))
            pos ^= bit
    if pos != start:
        raise ValueError("word does not close up: nonzero exponent sum")
    return vec


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
    steps = []
    _walk(R.m, w, spec, steps)
    return steps


def word_class(R, w, spec):
    """First-homology coordinates of the closed edge path of ``w``."""
    loops = R.loop_system()
    # every factor is 1 (checked by the loop system), so no torsion part
    # is left
    return loops.reduction.cokernel_class(_walk(R.m, w, spec))[1]


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
        y = loops.reduction.apply(_walk(K.m, w, spec))
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


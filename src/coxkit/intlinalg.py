"""Exact integer linear algebra: Smith normal form and homology of chain complexes.

Everything here is arbitrary-precision integer arithmetic; no floating point
is used anywhere.  A matrix is stored as rows, ``{row: {col: value}}`` with
nonzero entries only, and is built, multiplied and reduced in that format:
the boundary matrices made in this package are large but very sparse.
Smith reduction uses row operations only: +-1 pivots first, sparsest column
first, which barely fills them in, then Euclidean pivots on the (usually
tiny) remainder that holds no unit.  Homology clears from each boundary
the rows that unit pivots of the one below settled (:func:`chain_homology`).
"""

import heapq
import math
from dataclasses import dataclass


def _check_int(v, what):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{what} is {type(v).__name__}, not an exact integer")


class IntMatrix:
    """An exact integer matrix.

    Entries are arbitrary-precision Python ints.  Internally only nonzero
    entries are stored, row by row, with no empty rows, but the matrix
    behaves like a dense ``rows x cols`` array of integers.

    >>> M = IntMatrix.from_dense([[2, 0], [0, 3]])
    >>> sorted(M.items())
    [((0, 0), 2), ((1, 1), 3)]
    >>> smith_normal_form(M)
    [1, 6]
    """

    __slots__ = ("rows", "cols", "_row")

    def __init__(self, rows, cols, entries=()):
        _check_int(rows, "row count")
        _check_int(cols, "column count")
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        data = {}
        items = entries.items() if isinstance(entries, dict) else entries
        for (r, c), v in items:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside {rows}x{cols} matrix")
            if type(v) is not int:
                _check_int(v, f"entry ({r},{c})")
            if v:
                data.setdefault(r, {})[c] = v
        self.rows, self.cols, self._row = rows, cols, data

    @classmethod
    def _from_rows(cls, rows, cols, data):
        """Adopt ``data``, nonempty rows of nonzero ints, unchecked."""
        mat = cls.__new__(cls)
        mat.rows, mat.cols, mat._row = rows, cols, data
        return mat

    @classmethod
    def from_dense(cls, dense_rows):
        rows = len(dense_rows)
        cols = len(dense_rows[0]) if rows else 0
        if any(len(row) != cols for row in dense_rows):
            raise ValueError("ragged rows in dense matrix")
        # an int zero needs no storage; anything else goes to the check
        return cls(rows, cols, (((r, c), v) for r, row in enumerate(dense_rows)
                                for c, v in enumerate(row)
                                if v or type(v) is not int))

    def items(self):
        """Iterate over ``((row, col), value)`` for the nonzero entries."""
        return (((r, c), v) for r, row in self._row.items()
                for c, v in row.items())

    def nnz(self):
        return sum(map(len, self._row.values()))

    def is_zero(self):
        return not self._row

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ "
                             f"{other.rows}x{other.cols}")
        other_row = other._row
        out = {}
        for r, row in self._row.items():
            acc = {}
            for k, v in row.items():
                orow = other_row.get(k)
                if orow:
                    for c, w in orow.items():
                        acc[c] = acc.get(c, 0) + v * w
            if any(acc.values()):
                out[r] = {c: v for c, v in acc.items() if v}
        return IntMatrix._from_rows(self.rows, other.cols, out)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._row) == \
            (other.rows, other.cols, other._row)

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"


@dataclass(frozen=True)
class HomologyGroup:
    """A finitely generated abelian group: free rank plus invariant factors.

    ``torsion`` is the tuple of invariant factors, each >= 2 and each
    dividing the next, so e.g. Z^2 + Z/2 + Z/6 is
    ``HomologyGroup(betti=2, torsion=(2, 6))``.
    """

    betti: int
    torsion: tuple = ()

    def __post_init__(self):
        _check_int(self.betti, "betti number")
        if self.betti < 0:
            raise ValueError("betti number must be non-negative")
        object.__setattr__(self, "torsion", tuple(self.torsion))
        for t in self.torsion:
            _check_int(t, "torsion coefficient")
            if t < 2:
                raise ValueError(f"torsion coefficient {t} < 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion coefficients {a}, {b} not in "
                                 "divisibility order")

    def is_trivial(self):
        return self.betti == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti > 1:
            parts.append(f"Z^{self.betti}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def direct_sum(groups):
    """Direct sum of finitely generated abelian groups, re-normalised.

    The invariant factors of a direct sum are not the concatenation of the
    summands' factors (Z/2 + Z/3 = Z/6).  Each factor t is folded into the
    chain built so far: at each position f becomes gcd(f, t) and lcm(f, t)
    is carried on as the new t, and what is left is appended.  The group
    is unchanged, as Z/f + Z/t = Z/gcd + Z/lcm, and the list stays a chain:
    gcd(f_i, t) divides f_i, which divides both f_{i+1} and the lcm carried
    on.  The factors that became 1 are dropped at the end.
    """
    betti = 0
    chain = []
    for g in groups:
        betti += g.betti
        for t in g.torsion:
            for i, f in enumerate(chain):
                d = math.gcd(f, t)
                chain[i], t = d, f // d * t
            chain.append(t)
    return HomologyGroup(betti, tuple(f for f in chain if f > 1))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

class _Reduction:
    """Working state for Smith reduction of a sparse matrix.

    ``row`` maps each row not yet pivoted to its nonzero entries, copied
    from the matrix's rows (a boundary matrix is cached and must not
    change), and ``colrows`` maps each column to the rows of ``row``
    holding it.  Rows and columns keep their original labels; a pivot row
    leaves ``row`` and its pivot column is then empty, so every stored
    entry is still to be reduced.

    Elimination uses row operations on the matrix and no column
    operations.  Once the pivot column is clear, a column operation
    ``col[c2] -= q * col[c]`` changes the pivot row and no other, so it is
    done in place on that row, and dropping the row stands for the column
    operations that would clear the rest of it.

    :meth:`run` first takes ``units`` unit pivots: the column with the
    fewest nonzeros, and in it the shortest row holding +-1, the lowest
    index on a tie, whatever the entry order.  In boundary matrices almost
    every pivot is a unit, and this order barely fills them in (Dumas,
    Heckenbach, Saunders and Welker, "Computing simplicial homology based
    on efficient Smith normal form algorithms", 2003).  A unit pivot
    (r, c) is taken in :meth:`run` itself, not through :meth:`pivot`: one
    :meth:`add_rows` call adds ``-row[r2][c] * row[r][c]`` times row r to
    each other row r2 of column c, which clears it with no remainder (a
    column of length one needs no row operation), and the pass that drops
    row r re-queues its other columns.  What is left holds no unit; there
    :meth:`pivot` takes the entry of least absolute value next, with
    Euclidean steps.

    :meth:`add_rows` is the one row operation of both phases.  When
    ``track_left`` is set, it mirrors every row operation on an
    accumulated unimodular transform ``left``.
    """

    def __init__(self, mat, track_left=False):
        self.row = {r: dict(entries) for r, entries in mat._row.items()}
        self.colrows = colrows = {}
        for r, entries in self.row.items():
            for c in entries:
                colrows.setdefault(c, set()).add(r)
        self.left = ({r: {r: 1} for r in range(mat.rows)}
                     if track_left else None)
        self.pivots = []            # (row, col, divisor) in elimination order

    def add_rows(self, src, targets):
        """row[r2] += mult * row[src] for each (r2, mult) in ``targets``,
        mirrored on ``left`` when it is tracked; no row of ``row`` holds an
        entry in a pivoted column, so this cannot disturb finished pivots."""
        row, colrows, left = self.row, self.colrows, self.left
        srow = row[src]
        lsrc = left[src] if left is not None else None
        for r2, mult in targets:
            drow = row[r2]
            for c, v in srow.items():
                w = drow.get(c)
                if w is None:
                    drow[c] = mult * v
                    colrows[c].add(r2)
                else:
                    w += mult * v
                    if w:
                        drow[c] = w
                    else:
                        del drow[c]
                        colrows[c].discard(r2)
            if lsrc is not None:
                ldst = left[r2]
                for k, v in lsrc.items():
                    w = ldst.get(k, 0) + mult * v
                    if w:
                        ldst[k] = w
                    else:
                        del ldst[k]

    def pivot(self, r, c):
        """Eliminate with pivot (r, c), which may move on the way, and drop
        the pivot row; returns the dropped row's entries.

        1. Clear column c by Euclidean row operations, row by row in index
           order; a nonzero remainder becomes the pivot.
        2. Reduce row r modulo the pivot by column operations in place;
           the least nonzero remainder, in the lowest column on a tie,
           becomes the pivot, and step 1 runs again.
        3. Fold the lowest row holding an entry the pivot does not divide
           into row r, and start again.  Then the pivot divides every
           entry left, so the factors come out in divisibility order.
        Steps 2 and 3 have nothing to do for a unit pivot.  Every choice
        goes by index, so U is a function of the matrix alone.
        """
        row, colrows = self.row, self.colrows
        while True:
            d = row[r][c]
            rows = colrows[c]
            while len(rows) > 1:                            # step 1
                for r2 in sorted(rows):
                    if r2 != r:
                        v = row[r2][c]
                        q = v // d
                        if q:
                            self.add_rows(r, [(r2, -q)])
                        if v != q * d:
                            r, d = r2, v - q * d
                            break
            if d == 1 or d == -1:
                break
            prow = row[r]
            for c2, v in list(prow.items()):                # step 2
                if c2 != c:
                    v %= d
                    if v:
                        prow[c2] = v
                    else:
                        del prow[c2]
                        colrows[c2].discard(r)
            if len(prow) > 1:
                c = min(prow, key=lambda k: (abs(prow[k]), k))
                continue
            bad = min((r2 for r2, entries in row.items()    # step 3
                       if any(v % d for v in entries.values())), default=None)
            if bad is None:
                break
            self.add_rows(bad, [(r, 1)])
        dropped = row.pop(r)
        for c2 in dropped:
            colrows[c2].discard(r)
        if d < 0:
            d = -d
            if self.left is not None:
                self.left[r] = {k: -v for k, v in self.left[r].items()}
        self.pivots.append((r, c, d))
        return dropped

    def run(self):
        """Full reduction; afterwards ``pivots`` holds the invariant factors
        in divisibility order."""
        row, colrows, left = self.row, self.colrows, self.left
        # a heap of columns keyed on (length, index), packed into one int;
        # an entry whose length is stale is skipped, as the column was
        # pushed again when it changed, and an empty column never returns
        shift = max(colrows, default=0).bit_length()
        mask = (1 << shift) - 1
        heap = [len(rows) << shift | c for c, rows in colrows.items()]
        heapq.heapify(heap)
        heappush, heappop = heapq.heappush, heapq.heappop
        while heap:
            key = heappop(heap)
            n, c = key >> shift, key & mask
            rows = colrows[c]
            if n != len(rows):
                continue
            p = None
            for r in rows:
                v = row[r][c]
                if (v == 1 or v == -1) and (p is None
                                            or (len(row[r]), r) < best):
                    p, best = r, (len(row[r]), r)
            if p is None:
                continue
            d = row[p][c]
            if n > 1:
                rows.discard(p)
                self.add_rows(p, [(r2, -d * row[r2][c]) for r2 in rows])
            prow = row.pop(p)
            for c2 in prow:
                rows2 = colrows[c2]
                rows2.discard(p)
                if rows2:
                    heappush(heap, len(rows2) << shift | c2)
            if d < 0 and left is not None:
                lp = left[p]
                for k in lp:
                    lp[k] = -lp[k]
            self.pivots.append((p, c, 1))
        self.units = len(self.pivots)
        while True:
            least = min(((abs(v), r, c) for r, entries in row.items()
                         for c, v in entries.items()), default=None)
            if least is None:
                return
            self.pivot(least[1], least[2])


def smith_normal_form(mat, *, _units=None):
    """Invariant factors d1 | d2 | ... | dr of an integer matrix.

    The length of the result is the rank of ``mat`` over the rationals; the
    zero (and empty) matrix gives ``[]``.  A set passed as ``_units``
    receives the columns of the unit-phase pivots.

    >>> smith_normal_form(IntMatrix.from_dense([[2, 0], [0, 3]]))
    [1, 6]
    >>> smith_normal_form(IntMatrix.from_dense([[0]]))
    []
    """
    red = _Reduction(mat)
    red.run()
    if _units is not None:
        _units.update(c for (_, c, _) in red.pivots[:red.units])
    return [d for (_, _, d) in red.pivots]


class LeftReduction:
    """Smith reduction of ``mat`` that remembers the left transform.

    After construction, ``U mat V = D`` for unimodular U, V with
    ``D = diag(factors)`` in the row order: pivot rows first (in factor
    order), then the remaining rows sorted by original index.  Only U is
    materialised; it is exactly what is needed to read off coordinates in
    the cokernel ``Z^rows / colspan(mat)``:

    for ``y = U z`` the class of ``z`` has component ``y[k] mod factors[k]``
    for ``k < rank`` and free component ``y[k]`` for ``k >= rank``.
    """

    def __init__(self, mat):
        red = _Reduction(mat, track_left=True)
        red.run()
        self.factors = [d for (_, _, d) in red.pivots]
        self.rank = len(self.factors)
        order = [r for (r, _, _) in red.pivots]
        order += sorted(set(range(mat.rows)).difference(order))
        self._u_rows = [red.left[r] for r in order]
        self._u_cols = {}           # column k of U as [(row, value), ...]
        for i, urow in enumerate(self._u_rows):
            for k, w in urow.items():
                self._u_cols.setdefault(k, []).append((i, w))

    def apply(self, vec):
        """U @ vec, both sparse as {index: value}, zeros dropped."""
        out = {}
        for k, v in vec.items():
            for i, w in self._u_cols.get(k, ()):
                out[i] = out.get(i, 0) + w * v
        return {i: y for i, y in out.items() if y}

    def cokernel_class(self, vec):
        """Coordinates of ``vec`` in the cokernel: torsion components
        reduced mod their factor, then the free components."""
        y = self.apply(vec)
        tors = tuple(y.get(k, 0) % d for k, d in enumerate(self.factors))
        return tors, tuple(y.get(k, 0)
                           for k in range(self.rank, len(self._u_rows)))


# ---------------------------------------------------------------------------
# Chain-complex homology
# ---------------------------------------------------------------------------

class ChainComplexError(ValueError):
    """The supplied boundary maps do not form a chain complex."""


def boundary_maps(levels, faces):
    """Boundary matrices for :func:`chain_homology` of the complex with
    degree-k cells ``levels[k]``, where ``faces(cell)`` yields the (face,
    sign) pairs of a cell's boundary: distinct cells of the level below,
    each with a nonzero integer sign.  The rows are filled directly."""
    boundaries = [IntMatrix._from_rows(0, len(levels[0]), {})]
    for k in range(1, len(levels)):
        below = dict(zip(levels[k - 1], range(len(levels[k - 1]))))
        rows = {}
        for col, cell in enumerate(levels[k]):
            for face, sign in faces(cell):
                r = below[face]
                if r in rows:
                    rows[r][col] = sign
                else:
                    rows[r] = {col: sign}
        boundaries.append(IntMatrix._from_rows(
            len(levels[k - 1]), len(levels[k]), rows))
    return boundaries


def chain_homology(boundaries):
    """Homology groups of a finite chain complex of free abelian groups.

    ``boundaries[k]`` is the boundary map from degree-k chains to
    degree-(k-1) chains, so it must have ``boundaries[k-1].cols`` rows
    (degree -1 is the zero module: ``boundaries[0]`` has 0 rows).  The
    boundary above the top degree is taken to be zero.

    Raises :class:`ChainComplexError` if consecutive maps fail to compose
    to zero or dimensions are inconsistent; either signals a bug in the
    caller's complex builder.

    d_{k+1} is reduced without the rows of d_k's unit-phase pivot columns
    (clearing: Chen and Kerber, "Persistent homology computation with a
    twist", 2011; Bauer, "Ripser", 2021).  A unit pivot (r, c) makes row r
    a combination of d_k's rows, +-1 at c and 0 at earlier pivots, so row c
    of d_{k+1} is a combination of kept rows and rows of later pivots, as
    d_k d_{k+1} = 0.  Euclidean pivots need not be +-1 and follow column ops.
    """
    n = len(boundaries)
    if n and boundaries[0].rows:
        raise ChainComplexError(f"boundary 0 has {boundaries[0].rows} rows "
                                "but degree -1 is the zero module")
    for k in range(1, n):
        if boundaries[k].rows != boundaries[k - 1].cols:
            raise ChainComplexError(
                f"boundary {k} has {boundaries[k].rows} rows but degree "
                f"{k - 1} has dimension {boundaries[k - 1].cols}")
        if not (boundaries[k - 1] @ boundaries[k]).is_zero():
            raise ChainComplexError(f"boundary maps {k - 1} and {k} do not "
                                    "compose to zero")
    factors, cleared = [], set()
    for b in boundaries:
        kept = {r: e for r, e in b._row.items() if r not in cleared}
        cleared = set()
        factors.append(smith_normal_form(
            IntMatrix._from_rows(b.rows, b.cols, kept), _units=cleared))
    factors.append([])  # zero map above the top degree
    groups = []
    for k in range(n):
        dim_k = boundaries[k].cols
        betti = dim_k - len(factors[k]) - len(factors[k + 1])
        torsion = tuple(d for d in factors[k + 1] if d > 1)
        groups.append(HomologyGroup(betti, torsion))
    return groups

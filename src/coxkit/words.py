"""Words and normal forms in graph products of cyclic groups.

A group here is generated by g_1, ..., g_m where g_i has order o_i (an
integer >= 2, or None for infinite order) and g_i, g_j commute whenever
{i, j} is an edge of a given graph.  All orders 2 gives a right-angled
Coxeter group, all orders infinite a right-angled Artin group.

Words are tuples of (vertex, exponent) letters, vertices 1-based.  The
normal form of an element is its shortest, lexicographically least word:
first the word is fully reduced (adjacent same-vertex letters merge mod
the vertex order, also across blocks of letters commuting with that
vertex, letters with vanishing exponent disappear), then the reduced
letters are rearranged by legal commuting swaps into the least order.
Reduced words for a fixed element differ only by such swaps, so two words
represent the same group element exactly when their normal forms are
equal.

:func:`normal_form` makes one pass over the word with a stack of live
letters per vertex (the "piling" of Crisp-Godelle-Wiest): a new letter
merges into the top letter of its vertex unless a live letter of a
non-commuting vertex lies above that one, and a merge to exponent 0 pops
it.  A popped letter never separated two letters of one vertex, so
nothing is re-read.  Most reduced words, generator words above all, are
then in least order already, and one exact byte test,
:func:`_in_normal_form`, returns them as they stand.  It looks for a
factor b u a where a commutes with every letter of u, and b is a itself
or a vertex above a that commutes with a.  With b = a that is a pair the
reduction merges; with b > a it is what keeps a word out of least order:
a word is the least order of its letters exactly when it has no such
factor (Anisimov-Knuth, "Inhomogeneous sorting", 1979; Diekert-Rozenberg,
*The Book of Traces*, 1995).  The reduced letters of a normal form can
only fail the second half, so it reads only the tables of the vertices
that commute with a higher one, none in a free product, a few whole-word
byte operations each.
Otherwise the live letters form a heap of pieces: each waits for the last
earlier live letter of its own vertex and of every vertex it does not
commute with.  Repeatedly emitting the waiting-free letter of smallest
vertex, kept in a priority queue, gives the least order.  The cost is
O(n m) for n letters on m vertices.

Beware that the least order is not reachable by naively swapping adjacent
out-of-order commuting letters: with commuting pairs {1,2} and {2,3} only,
the words (3)(1)(2) and (2)(3)(1) spell the same element and neither has
an adjacent swappable pair.  The extraction above looks past such pairs
because a letter is free once everything before it commutes with it, not
only its neighbour.

A word of letters (v, 1) in a right-angled Coxeter group passes the whole
test exactly when it is its own normal form, so
:func:`coxkit.commutators.generator_words` reads each generator word off
its vertices when the test accepts them, with no normal form.

:func:`evaluate` takes a nested commutator in the nested-array form that
``coxkit gens`` prints, e.g. [2, [4, 1]] for (g_2, (g_4, g_1)), and
returns its normal form.

For the all-orders-2 case, :func:`is_identity_chamber` is an independent
exact-integer check of the word problem: by Tits' lemma a nontrivial
element moves every point of the fundamental chamber of the dual
reflection representation, so one integer vector per word decides it.
:func:`geometric_representation` builds the full reflection matrix
instead; it is the chamber test's own oracle in the tests and the
selftest's.  Each row of the matrix is one int, its entries in signed
slots of a common width, so a letter costs |nc| + 2 operations on whole
rows for the |nc| vertices not commuting with it; an exact test of the
slots every few odd letters repacks them wider before an entry can
overflow, and narrower once the entries have shrunk.
"""

from heapq import heapify, heappop, heappush
from itertools import compress

from .intlinalg import IntMatrix


class GroupSpec:
    """A graph product of cyclic groups: commuting graph plus vertex orders.

    ``orders[i]`` is the order of g_{i+1}: an int >= 2 or None for infinite.
    """

    __slots__ = ("m", "graph", "orders", "noncommuting", "form_tables",
                 "_chamber_table")

    def __init__(self, graph, orders):
        orders = tuple(orders)
        if len(orders) != graph.m:
            raise ValueError("need one order per vertex")
        for o in orders:
            if o is not None and (not isinstance(o, int) or o < 2):
                raise ValueError(f"vertex order {o!r} must be >= 2 or None")
        self.m = graph.m
        self.graph = graph
        self.orders = orders
        # noncommuting[i]: the 0-based vertices other than i whose letters
        # do not commute with those of vertex i, in increasing order
        noncommuting = [[] for _ in range(self.m)]
        for i, adj in enumerate(graph.adj):
            for j in range(i + 1, self.m):
                if not adj >> j & 1:
                    noncommuting[i].append(j)
                    noncommuting[j].append(i)
        self.noncommuting = tuple(map(tuple, noncommuting))
        # the tables of _in_normal_form, built by the first normal form
        # or generator word list that needs them
        self.form_tables = None
        # the table of is_identity_chamber, built by its first call
        self._chamber_table = None

    @classmethod
    def coxeter(cls, graph):
        """All generators involutive (right-angled Coxeter group)."""
        return cls(graph, (2,) * graph.m)

    @classmethod
    def artin(cls, graph):
        """All generators of infinite order (right-angled Artin group)."""
        return cls(graph, (None,) * graph.m)

    def check_vertex(self, v):
        if type(v) is int and 0 < v <= self.m:
            return
        if isinstance(v, bool) or not isinstance(v, int) or \
                not 1 <= v <= self.m:
            raise ValueError(f"vertex {v!r} out of range 1..{self.m}")

    def check_letter(self, v, e):
        if type(v) is int and type(e) is int and 0 < v <= self.m:
            return
        self.check_vertex(v)
        if isinstance(e, bool) or not isinstance(e, int):
            raise ValueError(f"exponent {e!r} is not an integer")

    def is_coxeter(self):
        return all(o == 2 for o in self.orders)

    def __repr__(self):
        return f"GroupSpec(m={self.m}, orders={self.orders})"


def generator(v):
    """The one-letter word g_v."""
    return ((v, 1),)


def normal_form(word, spec):
    """The canonical representative of the group element spelt by ``word``.

    One pass reduces; the reduced word is returned at once when
    :func:`_in_normal_form` finds it in least order, and a priority-queue
    pass puts it in that order otherwise (see the module docstring).  The
    cost is O(n m) for n letters on m vertices.

    >>> from coxkit.simplicial import Graph
    >>> rc = GroupSpec.coxeter(Graph(2, []))
    >>> normal_form(((1, 1), (1, 1)), rc)
    ()
    """
    orders = spec.orders
    blockers = spec.noncommuting
    # reduction: letter k is (verts[k], exps[k]), with exponent 0 once it
    # has cancelled; tops[i] is the last live letter at vertex i (-1 if
    # none), and below[k] the live letter that was top when k was pushed.
    # Only a top letter ever cancels, so each vertex's live letters form a
    # stack threaded through ``below``.
    verts = []
    exps = []
    below = []
    tops = [-1] * spec.m
    for v, e in word:
        spec.check_letter(v, e)
        i = v - 1
        o = orders[i]
        if o is not None:
            e %= o
        if not e:
            continue
        t = tops[i]
        if t >= 0:
            for u in blockers[i]:
                if tops[u] > t:
                    break
            else:
                # nothing above letter t blocks it: merge into it
                g = exps[t] + e
                if o is not None:
                    g %= o
                exps[t] = g
                if not g:
                    tops[i] = below[t]
                continue
        tops[i] = len(verts)
        below.append(t)
        verts.append(i)
        exps.append(e)
    # the live letters' 0-based vertices, one byte each (m <= 24); they
    # are reduced, so only the entries with a carry table can reject them
    live = bytes(compress(verts, exps))
    if _in_normal_form(live, (spec.form_tables or _form_tables(spec))[1]):
        return tuple(zip(map((1).__add__, live), filter(None, exps)))
    # extraction: each live letter waits for the last earlier live letter
    # of its own vertex and of each vertex not commuting with it (an edge
    # from a letter older than the same-vertex one is implied, so skipped)
    last = [-1] * spec.m
    waiting = [0] * len(verts)
    after = [[] for _ in verts]
    ready = []
    for k, i in enumerate(verts):
        if not exps[k]:
            continue
        q = last[i]
        needs = 0
        if q >= 0:
            after[q].append(k)
            needs = 1
        for u in blockers[i]:
            p = last[u]
            if p > q:
                after[p].append(k)
                needs += 1
        last[i] = k
        if needs:
            waiting[k] = needs
        else:
            ready.append((i, k))
    heapify(ready)
    out = []
    while ready:
        i, k = heappop(ready)
        out.append((i + 1, exps[k]))
        for s in after[k]:
            waiting[s] -= 1
            if not waiting[s]:
                heappush(ready, (verts[s], s))
    return tuple(out)


def _form_tables(spec):
    """The tables of :func:`_in_normal_form` for ``spec``, kept on it as
    ``spec.form_tables``, which callers read first: one entry per 0-based
    vertex j, and the entries that have a carry table.

    An entry holds three ``bytes.translate`` tables from vertex to byte:
    F, 0xff at j and at the vertices commuting with j; J, 0x01 at j; and
    C, 0x01 at j and at the vertices above j commuting with it, or None
    when there are none above j, where C would equal J."""
    adj = spec.graph.adj
    by_vertex = []
    for j, a in enumerate(adj):
        fill = bytes(0xff if (a | 1 << j) >> i & 1 else 0 for i in range(256))
        own = bytearray(256)
        own[j] = 1
        carry = None
        if a >> j + 1:
            carry = bytearray(own)
            for i in range(j + 1, len(adj)):
                carry[i] = a >> i & 1
            carry = bytes(carry)
        by_vertex.append((fill, bytes(own), carry))
    by_vertex = tuple(by_vertex)
    spec.form_tables = tables = \
        by_vertex, tuple(t for t in by_vertex if t[2] is not None)
    return tables


def _in_normal_form(live, tables):
    """Whether the word with the 0-based vertices ``live`` has no factor
    b u a where a commutes with every letter of u, and b is a itself or a
    vertex above a that commutes with a.

    With b = a that is a pair that the reduction pass of
    :func:`normal_form` merges; with b > a, a pair out of least order
    (Anisimov-Knuth).  So a word of letters (v, 1) in a right-angled
    Coxeter group passes exactly when it is its own normal form, and a
    reduced word exactly when it is in least order.

    ``tables`` holds entries of :func:`_form_tables`, at least those of
    the vertices with a letter in ``live``: a vertex with none heads no
    factor, so its entry cannot reject.  Each letter is one byte: a Graph
    has m <= 24 (``MAX_VERTICES``), so every vertex fits.  For each a = j
    the entry translates ``live`` into little-endian ints F, J and C (C =
    J when it has no carry table).  In F + C the carry of each letter of j
    and of each commuting letter above j runs through the 0xff letters
    after it, and a letter of j that it reaches keeps 0x01.  A letter that
    does not commute with j absorbs the carry, so F + C and J share a bit
    exactly when such a factor ends at a letter of j.  (F + C is F + J + U
    for U = C - J.  With F' = F - 0xff J, the fill of the b > a half alone,
    F + J = F' + (J << 8): the letters of j carry too, the b = a half.)
    """
    for fill, own, carry in tables:
        j = int.from_bytes(live.translate(own), "little")
        if (int.from_bytes(live.translate(fill), "little") +
                (j if carry is None else
                 int.from_bytes(live.translate(carry), "little"))) & j:
            return False
    return True


def _inverse_letters(u, spec):
    """The letters of u^-1: reversed, exponents negated, not reduced."""
    out = []
    for v, e in reversed(u):
        spec.check_letter(v, e)
        out.append((v, -e))
    return tuple(out)


def multiply(u, v, spec):
    """Normal form of the product u v."""
    return normal_form(tuple(u) + tuple(v), spec)


def is_identity(u, spec):
    return normal_form(u, spec) == ()


def abelianization(w, spec):
    """Image of ``w`` in the direct product of the cyclic vertex groups.

    A word lies in the commutator subgroup exactly when this is the zero
    vector.  Entry i is taken mod o_i for finite orders.
    """
    vec = [0] * spec.m
    for v, e in w:
        spec.check_letter(v, e)
        vec[v - 1] += e
    for i, o in enumerate(spec.orders):
        if o is not None:
            vec[i] %= o
    return tuple(vec)


def commutator(u, v, spec):
    """Normal form of the group commutator (u, v) = u^-1 v^-1 u v, taken
    as one normal form of that word (u^-1 v^-1 spelt as (v u)^-1)."""
    u = tuple(u)
    v = tuple(v)
    return normal_form(_inverse_letters(v + u, spec) + u + v, spec)


def evaluate(nested, spec):
    """Normal form of a nested commutator in the nested-array form that
    ``coxkit gens`` prints, [2, [4, 1]] for (g_2, (g_4, g_1)); a pair is a
    list or tuple, a bare vertex v is g_v.  At most one side of a pair is
    a pair, so the pairs form one path: walk down it, then apply
    :func:`commutator` back up, innermost pair first."""
    path = []                   # per pair: its leaf, and whether it is left
    while isinstance(nested, (list, tuple)):
        if len(nested) != 2:
            raise ValueError(f"bad commutator serialisation: a pair has 2 "
                             f"entries, not {len(nested)}")
        left, right = nested
        leaf_left = not isinstance(left, (list, tuple))
        if not leaf_left and isinstance(right, (list, tuple)):
            raise ValueError("nested form forbids a commutator of two "
                             "commutators")
        leaf, nested = (left, right) if leaf_left else (right, left)
        spec.check_vertex(leaf)
        path.append((generator(leaf), leaf_left))
    spec.check_vertex(nested)
    value = generator(nested)   # its own normal form: no order is 1
    for leaf, leaf_left in reversed(path):
        value = commutator(leaf, value, spec) if leaf_left \
            else commutator(value, leaf, spec)
    return value


# ---------------------------------------------------------------------------
# Identity oracles for the rewriting engine
# ---------------------------------------------------------------------------

def verify_hall(a, b, c, spec):
    """Check both Hall expansion identities on the given words:

        (a, bc) = (a, c) (a, b) ((a, b), c)
        (ab, c) = (a, c) ((a, c), b) (b, c)

    These hold in every group, so a False return means the rewriting
    engine is broken.
    """
    ac = commutator(a, c, spec)
    ab = commutator(a, b, spec)
    bc_word = multiply(b, c, spec)
    lhs1 = commutator(a, bc_word, spec)
    rhs1 = multiply(multiply(ac, ab, spec), commutator(ab, c, spec), spec)
    ab_word = multiply(a, b, spec)
    lhs2 = commutator(ab_word, c, spec)
    rhs2 = multiply(multiply(ac, commutator(ac, b, spec), spec),
                    commutator(b, c, spec), spec)
    return lhs1 == rhs1 and lhs2 == rhs2


def verify_swap(p, q, x, spec):
    """Check the generator-swap identity on g_p, g_q and the word ``x``:

        (g_q, (g_p, x)) = (g_q, x) (x, (g_p, g_q)) (g_q, g_p) (x, g_p)
                          (g_p, (g_q, x)) (x, g_q) (g_p, g_q) (g_p, x)

    Also a universal group identity; used as an oracle.
    """
    spec.check_vertex(p)
    spec.check_vertex(q)
    gp = generator(p)
    gq = generator(q)
    lhs = commutator(gq, commutator(gp, x, spec), spec)
    factors = [
        commutator(gq, x, spec),
        commutator(x, commutator(gp, gq, spec), spec),
        commutator(gq, gp, spec),
        commutator(x, gp, spec),
        commutator(gp, commutator(gq, x, spec), spec),
        commutator(x, gq, spec),
        commutator(gp, gq, spec),
        commutator(gp, x, spec),
    ]
    rhs = ()
    for f in factors:
        rhs = multiply(rhs, f, spec)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Geometric (reflection) representation for the all-orders-2 case
# ---------------------------------------------------------------------------

# The packed rows of geometric_representation: B, the odd letters between
# two slot tests, and the headroom a packing leaves above the widest entry,
# in units of the growth that B letters can cause.
_CHECK_EVERY = 16
_HEADROOM = 4


def _ones(m, width):
    """1 in each of m slots of ``width`` bits, a multiple of 8."""
    return int.from_bytes((1).to_bytes(width >> 3, "little") * m, "little")


def _pack(entries, width):
    """One row as an int, entry j in the signed slot at bit j width."""
    half = 1 << width - 1
    return int.from_bytes(b"".join([(x + half).to_bytes(width >> 3, "little")
                                    for x in entries]), "little") - \
        (_ones(len(entries), width) << width - 1)


def _unpack(r, m, width):
    """The m signed entries of a packed row, lowest slot first."""
    n = width >> 3
    half = 1 << width - 1
    y = r + (_ones(m, width) << width - 1)      # slots now in [0, 2^width)
    if y < 0 or y >> m * width:
        raise RuntimeError("a reflection matrix entry overflowed its slot")
    b = y.to_bytes(m * n, "little")
    return [int.from_bytes(b[k:k + n], "little") - half
            for k in range(0, m * n, n)]


def _packed(entries, growth):
    """``(width, rows, grow, shrink)``: the rows packed with ``_HEADROOM``
    growth + 2 bits above the widest entry, and the masks of
    :func:`_slots_fit` for t = width - 1 - growth (``grow``) and for
    t - 2 ``_HEADROOM`` growth (``shrink``), below which the rows could
    be packed narrower.  The slots are then rounded up to whole bytes, for
    the byte-level pack and unpack; t stays, so a slot test reads the same
    with or without those bits."""
    widest = max([abs(x).bit_length() for row in entries for x in row],
                 default=0)
    width = widest + _HEADROOM * growth + 2
    t = width - 1 - growth
    width = width + 7 & -8
    ones = _ones(len(entries), width)

    def masks(t):
        return ones << t, (ones << width) - (ones << t + 1)
    return (width, [_pack(row, width) for row in entries], masks(t),
            masks(max(t - 2 * _HEADROOM * growth, 0)))


def _slots_fit(rows, low, high):
    """Whether every entry x of every packed row has |x| < 2^t.

    ``low`` holds 2^t and ``high`` the bits t+1 .. width-1 in each slot,
    t <= width - 2, and every |x| < 2^(width-1).  Slot j of r + low holds
    x_j + 2^t.  If r + low >= 0 has no bit of ``high``, its base-2^width
    digits lie in [0, 2^(t+1)); they differ from the slot values by less
    than 2^width, so they are the slot values, and -2^t <= x_j < 2^t.  The
    converse is plain, and low - r asks the same of -x_j."""
    for r in rows:
        a = r + low
        b = low - r
        if a < 0 or b < 0 or (a | b) & high:
            return False
    return True


def geometric_representation(w, spec):
    """The image of ``w`` under the standard reflection representation.

    Generator g_i acts on a basis a_1, ..., a_m by
    ``g_i(a_j) = a_j - B(i, j) a_i`` with B(i, i) = 2, B(i, j) = 0 for
    commuting pairs and B(i, j) = -2 otherwise, which keeps all matrix
    entries integral.  The representation is faithful, so the resulting
    matrix is the identity exactly when ``w`` is the identity element;
    this is the package's independent word-problem oracle.

    Letters multiply in on the left, last first: an odd g_i sets only row
    i, to 2 (sum of the |nc| rows not commuting with i) - row i.  Each row
    is one int, entry j in a signed slot of ``width`` bits at bit j width
    (Kronecker substitution; Harvey, J. Symbolic Comput. 44, 2009).
    Packing is linear, so a letter is that formula on whole rows: |nc| + 2
    big-int operations in C, where entry by entry it would be m (|nc| + 2)
    in the interpreter.  It reads the graph, not ``spec.noncommuting``, to
    share no code with normal_form.

    The rows unpack exactly while every |entry| < 2^(width-1).  A letter
    multiplies the largest |entry| by at most 2m - 1 < 2^g, g = (2m -
    1).bit_length(), so B = ``_CHECK_EVERY`` odd letters multiply it by
    less than 2^(B g).  A packing leaves ``_HEADROOM`` B g + 2 bits above
    the widest entry, enough for ``_HEADROOM`` B letters.  After those,
    every B odd letters :func:`_slots_fit` checks exactly that every
    |entry| < 2^t, t = width - 1 - B g, which keeps the next B letters in
    their slots; when it fails, the rows are unpacked and packed again
    from their widest entry.  (Slots are rounded up to whole bytes, and t
    is taken before the rounding.)  They are packed again narrower when
    every |entry| is below 2^(t - 2 ``_HEADROOM`` B g), as in the second
    half of w w^-1.  An entry left over above the top slot would mean that
    the argument failed, and raises RuntimeError.

    :func:`is_identity_chamber` decides the same question from one vector
    in O(|nc|) per letter, and ``certify`` uses it.  The matrix stays as
    the oracle of the selftest and of the tests, the chamber test's among
    them: it follows the whole action, not one point of it, and shares no
    code with the chamber test.
    """
    if not spec.is_coxeter():
        raise ValueError("the reflection representation needs every "
                         "generator to have order 2")
    m = spec.m
    noncomm = [[k for k in range(m) if k != i and not a >> k & 1]
               for i, a in enumerate(spec.graph.adj)]
    growth = _CHECK_EVERY * (2 * m - 1).bit_length()
    width, rows, grow, shrink = _packed(
        [[int(i == j) for j in range(m)] for i in range(m)], growth)
    left = _HEADROOM * _CHECK_EVERY
    for v, e in reversed(w):
        spec.check_letter(v, e)
        if e % 2:
            i = v - 1
            rows[i] = (sum([rows[k] for k in noncomm[i]]) << 1) - rows[i]
            left -= 1
            if not left:
                left = _CHECK_EVERY
                if not _slots_fit(rows, *grow) or _slots_fit(rows, *shrink):
                    width, rows, grow, shrink = _packed(
                        [_unpack(r, m, width) for r in rows], growth)
                    left = _HEADROOM * _CHECK_EVERY
    # a product of reflections is invertible, so no row is empty
    return IntMatrix._from_rows(m, m, dict(enumerate(
        {c: x for c, x in enumerate(_unpack(r, m, width)) if x}
        for r in rows)))


def is_identity_chamber(w, spec):
    """Whether ``w`` is the identity, by Tits' lemma (Humphreys, *Reflection
    Groups and Coxeter Groups*, 1990, 5.13).

    W acts on the dual of the reflection representation, where g_i sends
    the coordinates c_j = f(a_j) of a functional f to c_j - B(i, j) c_i:
    c_i changes sign and 2 c_i is added to c_k for each k not commuting
    with i.  No element but 1 maps a point of the open chamber {all c_j >
    0} into the chamber, so w = 1 exactly when it fixes c = (1, ..., 1).
    The letters act first to last, which applies w^-1; w^-1 = 1 exactly
    when w = 1.  Like :func:`geometric_representation` it reads the graph,
    not ``spec.noncommuting``; its lists of the vertices not commuting
    with each vertex are built on the first call for a spec and kept on
    it.
    """
    if not spec.is_coxeter():
        raise ValueError("the chamber test needs every generator to have "
                         "order 2")
    m = spec.m
    noncomm = spec._chamber_table
    if noncomm is None:
        noncomm = spec._chamber_table = tuple(
            tuple(k for k in range(m) if k != i and not a >> k & 1)
            for i, a in enumerate(spec.graph.adj))
    c = [1] * m
    for v, e in w:
        spec.check_letter(v, e)
        if e % 2:
            i = v - 1
            x = c[i]
            c[i] = -x
            x += x
            for k in noncomm[i]:
                c[k] += x
    return c == [1] * m


def is_identity_matrix(mat):
    n = mat.rows        # == also compares the column counts
    return mat == IntMatrix._from_rows(n, n, {i: {i: 1} for i in range(n)})


def random_word(spec, length, rng):
    """A uniform random word: each letter an independent (vertex, exponent)
    with exponent +-1 (infinite order) or in 1..o-1 (finite order)."""
    letters = []
    for _ in range(length):
        v = rng.randint(1, spec.m)
        o = spec.orders[v - 1]
        e = rng.choice((1, -1)) if o is None else rng.randint(1, o - 1)
        letters.append((v, e))
    return tuple(letters)

"""Simplicial complexes on a small vertex set, stored as bitmask face sets.

Vertices are numbered 1..m externally and 0..m-1 internally (bit i of a face
mask is vertex i+1).

The vertex count is capped at 24 so faces fit comfortably in machine-word
bitmasks and loops over all 2^m vertex subsets stay feasible.
"""

from collections import deque, namedtuple
from functools import lru_cache

from .intlinalg import HomologyGroup, boundary_maps, chain_homology

MAX_VERTICES = 24


# The bitmask loops below walk set bits with ``low = x & -x``, the lowest
# set bit of x, and ``x ^= low`` to clear it: they visit the bits lowest
# first and take no step per clear bit.

def _bits(mask):
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask_of(vertices, m, what="vertex list"):
    mask = 0
    for v in vertices:
        if isinstance(v, bool) or not isinstance(v, int) or not 1 <= v <= m:
            raise ValueError(f"{what}: vertex {v!r} out of range 1..{m}")
        mask |= 1 << (v - 1)
    return mask


def _check_vertex_count(m, low):
    if isinstance(m, bool) or not isinstance(m, int) or \
            not low <= m <= MAX_VERTICES:
        raise ValueError(f"vertex count {m!r} outside {low}..{MAX_VERTICES}")


class Graph:
    """Simple undirected graph on vertices 1..m (no loops, no multi-edges)."""

    __slots__ = ("m", "adj")

    def __init__(self, m, edges=()):
        _check_vertex_count(m, 0)
        adj = [0] * m
        for e in edges:
            a, b = e
            _mask_of((a, b), m, f"edge {e}")
            if a == b:
                raise ValueError(f"edge {e}: loops not allowed")
            adj[a - 1] |= 1 << (b - 1)
            adj[b - 1] |= 1 << (a - 1)
        self.m = m
        self.adj = tuple(adj)

    def edges(self):
        """Sorted list of edges (a, b) with a < b."""
        out = []
        for i in range(self.m):
            for j in _bits(self.adj[i] >> (i + 1)):
                out.append((i + 1, i + 1 + j + 1))
        return sorted(out)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.m, self.adj) == (other.m, other.adj)

    def __hash__(self):
        return hash((self.m, self.adj))

    def __repr__(self):
        return f"Graph(m={self.m}, edges={self.edges()})"


class SimplicialComplex:
    """A downward-closed face collection on 1..m.

    Always contains the empty face and, when m >= 1, all singletons;
    the unique complex with m = 0 (only the empty face) represents the
    restriction of a complex to the empty vertex subset.

    The constructor checks all of this, downward closure included, and
    raises ``ValueError`` naming a face whose face is missing.  The
    package's own builders (:meth:`from_maximal_faces`,
    :meth:`full_subcomplex`, :func:`clique_complex`) make closed face sets
    and adopt them through :meth:`_adopt`, unchecked.

    ``listed`` holds faces whose downward closure, with the vertices, is
    the complex: the faces given to :meth:`from_maximal_faces`, each once,
    or else every face.
    """

    __slots__ = ("m", "faces", "listed", "_skeleton")

    def __init__(self, m, faces):
        _check_vertex_count(m, 0)
        faces = frozenset(faces)
        if 0 not in faces:
            raise ValueError("the empty face must be present")
        full = (1 << m) - 1
        for f in faces:
            if f & ~full:
                raise ValueError(f"face {bin(f)} uses vertices beyond {m}")
        for i in range(m):
            if (1 << i) not in faces:
                raise ValueError(f"missing singleton face for vertex {i + 1}")
        for f in faces:
            rest = f
            while rest:
                low = rest & -rest
                if f ^ low not in faces:
                    raise ValueError(
                        f"face {[i + 1 for i in _bits(f)]} is present but "
                        f"its face {[i + 1 for i in _bits(f ^ low)]} is not")
                rest ^= low
        self.m, self.faces, self.listed, self._skeleton = m, faces, faces, None

    @classmethod
    def _adopt(cls, m, faces, listed=None):
        """Adopt ``faces``, a downward-closed set of masks on 1..m holding
        the empty face and every singleton, unchecked."""
        K = cls.__new__(cls)
        K.m, K.faces, K._skeleton = m, frozenset(faces), None
        K.listed = K.faces if listed is None else listed
        return K

    # -- construction -----------------------------------------------------

    @classmethod
    def from_maximal_faces(cls, m, maximal):
        """Downward closure of the given faces plus the empty face and all
        singletons.  Vertices are 1-based; re-listing non-maximal faces is
        harmless."""
        _check_vertex_count(m, 1)
        faces = {0}
        faces.update(1 << i for i in range(m))
        listed = set()
        for fl in maximal:
            top = _mask_of(fl, m, "maximal face")
            listed.add(top)
            sub = top
            while sub:
                faces.add(sub)
                sub = (sub - 1) & top
        return cls._adopt(m, faces, tuple(listed))

    @classmethod
    def simplex(cls, m):
        """The full simplex on m vertices (every subset is a face)."""
        return cls.from_maximal_faces(m, [list(range(1, m + 1))])

    @classmethod
    def cycle(cls, m):
        """The m-gon boundary: edges {1,2}, {2,3}, ..., {m,1}."""
        if m < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        edges = [[i, i % m + 1] for i in range(1, m + 1)]
        return cls.from_maximal_faces(m, edges)

    @classmethod
    def points(cls, m):
        """m disjoint points."""
        return cls.from_maximal_faces(m, [])

    # -- basic queries -----------------------------------------------------

    def dim(self):
        return max(f.bit_count() for f in self.faces) - 1

    def faces_of_size(self, k):
        """Faces with exactly k vertices, as sorted masks."""
        return sorted(f for f in self.faces if f.bit_count() == k)

    def maximal_faces(self):
        """Inclusion-maximal faces as sorted vertex lists, ordered
        lexicographically.  Round-trips through :meth:`from_maximal_faces`.
        Scans every face; ``maximal_among(K, K.listed)`` gives the same."""
        return maximal_among(self, self.faces)

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (self.m, self.faces) == (other.m, other.faces)

    def __hash__(self):
        return hash((self.m, self.faces))

    def __repr__(self):
        return (f"SimplicialComplex(m={self.m}, "
                f"maximal={self.maximal_faces()})")

    # -- derived structures -------------------------------------------------

    def one_skeleton(self):
        """The graph of vertices and edges."""
        if self._skeleton is None:
            edges = []
            for f in self.faces:
                if f.bit_count() == 2:
                    a, b = _bits(f)
                    edges.append((a + 1, b + 1))
            self._skeleton = Graph(self.m, edges)
        return self._skeleton

    def full_subcomplex(self, vertices):
        """The subcomplex of faces contained in the given vertex subset J of
        1..m, renumbered 1..|J| in increasing order."""
        mask = _mask_of(vertices, self.m)
        newbit = {}             # each bit of J to its bit in 1..|J|
        rest, new = mask, 1
        while rest:
            low = rest & -rest
            newbit[low] = new
            rest ^= low
            new <<= 1
        outside = ~mask
        faces = set()
        for f in self.faces:
            if f & outside:
                continue
            g = 0
            while f:
                low = f & -f
                g |= newbit[low]
                f ^= low
            faces.add(g)
        return SimplicialComplex._adopt(len(newbit), faces)


def maximal_among(K, masks):
    """The maximal faces of ``K``, given a set of faces ``masks`` whose
    downward closure with the vertices is K, as sorted vertex lists in
    lexicographic order: each mask with no one-vertex extension in K (by
    downward closure, maximal), and each vertex that no mask covers."""
    faces, vertices = K.faces, [1 << v for v in range(K.m)]
    out, covered = [], 0
    for f in masks:
        covered |= f
        if not any(not f & bit and f | bit in faces for bit in vertices):
            out.append([i + 1 for i in _bits(f)])
    out += [[v + 1] for v in range(K.m) if not covered >> v & 1]
    return sorted(out)


def _components_masks(K, sub_mask):
    """Connected components of the 1-skeleton restricted to ``sub_mask``,
    as bitmasks in increasing order of smallest vertex."""
    adj = K.one_skeleton().adj
    comps = []
    todo = sub_mask
    while todo:
        # grow by the neighbours of the whole frontier, one layer a pass
        comp = frontier = todo & -todo
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & todo & ~comp
            comp |= frontier
        comps.append(comp)
        todo ^= comp
    return comps


def _cliques(graph):
    """The cliques of ``graph`` with two or more vertices, as masks,
    breadth-first by size: the edges in increasing order, then each
    clique of the last size extended by every common neighbour above its
    top vertex, each extension yielded as it is made.

    Each clique of a level travels with ``cands``, its common neighbours
    above its top vertex: extending by the lowest of them, ``low``, leaves
    the rest, all above ``low``, and the new clique's are those of them
    adjacent to ``low``."""
    adj = graph.adj
    current, cands = [], []
    for i in range(graph.m):
        above = adj[i] & (-2 << i)
        lower = adj[i] & ((1 << i) - 1)
        while lower:
            low = lower & -lower
            lower ^= low
            current.append(low | 1 << i)
            cands.append(above & adj[low.bit_length() - 1])
    yield from current
    while current:
        nxt, nxt_cands = [], []
        for clique, cand in zip(current, cands):
            while cand:
                low = cand & -cand
                cand ^= low
                bigger = clique | low
                yield bigger
                nxt.append(bigger)
                nxt_cands.append(cand & adj[low.bit_length() - 1])
        current, cands = nxt, nxt_cands


def clique_complex(graph):
    """The complex whose faces are exactly the cliques of ``graph``.

    The result is flag and has ``graph`` as its 1-skeleton.
    """
    faces = {0, *(1 << i for i in range(graph.m)), *_cliques(graph)}
    return SimplicialComplex._adopt(graph.m, faces)


def is_flag(K):
    """Whether every minimal non-face of ``K`` has exactly two vertices.

    Returns ``(True, None)`` or ``(False, witness)`` where the witness is a
    minimal non-face with >= 3 vertices.  A complex is flag exactly when
    every clique of its 1-skeleton is a face, so the smallest clique that
    fails to be a face is such a witness.
    """
    # the walk is breadth-first by size: all smaller cliques are already
    # known to be faces when we first meet a non-face, so it is minimal
    for clique in _cliques(K.one_skeleton()):
        if clique not in K.faces:
            return False, tuple(i + 1 for i in _bits(clique))
    return True, None


def _find_chordless_cycle(graph):
    """Some chordless cycle with >= 4 vertices, or None if the graph has
    none (i.e. is chordal).

    For every path u - v - w with u, w non-adjacent, a shortest u-w path
    avoiding the rest of N[v] closes up to a chordless cycle through v.
    """
    adj = graph.adj
    for v in range(graph.m):
        for u in _bits(adj[v]):
            for w in _bits(adj[v] & ~adj[u] & (-2 << u)):
                allowed = ~(adj[v] | 1 << v) | 1 << w
                prev = {u: u}
                queue = deque([u])
                while queue and w not in prev:
                    x = queue.popleft()
                    for y in _bits(adj[x] & allowed):
                        if y not in prev:
                            prev[y] = x
                            queue.append(y)
                if w in prev:
                    path = [w]
                    while path[-1] != u:
                        path.append(prev[path[-1]])
                    return tuple(i + 1 for i in [v] + path[::-1])
    return None


class Chordality(namedtuple("Chordality", "chordal ordering cycle",
                            defaults=(None, None))):
    """Result of a chordality test: either ``ordering``, a perfect
    elimination ordering read backwards (see :func:`is_chordal`), or a
    chordless cycle with >= 4 vertices."""

    __slots__ = ()

    def __bool__(self):
        return self.chordal


def is_chordal(graph):
    """Chordality via maximum cardinality search.

    MCS visits the vertices one by one, always taking an unvisited vertex
    with the most visited neighbours; the graph is chordal iff each
    vertex's earlier neighbours in this visit order form a clique, which
    is checked as each vertex is visited.  ``ordering`` is the visit
    order: under the usual convention (Rose; Tarjan-Yannakakis: each
    vertex simplicial among the later ones), a perfect elimination
    ordering read backwards, as 4, 3, 2, 1 below.  On failure a chordless
    cycle is located as a certificate.

    >>> K = SimplicialComplex.from_maximal_faces(4, [[1, 2, 3], [1, 4]])
    >>> is_chordal(K.one_skeleton()).ordering
    (1, 2, 3, 4)
    """
    adj = graph.adj
    weight = [0] * graph.m
    unvisited = set(range(graph.m))
    seen = 0
    order = []
    while unvisited:
        v = max(unvisited, key=lambda x: (weight[x], -x))
        unvisited.discard(v)
        earlier = adj[v] & seen
        if any(earlier & ~adj[u] & ~(1 << u) for u in _bits(earlier)):
            cycle = _find_chordless_cycle(graph)
            if cycle is None:
                raise RuntimeError(
                    "MCS order is not a perfect elimination ordering "
                    "but no chordless cycle was found")
            return Chordality(False, cycle=cycle)
        seen |= 1 << v
        order.append(v + 1)
        for y in _bits(adj[v] & ~seen):
            weight[y] += 1
    return Chordality(True, ordering=tuple(order))


# ---------------------------------------------------------------------------
# Reduced homology
# ---------------------------------------------------------------------------

def _simplex_faces(f):
    """The (face, sign) pairs of simplex ``f``'s boundary, dropping its
    vertices lowest first with signs +1, -1, +1, ..."""
    out = []
    sign, rest = 1, f
    while rest:
        low = rest & -rest
        out.append((f ^ low, sign))
        rest ^= low
        sign = -sign
    return out


# A splitting check within the CLI's m <= 10 cap asks for at most 2^10 full
# subcomplexes, so one check never evicts its own entries.
_HOMOLOGY_CACHE_SIZE = 1 << 12


@lru_cache(maxsize=_HOMOLOGY_CACHE_SIZE)
def _reduced_homology_key(m, faces):
    # level k holds the faces with k vertices; the empty face spans degree -1
    by_size = {}
    for f in faces:
        by_size.setdefault(f.bit_count(), []).append(f)
    top = max(by_size)
    # A cone is contractible: every group is trivial.  An apex v lies in
    # every face of the top size, and dropping v maps the faces through v
    # one-to-one into the faces without it, onto exactly when every f | v
    # is a face.  So v is an apex exactly when it lies in half of the faces.
    apexes = -1
    for f in by_size[top]:
        apexes &= f
    while apexes:
        low = apexes & -apexes
        if 2 * sum(map(low.__and__, faces)) == len(faces) * low:
            return (HomologyGroup(0),) * (top + 1)
        apexes ^= low
    # A graph (no face above an edge) on m >= 1 vertices: its augmented
    # chain complex is Z <- Z^m <- Z^E, and the incidence matrix is totally
    # unimodular, so there is no torsion.  With c components, reduced H0
    # has rank c - 1 and H1, the cycle space, rank E - m + c.  c comes from
    # a union-find over the edges.  The empty complex takes the chain path.
    if top <= 2 and m:
        edges = by_size.get(2, ())
        root = list(range(m))
        c = m
        for e in edges:
            low = e & -e
            a, b = low.bit_length() - 1, (e ^ low).bit_length() - 1
            while root[a] != a:
                a = root[a]
            while root[b] != b:
                b = root[b]
            if a != b:
                root[a] = b
                c -= 1
        return (HomologyGroup(0), HomologyGroup(c - 1),
                HomologyGroup(len(edges) - m + c))[:top + 1]
    levels = [sorted(by_size.get(k, ())) for k in range(top + 1)]
    return tuple(chain_homology(boundary_maps(levels, _simplex_faces)))


def reduced_homology(K):
    """Reduced simplicial homology, from the chain complex augmented by the
    empty face; cones and graphs get theirs without building it.

    The returned list is indexed from degree -1: ``result[0]`` is the
    degree -1 group (Z for the empty complex, trivial otherwise) and
    ``result[k + 1]`` is the degree-k group.  Each call returns a new
    list; the cache keeps its own tuple.
    """
    return list(_reduced_homology_key(K.m, K.faces))

"""Simplicial complexes on a small vertex set, stored as bitmask face sets.

Vertices are numbered 1..m externally and 0..m-1 internally (bit i of a face
mask is vertex i+1).  A complex produced by restriction to a subset keeps the
original vertex names in ``labels``, so components, orderings and witnesses
are always reported in the caller's numbering.

The vertex count is capped at 24 so faces fit comfortably in machine-word
bitmasks and loops over all 2^m vertex subsets stay feasible.
"""

from collections import deque
from functools import lru_cache

from .intlinalg import boundary_maps, chain_homology

MAX_VERTICES = 24


def _bits(mask):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


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

    __slots__ = ("m", "adj", "labels")

    def __init__(self, m, edges=(), labels=None):
        _check_vertex_count(m, 0)
        adj = [0] * m
        for e in edges:
            a, b = e
            for v in (a, b):
                if isinstance(v, bool) or not isinstance(v, int) or \
                        not 1 <= v <= m:
                    raise ValueError(
                        f"edge {e}: vertex {v!r} out of range 1..{m}")
            if a == b:
                raise ValueError(f"edge {e}: loops not allowed")
            adj[a - 1] |= 1 << (b - 1)
            adj[b - 1] |= 1 << (a - 1)
        self.m = m
        self.adj = tuple(adj)
        self.labels = tuple(labels) if labels is not None \
            else tuple(range(1, m + 1))

    def edges(self):
        """Sorted list of edges (a, b) with a < b, in internal numbering."""
        out = []
        for i in range(self.m):
            for j in _bits(self.adj[i] >> (i + 1)):
                out.append((i + 1, i + 1 + j + 1))
        return sorted(out)

    def has_edge(self, a, b):
        return bool(self.adj[a - 1] >> (b - 1) & 1)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.m, self.adj, self.labels) == \
            (other.m, other.adj, other.labels)

    def __hash__(self):
        return hash((self.m, self.adj, self.labels))

    def __repr__(self):
        return f"Graph(m={self.m}, edges={self.edges()})"


class SimplicialComplex:
    """A downward-closed face collection on 1..m.

    Always contains the empty face and, when m >= 1, all singletons;
    the unique complex with m = 0 (only the empty face) represents the
    restriction of a complex to the empty vertex subset.
    """

    __slots__ = ("m", "faces", "labels", "_skeleton")

    def __init__(self, m, faces, labels=None):
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
        self.m = m
        self.faces = faces
        self.labels = tuple(labels) if labels is not None \
            else tuple(range(1, m + 1))
        if len(self.labels) != m:
            raise ValueError("labels length must equal vertex count")
        self._skeleton = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_maximal_faces(cls, m, maximal):
        """Downward closure of the given faces plus the empty face and all
        singletons.  Vertices are 1-based; re-listing non-maximal faces is
        harmless."""
        _check_vertex_count(m, 1)
        faces = {0}
        faces.update(1 << i for i in range(m))
        for fl in maximal:
            top = _mask_of(fl, m, "maximal face")
            sub = top
            while sub:
                faces.add(sub)
                sub = (sub - 1) & top
        return cls(m, faces)

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
        """Inclusion-maximal faces as sorted lists of external labels,
        ordered lexicographically.  Round-trips through
        :meth:`from_maximal_faces` when labels are 1..m."""
        out = []
        for f in self.faces:
            # by downward closure, maximal means no one-vertex extension
            if not any(not f >> v & 1 and (f | (1 << v)) in self.faces
                       for v in range(self.m)) and (f or self.m == 0):
                out.append(sorted(self.labels[i] for i in _bits(f)))
        return sorted(out)

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (self.m, self.faces, self.labels) == \
            (other.m, other.faces, other.labels)

    def __hash__(self):
        return hash((self.m, self.faces, self.labels))

    def __repr__(self):
        return (f"SimplicialComplex(m={self.m}, "
                f"maximal={self.maximal_faces()})")

    # -- derived structures -------------------------------------------------

    def one_skeleton(self):
        """The graph of vertices and edges, with this complex's labels."""
        if self._skeleton is None:
            edges = []
            for f in self.faces:
                if f.bit_count() == 2:
                    a, b = _bits(f)
                    edges.append((a + 1, b + 1))
            self._skeleton = Graph(self.m, edges, self.labels)
        return self._skeleton

    def full_subcomplex(self, vertices):
        """The subcomplex of faces contained in the given vertex subset.

        ``vertices`` uses this complex's external labels.  The result is a
        complex on the chosen vertices, renumbered 1..|J| internally but
        remembering the original names.
        """
        wanted = set(vertices)
        unknown = wanted.difference(self.labels)
        if unknown:
            raise ValueError(f"unknown vertices {sorted(unknown)}")
        positions = [i for i, lab in enumerate(self.labels) if lab in wanted]
        sub_m = len(positions)
        newbit = {pos: k for k, pos in enumerate(positions)}
        mask = 0
        for pos in positions:
            mask |= 1 << pos
        faces = set()
        for f in self.faces:
            if f & ~mask:
                continue
            g = 0
            for pos in _bits(f):
                g |= 1 << newbit[pos]
            faces.add(g)
        return SimplicialComplex(sub_m, faces,
                                 tuple(self.labels[p] for p in positions))


def _components_masks(K, sub_mask):
    """Connected components of the 1-skeleton restricted to ``sub_mask``,
    as bitmasks in increasing order of smallest vertex."""
    adj = K.one_skeleton().adj
    comps = []
    todo = sub_mask
    while todo:
        start = todo & -todo
        comp = start
        queue = deque([start.bit_length() - 1])
        while queue:
            v = queue.popleft()
            fresh = adj[v] & sub_mask & ~comp
            comp |= fresh
            queue.extend(_bits(fresh))
        comps.append(comp)
        todo &= ~comp
    return comps


def clique_complex(graph):
    """The complex whose faces are exactly the cliques of ``graph``.

    The result is flag and has ``graph`` as its 1-skeleton.
    """
    faces = {0}
    m = graph.m

    def grow(clique, candidates):
        while candidates:
            v = candidates & -candidates
            candidates &= candidates - 1
            i = v.bit_length() - 1
            bigger = clique | v
            faces.add(bigger)
            grow(bigger, candidates & graph.adj[i])
    grow(0, (1 << m) - 1)
    return SimplicialComplex(m, faces, graph.labels)


def is_flag(K):
    """Whether every minimal non-face of ``K`` has exactly two vertices.

    Returns ``(True, None)`` or ``(False, witness)`` where the witness is a
    minimal non-face with >= 3 vertices (external labels).  A complex is
    flag exactly when every clique of its 1-skeleton is a face, so the
    smallest clique that fails to be a face is such a witness.
    """
    g = K.one_skeleton()
    # breadth-first over cliques by size: all smaller cliques are already
    # known to be faces when we first meet a non-face, so it is minimal
    current = K.faces_of_size(2)
    while current:
        nxt = []
        for clique in current:
            common = (1 << K.m) - 1
            top = 0
            for i in _bits(clique):
                common &= g.adj[i]
                top = i
            for j in _bits(common >> (top + 1)):
                bigger = clique | (1 << (top + 1 + j))
                if bigger not in K.faces:
                    witness = tuple(sorted(K.labels[i] for i in _bits(bigger)))
                    return False, witness
                nxt.append(bigger)
        current = nxt
    return True, None


def _find_chordless_cycle(graph):
    """Some chordless cycle with >= 4 vertices, or None if the graph has
    none (i.e. is chordal).

    For every path u - v - w with u, w non-adjacent, a shortest u-w path
    avoiding the rest of N[v] closes up to a chordless cycle through v.
    """
    m = graph.m
    for v in range(m):
        nbrs = list(_bits(graph.adj[v]))
        for ai in range(len(nbrs)):
            for bi in range(ai + 1, len(nbrs)):
                u, w = nbrs[ai], nbrs[bi]
                if graph.adj[u] >> w & 1:
                    continue
                forbidden = (graph.adj[v] | (1 << v)) & ~(1 << u) & ~(1 << w)
                prev = {u: None}
                queue = deque([u])
                while queue and w not in prev:
                    x = queue.popleft()
                    for y in _bits(graph.adj[x] & ~forbidden):
                        if y not in prev:
                            prev[y] = x
                            queue.append(y)
                if w in prev:
                    path = [w]
                    while path[-1] is not None:
                        path.append(prev[path[-1]])
                    path.pop()
                    cycle = [v] + path[::-1]
                    return tuple(graph.labels[i] for i in cycle)
    return None


class Chordality:
    """Result of a chordality test: either a perfect elimination ordering
    or a chordless cycle with >= 4 vertices."""

    __slots__ = ("chordal", "ordering", "cycle")

    def __init__(self, chordal, ordering=None, cycle=None):
        self.chordal = chordal
        self.ordering = ordering
        self.cycle = cycle

    def __bool__(self):
        return self.chordal

    def __repr__(self):
        if self.chordal:
            return f"Chordality(True, ordering={self.ordering})"
        return f"Chordality(False, cycle={self.cycle})"


def is_chordal(graph):
    """Chordality via maximum cardinality search.

    MCS numbers vertices m..1, always taking an unnumbered vertex with the
    most numbered neighbours.  The resulting order (position 1 first) is a
    perfect elimination ordering iff the graph is chordal: each vertex's
    earlier neighbours must form a clique.  On failure a chordless cycle
    is located as a certificate.
    """
    m = graph.m
    weight = [0] * m
    position = [0] * m          # 1-based position in elimination order
    order = [0] * m
    unnumbered = set(range(m))
    for slot in range(1, m + 1):
        v = max(unnumbered, key=lambda x: (weight[x], -x))
        unnumbered.discard(v)
        position[v] = slot
        order[slot - 1] = v
        for y in _bits(graph.adj[v]):
            if y in unnumbered:
                weight[y] += 1
    for v in range(m):
        earlier = [u for u in _bits(graph.adj[v]) if position[u] < position[v]]
        for ai in range(len(earlier)):
            for bi in range(ai + 1, len(earlier)):
                if not graph.adj[earlier[ai]] >> earlier[bi] & 1:
                    cycle = _find_chordless_cycle(graph)
                    if cycle is None:
                        raise RuntimeError(
                            "MCS order is not a perfect elimination ordering "
                            "but no chordless cycle was found")
                    return Chordality(False, cycle=cycle)
    ordering = tuple(graph.labels[v] for v in order)
    return Chordality(True, ordering=ordering)


# ---------------------------------------------------------------------------
# Reduced homology
# ---------------------------------------------------------------------------

def _simplex_faces(f):
    sign = 1
    for i in _bits(f):
        yield f & ~(1 << i), sign
        sign = -sign


# A splitting check at its m <= 10 cap asks for at most 2^10 full
# subcomplexes, so one check never evicts its own entries.
_HOMOLOGY_CACHE_SIZE = 1 << 12


@lru_cache(maxsize=_HOMOLOGY_CACHE_SIZE)
def _reduced_homology_key(m, faces):
    # level k holds the faces with k vertices; the empty face spans degree -1
    by_size = {}
    for f in faces:
        by_size.setdefault(f.bit_count(), []).append(f)
    levels = [sorted(by_size.get(k, ())) for k in range(max(by_size) + 1)]
    return chain_homology(boundary_maps(levels, _simplex_faces))


def reduced_homology(K):
    """Reduced simplicial homology, from the chain complex augmented by the
    empty face.

    The returned list is indexed from degree -1: ``result[0]`` is the
    degree -1 group (Z for the empty complex, trivial otherwise) and
    ``result[k + 1]`` is the degree-k group.
    """
    return _reduced_homology_key(K.m, K.faces)

"""The minimal generating set of the commutator subgroup of a right-angled
Coxeter group, read off from the combinatorics of the defining complex.

For a complex K on [m], the commutator subgroup of the associated Coxeter
group is generated by nested iterated commutators

    (g_{k_1}, (g_{k_2}, ... (g_{k_{l-2}}, (g_j, g_i)) ... ))

indexed as follows: for every vertex subset S with |S| >= 2, write
j = max S; every connected component of the restriction K_S that does not
contain j contributes one generator, with i the smallest vertex of that
component and k_1 < ... < k_{l-2} the remaining elements of S.  The total
count is the sum over all subsets J of (number of components of K_J minus
one), i.e. the total rank of the degree-0 reduced homology of all full
subcomplexes, and the set is minimal: the images in the abelianised
commutator subgroup form a basis (see :func:`coxkit.cubical
.basis_certificate` for the machine check).
"""

from dataclasses import dataclass

from .simplicial import _bits, _components_masks, is_chordal, is_flag
# ``evaluate`` stays a name of this module: the benchmark's spans wrap it here
from .words import (GroupSpec, _form_tables, _in_normal_form, commutator,
                    evaluate, generator)


class NotFlagError(ValueError):
    """Raised when an operation requiring a flag complex receives a complex
    with a minimal non-face of three or more vertices (the witness)."""

    def __init__(self, witness):
        super().__init__(f"complex is not flag: minimal non-face "
                         f"{list(witness)} has {len(witness)} vertices")
        self.witness = witness


@dataclass(frozen=True)
class CommutatorGenerator:
    """One nested iterated commutator (g_{k_1}, (..., (g_j, g_i)...)).

    ``ks`` is strictly increasing, below ``j``, and avoids ``i``; ``i < j``.
    ``i`` is the smallest vertex of a component not containing ``j`` of the
    restriction of the complex to its support, the vertices i, j and ks.
    """

    ks: tuple
    j: int
    i: int

    def __post_init__(self):
        if not self.i < self.j:
            raise ValueError("need i < j")
        if any(not a < b for a, b in zip(self.ks, self.ks[1:])):
            raise ValueError("ks must be strictly increasing")
        if self.ks and not self.ks[-1] < self.j:
            raise ValueError("ks must stay below j")
        if self.i in self.ks:
            raise ValueError("i may not appear among the ks")

    @property
    def length(self):
        return len(self.ks) + 2

    def nested(self):
        """Nested-array form, innermost pair last: (g2,(g4,g1)) -> [2,[4,1]]."""
        expr = [self.j, self.i]
        for k in reversed(self.ks):
            expr = [k, expr]
        return expr

    def word(self, spec):
        """The generator expanded to a normalised word of ``spec``."""
        return evaluate(self.nested(), spec)

    def __str__(self):
        s = f"(g{self.j},g{self.i})"
        for k in reversed(self.ks):
            s = f"(g{k},{s})"
        return s


def enumerate_generators(K):
    """The commutator-subgroup generators of ``K``, ordered by
    (support size, support mask, i).

    They are emitted in that order with no sort: one increasing walk over
    the masks appends each generator to the list for its support size,
    and the components of a support come in increasing order of i.  The
    lists are concatenated.

    ``K`` need not be flag: only the 1-skeleton matters.

    >>> from coxkit.simplicial import SimplicialComplex
    >>> gens = enumerate_generators(SimplicialComplex.points(3))
    >>> [str(g) for g in gens]
    ['(g2,g1)', '(g3,g1)', '(g3,g2)', '(g2,(g3,g1))', '(g1,(g3,g2))']
    """
    by_size = [[] for _ in range(K.m + 1)]
    for mask in range(1 << K.m):
        size = mask.bit_count()
        if size < 2:
            continue
        j = mask.bit_length()
        top = 1 << (j - 1)
        out = by_size[size]
        held = False
        for comp in _components_masks(K, mask):
            if comp & top:
                held = True
                continue
            low = comp & -comp
            ks = tuple(b + 1 for b in _bits(mask ^ top ^ low))
            out.append(CommutatorGenerator(ks, j, low.bit_length()))
        if not held:
            raise RuntimeError(f"no component of support {mask:#x} holds "
                               f"its largest vertex {j}")
    return [g for out in by_size for g in out]


def generator_count(K):
    """Total number of generators, computed without enumerating them:
    the sum over all vertex subsets J of (components of K_J) - 1."""
    m = K.m
    total = 0
    for mask in range(1, 1 << m):
        total += len(_components_masks(K, mask)) - 1
    return total


def per_length_counts(K):
    """How many generators involve l distinct vertices, for each l,
    from the enumeration itself (cross-check against
    :func:`generator_count`)."""
    counts = {}
    for gen in enumerate_generators(K):
        counts[gen.length] = counts.get(gen.length, 0) + 1
    return counts


def coxeter_spec(K):
    """The right-angled Coxeter group presented by the 1-skeleton of K."""
    return GroupSpec.coxeter(K.one_skeleton())


def generator_words(K, gens):
    """Each of ``gens = enumerate_generators(K)`` expanded to its
    normalised Coxeter-group word, in that order.  Each word is nonempty
    and has zero abelianisation.
    Each is one commutator with an earlier word: dropping k_1 from S keeps
    j = max S and only shrinks the component of i, so (ks[1:], j, i) is a
    generator too, on a smaller support and so enumerated earlier.

    In a right-angled Coxeter group g^-1 = g and every normal-form letter
    is (v, 1), so (g, w') normalises the vertices g reversed(w') g w'.
    Each word keeps its 0-based vertices as ``bytes`` beside it, and the
    next word's are a concatenation.  When
    :func:`~coxkit.words._in_normal_form`, given the tables of the word's
    support only, accepts them, the letters are read off them: a word of
    letters (v, 1) that it accepts is its own normal form (see
    :mod:`coxkit.words`).  It is the canonical word because reduced words
    for one element differ only by commuting swaps (E. R. Green, *Graph
    products of groups*, PhD thesis, Leeds 1990), so their least order is
    unique.  Any other word goes through :func:`commutator`."""
    spec = coxeter_spec(K)
    tables = _form_tables(spec)[0]
    letters = [(v, 1) for v in range(1, K.m + 1)]
    words = {}
    for g in gens:
        if g.ks:
            outer, (inner, live, held) = g.ks[0], words[g.ks[1:], g.j, g.i]
        else:
            outer, inner, live = g.j, generator(g.i), bytes((g.i - 1,))
            held = (tables[g.i - 1],)
        # the tables of the word's support: no other vertex has a letter
        held += (tables[outer - 1],)
        top = bytes((outer - 1,))
        live = top + live[::-1] + top + live
        if _in_normal_form(live, held):
            word = tuple(map(letters.__getitem__, live))
        else:
            word = commutator(generator(outer), inner, spec)
            live = bytes([v - 1 for v, _ in word])
        words[g.ks, g.j, g.i] = word, live, held
    return [word for word, _, _ in words.values()]


def commutator_subgroup_is_free(K):
    """Whether the commutator subgroup is a free group: true exactly when
    the 1-skeleton is chordal.  The criterion assumes a flag complex, so
    non-flag input raises :class:`NotFlagError` with a witness."""
    flag, witness = is_flag(K)
    if not flag:
        raise NotFlagError(witness)
    return bool(is_chordal(K.one_skeleton()))

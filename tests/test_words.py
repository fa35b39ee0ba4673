import hashlib
import random
import subprocess
import sys
from enum import IntEnum
from pathlib import Path

import pytest

from coxkit import words as words_module
from coxkit.commutators import enumerate_generators, generator_words
from coxkit.cubical import build, word_to_loop
from coxkit.simplicial import Graph, SimplicialComplex
from coxkit.words import (GroupSpec, abelianization, commutator, evaluate,
                          generator, geometric_representation, is_identity,
                          is_identity_chamber, is_identity_matrix, multiply,
                          normal_form, random_word, verify_hall, verify_swap)
from helpers import dense, inverse, random_complex, random_graph

FREE2 = GroupSpec.coxeter(Graph(2, []))
EDGE2 = GroupSpec.coxeter(Graph(2, [(1, 2)]))
FREE3 = GroupSpec.coxeter(Graph(3, []))


def _specs(rng=None):
    graphs = [Graph(4, []), Graph(4, [(1, 2), (3, 4)]),
              Graph(4, [(1, 2), (2, 3), (3, 4)]),
              Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3)])]
    out = []
    for g in graphs:
        out.append(GroupSpec.coxeter(g))
        out.append(GroupSpec.artin(g))
        out.append(GroupSpec(g, tuple([2, 3, None, 4, 6][:g.m])))
    return out


def test_normal_form_examples():
    assert normal_form(((1, 1), (1, 1)), FREE2) == ()
    assert normal_form(((2, 1), (1, 1), (2, 1), (1, 1)), EDGE2) == ()
    w = normal_form(((2, 1), (1, 1), (2, 1), (1, 1)), FREE2)
    assert len(w) == 4


def test_normal_form_sorts_commuting_letters():
    spec = GroupSpec.artin(Graph(3, [(1, 3)]))
    # 3 and 1 commute: the least shuffle puts 1 first
    assert normal_form(((3, 1), (1, 1)), spec) == ((1, 1), (3, 1))
    # blocked by the non-commuting 2
    assert normal_form(((3, 1), (2, 1), (1, 1)), spec) == \
        ((3, 1), (2, 1), (1, 1))


def test_normal_form_least_shuffle_needs_lookahead():
    # commuting pairs {1,2}, {2,3} only: (3)(1)(2) = (3)(2)(1) = (2)(3)(1)
    spec = GroupSpec.artin(Graph(3, [(1, 2), (2, 3)]))
    assert normal_form(((3, 1), (1, 1), (2, 1)), spec) == \
        ((2, 1), (3, 1), (1, 1))
    # the least-order test looks past them too
    assert not words_module._in_least_order(bytes([2, 0, 1]), spec)
    assert words_module._in_least_order(bytes([1, 2, 0]), spec)


def test_normal_form_merges_across_commuting_blocks():
    spec = GroupSpec.artin(Graph(3, [(1, 2)]))
    # 1 commutes with 2, so 1 ... 1^-1 cancels through it
    assert normal_form(((1, 1), (2, 1), (1, -1)), spec) == ((2, 1),)


def test_finite_order_exponents():
    spec = GroupSpec(Graph(1, []), (3,))
    assert normal_form(((1, 5),), spec) == ((1, 2),)
    assert normal_form(((1, 3),), spec) == ()
    assert inverse(((1, 1),), spec) == ((1, 2),)


def test_invalid_input():
    with pytest.raises(ValueError):
        normal_form(((3, 1),), FREE2)
    with pytest.raises(ValueError):
        GroupSpec(Graph(2, []), (2,))
    with pytest.raises(ValueError):
        GroupSpec(Graph(2, []), (1, 2))


def test_boolean_vertices_rejected():
    with pytest.raises(ValueError, match="vertex True"):
        Graph(3, [(True, 2)])
    with pytest.raises(ValueError, match="vertex True"):
        normal_form(((True, 1), (2, 1)), GroupSpec.coxeter(Graph(3, [])))


def test_boolean_exponents_rejected():
    ra = GroupSpec.artin(Graph(2, []))
    bad = ((1, True),)
    for call in (lambda: normal_form(bad, ra),
                 lambda: multiply(generator(2), bad, ra),
                 lambda: inverse(bad, ra),
                 lambda: commutator(bad, generator(2), ra),
                 lambda: commutator(generator(2), bad, ra)):
        with pytest.raises(ValueError, match="exponent True"):
            call()


def test_multiply_inverse_identity():
    rng = random.Random(1)
    for spec in _specs():
        for _ in range(60):
            u = random_word(spec, rng.randint(0, 8), rng)
            v = random_word(spec, rng.randint(0, 8), rng)
            w = random_word(spec, rng.randint(0, 8), rng)
            assert multiply(u, inverse(u, spec), spec) == ()
            assert multiply(inverse(u, spec), u, spec) == ()
            assert multiply(multiply(u, v, spec), w, spec) == \
                multiply(u, multiply(v, w, spec), spec)
    assert inverse(((1, 1), (2, 1)), EDGE2) == normal_form(((2, 1), (1, 1)), EDGE2)
    ra = GroupSpec.artin(Graph(2, []))
    assert inverse(((1, 2), (2, 1)), ra) == ((2, -1), (1, -2))


def test_abelianization():
    assert abelianization(((1, 1), (2, 1), (1, 1)), FREE2) == (0, 1)
    ra = GroupSpec.artin(Graph(2, []))
    assert abelianization(((1, 3),), ra) == (3, 0)
    u = ((1, 1), (2, 1))
    v = ((2, 1), (1, 1))
    assert abelianization(commutator(u, v, FREE2), FREE2) == (0, 0)


def test_abelianization_is_homomorphism():
    rng = random.Random(8)
    for spec in _specs():
        for _ in range(40):
            u = random_word(spec, rng.randint(0, 8), rng)
            v = random_word(spec, rng.randint(0, 8), rng)
            au = abelianization(u, spec)
            av = abelianization(v, spec)
            auv = abelianization(multiply(u, v, spec), spec)
            for i in range(spec.m):
                s = au[i] + av[i]
                if spec.orders[i] is not None:
                    s %= spec.orders[i]
                assert s == auv[i]


def test_commutator_examples():
    assert commutator(generator(2), generator(1), EDGE2) == ()
    inner = commutator(generator(3), generator(1), FREE3)
    assert inner == ((3, 1), (1, 1), (3, 1), (1, 1))
    outer = commutator(generator(2), inner, FREE3)
    assert outer != () and len(outer) == 10
    assert not is_identity_matrix(geometric_representation(outer, FREE3))


def test_commutator_expr():
    inner = commutator(generator(3), generator(1), FREE3)
    assert evaluate([2, [3, 1]], FREE3) == \
        commutator(generator(2), inner, FREE3)
    assert evaluate((2, (3, 1)), FREE3) == evaluate([2, [3, 1]], FREE3)
    with pytest.raises(ValueError):
        evaluate([[1, 2], [3, 1]], FREE3)
    with pytest.raises(ValueError):
        evaluate([1, 2, 3], FREE3)


def _nested_path(depth, rng, m=3):
    nested = rng.randint(1, m)
    for _ in range(depth):
        v = rng.randint(1, m)
        nested = [v, nested] if rng.random() < 0.5 else [nested, v]
    return nested


def test_commutator_expr_matches_recursive_evaluation():
    def reference(nested):
        if isinstance(nested, int):
            return generator(nested)
        return commutator(reference(nested[0]), reference(nested[1]), FREE3)

    rng = random.Random(3)
    assert evaluate(2, FREE3) == generator(2)
    for depth in range(1, 7):
        for _ in range(6):
            nested = _nested_path(depth, rng)
            assert evaluate(nested, FREE3) == reference(nested)


def test_commutator_expr_3000_deep():
    abelian = GroupSpec.coxeter(Graph(3, [(1, 2), (1, 3), (2, 3)]))
    nested = _nested_path(3000, random.Random(4))
    assert evaluate(nested, abelian) == ()
    assert evaluate(nested, GroupSpec.artin(abelian.graph)) == ()
    bad = [1, 2, 3]
    for _ in range(3000):
        bad = [bad, 2]
    with pytest.raises(ValueError):
        evaluate(bad, abelian)
    with pytest.raises(ValueError, match="serialisation"):
        evaluate([nested, 1, 2], abelian)   # its message reprs no deep list
    with pytest.raises(ValueError):
        evaluate([[1, 9], 2], abelian)
    deep_bad_vertex = 9
    for _ in range(3000):
        deep_bad_vertex = [1, deep_bad_vertex]
    with pytest.raises(ValueError):
        evaluate(deep_bad_vertex, abelian)


def test_hall_and_swap_identities():
    rng = random.Random(9)
    specs = _specs()
    for _ in range(250):
        spec = rng.choice(specs)
        a = random_word(spec, rng.randint(0, 5), rng)
        b = random_word(spec, rng.randint(0, 5), rng)
        c = random_word(spec, rng.randint(0, 5), rng)
        assert verify_hall(a, b, c, spec)
        p = rng.randint(1, spec.m)
        q = rng.randint(1, spec.m)
        x = random_word(spec, rng.randint(0, 4), rng)
        assert verify_swap(p, q, x, spec)
    assert verify_hall((), (), (), FREE2)
    assert verify_swap(1, 2, generator(3), FREE3)


def test_geometric_representation_basics():
    assert is_identity_matrix(geometric_representation((), FREE2))
    assert is_identity_matrix(geometric_representation(((1, 1), (1, 1)), FREE2))
    M = geometric_representation(((2, 1), (1, 1), (2, 1), (1, 1)), FREE2)
    assert not is_identity_matrix(M)
    # the same word is trivial when the generators commute
    assert is_identity_matrix(
        geometric_representation(((2, 1), (1, 1), (2, 1), (1, 1)), EDGE2))
    with pytest.raises(ValueError):
        geometric_representation((), GroupSpec.artin(Graph(2, [])))
    with pytest.raises(ValueError):
        is_identity_chamber((), GroupSpec.artin(Graph(2, [])))


def _commuting_shuffle(w, spec, rng):
    """``w`` after random swaps of adjacent letters that commute: the same
    group element, spelt differently."""
    w = list(w)
    for _ in range(2 * (len(w) - 1)):       # none below two letters
        k = rng.randrange(len(w) - 1)
        a, b = w[k][0], w[k + 1][0]
        if a != b and spec.graph.adj[a - 1] >> (b - 1) & 1:
            w[k], w[k + 1] = w[k + 1], w[k]
    return tuple(w)


def test_chamber_test_agrees_with_reflection_matrix():
    # half the words are random; the other half are w w^-1, or a shuffle of
    # commuting letters of w w^-1 or of w g w^-1, so that identities and
    # their nearest non-identities are both common
    rng = random.Random(20261019)
    specs = [GroupSpec.coxeter(random_graph(m, rng, p))
             for m in range(1, 11) for p in (0.2, 0.5, 0.8) for _ in range(4)]
    seen = {True: 0, False: 0}
    for t in range(20000):
        spec = rng.choice(specs)
        m = spec.m
        w = tuple((rng.randint(1, m), rng.choice((1, -1, 2, 3)))
                  for _ in range(rng.randint(0, 12 if t % 2 else 24)))
        if t % 2:
            inv = tuple((v, -e) for v, e in reversed(w))
            if t % 4 == 3:
                core = w + ((rng.randint(1, m), 1),) if t % 8 == 7 else w
                w = _commuting_shuffle(core + inv, spec, rng)
            else:
                w += inv
        trivial = is_identity_matrix(geometric_representation(w, spec))
        assert is_identity_chamber(w, spec) == trivial, (w, spec.graph.adj)
        seen[trivial] += 1
    assert seen[True] >= 5000 and seen[False] >= 5000, seen


def _dense_product(factors, m):
    out = [[int(i == j) for j in range(m)] for i in range(m)]
    for f in factors:
        out = [[sum(out[i][k] * f[k][j] for k in range(m)) for j in range(m)]
               for i in range(m)]
    return out


def _reflection_reference(w, spec):
    """The dense product of the letter matrices of ``w``, left to right;
    letter g_i is the identity with row i set to -1 at i and 2 at every
    vertex not commuting with i."""
    m = spec.m
    factors = []
    for v, e in w:
        f = [[int(i == j) for j in range(m)] for i in range(m)]
        if e % 2:
            f[v - 1] = [-1 if j == v - 1 else
                        0 if spec.graph.adj[v - 1] >> j & 1 else 2
                        for j in range(m)]
        factors.append(f)
    return _dense_product(factors, m)


def test_geometric_representation_matches_dense_letter_product():
    rng = random.Random(5301)
    widest = 0
    for _ in range(120):
        m = rng.randint(1, 8)
        edges = [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)
                 if rng.random() < rng.choice((0.0, 0.3, 0.6))]
        spec = GroupSpec.coxeter(Graph(m, edges))
        w = tuple((rng.randint(1, m), rng.randint(-3, 3))
                  for _ in range(rng.randint(0, 200)))
        product = _reflection_reference(w, spec)
        assert dense(geometric_representation(w, spec)) == product
        widest = max([widest] + [abs(x).bit_length() for r in product
                                 for x in r])
    assert widest > 64             # entries beyond machine words are covered


def test_reflection_output_is_pinned():
    # A digest of the reflection matrices of seeded RACG words: m 0-12, 16
    # and 24, commuting densities 0, 0.4 and 0.8, lengths 0-4,000 with
    # exponents -3..3; random words, w w^-1 and w w^-1 after a commuting
    # shuffle.  Entries are hashed in hex: they pass the digit limit of
    # decimal conversion.  A faster oracle must return the same matrices.
    digest = hashlib.sha256()
    rng = random.Random(2020)
    words, widest = 0, 0
    for m in list(range(13)) + [16, 24]:
        for p in (0.0, 0.4, 0.8):
            spec = GroupSpec.coxeter(random_graph(m, rng, p))
            for kind in range(3):
                n = 0 if not m or rng.random() < 0.1 else \
                    rng.randint(1, 4000 if kind == 0 else 2000)
                w = tuple((rng.randint(1, m), rng.randint(-3, 3))
                          for _ in range(n))
                if kind:
                    inv = _inv_letters(w)
                    w = _commuting_shuffle(w + inv, spec, rng) \
                        if kind == 2 else w + inv
                M = geometric_representation(w, spec)
                digest.update(f"{m} {len(w)}:".encode())
                for (r, c), x in sorted(M.items()):
                    digest.update(f"{r},{c},{x:x};".encode())
                    widest = max(widest, abs(x).bit_length())
                words += 1
    assert words == 135 and widest > 2000, (words, widest)
    assert digest.hexdigest() == ("36a6ba90f4137a9fcc629ecc0d9071aa"
                                  "c4b9a8ccfae83fbd1e40dcdb6efe5d8c")


def test_reflection_repacks_at_the_smallest_constants(monkeypatch):
    # one odd letter between slot tests and one letter of headroom: the
    # rows are packed again wider whenever the widest entry has gained a
    # bit, and narrower once it has lost 2 g - 1 bits, as in w w^-1
    monkeypatch.setattr(words_module, "_CHECK_EVERY", 1)
    monkeypatch.setattr(words_module, "_HEADROOM", 1)
    packed = words_module._packed
    widths = []

    def counted(entries, growth):
        out = packed(entries, growth)
        widths.append(out[0])
        return out
    monkeypatch.setattr(words_module, "_packed", counted)
    rng = random.Random(2022)
    hub = [(3, v) for v in (1, 2, 4, 5)] + [(1, 2)]    # 3 commutes with all
    specs = [GroupSpec.coxeter(g) for g in
             (Graph(1, []), Graph(2, []), Graph(5, hub), Graph(6, []),
              random_graph(7, rng, 0.3), Graph(10, []))]
    grew = shrank = 0
    for spec in specs:
        m = spec.m
        cases = [(), ((1, 2),), ((1, -1),), ((1, 4), (1, -3), (m, 1))]
        for _ in range(6):
            w = tuple((rng.randint(1, m), rng.randint(-3, 3))
                      for _ in range(rng.randint(1, 150)))
            cases += [w, w + _inv_letters(w)]
        for w in cases:
            del widths[:]
            assert dense(geometric_representation(w, spec)) == \
                _reflection_reference(w, spec), (w, spec.graph.adj)
            grew += sum(map(int.__lt__, widths, widths[1:]))
            shrank += sum(map(int.__gt__, widths, widths[1:]))
    assert grew > 200 and shrank > 50, (grew, shrank)


def test_slot_test_is_exact_on_crafted_rows():
    rng = random.Random(2023)
    for m in (1, 2, 5):
        for growth in (1, 5, 40):
            width, _, (low, high), _ = words_module._packed([[0] * m] * m,
                                                            growth)
            t = (low & -low).bit_length() - 1
            assert t <= width - 1 - growth
            edge = (1 << t) - 1
            for bad in (0, 1, -1, edge, -edge, edge + 1, -edge - 1):
                for j in range(m):          # j = m - 1 is the top slot
                    rows = [[rng.randint(-edge, edge) for _ in range(m)]
                            for _ in range(m)]
                    k = rng.randrange(m)
                    rows[k][j] = bad
                    packed = [words_module._pack(r, width) for r in rows]
                    assert [words_module._unpack(r, m, width)
                            for r in packed] == rows
                    assert words_module._slots_fit(packed, low, high) == \
                        (abs(bad) <= edge), (m, growth, bad, j)


def test_slot_overflow_is_a_runtime_error(monkeypatch):
    # a leftover above the top slot after unpacking
    unpack = words_module._unpack

    def corrupt(r, m, width):
        return unpack(r + (1 << m * width), m, width)
    monkeypatch.setattr(words_module, "_unpack", corrupt)
    with pytest.raises(RuntimeError, match="overflowed its slot"):
        geometric_representation(((1, 1), (2, 1)), FREE2)
    # a raise, not an assert: it also fires under python -O
    src = Path(__file__).resolve().parents[1] / "src"
    check = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "from coxkit.words import _unpack\n"
             "try: _unpack(1 << 64, 2, 32)\n"
             "except RuntimeError: sys.exit(0)\n"
             "sys.exit(1)")
    assert subprocess.run([sys.executable, "-O", "-c", check, str(src)],
                          timeout=60).returncode == 0


class _Small(IntEnum):
    ONE = 1
    TWO = 2
    THREE = 3


def test_letter_checks_at_every_entry_point():
    K = SimplicialComplex.from_maximal_faces(3, [[1, 2], [3]])
    spec = GroupSpec.coxeter(K.one_skeleton())
    R = build(K)
    # each entry point applied to a word that closes up as a loop
    entry_points = {
        "normal_form": lambda w: normal_form(w, spec),
        "inverse": lambda w: inverse(w, spec),
        "commutator": lambda w: commutator(w, generator(1), spec),
        "abelianization": lambda w: abelianization(w, spec),
        "geometric_representation":
            lambda w: dense(geometric_representation(w, spec)),
        "is_identity_chamber": lambda w: is_identity_chamber(w, spec),
        "word_to_loop": lambda w: word_to_loop(R, w, spec),
    }
    bad_vertices = (True, 0, 4, 1.0, "1")
    bad_exponents = (True, 1.0, "1")
    for name, call in entry_points.items():
        for bad in bad_vertices:
            with pytest.raises(ValueError, match="vertex"):
                call(((bad, 1), (bad, 1)))
        for bad in bad_exponents:
            with pytest.raises(ValueError, match="exponent"):
                call(((1, bad), (1, bad)))
        # an int subclass other than bool is still a vertex or exponent
        plain = ((3, 1), (1, 1), (3, 1), (1, 3))
        enum = ((_Small.THREE, 1), (_Small.ONE, 1), (3, _Small.ONE),
                (1, _Small.THREE))
        assert call(enum) == call(plain), name
    # evaluate takes vertices only, at the top and inside a pair
    for bad in bad_vertices:
        for nested in (bad, [bad, 1], [1, bad]):
            with pytest.raises(ValueError, match="vertex"):
                evaluate(nested, spec)
    assert evaluate([_Small.THREE, _Small.ONE], spec) == \
        evaluate([3, 1], spec)
    assert evaluate(_Small.TWO, spec) == evaluate(2, spec)


def test_oracle_agreement():
    rng = random.Random(4242)
    for _ in range(2500):
        m = rng.randint(1, 6)
        edges = [(a + 1, b + 1) for a in range(m) for b in range(a + 1, m)
                 if rng.random() < 0.4]
        spec = GroupSpec.coxeter(Graph(m, edges))
        w = random_word(spec, rng.randint(0, 12), rng)
        assert is_identity(w, spec) == \
            is_identity_matrix(geometric_representation(w, spec))


def test_confluence_smoke():
    rng = random.Random(31)
    specs = _specs()

    def randomise(w, spec):
        w = list(w)
        for _ in range(6):
            if rng.random() < 0.5:
                i = rng.randint(0, len(w))
                v = rng.randint(1, spec.m)
                o = spec.orders[v - 1]
                e = rng.choice((1, -1)) if o is None else rng.randint(1, o - 1)
                w[i:i] = [(v, e), (v, -e)]
            elif len(w) >= 2:
                i = rng.randint(0, len(w) - 2)
                (a, ea), (b, eb) = w[i], w[i + 1]
                if a != b and spec.graph.adj[a - 1] >> (b - 1) & 1:
                    w[i], w[i + 1] = w[i + 1], w[i]
        return tuple(w)

    for _ in range(800):
        spec = rng.choice(specs)
        w = random_word(spec, rng.randint(0, 10), rng)
        base = normal_form(w, spec)
        assert normal_form(randomise(w, spec), spec) == base


def _canonical_exponents(w, spec):
    out = []
    for v, e in w:
        o = spec.orders[v - 1]
        if o is not None:
            e %= o
        if e:
            out.append((v, e))
    return tuple(out)


def _merge_reduce(w, spec):
    # any-strategy merging of same-vertex letters across commuting blocks
    w = list(_canonical_exponents(w, spec))
    changed = True
    while changed:
        changed = False
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                if w[j][0] == w[i][0]:
                    if all(spec.graph.adj[w[k][0] - 1] >> (w[i][0] - 1) & 1
                           for k in range(i + 1, j)):
                        o = spec.orders[w[i][0] - 1]
                        g = w[i][1] + w[j][1]
                        if o is not None:
                            g %= o
                        del w[j]
                        if g:
                            w[i] = (w[i][0], g)
                        else:
                            del w[i]
                        changed = True
                    break
            if changed:
                break
    return tuple(w)


def _swap_closure(w, spec):
    seen = {w}
    stack = [w]
    while stack:
        x = stack.pop()
        for k in range(len(x) - 1):
            a, b = x[k], x[k + 1]
            if a[0] != b[0] and spec.graph.adj[a[0] - 1] >> (b[0] - 1) & 1:
                y = x[:k] + (b, a) + x[k + 2:]
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return seen


def test_normal_form_is_least_shuffle_of_reduced_word():
    # palindromic cancellation bombs force merge-deletion cascades; the
    # normal form must be the lexicographically least member of the swap
    # closure of any independently reduced form
    rng = random.Random(13579)
    for _ in range(400):
        m = rng.randint(3, 6)
        edges = [(a + 1, b + 1) for a in range(m) for b in range(a + 1, m)
                 if rng.random() < 0.6]
        spec = GroupSpec(Graph(m, edges),
                         tuple(rng.choice((2, 2, 3, None)) for _ in range(m)))
        core = [(rng.randint(1, m), rng.choice((1, -1)))
                for _ in range(rng.randint(1, 4))]
        pad = [(rng.randint(1, m), rng.choice((1, -1)))
               for _ in range(rng.randint(0, 2))]
        w = tuple(core) + tuple(pad) + \
            tuple((v, -e) for v, e in reversed(core))
        w = w + tuple((v, -e) for v, e in reversed(w)) + tuple(pad)
        nf = normal_form(w, spec)
        closure = _swap_closure(_merge_reduce(w, spec), spec)
        assert nf in closure
        assert nf == min(closure, key=lambda x: [l[0] for l in x])


def test_normal_form_output_is_reduced():
    # outputs carry canonical exponents and no same-vertex letter pair
    # separated only by letters commuting with that vertex
    rng = random.Random(8642)
    specs = _specs()
    for _ in range(600):
        spec = rng.choice(specs)
        nf = normal_form(random_word(spec, rng.randint(0, 12), rng), spec)
        for v, e in nf:
            o = spec.orders[v - 1]
            assert e != 0 and (o is None or 1 <= e < o)
        for i in range(len(nf)):
            for j in range(i + 1, len(nf)):
                if nf[i][0] == nf[j][0]:
                    adj = spec.graph.adj[nf[i][0] - 1]
                    assert any(not adj >> (nf[k][0] - 1) & 1
                               for k in range(i + 1, j))


def test_torus_relation():
    c4 = GroupSpec.coxeter(Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]))
    a1 = commutator(generator(3), generator(1), c4)
    b1 = commutator(generator(4), generator(2), c4)
    assert a1 != () and b1 != ()
    assert commutator(a1, b1, c4) == ()


def _inv_letters(w):
    return tuple((v, -e) for v, e in reversed(w))


def _long_spec(kind, rng, m=8):
    edges = [(a + 1, b + 1) for a in range(m) for b in range(a + 1, m)
             if rng.random() < 0.4]
    orders = {"racg": (2,) * m, "raag": (None,) * m,
              "mixed": tuple(rng.choice((2, 3, 4, None)) for _ in range(m))}
    return GroupSpec(Graph(m, edges), orders[kind])


@pytest.mark.parametrize("kind", ["racg", "raag", "mixed"])
def test_long_cancelling_word(kind):
    # w followed by the inverse of a reshuffle of w by legal swaps
    rng = random.Random(f"cancel:{kind}")
    spec = _long_spec(kind, rng)
    half = list(random_word(spec, 10000, rng))
    shuffled = list(half)
    for _ in range(4 * len(shuffled)):
        i = rng.randrange(len(shuffled) - 1)
        a, b = shuffled[i][0], shuffled[i + 1][0]
        if a != b and spec.graph.adj[a - 1] >> (b - 1) & 1:
            shuffled[i], shuffled[i + 1] = shuffled[i + 1], shuffled[i]
    assert shuffled != half
    word = tuple(half) + _inv_letters(shuffled)
    assert len(word) == 20000
    assert normal_form(word, spec) == ()


def test_long_random_word_against_reflection_oracle():
    rng = random.Random(20000)
    spec = _long_spec("racg", rng)
    w = random_word(spec, 20000, rng)
    nf = normal_form(w, spec)
    assert 0 < len(nf) < len(w)
    assert geometric_representation(nf, spec) == \
        geometric_representation(w, spec)


def test_commutator_is_one_normal_form_of_the_spelt_word():
    rng = random.Random(77)
    for spec in _specs():
        for _ in range(50):
            u = random_word(spec, rng.randint(0, 10), rng)
            v = random_word(spec, rng.randint(0, 10), rng)
            assert commutator(u, v, spec) == normal_form(
                _inv_letters(u) + _inv_letters(v) + u + v, spec)


def test_normal_form_properties():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def spec_and_word(draw, max_letters):
        m = draw(st.integers(1, 5))
        pairs = [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)]
        edges = [p for p in pairs if draw(st.booleans())]
        orders = tuple(draw(st.sampled_from((2, 3, None)))
                       for _ in range(m))
        letter = st.tuples(st.integers(1, m), st.integers(-3, 3))
        word = tuple(draw(st.lists(letter, max_size=max_letters)))
        return GroupSpec(Graph(m, edges), orders), word

    settings = hypothesis.settings(max_examples=300, deadline=None,
                                   derandomize=True, database=None)

    @settings
    @hypothesis.given(spec_and_word(40))
    def idempotent(case):
        spec, w = case
        nf = normal_form(w, spec)
        assert normal_form(nf, spec) == nf

    @settings
    @hypothesis.given(spec_and_word(7))
    def least_shuffle(case):
        spec, w = case
        closure = _swap_closure(_merge_reduce(w, spec), spec)
        assert normal_form(w, spec) == \
            min(closure, key=lambda x: [l[0] for l in x])

    idempotent()
    least_shuffle()


def test_normal_form_output_is_pinned():
    # One digest over the normal forms of two sets of words: the generator
    # words of points, cycle and seeded random complexes, m 4-9; and seeded
    # random and cancelling words (w, then the inverse of a commuting
    # shuffle of w) with exponents -3..3 in RACG, RAAG and mixed-order
    # groups, m 1-12, 16 and 24, lengths 0-2,000 (short ones too).  A
    # faster normal form must return the same words.
    digest = hashlib.sha256()
    rng = random.Random(2027)
    words = 0
    for m in range(4, 10):
        for K in (SimplicialComplex.points(m), SimplicialComplex.cycle(m),
                  random_complex(m, rng)):
            for w in generator_words(K, enumerate_generators(K)):
                digest.update(f"{w};".encode())
                words += 1
    for m in list(range(1, 13)) + [16, 24]:
        for kind in ("racg", "raag", "mixed"):
            for p in (0.2, 0.5, 0.8):
                graph = random_graph(m, rng, p)
                orders = {"racg": (2,) * m, "raag": (None,) * m,
                          "mixed": tuple(rng.choice((2, 3, 4, None))
                                         for _ in range(m))}[kind]
                spec = GroupSpec(graph, orders)
                for cancelling in (False, True):
                    n = rng.randint(0, rng.choice((12, 2000)) >> cancelling)
                    w = tuple((rng.randint(1, m), rng.randint(-3, 3))
                              for _ in range(n))
                    if cancelling:
                        w += _inv_letters(_commuting_shuffle(w, spec, rng))
                    nf = normal_form(w, spec)
                    digest.update(f"{m} {len(w)}:{nf};".encode())
                    words += 1
    assert words == 4410, words
    assert digest.hexdigest() == ("a9a5fa28048181361b14dd459838fbfc"
                                  "bac6aab77475a487de7ce10cd20a80ad")


def _record_least_order_answers(monkeypatch):
    """Patch the least-order test to record its answers, in this list."""
    test = words_module._in_least_order
    answers = []

    def recorded(live, spec):
        answers.append(test(live, spec))
        return answers[-1]
    monkeypatch.setattr(words_module, "_in_least_order", recorded)
    return answers


def test_least_order_shortcut_keeps_every_normal_form(monkeypatch):
    # random words, their normal forms and commuting shuffles of those, so
    # that the least-order test answers both ways; with the test forced to
    # False, the heap pass must give the same normal forms
    rng = random.Random(2718)
    answers = _record_least_order_answers(monkeypatch)
    cases = []
    for t in range(6000):
        m = rng.randint(1, 8)
        spec = GroupSpec(random_graph(m, rng, rng.choice((0.2, 0.5, 0.8))),
                         tuple(rng.choice((2, 3, None)) for _ in range(m)))
        w = tuple((rng.randint(1, m), rng.randint(-3, 3))
                  for _ in range(rng.randint(0, 40)))
        if t % 3:
            w = normal_form(w, spec)
            if t % 3 == 2:
                w = _commuting_shuffle(w, spec, rng)
        cases.append((w, spec, normal_form(w, spec)))
    assert answers.count(True) >= 2000 and answers.count(False) >= 2000
    monkeypatch.setattr(words_module, "_in_least_order",
                        lambda live, spec: False)
    for w, spec, nf in cases:
        assert normal_form(w, spec) == nf, (w, spec.graph.adj)


def test_least_order_test_matches_brute_force():
    # the test against the least member of the swap closure, on reduced
    # words, on a random member of their closure and on its greatest
    rng = random.Random(3141)
    seen = {True: 0, False: 0}
    for t in range(2400):
        m = rng.randint(2, 6)
        spec = GroupSpec(random_graph(m, rng, rng.choice((0.3, 0.6, 0.9))),
                         tuple(rng.choice((2, 3, None)) for _ in range(m)))
        w = _merge_reduce(tuple((rng.randint(1, m), rng.randint(-2, 2))
                                for _ in range(rng.randint(0, 8))), spec)
        closure = sorted(_swap_closure(w, spec))
        if t % 3:
            w = rng.choice(closure) if t % 3 == 1 else closure[-1]
        least = w == closure[0]
        live = bytes(v - 1 for v, _ in w)
        assert words_module._in_least_order(live, spec) == least, \
            (w, spec.graph.adj)
        seen[least] += 1
    assert seen[True] >= 500 and seen[False] >= 500, seen


def test_reducedness_test_matches_brute_force():
    # against its definition: some two letters of one vertex with only
    # letters commuting with that vertex between them; random words, and
    # words with an adjacent same-vertex pair, with a pair whose commuting
    # run ends at the last letter, and with a letter followed by a
    # commuting run to the end of the word (its carry leaves the word)
    rng = random.Random(1618)
    seen = {True: 0, False: 0}
    shapes = {"adjacent": 0, "closing run": 0, "open run": 0}
    for t in range(4000):
        m = rng.randint(1, 8)
        graph = random_graph(m, rng, rng.choice((0.2, 0.5, 0.8)))
        adj = graph.adj
        shape = t % 4
        w = [rng.randrange(m) for _ in range(rng.randint(shape == 1, 6))]
        j = rng.randrange(m)
        run = [rng.choice([i for i in range(m) if adj[j] >> i & 1] or [j])
               for _ in range(rng.randint(0, 4))]
        run = [i for i in run if i != j]
        if shape == 1:
            k = rng.randrange(len(w))
            w.insert(k, w[k])
        elif shape == 2:
            w += [j] + run + [j]
        elif shape == 3:
            w += [j] + run
        shapes["adjacent"] += any(a == b for a, b in zip(w, w[1:]))
        shapes["closing run"] += shape == 2 and bool(run)
        shapes["open run"] += shape == 3 and bool(run)
        reducible = any(
            w[p] == w[q] and all(adj[w[p]] >> w[r] & 1
                                 for r in range(p + 1, q))
            for p in range(len(w)) for q in range(p + 1, len(w)))
        got = words_module._is_reduced(bytes(w),
                                       words_module._reduced_tables(adj))
        assert got == (not reducible), (w, adj)
        seen[got] += 1
    assert seen[True] >= 500 and seen[False] >= 500, seen
    assert min(shapes.values()) >= 500, shapes


def test_heap_pass_is_rare_on_generator_words(monkeypatch):
    # most generator words leave the reduction pass in least order already:
    # generator_words reads those off their vertices with no normal form,
    # and each other word makes one normal form, recorded here; a heap pass
    # is a recorded False, out of every generator word
    answers = _record_least_order_answers(monkeypatch)
    count = 0
    for K in (SimplicialComplex.points(8), SimplicialComplex.cycle(8)):
        count += len(generator_words(K, enumerate_generators(K)))
    assert count == 1027 and len(answers) < count
    assert answers.count(False) <= 0.15 * count, answers.count(False)


def test_order_tables_are_built_once_and_not_with_the_spec(monkeypatch):
    build = words_module._order_tables
    calls = []
    monkeypatch.setattr(words_module, "_order_tables",
                        lambda adj: calls.append(adj) or build(adj))
    graph = Graph(3, [(1, 2), (2, 3)])
    for spec in _specs() + [GroupSpec.coxeter(graph),
                            GroupSpec(graph, (2, 3, None))]:
        assert spec.order_tables is None
    spec = GroupSpec.artin(graph)
    assert calls == [] and spec.order_tables is None
    assert normal_form(((3, 1), (1, 1), (2, 1)), spec) == \
        ((2, 1), (3, 1), (1, 1))
    tables = spec.order_tables
    assert len(tables) == 2             # vertices 1 and 2 have one above
    for w in (((2, 1), (3, 1), (1, 1)), ((1, 1),), ()):
        normal_form(w, spec)
    assert calls == [spec.graph.adj] and spec.order_tables is tables
    free = GroupSpec.coxeter(Graph(3, []))
    normal_form(((1, 1), (2, 1)), free)
    assert free.order_tables == ()


def test_dropped_specs_never_answer_for_new_ones():
    # a new spec often takes the id of one just dropped: tables cached by
    # id would hand it the old spec's answer
    rng = random.Random(99)
    ids = set()
    reused = 0
    for _ in range(600):
        m = rng.randint(2, 5)
        spec = GroupSpec(random_graph(m, rng, rng.choice((0.3, 0.7))),
                         tuple(rng.choice((2, None)) for _ in range(m)))
        reused += id(spec) in ids
        ids.add(id(spec))
        w = tuple((rng.randint(1, m), rng.choice((1, -1)))
                  for _ in range(rng.randint(0, 7)))
        assert normal_form(w, spec) == \
            min(_swap_closure(_merge_reduce(w, spec), spec))
        del spec
    assert reused, "no id was reused, so the loop tested nothing"

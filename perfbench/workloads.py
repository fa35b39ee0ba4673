"""The four benchmark workloads: seeded inputs, the operation, its checks.

Every workload draws its inputs from a fixed pool.  The pool is generated
from ``POOL_SEED`` and never depends on ``--seed``; the committed
references in ``refs/`` hold the expected output of every pool input, keyed
by a digest of the input.  ``--seed`` chooses the order in which pool
inputs are drawn (and so which of them a time-limited run reaches).  For
``splitting`` and ``words`` the pools are larger than a block and the seed
picks the inputs of each block.  For ``cube`` and ``certify``, whose inputs
differ in cost by up to 300x, a block is the whole pool and the seed only
sets its order: a run that saw part of the pool would depend on which part.

A workload hands the runner *blocks*: lists of inputs that are always run
whole, so every run executes the same mix of input classes.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys

POOL_SEED = 20160322


def digest(obj):
    """Short hex digest of a JSON-serialisable value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _stream(items, rng):
    """Endless draw from ``items``: one seeded permutation after another."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def _stream_pools(items, rng):
    """Endless blocks, each a seeded permutation of all of ``items``."""
    while True:
        block = list(items)
        rng.shuffle(block)
        yield block


def _random_complex_doc(m, rng, densities):
    """Maximal faces chosen uniformly with a fixed count per face size:
    round(density * C(m, k)) faces with k vertices.  Fixing the counts
    (instead of a coin flip per face) keeps the cost of one input closer
    to the next."""
    verts = range(1, m + 1)
    faces = []
    for k, density in densities:
        candidates = [list(c) for c in itertools.combinations(verts, k)]
        faces += rng.sample(candidates, round(density * len(candidates)))
    return {"m": m, "maximal_faces": faces}


def _cycle_doc(m):
    return {"m": m, "maximal_faces": [[i, i % m + 1] for i in range(1, m + 1)]}


def _points_doc(m):
    return {"m": m, "maximal_faces": []}


# The acceptance suite's sampler densities: edges, triangles, tetrahedra.
ACCEPTANCE_DENSITIES = ((2, 0.45), (3, 0.18), (4, 0.06))


def run_cli(cx, argv, text):
    """One in-process ``coxkit`` call with ``text`` on stdin.

    Returns (exit code, stdout text)."""
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cx.cli.main(argv + ["-"])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    name = ""
    cli = False     # outputs are (exit code, stdout text) of a CLI call

    def pool(self):
        """Every input the workload can draw, as JSON-serialisable docs."""
        raise NotImplementedError

    def blocks(self, seed, pool):
        """Endless iterator of blocks (lists of docs from ``pool``) for
        ``seed``."""
        raise NotImplementedError

    def prepare(self, cx, doc):
        """Turn a doc into the program's own input objects (part of set-up)."""
        return doc

    def run(self, cx, prepared):
        """One operation; returns its raw output."""
        raise NotImplementedError

    def key(self, doc):
        return digest(doc)

    def reference(self, doc, output):
        """The committed expectation for ``doc``, from a trusted output."""
        raise NotImplementedError

    def check(self, cx, doc, output, ref):
        """None when ``output`` is right, else a short reason."""
        raise NotImplementedError


# ---------------------------------------------------------------------------

class Splitting(Workload):
    """One op: ``cubical.homology_splitting_check`` on one complex."""

    name = "splitting"
    POOL = {4: 150, 5: 1200, 6: 150}
    BLOCK = (4, 5, 5, 5, 5, 5, 5, 5, 5, 6)

    def pool(self):
        docs = []
        for m, count in self.POOL.items():
            rng = random.Random(f"{POOL_SEED}:splitting:{m}")
            docs += [_random_complex_doc(m, rng, ACCEPTANCE_DENSITIES)
                     for _ in range(count)]
        return docs

    def blocks(self, seed, pool):
        rng = random.Random(f"splitting:{seed}")
        by_m = {m: [d for d in pool if d["m"] == m] for m in self.POOL}
        streams = {m: _stream(docs, rng) for m, docs in by_m.items()}
        while True:
            yield [next(streams[m]) for m in self.BLOCK]

    def prepare(self, cx, doc):
        return cx.simplicial.SimplicialComplex.from_maximal_faces(
            doc["m"], doc["maximal_faces"])

    def run(self, cx, K):
        return cx.cubical.homology_splitting_check(K)

    @staticmethod
    def _table(report):
        return [[row.left.betti for row in report.rows],
                [list(row.left.torsion) for row in report.rows]]

    def reference(self, doc, report):
        return {"verdict": report.passed, "table": self._table(report)}

    def check(self, cx, doc, report, ref):
        if not report.passed:
            return "splitting verdict false"
        if self._table(report) != ref["table"]:
            return "homology table differs from reference"
        return None


class Cube(Workload):
    """One op: an in-process ``coxkit homology --json`` call."""

    name = "cube"
    cli = True
    ARGV = ["homology", "--json"]
    RANDOM = 6

    def pool(self):
        rng = random.Random(f"{POOL_SEED}:cube")
        return [_cycle_doc(9)] + [
            _random_complex_doc(8, rng, ACCEPTANCE_DENSITIES)
            for _ in range(self.RANDOM)]

    def blocks(self, seed, pool):
        return _stream_pools(pool, random.Random(f"cube:{seed}"))

    def prepare(self, cx, doc):
        return json.dumps(doc)

    def run(self, cx, text):
        return run_cli(cx, self.ARGV, text)

    def reference(self, doc, output):
        code, out = output
        payload = json.loads(out)
        return {"exit": code, "sha256": _sha(out), "bytes": len(out.encode()),
                "betti": payload["betti"], "torsion": payload["torsion"]}

    def check(self, cx, doc, output, ref):
        code, out = output
        if code != ref["exit"]:
            return f"exit {code}, expected {ref['exit']}"
        if _sha(out) != ref["sha256"]:
            return "stdout differs from reference bytes"
        if doc == _cycle_doc(doc["m"]):
            # the model of the m-gon is a closed orientable surface
            m = doc["m"]
            genus = (m - 4) * 2 ** (m - 3) + 1
            payload = json.loads(out)
            if payload["betti"] != [1, 2 * genus, 1] or \
                    any(payload["torsion"]) or \
                    payload["euler"] != 2 - 2 * genus:
                return "cycle surface genus formula fails"
        return None


class Words(Workload):
    """One op: ``words.normal_form`` of one word, plus
    ``geometric_representation`` in right-angled Coxeter groups."""

    name = "words"
    # A block holds one word of each stratum: (cancels, letters, group kind,
    # m).  Fixing kind and m per stratum keeps the words of a stratum close
    # in cost.  An odd number of words per block keeps the median inside one
    # stratum (the shortest random words) instead of on the gap between the
    # cheap cancelling words and the random ones.
    STRATA = ((False, 1000, "racg", 8), (False, 1750, "raag", 9),
              (False, 2500, "mixed", 10), (False, 3250, "racg", 11),
              (False, 4000, "raag", 12), (True, 1000, "mixed", 8),
              (True, 2000, "racg", 9), (True, 3000, "raag", 10),
              (True, 4000, "mixed", 11))
    PER_STRATUM = 12

    def _doc(self, rng, cancels, length, kind, m):
        pairs = list(itertools.combinations(range(1, m + 1), 2))
        edges = sorted(list(e) for e in rng.sample(pairs,
                                                   round(0.4 * len(pairs))))
        if kind == "racg":
            orders = [2] * m
        elif kind == "raag":
            orders = [None] * m
        else:
            orders = [rng.choice((2, 3, 4, None)) for _ in range(m)]

        def letter():
            v = rng.randint(1, m)
            o = orders[v - 1]
            return v, rng.choice((1, -1)) if o is None else rng.randint(1, o - 1)

        if not cancels:
            word = tuple(letter() for _ in range(length))
        else:
            # w followed by the inverse of a reshuffle of w that uses only
            # legal swaps of commuting letters: the product is the identity
            half = [letter() for _ in range(length // 2)]
            commuting = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}
            shuffled = list(half)
            for _ in range(4 * len(shuffled)):
                i = rng.randrange(len(shuffled) - 1)
                if (shuffled[i][0], shuffled[i + 1][0]) in commuting:
                    shuffled[i], shuffled[i + 1] = shuffled[i + 1], shuffled[i]
            inverse = [(v, -e if orders[v - 1] is None else orders[v - 1] - e)
                       for v, e in reversed(shuffled)]
            word = tuple(half + inverse)
        return {"kind": kind, "m": m, "edges": edges, "orders": orders,
                "cancels": cancels, "word": word}

    def pool(self):
        docs = []
        for stratum in self.STRATA:
            rng = random.Random(f"{POOL_SEED}:words:{stratum}")
            docs += [self._doc(rng, *stratum) for _ in range(self.PER_STRATUM)]
        return docs

    def blocks(self, seed, pool):
        rng = random.Random(f"words:{seed}")
        n = self.PER_STRATUM
        streams = [_stream(pool[i:i + n], rng) for i in range(0, len(pool), n)]
        while True:
            yield [next(s) for s in streams]

    def prepare(self, cx, doc):
        graph = cx.simplicial.Graph(doc["m"], [tuple(e) for e in doc["edges"]])
        return doc["word"], cx.words.GroupSpec(graph, doc["orders"])

    def run(self, cx, prepared):
        word, spec = prepared
        nf = cx.words.normal_form(word, spec)
        matrix = (cx.words.geometric_representation(word, spec)
                  if spec.is_coxeter() else None)
        return nf, matrix

    def reference(self, doc, output):
        nf, _ = output
        return {"letters": len(nf), "nf": digest([list(x) for x in nf])}

    def check(self, cx, doc, output, ref):
        nf, matrix = output
        if len(nf) != ref["letters"] or \
                digest([list(x) for x in nf]) != ref["nf"]:
            return "normal form differs from reference"
        if doc["cancels"] and nf != ():
            return "cancelling word did not reduce to the identity"
        if matrix is not None and \
                cx.words.is_identity_matrix(matrix) != (nf == ()):
            return "normal form and reflection oracle disagree"
        return None


class Certify(Workload):
    """One op: an in-process ``coxkit gens --words --json`` or
    ``coxkit certify --json`` call."""

    name = "certify"
    cli = True
    COMMANDS = (("gens", "--words", "--json"), ("certify", "--json"))
    SIZES = (6, 7, 8)

    def pool(self):
        rng = random.Random(f"{POOL_SEED}:certify")
        docs = [_points_doc(m) for m in self.SIZES]
        docs += [_cycle_doc(m) for m in self.SIZES]
        docs += [_random_complex_doc(m, rng, ((2, 0.3), (3, 0.05)))
                 for m in self.SIZES]
        # plus the README's gens example: an odd number of calls per block
        # keeps the median on one call instead of between two
        example = {"m": 4, "maximal_faces": [[1, 2], [2, 3], [4]]}
        return [{"argv": list(self.COMMANDS[0]), "doc": example}] + \
            [{"argv": list(argv), "doc": doc}
             for doc in docs for argv in self.COMMANDS]

    def blocks(self, seed, pool):
        return _stream_pools(pool, random.Random(f"certify:{seed}"))

    def prepare(self, cx, item):
        return item["argv"], json.dumps(item["doc"])

    def run(self, cx, prepared):
        argv, text = prepared
        return run_cli(cx, argv, text)

    def reference(self, item, output):
        code, out = output
        return {"exit": code, "sha256": _sha(out), "bytes": len(out.encode())}

    def check(self, cx, item, output, ref):
        code, out = output
        if code != ref["exit"]:
            return f"exit {code}, expected {ref['exit']}"
        if _sha(out) != ref["sha256"]:
            return "stdout differs from reference bytes"
        payload = json.loads(out)
        if item["argv"][0] == "certify" and payload["verdict"] is not True:
            return "certify verdict is not true"
        if item["argv"][0] == "gens" and \
                payload["count"] != len(payload["generators"]):
            return "generator count disagrees with the enumeration"
        return None


WORKLOADS = {w.name: w for w in (Splitting(), Cube(), Words(), Certify())}

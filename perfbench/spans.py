"""Spans recorded from outside the program, for the traced run.

``Tracer.install`` replaces coxkit's public functions, where they are
looked up, with wrappers that record one span per call: name, start, end,
parent span and operation id.  A module that did ``from x import y`` looks
``y`` up in its own namespace, so such names are wrapped there too
(``cubical.smith_normal_form``, ``simplicial.chain_homology``, ...).  No
source file is edited.  Spans stay in flat arrays in memory; ``write`` dumps
them at the end and ``layer_metrics`` turns them into per-layer numbers.

Every span belongs to the layer its name starts with.  A span's self time
is its duration minus that of its direct child spans, so the self times of
all spans of one operation add up to the operation's traced duration.
"""

import gzip
import time
from array import array
from collections import Counter
from contextlib import contextmanager

LAYERS = ("cli", "simplicial", "intlinalg", "words", "commutators",
          "cubical")
SMITH_DEGREES = (1, 2, 3, 4)

# Span names with a per-layer time metric "<span name>_s".
TIMED = (
    "intlinalg.smith", "intlinalg.ddzero", "intlinalg.chain_homology",
    "intlinalg.left_reduction", "intlinalg.direct_sum",
    "simplicial.full_subcomplex", "simplicial.reduced_homology",
    "simplicial.from_maximal_faces", "cubical.cells", "cubical.boundaries",
    "cubical.homology", "cubical.splitting", "cubical.loop_system",
    "cubical.word_class", "cubical.basis_certificate", "words.normal_form",
    "words.evaluate", "words.reflection", "commutators.enumerate",
    "commutators.count", "commutators.per_length", "cli.parse",
)

# Exact counts, recorded per operation; they must repeat run to run.
COUNTS = ("intlinalg.smith_calls", "intlinalg.smith_nnz_in",
          "intlinalg.smith_factors", "intlinalg.smith_unit_factors",
          "simplicial.full_subcomplex_calls",
          "simplicial.reduced_homology_calls",
          "simplicial.cache_hits", "simplicial.cache_misses",
          "cubical.cells", "cubical.boundary_nnz",
          "words.normal_form_calls", "words.letters_in", "words.letters_out",
          "commutators.generators", "cli.stdout_bytes")


def _smith_counts(counts, args, result, _):
    counts["intlinalg.smith_calls"] += 1
    counts["intlinalg.smith_nnz_in"] += args[0].nnz()
    counts["intlinalg.smith_factors"] += len(result)
    counts["intlinalg.smith_unit_factors"] += result.count(1)


def _cells_counts(counts, args, result, fresh):
    if fresh:
        counts["cubical.cells"] += sum(len(level) for level in result)


def _boundary_counts(counts, args, result, fresh):
    if fresh:
        counts["cubical.boundary_nnz"] += sum(b.nnz() for b in result)


def _normal_form_counts(counts, args, result, _):
    counts["words.normal_form_calls"] += 1
    counts["words.letters_in"] += len(args[0])
    counts["words.letters_out"] += len(result)


def _call_counter(key):
    def count(counts, args, result, _):
        counts[key] += 1
    return count


def _generator_counts(counts, args, result, _):
    counts["commutators.generators"] += len(result)


def _not_cached(attr):
    return lambda args: getattr(args[0], attr) is None


def wrap_sites(cx):
    """(owner, attribute, span name, before, after) for every wrapped name.

    ``before(args)`` runs ahead of the call and its value is handed to
    ``after(counts, args, result, value)``, which records exact counts."""
    cl, cu, il, sm, wo, co = (cx.cli, cx.cubical, cx.intlinalg,
                              cx.simplicial, cx.words, cx.commutators)
    full = _call_counter("simplicial.full_subcomplex_calls")
    reduced = _call_counter("simplicial.reduced_homology_calls")
    return [
        (cl, "main", "cli.main", None, None),
        (cl, "parse_document", "cli.parse", None, None),
        (il, "smith_normal_form", "intlinalg.smith", None, _smith_counts),
        (cu, "smith_normal_form", "intlinalg.smith", None, _smith_counts),
        (il, "chain_homology", "intlinalg.chain_homology", None, None),
        (sm, "chain_homology", "intlinalg.chain_homology", None, None),
        (cu, "chain_homology", "intlinalg.chain_homology", None, None),
        (il.IntMatrix, "__matmul__", "intlinalg.ddzero", None, None),
        (cu, "LeftReduction", "intlinalg.left_reduction", None, None),
        (il, "direct_sum", "intlinalg.direct_sum", None, None),
        (cu, "direct_sum", "intlinalg.direct_sum", None, None),
        (sm.SimplicialComplex, "full_subcomplex", "simplicial.full_subcomplex",
         None, full),
        (sm, "reduced_homology", "simplicial.reduced_homology", None, reduced),
        (cu, "reduced_homology", "simplicial.reduced_homology", None, reduced),
        (sm.SimplicialComplex, "from_maximal_faces",
         "simplicial.from_maximal_faces", None, None),
        (cu.CubeComplex, "cells", "cubical.cells", _not_cached("_cells"),
         _cells_counts),
        (cu.CubeComplex, "boundaries", "cubical.boundaries",
         _not_cached("_boundaries"), _boundary_counts),
        (cu.CubeComplex, "homology", "cubical.homology", None, None),
        (cu.CubeComplex, "euler_characteristic", "cubical.euler", None, None),
        (cu, "homology_splitting_check", "cubical.splitting", None, None),
        (cu.CubeComplex, "loop_system", "cubical.loop_system", None, None),
        (cu, "word_class", "cubical.word_class", None, None),
        (cu, "basis_certificate", "cubical.basis_certificate", None, None),
        (wo, "normal_form", "words.normal_form", None, _normal_form_counts),
        (wo, "evaluate", "words.evaluate", None, None),
        (co, "evaluate", "words.evaluate", None, None),
        (wo, "geometric_representation", "words.reflection", None, None),
        (wo, "abelianization", "words.abelianization", None, None),
        (wo, "is_identity_matrix", "words.is_identity_matrix", None, None),
        (co, "enumerate_generators", "commutators.enumerate", None,
         _generator_counts),
        (cu, "enumerate_generators", "commutators.enumerate", None,
         _generator_counts),
        (co.CommutatorGenerator, "word", "commutators.word", None, None),
        (co, "generator_count", "commutators.count", None, None),
        (cu, "generator_count", "commutators.count", None, None),
        (co, "per_length_counts", "commutators.per_length", None, None),
    ]


class Tracer:
    """Span recorder.  ``op`` is the id stamped on new spans; spans opened
    outside an operation get -1 and are ignored by ``layer_metrics``."""

    def __init__(self):
        self.names = ["op"]
        self.name = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.current = -1
        self.op = -1
        self.counts = Counter()
        self.op_counts = {}
        self._undo = []

    def _intern(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid):
        idx = len(self.t0)
        self.name.append(nid)
        self.parent.append(self.current)
        self.op_of.append(self.op)
        self.t1.append(0.0)
        self.current = idx
        self.t0.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.t1[idx] = time.perf_counter()
        self.current = self.parent[idx]

    def wrap(self, fn, name, before=None, after=None):
        nid = self._intern(name)

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self.counts, args, result, token)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self, cx):
        for owner, attr, name, before, after in wrap_sites(cx):
            raw = owner.__dict__[attr]
            if isinstance(raw, property):
                new = property(self.wrap(raw.fget, name, before, after))
            elif isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, name, before, after))
            else:
                new = self.wrap(raw, name, before, after)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self, cx):
        self.install(cx)
        try:
            yield self
        finally:
            self.uninstall()

    def start_op(self, op_id):
        """Open the root span of operation ``op_id``."""
        self.op = op_id
        self.counts = Counter()
        self.op_counts[op_id] = self.counts
        return self._open(0)

    def end_op(self, root):
        self._close(root)
        self.op = -1
        self.counts = Counter()

    def write(self, path):
        """All spans as gzipped TSV: op, span, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.t0)):
                fh.write(f"{self.op_of[i]}\t{i}\t{self.parent[i]}\t"
                         f"{self.names[self.name[i]]}\t{self.t0[i]!r}\t"
                         f"{self.t1[i]!r}\n")

    def layer_metrics(self, timed_ops, count_ops):
        """Per-layer metrics: times are means per operation over
        ``timed_ops``; counts and ratios are totals over ``count_ops``."""
        timed_ops = set(timed_ops)
        n_ops = max(len(timed_ops), 1)
        names, name, parent = self.names, self.name, self.parent
        layer_of = [n.split(".")[0] if n != "op" else None for n in names]
        incl = Counter()
        self_by_layer = Counter()
        smith_deg = Counter()
        root_total = 0.0
        n = len(self.t0)
        child = [0.0] * n
        path = [0] * n           # bitmask of span names on the path above
        sibling_smiths = Counter()
        degree = {}
        smith_id = self._intern("intlinalg.smith")
        chain_id = self._intern("intlinalg.chain_homology")
        for i in range(n):
            p = parent[i]
            if p >= 0:
                path[i] = path[p] | (1 << name[p])
                if name[i] == smith_id and name[p] == chain_id:
                    degree[i] = sibling_smiths[p]
                    sibling_smiths[p] += 1
        for i in range(n - 1, -1, -1):
            d = self.t1[i] - self.t0[i]
            p = parent[i]
            if p >= 0:
                child[p] += d
            if self.op_of[i] not in timed_ops:
                continue
            nid = name[i]
            if nid == 0:
                root_total += d
                self_by_layer["unattributed"] += d - child[i]
                continue
            self_by_layer[layer_of[nid]] += d - child[i]
            if not path[i] >> nid & 1:
                incl[names[nid]] += d
                if i in degree:
                    smith_deg[degree[i]] += d
        counts = Counter()
        for op_id in count_ops:
            counts.update(self.op_counts.get(op_id, {}))

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}
        for span in TIMED:
            out[f"{span}_s"] = incl[span] / n_ops
        for k in SMITH_DEGREES:
            out[f"intlinalg.smith_s.d{k}"] = smith_deg[k] / n_ops
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_by_layer[layer] / n_ops
        for key in COUNTS:
            out[key] = counts[key]
        out["intlinalg.smith_unit_factor_ratio"] = ratio(
            counts["intlinalg.smith_unit_factors"],
            counts["intlinalg.smith_factors"])
        out["simplicial.homology_cache_hit_ratio"] = ratio(
            counts["simplicial.cache_hits"],
            counts["simplicial.cache_hits"] + counts["simplicial.cache_misses"])
        out["words.reduction_ratio"] = ratio(counts["words.letters_out"],
                                             counts["words.letters_in"])
        out["trace.op_s"] = root_total / n_ops
        out["trace.self_sum_s"] = sum(self_by_layer[la]
                                      for la in LAYERS) / n_ops
        out["trace.unattributed_s"] = self_by_layer["unattributed"] / n_ops
        return out

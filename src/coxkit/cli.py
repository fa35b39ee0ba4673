"""Command-line front end.

Input documents describe a complex by vertex count and maximal faces,
either as strict JSON or with bare keys:

    {m: 4, maximal_faces: [[1,2],[2,3],[4]]}

Every command except ``selftest`` reads one document (file path argument,
or standard input when the path is ``-``), prints a human-readable report
by default or a JSON document with ``--json``, and exits 0 for
success/true verdicts, 1 for false verdicts, 2 for malformed input, 3
for an internal error and 141 when the reader closes standard output.

Each command is a function ``cmd_x(K, args) -> (verdict, payload, lines)``
that does no I/O: ``K`` is the parsed complex (``None`` for ``selftest``),
``payload`` the JSON fields and ``lines`` the text report, any iterable of
strings.  Only :func:`main` reads the document, prints, and maps the
outcome to an exit code.  Under ``--json`` it prints the payload with the
input echoed as ``m`` and ``maximal_faces``; otherwise it prints ``lines``,
so the text report never builds the echo.
"""

import argparse
import json
import os
import random
import re
import sys
import traceback
from collections import Counter
from itertools import chain

from . import commutators, cubical, intlinalg, simplicial, words
from .simplicial import SimplicialComplex


class DocumentError(ValueError):
    pass


_BARE_KEY = re.compile(r'([{,]\s*)([A-Za-z_][A-Za-z0-9_]*)(\s*:)')


def parse_document(text):
    """Parse an input document into a complex.

    Accepts strict JSON and the bare-key form; errors carry the line and
    column where parsing or validation failed.
    """
    try:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as first:
            try:
                doc = json.loads(_BARE_KEY.sub(r'\1"\2"\3', text))
            except json.JSONDecodeError:
                raise DocumentError(
                    f"not a valid document: {first.msg} at line "
                    f"{first.lineno} column {first.colno}") from None
    except RecursionError:
        raise DocumentError("not a valid document: nested too deeply") \
            from None
    if not isinstance(doc, dict):
        raise DocumentError("document must be a mapping with keys "
                            "'m' and 'maximal_faces'")
    if "m" not in doc:
        raise DocumentError("missing key 'm'")
    m = doc["m"]
    if isinstance(m, bool) or not isinstance(m, int) or \
            not 1 <= m <= simplicial.MAX_VERTICES:
        raise DocumentError(f"m must be an integer in 1..24, got {m!r}")
    faces = doc.get("maximal_faces", [])
    if not isinstance(faces, list):
        raise DocumentError("maximal_faces must be a list of vertex lists")
    for fi, face in enumerate(faces):
        if not isinstance(face, list):
            raise DocumentError(f"maximal_faces[{fi}] is not a list")
        for vi, v in enumerate(face):
            if isinstance(v, bool) or not isinstance(v, int) or \
                    not 1 <= v <= m:
                raise DocumentError(
                    f"maximal_faces[{fi}][{vi}]: vertex {v!r} outside 1..{m}")
    return SimplicialComplex.from_maximal_faces(m, faces)


def _read_document(path):
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DocumentError(f"cannot read {path}: {exc}")
    return parse_document(text)


def _group_fields(h):
    return h.betti, list(h.torsion)


# -- commands ---------------------------------------------------------------

def cmd_flag(K, args):
    ok, witness = simplicial.is_flag(K)
    lines = [f"flag: {str(ok).lower()}"]
    if witness:
        lines.append(f"witness missing face: {list(witness)}")
    return ok, {"verdict": ok,
                "witness": list(witness) if witness else None}, lines


def cmd_chordal(K, args):
    res = simplicial.is_chordal(K.one_skeleton())
    payload = {"verdict": res.chordal,
               "ordering": list(res.ordering) if res.ordering else None,
               "witness": list(res.cycle) if res.cycle else None}
    lines = [f"chordal: {str(res.chordal).lower()}"]
    if res.chordal:
        lines.append(f"perfect elimination ordering: {list(res.ordering)}")
    else:
        lines.append(f"chordless cycle: {list(res.cycle)}")
    return res.chordal, payload, lines


def cmd_gens(K, args):
    if args.words:
        cubical._check_size(K, "the generator words")
    gens = commutators.enumerate_generators(K)
    count = commutators.generator_count(K)
    per_length = sorted(Counter(g.length for g in gens).items())
    payload = {"generators": [g.nested() for g in gens],
               "count": count,
               "per_length": {str(k): v for k, v in per_length}}
    head = [f"count: {count}", "per-length: " + (
        " ".join(f"{k}:{v}" for k, v in per_length) or "-")]
    out = map(json.dumps, payload["generators"])
    if args.words:
        payload["words"] = commutators.generator_words(K)
        out = map(" = ".join, zip(out, map(json.dumps, payload["words"])))
    return True, payload, chain(head, out)


def cmd_free(K, args):
    verdict = commutators.commutator_subgroup_is_free(K)
    return verdict, {"verdict": verdict}, [f"commutator subgroup free: "
                                           f"{str(verdict).lower()}"]


def cmd_homology(K, args):
    R = cubical.build(K)
    hs = R.homology()
    betti = [h.betti for h in hs]
    torsion = [list(h.torsion) for h in hs]
    payload = {"betti": betti, "torsion": torsion,
               "euler": R.euler_characteristic()}
    lines = ["degree  betti  torsion"]
    for k, h in enumerate(hs):
        tor = ",".join(str(t) for t in h.torsion) or "-"
        lines.append(f"{k:<7} {h.betti:<6} {tor}")
    lines.append(f"euler characteristic: {payload['euler']}")
    return True, payload, lines


def cmd_euler(K, args):
    chi = cubical.build(K).euler_characteristic()
    return True, {"euler": chi}, [f"euler characteristic: {chi}"]


def cmd_check_splitting(K, args):
    report = cubical.homology_splitting_check(K)
    rows = []
    lines = ["degree  cubical        subcomplex sum  match"]
    for row in report.rows:
        rows.append({"degree": row.degree,
                     "left": _group_fields(row.left),
                     "right": _group_fields(row.right),
                     "match": row.equal,
                     "contributions": [
                         {"J": list(J), "betti": g.betti,
                          "torsion": list(g.torsion)}
                         for J, g in row.contributions]})
        lines.append(f"{row.degree:<7} {str(row.left):<14} "
                     f"{str(row.right):<15} {'yes' if row.equal else 'NO'}")
    lines.append(f"splitting verdict: {str(report.passed).lower()}")
    return report.passed, {"verdict": report.passed, "rows": rows}, lines


def cmd_certify(K, args):
    cert = cubical.certify(K)
    count, kernel_ok, nontrivial_ok, basis_ok, verdict = cert
    lines = [f"generators: {count}",
             f"all words in abelianization kernel: {str(kernel_ok).lower()}",
             f"all words nontrivial (normal form + reflection oracle): "
             f"{str(nontrivial_ok).lower()}",
             f"classes form a first-homology basis: {str(basis_ok).lower()}",
             f"certified: {str(verdict).lower()}"]
    return verdict, cert._asdict(), lines


def cmd_pi1(K, args):
    pres = cubical.fundamental_group_presentation(cubical.build(K))
    payload = {"generators": pres.generator_count,
               "relators": pres.relator_count,
               "abelianized_rank": pres.abelianized_rank}
    return True, payload, [
        f"generators: {pres.generator_count}",
        f"relators: {pres.relator_count}",
        f"abelianized rank: {pres.abelianized_rank}"]


def cmd_selftest(K, args):
    rng = random.Random(args.seed)
    trials = args.trials
    if trials < 0:
        raise ValueError(f"--trials must be non-negative, got {trials}")
    graphs = [simplicial.Graph(4, []),
              simplicial.Graph(4, [(1, 2), (3, 4)]),
              simplicial.Graph(4, [(1, 2), (2, 3), (3, 4)]),
              simplicial.Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 3)])]
    specs = []
    for g in graphs:
        specs.append(words.GroupSpec.coxeter(g))
        specs.append(words.GroupSpec.artin(g))
        specs.append(words.GroupSpec(g, tuple([2, 3, None, 4, 6][:g.m])))
    hall_ok = swap_ok = 0
    for _ in range(trials):
        spec = rng.choice(specs)
        a = words.random_word(spec, rng.randint(0, 5), rng)
        b = words.random_word(spec, rng.randint(0, 5), rng)
        c = words.random_word(spec, rng.randint(0, 5), rng)
        hall_ok += words.verify_hall(a, b, c, spec)
        p = rng.randint(1, spec.m)
        q = rng.randint(1, spec.m)
        x = words.random_word(spec, rng.randint(0, 4), rng)
        swap_ok += words.verify_swap(p, q, x, spec)
    oracle_ok = 0
    for _ in range(trials):
        m = rng.randint(1, 6)
        edges = [(a + 1, b + 1) for a in range(m) for b in range(a + 1, m)
                 if rng.random() < 0.4]
        spec = words.GroupSpec.coxeter(simplicial.Graph(m, edges))
        w = words.random_word(spec, rng.randint(0, 12), rng)
        nf_id = words.is_identity(w, spec)
        mat_id = words.is_identity_matrix(
            words.geometric_representation(w, spec))
        oracle_ok += (nf_id == mat_id)
    verdict = hall_ok == swap_ok == trials and oracle_ok == trials
    payload = {"seed": args.seed, "trials": trials,
               "hall": hall_ok, "swap": swap_ok, "oracle": oracle_ok,
               "verdict": verdict}
    return verdict, payload, [
        f"seed: {args.seed}",
        f"hall identities: {hall_ok}/{trials}",
        f"swap identity: {swap_ok}/{trials}",
        f"normal form vs reflection oracle: {oracle_ok}/{trials}",
        f"selftest: {'ok' if verdict else 'FAILED'}"]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="coxkit",
        description="Exact computations with right-angled Coxeter groups "
                    "and the cubical models of their defining complexes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, needs_doc=True):
        p = sub.add_parser(name, help=help_text)
        if needs_doc:
            p.add_argument("document", nargs="?", default="-",
                           help="input document path, or - for stdin")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.set_defaults(func=func)
        return p

    add("flag", cmd_flag, "is the complex flag? witness on failure")
    add("chordal", cmd_chordal,
        "is the 1-skeleton chordal? elimination ordering or cycle witness")
    gens = add("gens", cmd_gens,
               "minimal commutator-subgroup generators")
    gens.add_argument("--words", action="store_true",
                      help="also expand each generator to a normalised word")
    add("free", cmd_free, "is the commutator subgroup free? (flag input)")
    add("homology", cmd_homology, "integral homology of the cubical model")
    add("euler", cmd_euler, "Euler characteristic of the cubical model")
    add("check-splitting", cmd_check_splitting,
        "compare cubical homology against the full-subcomplex splitting")
    add("certify", cmd_certify,
        "kernel, nontriviality and homology-basis checks of the generators")
    add("pi1", cmd_pi1, "raw fundamental-group presentation statistics")
    selftest = add("selftest", cmd_selftest,
                   "commutator identity and word-problem oracle suites",
                   needs_doc=False)
    selftest.add_argument("--trials", type=int, default=300)
    selftest.add_argument("--seed", type=int, default=20240901)

    args = parser.parse_args(argv)
    try:
        K = _read_document(args.document) if "document" in args else None
        verdict, payload, lines = args.func(K, args)
        if args.json:
            if K is not None:
                payload = {"m": K.m, "maximal_faces": K.maximal_faces(),
                           **payload}
            print(json.dumps(payload, sort_keys=True))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()          # a closed pipe raises here, not at exit
        return 0 if verdict else 1
    except BrokenPipeError:
        # the reader closed stdout: stop quietly, as SIGPIPE would, and point
        # stdout at devnull so the interpreter's last flush has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:
        # bad input raises ValueError; a broken chain complex is a bug
        if isinstance(exc, ValueError) and \
                not isinstance(exc, intlinalg.ChainComplexError):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

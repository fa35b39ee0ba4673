"""Command-line front end.

Input documents describe a complex by vertex count and maximal faces,
either as strict JSON or with bare keys:

    {m: 4, maximal_faces: [[1,2],[2,3],[4]]}

Every command except ``selftest`` reads one document (file path argument,
or standard input when the path is ``-``), prints a human-readable report
by default or a JSON document with ``--json``, and exits 0 for
success/true verdicts, 1 for false verdicts, 2 for an input error, 3 for
any other failure and 141 when the reader closes standard output.

:func:`main` names the input errors that exit 2: a malformed, unreadable,
non-UTF-8 or over-cap document and a negative ``--trials``
(:class:`DocumentError`), ``free`` on a non-flag complex
(``commutators.NotFlagError``), and a usage error, which argparse raises
as ``SystemExit(2)``.  Any other exception inside a command is a bug,
whatever its type, and exits 3 with its traceback.

Each command is a function ``cmd_x(K, args) -> (verdict, payload, lines)``
that does no I/O: ``K`` is the parsed complex (``None`` for ``selftest``),
``payload`` the JSON fields and ``lines`` the text report, any iterable of
strings.  Only :func:`main` reads the document, prints, and maps the
outcome to an exit code.  Under ``--json`` it prints the payload with the
input echoed as ``m`` and ``maximal_faces``, the latter found among the
document's own faces and the vertices (``SimplicialComplex.listed``), not
by a scan of the closure; otherwise it prints ``lines``, so the text report
never builds the echo.

The argument parser is built on the first :func:`main` call and reused by
every later call in the process, not at import.  The size caps
(``MAX_CUBE_VERTICES``, ``MAX_CHECK_VERTICES``, ``MAX_VERTICES``) are read
on each call, so a cap changed between calls applies to the next.
"""

import argparse
import functools
import json
import os
import random
import re
import sys
import traceback
from collections import Counter
from itertools import chain

from . import commutators, cubical, simplicial, words
from .simplicial import MAX_VERTICES, SimplicialComplex


class DocumentError(ValueError):
    """Bad input to a command: a document that cannot be read, parsed or
    admitted, or an option out of range.  :func:`main` exits 2 on it."""


_BARE_KEY = re.compile(r'([{,]\s*)([A-Za-z_][A-Za-z0-9_]*)(\s*:)')
# the tokens json.loads reads whole: a string, a bare word (a bare key,
# true, NaN, ...) or a number in json's own grammar; compiled on first use,
# as only a refused document needs it
_TOKEN = (r'"(?:[^"\\]|\\.)*"|[A-Za-z_][A-Za-z0-9_]*|'
          r'(-?(?:0|[1-9][0-9]*))(\.[0-9]+)?([eE][-+]?[0-9]+)?')

# Size caps on m, where a command builds more than the face closure
MAX_CUBE_VERTICES = 12      # the cube model: 2^(m - |f|) cells per face f
MAX_CHECK_VERTICES = 10     # splitting check, certificate, generator words

# one line of the text report per generator or word; a payload is built
# fresh for each call and holds no cycle, so no circular-reference check
_dumps_line = json.JSONEncoder(check_circular=False).encode


def parse_document(text, cap=MAX_VERTICES):
    """Parse an input document into a complex.

    Accepts strict JSON and the bare-key form; errors carry the line and
    column where parsing or validation failed.  m above the command's size
    cap ``cap`` is refused before the complex is built.
    """
    first = None
    try:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            first = exc
            doc = json.loads(_BARE_KEY.sub(r'\1"\2"\3', text))
    except RecursionError:
        raise DocumentError("not a valid document: nested too deeply") \
            from None
    except json.JSONDecodeError:
        raise _syntax_error(first) from None    # the strict form's position
    except ValueError:
        # json.loads lets int()'s refusal of a literal out with no position
        where = _too_long_literal(text)
        if where is None:
            raise
        raise _syntax_error(where) from None
    if not isinstance(doc, dict):
        raise DocumentError("document must be a mapping with keys "
                            "'m' and 'maximal_faces'")
    if "m" not in doc:
        raise DocumentError("missing key 'm'")
    m = doc["m"]
    if isinstance(m, bool) or not isinstance(m, int) or \
            not 1 <= m <= MAX_VERTICES:
        raise DocumentError(f"m must be an integer in 1..{MAX_VERTICES}, "
                            f"got {m!r}")
    if m > cap:
        raise DocumentError(f"m = {m} too large for this command (cap {cap})")
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


def _syntax_error(err):
    return DocumentError(f"not a valid document: {err.msg} at line "
                         f"{err.lineno} column {err.colno}")


def _too_long_literal(text):
    """The first integer literal in ``text`` that int() refuses, one past
    the interpreter's digit limit (4,300 digits by default), as a
    JSONDecodeError at its position; None if there is none."""
    for token in re.finditer(_TOKEN, text):
        digits, fraction, exponent = token.groups()
        if digits and fraction is None and exponent is None:
            try:
                int(digits)
            except ValueError:
                return json.JSONDecodeError(
                    f"integer literal too long "
                    f"({len(digits.lstrip('-'))} digits)",
                    text, token.start())
    return None


def _read_document(path, cap):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        name = "standard input" if path == "-" else path
        raise DocumentError(f"cannot read {name}: {exc}") from None
    return parse_document(text, cap)


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
    gens = commutators.enumerate_generators(K)
    count = commutators.generator_count(K)
    per_length = sorted(Counter(g.length for g in gens).items())
    payload = {"generators": [g.nested() for g in gens],
               "count": count,
               "per_length": {str(k): v for k, v in per_length}}
    head = [f"count: {count}", "per-length: " + (
        " ".join(f"{k}:{v}" for k, v in per_length) or "-")]
    out = map(_dumps_line, payload["generators"])
    if args.words:
        payload["words"] = commutators.generator_words(K, gens)
        out = map(" = ".join, zip(out, map(_dumps_line, payload["words"])))
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
    # the counts of the presentation, read off the loop system: one
    # generator per non-tree edge and one relator per square (a column of
    # d2), so no relator word is built
    loops = cubical.build(K).loop_system()
    gens, rels, rank = loops.rank_cycles, loops.relators.cols, loops.betti1
    payload = {"generators": gens, "relators": rels, "abelianized_rank": rank}
    return True, payload, [f"generators: {gens}", f"relators: {rels}",
                           f"abelianized rank: {rank}"]


def cmd_selftest(K, args):
    rng = random.Random(args.seed)
    trials = args.trials
    if trials < 0:
        raise DocumentError(f"--trials must be non-negative, got {trials}")
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


@functools.cache
def _parser():
    """The argument parser, built on the first :func:`main` call and kept.

    Each command registers the name of its size cap, not its value, so
    :func:`main` reads the cap on every call and a lowered one applies."""
    parser = argparse.ArgumentParser(
        prog="coxkit",
        description="Exact computations with right-angled Coxeter groups "
                    "and the cubical models of their defining complexes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, needs_doc=True, cap="MAX_VERTICES"):
        p = sub.add_parser(name, help=help_text)
        if needs_doc:
            p.add_argument("document", nargs="?", default="-",
                           help="input document path, or - for stdin")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.set_defaults(func=func, cap=cap)
        return p

    add("flag", cmd_flag, "is the complex flag? witness on failure")
    add("chordal", cmd_chordal,
        "is the 1-skeleton chordal? perfect elimination ordering, read "
        "backwards (earlier neighbours form a clique), or cycle witness")
    gens = add("gens", cmd_gens,
               "minimal commutator-subgroup generators")
    gens.add_argument("--words", action="store_true",
                      help="also expand each generator to a normalised word")
    add("free", cmd_free, "is the commutator subgroup free? (flag input)")
    add("homology", cmd_homology, "integral homology of the cubical model",
        cap="MAX_CUBE_VERTICES")
    add("euler", cmd_euler, "Euler characteristic of the cubical model",
        cap="MAX_CUBE_VERTICES")
    add("check-splitting", cmd_check_splitting,
        "compare cubical homology against the full-subcomplex splitting",
        cap="MAX_CHECK_VERTICES")
    add("certify", cmd_certify,
        "kernel, nontriviality and homology-basis checks of the generators",
        cap="MAX_CHECK_VERTICES")
    add("pi1", cmd_pi1, "raw fundamental-group presentation statistics",
        cap="MAX_CUBE_VERTICES")
    selftest = add("selftest", cmd_selftest,
                   "commutator identity and word-problem oracle suites",
                   needs_doc=False)
    selftest.add_argument("--trials", type=int, default=300)
    selftest.add_argument("--seed", type=int, default=20240901)

    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    cap = globals()["MAX_CHECK_VERTICES" if getattr(args, "words", False)
                    else args.cap]
    try:
        K = _read_document(args.document, cap) if "document" in args else None
        verdict, payload, lines = args.func(K, args)
        if args.json:
            if K is not None:
                echo = simplicial.maximal_among(K, K.listed)
                payload = {"m": K.m, "maximal_faces": echo, **payload}
            print(json.dumps(payload, sort_keys=True, check_circular=False))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()          # a closed pipe raises here, not at exit
        return 0 if verdict else 1
    except BrokenPipeError:
        # the reader closed stdout: stop quietly, as SIGPIPE would, and point
        # stdout at devnull so the interpreter's last flush has nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (DocumentError, commutators.NotFlagError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # whatever its type, a failure that is not the input's is a bug
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from coxkit import cli, commutators, cubical, simplicial, words
from coxkit.cli import DocumentError, main, parse_document
from coxkit.intlinalg import IntMatrix
from coxkit.simplicial import SimplicialComplex
from helpers import RP2, all_complexes, random_complex

PATH4_DOC = '{"m": 4, "maximal_faces": [[1,2],[2,3],[4]]}'
C4_DOC = '{m: 4, maximal_faces: [[1,2],[2,3],[3,4],[4,1]]}'
BOUNDARY_DOC = '{m: 3, maximal_faces: [[1,2],[1,3],[2,3]]}'


def run(capsys, *argv, stdin=None, monkeypatch=None):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, text, name="k.json"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_document_strict_and_bare():
    K = parse_document(PATH4_DOC)
    assert K == SimplicialComplex.from_maximal_faces(4, [[1, 2], [2, 3], [4]])
    assert parse_document('{m: 4, maximal_faces: [[1,2],[2,3],[4]]}') == K


def test_parse_document_errors_carry_position():
    with pytest.raises(DocumentError, match="line 1"):
        parse_document("{{nope")
    with pytest.raises(DocumentError, match="maximal_faces\\[1\\]\\[0\\]"):
        parse_document('{m: 3, maximal_faces: [[1,2],[7]]}')
    with pytest.raises(DocumentError, match="'m'"):
        parse_document('{"maximal_faces": []}')
    with pytest.raises(DocumentError):
        parse_document('{"m": 30, "maximal_faces": []}')


def test_gens_matches_worked_example(tmp_path, capsys):
    path = write(tmp_path, PATH4_DOC)
    code, out, _ = run(capsys, "gens", "--json", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 9
    assert doc["per_length"] == {"2": 4, "3": 4, "4": 1}
    as_sets = {json.dumps(g) for g in doc["generators"]}
    assert as_sets == {
        "[3, 1]", "[4, 1]", "[4, 2]", "[4, 3]",
        "[2, [4, 1]]", "[3, [4, 1]]", "[1, [4, 3]]", "[3, [4, 2]]",
        "[2, [3, [4, 1]]]"}


def test_gens_deterministic(tmp_path, capsys):
    path = write(tmp_path, PATH4_DOC)
    _, first, _ = run(capsys, "gens", path)
    _, second, _ = run(capsys, "gens", path)
    assert first == second


def test_gens_words(tmp_path, capsys):
    path = write(tmp_path, C4_DOC)
    code, out, _ = run(capsys, "gens", "--words", "--json", path)
    doc = json.loads(out)
    assert len(doc["words"]) == doc["count"] == 2
    assert all(word for word in doc["words"])


def test_gens_arrays_evaluate_to_their_words(tmp_path, capsys):
    # every nested array of `gens --words --json`, read back from the JSON,
    # evaluates to the word printed beside it
    for K in (parse_document(PATH4_DOC), SimplicialComplex.points(4),
              SimplicialComplex.cycle(5), random_complex(6, random.Random(6))):
        doc = json.dumps({"m": K.m, "maximal_faces": K.maximal_faces()})
        code, out, _ = run(capsys, "gens", "--words", "--json",
                           write(tmp_path, doc))
        reply = json.loads(out)
        spec = commutators.coxeter_spec(K)
        assert code == 0 and reply["count"] > 0
        assert len(reply["generators"]) == len(reply["words"]) == \
            reply["count"]
        for nested, word in zip(reply["generators"], reply["words"]):
            assert [list(letter) for letter in words.evaluate(nested, spec)] \
                == word, nested


def test_round_trip(tmp_path, capsys):
    path = write(tmp_path, PATH4_DOC)
    _, out, _ = run(capsys, "gens", "--json", path)
    doc = json.loads(out)
    again = parse_document(json.dumps({"m": doc["m"],
                                       "maximal_faces": doc["maximal_faces"]}))
    assert again == parse_document(PATH4_DOC)


def test_homology_torus(tmp_path, capsys):
    path = write(tmp_path, C4_DOC)
    code, out, _ = run(capsys, "homology", "--json", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"] == [1, 2, 1]
    assert doc["torsion"] == [[], [], []]
    assert doc["euler"] == 0


def test_flag_verdicts_and_exit_codes(tmp_path, capsys):
    good = write(tmp_path, C4_DOC, "c4.json")
    code, out, _ = run(capsys, "flag", good)
    assert code == 0 and "true" in out
    bad = write(tmp_path, BOUNDARY_DOC, "bd.json")
    code, out, _ = run(capsys, "flag", "--json", bad)
    assert code == 1
    assert json.loads(out)["witness"] == [1, 2, 3]


def test_chordal_command(tmp_path, capsys):
    path = write(tmp_path, C4_DOC)
    code, out, _ = run(capsys, "chordal", "--json", path)
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] is False and len(doc["witness"]) == 4
    path = write(tmp_path, PATH4_DOC)
    code, out, _ = run(capsys, "chordal", "--json", path)
    assert code == 0
    assert json.loads(out)["ordering"] is not None


def test_free_command(tmp_path, capsys):
    assert run(capsys, "free", write(tmp_path, PATH4_DOC))[0] == 0
    assert run(capsys, "free", write(tmp_path, C4_DOC))[0] == 1
    code, _, err = run(capsys, "free", write(tmp_path, BOUNDARY_DOC))
    assert code == 2 and "not flag" in err


def test_check_splitting_and_certify(tmp_path, capsys):
    path = write(tmp_path, C4_DOC)
    code, out, _ = run(capsys, "check-splitting", "--json", path)
    assert code == 0 and json.loads(out)["verdict"] is True
    code, out, _ = run(capsys, "certify", "--json", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] and doc["basis"] and doc["count"] == 2


def test_certify_with_a_word_short_is_a_false_verdict(
        tmp_path, capsys, monkeypatch):
    # a false verdict exits 1, not 3: nothing inside the check failed
    short = cubical.generator_words
    monkeypatch.setattr(cubical, "generator_words",
                        lambda K, gens: short(K, gens)[:-1])
    code, out, err = run(capsys, "certify", "--json", write(tmp_path, C4_DOC))
    doc = json.loads(out)
    assert code == 1 and err == ""
    assert [doc[k] for k in ("count", "kernel", "nontrivial", "basis",
                             "verdict")] == [1, True, True, False, False]


def test_pi1_command(tmp_path, capsys):
    path = write(tmp_path, C4_DOC)
    code, out, _ = run(capsys, "pi1", "--json", path)
    doc = json.loads(out)
    assert (doc["generators"], doc["relators"], doc["abelianized_rank"]) == \
        (17, 16, 2)


def test_pi1_builds_no_relator_word(tmp_path, capsys, monkeypatch):
    # pi1 prints counts only, read off the loop system; the relator words
    # are for library callers of fundamental_group_presentation
    cases = []
    for K in (SimplicialComplex.simplex(4), SimplicialComplex.cycle(6)):
        pres = cubical.fundamental_group_presentation(cubical.build(K))
        counts = (pres.generator_count, pres.relator_count,
                  pres.abelianized_rank)
        doc = json.dumps({"m": K.m, "maximal_faces": K.maximal_faces()})
        cases.append((write(tmp_path, doc, f"{K.m}.json"), counts))
    assert [c for _, c in cases] == [(17, 24, 0), (129, 96, 34)]

    def no_words(loops):
        raise AssertionError("relator words built")
    monkeypatch.setattr(cubical._LoopSystem, "relator_words",
                        property(no_words))
    for path, counts in cases:
        code, out, _ = run(capsys, "pi1", "--json", path)
        doc = json.loads(out)
        assert code == 0 and (doc["generators"], doc["relators"],
                              doc["abelianized_rank"]) == counts
        code, out, _ = run(capsys, "pi1", path)
        assert code == 0 and out == "generators: {}\nrelators: {}\n" \
            "abelianized rank: {}\n".format(*counts)


def test_euler_command(tmp_path, capsys):
    code, out, _ = run(capsys, "euler", "--json", write(tmp_path, C4_DOC))
    assert json.loads(out)["euler"] == 0


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest", "--trials", "25", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] and doc["hall"] == doc["trials"] == 25


def test_selftest_negative_trials_exit_2(capsys):
    code, out, err = run(capsys, "selftest", "--trials", "-3")
    assert code == 2 and out == "" and "-3" in err
    code, out, _ = run(capsys, "selftest", "--trials", "0")
    assert code == 0
    assert "hall identities: 0/0" in out and "selftest: ok" in out


def test_malformed_document_exit_2(tmp_path, capsys):
    path = write(tmp_path, "{]")
    code, _, err = run(capsys, "flag", path)
    assert code == 2 and "line" in err
    code, _, err = run(capsys, "flag", str(tmp_path / "missing.json"))
    assert code == 2


LONG_LITERAL = "9" * 5000     # past int()'s default limit of 4,300 digits


@pytest.mark.parametrize("text, line, column", [
    ('{"m": ' + LONG_LITERAL + ', "maximal_faces": []}', 1, 7),
    ('{m: ' + LONG_LITERAL + ', maximal_faces: []}', 1, 5),
    ('{"m": 4,\n "maximal_faces": [[1, ' + LONG_LITERAL + ']]}', 2, 24),
    ('{m: 4,\n maximal_faces: [[1, ' + LONG_LITERAL + ']]}', 2, 22)],
    ids=["m", "bare-m", "vertex", "bare-vertex"])
def test_too_long_integer_literal_is_a_document_error(
        tmp_path, capsys, text, line, column):
    with pytest.raises(DocumentError,
                       match=f"5000 digits.* at line {line} column {column}$"):
        parse_document(text)
    code, out, err = run(capsys, "flag", write(tmp_path, text))
    assert code == 2 and out == ""
    assert err.startswith("error: not a valid document")


def test_non_utf8_document_exit_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "k.json"
    path.write_bytes(b'{"m": 2, "maximal_faces": [["\xff"]]}')
    code, out, err = run(capsys, "flag", str(path))
    assert code == 2 and out == "" and err.startswith("error:")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO(b'{"m": 2\xff}'), encoding="utf-8"))
    code, out, err = run(capsys, "flag", "-")
    assert code == 2 and out == "" and err.startswith("error:")


def test_deeply_nested_document_exit_2(tmp_path, capsys):
    deep = "[" * 100_000 + "]" * 100_000
    for text in (deep, "{m: 2, maximal_faces: " + deep + "}"):
        code, _, err = run(capsys, "flag", write(tmp_path, text))
        assert code == 2
        assert err.startswith("error:") and "nested too deeply" in err


def test_cube_commands_reject_large_m(tmp_path, capsys):
    doc = json.dumps({"m": 13, "maximal_faces": []})
    code, _, err = run(capsys, "homology", write(tmp_path, doc))
    assert code == 2 and "too large" in err


def test_console_script_reads_stdin():
    exe = shutil.which("coxkit")
    argv = [exe] if exe else [sys.executable, "-m", "coxkit.cli"]
    result = subprocess.run(argv + ["gens", "--json", "-"],
                            input=PATH4_DOC, text=True,
                            capture_output=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["count"] == 9
    again = subprocess.run(argv + ["gens", "--json", "-"],
                           input=PATH4_DOC, text=True,
                           capture_output=True)
    assert result.stdout == again.stdout


def test_closed_stdout_exits_141_quietly():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen([sys.executable, "-m", "coxkit.cli", "gens", "-"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    proc.stdin.write(json.dumps({"m": 12}).encode())
    proc.stdin.close()
    assert proc.stdout.readline() == b"count: 20481\n"
    proc.stdout.close()             # about 500 KB are still to come
    err = proc.stderr.read()        # returns once the writer has exited
    assert proc.wait(timeout=60) == 141 and err == b""


def test_closed_stdout_in_process_leaks_no_descriptor(
        tmp_path, monkeypatch):
    fds = Path("/proc/self/fd")
    if not fds.is_dir():
        pytest.skip("no /proc/self/fd to count descriptors")
    path = write(tmp_path, PATH4_DOC)
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed_pipe:
        before = len(list(fds.iterdir()))
        monkeypatch.setattr(sys, "stdout", closed_pipe)
        code = main(["gens", path])
        monkeypatch.undo()
        assert code == 141
        assert len(list(fds.iterdir())) == before


def test_parse_document_rejects_boolean_vertices():
    with pytest.raises(DocumentError, match="vertex True"):
        parse_document('{"m":3,"maximal_faces":[[true,2]]}')


def test_certify_checks_size_cap_before_building_words(
        tmp_path, capsys, monkeypatch):
    def no_words(*args):
        raise AssertionError("word built before the size cap was checked")
    monkeypatch.setattr(commutators, "commutator", no_words)
    doc = json.dumps({"m": 11, "maximal_faces": []})
    code, _, err = run(capsys, "certify", write(tmp_path, doc))
    assert code == 2 and "too large" in err


def test_gens_words_checks_size_cap_before_building_words(
        tmp_path, capsys, monkeypatch):
    def no_words(*args):
        raise AssertionError("word built before the size cap was checked")
    monkeypatch.setattr(commutators, "commutator", no_words)
    path = write(tmp_path, json.dumps({"m": 11, "maximal_faces": []}))
    for json_flag in ([], ["--json"]):
        code, out, err = run(capsys, "gens", "--words", *json_flag, path)
        assert code == 2 and out == "" and "too large" in err


CAPPED_COMMANDS = {"homology": 12, "euler": 12, "pi1": 12,
                   "check-splitting": 10, "certify": 10, "gens --words": 10}


@pytest.mark.parametrize("command", sorted(CAPPED_COMMANDS))
def test_over_cap_documents_are_refused_before_the_closure(
        tmp_path, capsys, monkeypatch, command):
    def no_closure(*args):
        raise AssertionError("complex built before the size cap was checked")
    monkeypatch.setattr(SimplicialComplex, "from_maximal_faces", no_closure)
    cap = CAPPED_COMMANDS[command]
    doc = {"m": cap + 1, "maximal_faces": [list(range(1, cap + 2))]}
    path = write(tmp_path, json.dumps(doc))
    for json_flag in ([], ["--json"]):
        code, out, err = run(capsys, *command.split(), *json_flag, path)
        assert code == 2 and out == ""
        assert "too large" in err and f"(cap {cap})" in err


@pytest.mark.parametrize("name, command", [
    ("MAX_CUBE_VERTICES", "euler"), ("MAX_CHECK_VERTICES", "gens --words")])
def test_a_lowered_cap_applies(tmp_path, capsys, monkeypatch, name, command):
    monkeypatch.setattr(cli, name, 4)
    code, out, _ = run(capsys, *command.split(), write(tmp_path, '{"m": 4}'))
    assert code == 0 and out
    code, out, err = run(capsys, *command.split(), write(tmp_path, '{"m": 5}'))
    assert code == 2 and out == "" and "(cap 4)" in err


def test_the_parser_is_built_once(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    try:
        path = write(tmp_path, PATH4_DOC)
        for command in (["flag"], ["gens", "--json"], ["euler"], ["flag"]):
            assert run(capsys, *command, path)[0] == 0
        assert run(capsys, "selftest", "--trials", "0")[0] == 0
        assert built.count("coxkit") == 1
    finally:
        cli._parser.cache_clear()


def test_a_cap_lowered_after_the_parser_exists_applies(
        tmp_path, capsys, monkeypatch):
    path = write(tmp_path, '{"m": 5}')
    assert run(capsys, "euler", path)[0] == 0
    monkeypatch.setattr(cli, "MAX_CUBE_VERTICES", 4)
    code, out, err = run(capsys, "euler", path)
    assert code == 2 and out == "" and "(cap 4)" in err


def test_no_state_crosses_calls(tmp_path, capsys):
    path = write(tmp_path, PATH4_DOC)
    code, out, _ = run(capsys, "gens", "--words", "--json", path)
    assert code == 0 and "words" in json.loads(out)
    code, out, _ = run(capsys, "gens", "--json", path)
    assert code == 0 and "words" not in json.loads(out)

    run(capsys, "selftest", "--trials", "1", "--seed", "7")
    code, out, _ = run(capsys, "selftest", "--trials", "1", "--json")
    assert code == 0 and json.loads(out)["seed"] == 20240901

    cli._parser.cache_clear()
    fresh = run(capsys, "homology", "--json", path)
    with pytest.raises(SystemExit) as usage_error:
        main(["homology", "--bogus", path])
    assert usage_error.value.code == 2
    capsys.readouterr()
    assert run(capsys, "homology", "--json", path) == fresh


DOCUMENT_COMMANDS = (["flag"], ["chordal"], ["gens"], ["gens", "--words"],
                     ["free"], ["homology"], ["euler"], ["check-splitting"],
                     ["certify"], ["pi1"])


def test_text_mode_never_builds_the_echo(tmp_path, capsys, monkeypatch):
    paths = [write(tmp_path, PATH4_DOC, "path4.json"),
             write(tmp_path, C4_DOC, "c4.json")]
    expected = {(tuple(command), path): run(capsys, *command, path)[:2]
                for command in DOCUMENT_COMMANDS for path in paths}

    def no_echo(K, masks):
        raise RuntimeError("echo built")
    monkeypatch.setattr(simplicial, "maximal_among", no_echo)
    for (command, path), (code, out) in expected.items():
        assert run(capsys, *command, path)[:2] == (code, out)
        code, out, err = run(capsys, *command, "--json", path)
        assert code == 3 and out == ""
        assert err.splitlines()[-1] == \
            "internal error: RuntimeError('echo built')"


def test_json_echo_never_scans_the_closure(tmp_path, capsys, monkeypatch):
    # The echo is read off the document's own faces and the vertices, never
    # off every face of the closure.  Documents that list non-maximal,
    # repeated or empty faces echo the maximal faces all the same.
    rng = random.Random(24)
    docs = [PATH4_DOC, C4_DOC, BOUNDARY_DOC, '{"m": 1}', '{"m": 3}',
            '{m: 4, maximal_faces: [[1,2],[2,1],[1],[],[2,3],[1,2],[3,2]]}',
            '{m: 5, maximal_faces: [[1,2,3],[2,3],[3],[3,1,2],[4]]}']
    for K in (SimplicialComplex.simplex(9), SimplicialComplex.points(6),
              SimplicialComplex.cycle(7)):
        docs.append(json.dumps({"m": K.m, "maximal_faces": K.maximal_faces()}))
    for _ in range(12):
        K = random_complex(rng.randint(2, 7), rng)
        faces = K.maximal_faces()
        faces += [sorted(rng.sample(f, rng.randint(0, len(f))))
                  for f in faces]
        rng.shuffle(faces)
        docs.append(json.dumps({"m": K.m, "maximal_faces": faces}))
    paths = [write(tmp_path, doc, f"{i}.json") for i, doc in enumerate(docs)]
    expected = {}
    for path, doc in zip(paths, docs):
        want = parse_document(doc).maximal_faces()
        for command in DOCUMENT_COMMANDS:
            code, out, _ = run(capsys, *command, "--json", path)
            # `free` refuses a non-flag complex with exit 2 and no reply
            assert code == 2 or json.loads(out)["maximal_faces"] == want
            expected[tuple(command), path] = code, out

    def scan(self):
        raise RuntimeError("closure scanned")
    monkeypatch.setattr(SimplicialComplex, "maximal_faces", scan)
    for (command, path), (code, out) in expected.items():
        assert run(capsys, *command, "--json", path)[:2] == (code, out)


def test_broken_chain_complex_is_an_internal_error(
        tmp_path, capsys, monkeypatch):
    not_a_complex = [IntMatrix(0, 1), IntMatrix.from_dense([[1]]),
                     IntMatrix.from_dense([[1]])]
    monkeypatch.setattr(cubical.CubeComplex, "boundaries",
                        property(lambda self: not_a_complex))
    code, out, err = run(capsys, "homology", write(tmp_path, C4_DOC))
    assert code == 3 and out == ""
    assert err.splitlines()[-1].startswith("internal error: ChainComplexError")


def test_failed_assertion_is_an_internal_error(tmp_path, capsys, monkeypatch):
    def broken(self, R):
        raise AssertionError("unexpected torsion")
    monkeypatch.setattr(cubical._LoopSystem, "__init__", broken)
    code, out, err = run(capsys, "pi1", write(tmp_path, C4_DOC))
    assert code == 3 and out == ""
    assert err.splitlines()[-1].startswith("internal error: AssertionError")


def test_chordal_without_certificate_is_an_internal_error(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(simplicial, "_find_chordless_cycle",
                        lambda graph: None)
    code, out, err = run(capsys, "chordal", write(tmp_path, C4_DOC))
    assert code == 3 and out == ""
    assert err.splitlines()[-1].startswith("internal error: RuntimeError")


def test_reflection_overflow_is_an_internal_error(capsys, monkeypatch):
    # a corrupted packed row leaves a leftover above its top slot
    unpack = words._unpack

    def corrupt(r, m, width):
        return unpack(r + (1 << m * width), m, width)
    monkeypatch.setattr(words, "_unpack", corrupt)
    for json_flag in ((), ("--json",)):
        code, out, err = run(capsys, "selftest", "--trials", "5", *json_flag)
        assert code == 3 and out == ""
        assert err.splitlines()[-1].startswith("internal error: RuntimeError")


def test_gens_without_top_component_is_an_internal_error(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(commutators, "_components_masks",
                        lambda K, sub_mask: [])
    code, out, err = run(capsys, "gens", write(tmp_path, PATH4_DOC))
    assert code == 3 and out == ""
    assert err.splitlines()[-1].startswith("internal error: RuntimeError")


@pytest.mark.parametrize("module, name, command", [
    (commutators, "commutator", ("gens", "--words")),
    (cubical, "_is_homology_basis", ("certify",))],
    ids=["gens-words", "certify"])
def test_library_value_error_is_an_internal_error(
        tmp_path, capsys, monkeypatch, module, name, command):
    def broken(*args):
        raise ValueError("vertex 11 out of range 1..4")
    monkeypatch.setattr(module, name, broken)
    for json_flag in ((), ("--json",)):
        code, out, err = run(capsys, *command, *json_flag,
                             write(tmp_path, PATH4_DOC))
        assert code == 3 and out == ""
        assert err.splitlines()[-1].startswith("internal error: ValueError")


README_EXAMPLE = re.compile(
    r"^\$ echo '([^'\n]*)' \| coxkit ([^\n]*) -\n(.*?)^```", re.M | re.S)


def test_readme_examples_byte_for_byte():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    examples = README_EXAMPLE.findall(readme.read_text(encoding="utf-8"))
    assert len(examples) == 2
    exe = shutil.which("coxkit")
    argv = [exe] if exe else [sys.executable, "-m", "coxkit.cli"]
    for doc, command, expected in examples:
        result = subprocess.run(argv + command.split() + ["-"],
                                input=(doc + "\n").encode(),
                                capture_output=True)
        assert result.returncode == 0
        assert result.stdout == expected.encode()


def _fuzzed_documents(st):
    """Document texts, valid or not: strict JSON or bare keys, m out of
    range or of the wrong type, faces that are not lists, vertices out of
    range, deep nesting, cut documents, junk text and integer literals too
    long for int()."""
    vertex = st.one_of(st.integers(-1, 9), st.booleans(), st.floats(),
                       st.text(max_size=2), st.none(),
                       st.lists(st.integers(1, 8), max_size=2))
    bad_m = st.sampled_from([0, 25, -1, True, False, 4.0, "4", None]) | \
        st.floats()
    bad_faces = st.one_of(
        st.lists(st.lists(vertex, max_size=4) | vertex, min_size=1,
                 max_size=6),
        vertex, st.dictionaries(st.text(max_size=3), st.integers(),
                                max_size=2)).map(json.dumps) | \
        st.integers(1, 3000).map(lambda d: "[" * d + "]" * d)

    def good(m):
        face = st.lists(st.integers(1, m), min_size=1, max_size=3)
        faces = st.lists(face, max_size=10)
        return st.tuples(st.just(m), faces.map(json.dumps))

    def assemble(bare, m_and_faces):
        m, faces = m_and_faces
        key = str if bare else json.dumps
        return f"{{{key('m')}: {json.dumps(m)}, " \
               f"{key('maximal_faces')}: {faces}}}"
    pairs = st.integers(1, 8).flatmap(good) | \
        st.tuples(st.integers(1, 8) | bad_m, bad_faces)
    documents = st.builds(assemble, st.booleans(), pairs)
    # integer literals past int()'s 4,300-digit limit, which json.dumps
    # cannot write, go in as raw text: as m, and as a vertex
    digits = st.integers(4301, 6000).map(lambda n: "9" * n)
    too_long = st.builds(
        lambda bare, d: assemble(bare, (None, "[]")).replace("null", d),
        st.booleans(), digits) | st.builds(
        lambda bare, d: assemble(bare, (4, f"[[1, {d}]]")),
        st.booleans(), digits)
    cut = st.builds(lambda doc, at, junk: doc[:at] + junk, documents,
                    st.integers(0, 60), st.text(max_size=8))
    junk = st.text(max_size=40) | st.sampled_from(
        ["", "[]", "{}", "3", '{"maximal_faces": []}', "{m: 4,}"])
    return st.one_of(documents, documents, documents, documents, cut, junk,
                     too_long)


def test_fuzzed_documents_parse_or_raise_document_error():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(_fuzzed_documents(st))
    def check(text):
        try:
            K = parse_document(text)
        except DocumentError:
            return
        assert isinstance(K, SimplicialComplex) and 1 <= K.m <= 8
    check()


def test_fuzzed_documents_exit_0_1_or_2_through_main():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=100, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.sampled_from(["flag", "chordal", "euler"]),
                      _fuzzed_documents(st))
    def check(command, text):
        out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main([command, "-"])
        finally:
            sys.stdin = stdin
        assert code in (0, 1, 2), err.getvalue()
        assert code != 2 or out.getvalue() == ""
    check()


def _pin_documents():
    """The documents of :func:`test_every_command_output_is_pinned`: every
    complex with m <= 4; points, cycle and simplex for m = 5-8; RP^2;
    seeded random complexes with m 5-8, half of them listing non-maximal,
    repeated and reversed faces in shuffled order; and documents that are
    over a cap or malformed."""
    def doc(K):
        return json.dumps({"m": K.m, "maximal_faces": K.maximal_faces()})
    docs = [doc(K) for m in range(1, 5) for K in all_complexes(m)]
    docs += [doc(make(m)) for m in range(5, 9)
             for make in (SimplicialComplex.points, SimplicialComplex.cycle,
                          SimplicialComplex.simplex)]
    docs.append(json.dumps({"m": 6, "maximal_faces": RP2}))
    rng = random.Random(20261021)
    for n in range(8):
        faces = random_complex(5 + n % 4, rng).maximal_faces()
        if n % 2:
            faces += [f[::-1] for f in faces[:3]] + \
                [sorted(rng.sample(f, rng.randint(1, len(f))))
                 for f in faces]
            rng.shuffle(faces)
        docs.append(json.dumps({"m": 5 + n % 4, "maximal_faces": faces}))
    docs += [BOUNDARY_DOC, C4_DOC.replace("m: 4", "m: 5"),
             '{m: 4, maximal_faces: [[1,2],[2,1],[1],[],[2,3],[1,2],[3,2]]}',
             json.dumps({"m": 13, "maximal_faces": [list(range(1, 14))]}),
             json.dumps({"m": 11, "maximal_faces": [list(range(1, 12))]}),
             "{]", "", "[]", '{"maximal_faces": []}', '{"m": 0}',
             '{"m": 25}', '{"m": true}', '{m: 3, maximal_faces: [[1, 4]]}',
             '{m: 3, maximal_faces: [[1, true]]}', '{m: 3, maximal_faces: 7}',
             '{m: 3, maximal_faces: [2]}', "[" * 3000 + "]" * 3000,
             '{"m": 4, "maximal_faces": [[1, ' + LONG_LITERAL + ']]}']
    return docs


def test_every_command_output_is_pinned(monkeypatch):
    # One digest of (document, command, exit code, stdout) for every
    # command, text and --json, `gens` with and without --words, over the
    # corpus above: a change that keeps it keeps every byte the commands
    # print on these inputs.  Nothing may exit 3 (a bug).
    commands = [["flag"], ["chordal"], ["gens"], ["gens", "--words"],
                ["free"], ["homology"], ["euler"], ["check-splitting"],
                ["certify"], ["pi1"]]
    # the over-cap m = 11 simplex would run the cube commands (m <= 12)
    # for seconds; they are pinned on the m = 13 one
    cube = {"homology", "euler", "pi1"}
    digest = hashlib.sha256()
    codes = Counter()

    def call(argv, text):
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), (argv, text[:80])
        digest.update(repr((text, argv, code, out.getvalue())).encode())
        codes[code] += 1
    for text in _pin_documents():
        for command in commands:
            if command[0] in cube and text.startswith('{"m": 11'):
                continue
            for json_flag in ([], ["--json"]):
                call(command + json_flag + ["-"], text)
    for json_flag in ([], ["--json"]):
        call(["selftest", "--trials", "20", "--seed", "31"] + json_flag, "")
    assert codes == {0: 2_742, 1: 156, 2: 398}
    assert digest.hexdigest() == ("9d22a2b48c80adcd011273144b678f95"
                                  "9bed265a7b470831477f55aea43fc040")

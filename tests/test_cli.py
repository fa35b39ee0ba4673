import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from coxkit import commutators, cubical, simplicial, words
from coxkit.cli import DocumentError, main, parse_document
from coxkit.intlinalg import IntMatrix
from coxkit.simplicial import SimplicialComplex

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


def test_pi1_command(tmp_path, capsys):
    path = write(tmp_path, C4_DOC)
    code, out, _ = run(capsys, "pi1", "--json", path)
    doc = json.loads(out)
    assert (doc["generators"], doc["relators"], doc["abelianized_rank"]) == \
        (17, 16, 2)


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


DOCUMENT_COMMANDS = (["flag"], ["chordal"], ["gens"], ["gens", "--words"],
                     ["free"], ["homology"], ["euler"], ["check-splitting"],
                     ["certify"], ["pi1"])


def test_text_mode_never_builds_the_echo(tmp_path, capsys, monkeypatch):
    paths = [write(tmp_path, PATH4_DOC, "path4.json"),
             write(tmp_path, C4_DOC, "c4.json")]
    expected = {(tuple(command), path): run(capsys, *command, path)[:2]
                for command in DOCUMENT_COMMANDS for path in paths}

    def no_echo(self):
        raise RuntimeError("echo built")
    monkeypatch.setattr(SimplicialComplex, "maximal_faces", no_echo)
    for (command, path), (code, out) in expected.items():
        assert run(capsys, *command, path)[:2] == (code, out)
        code, out, err = run(capsys, *command, "--json", path)
        assert code == 3 and out == ""
        assert err.splitlines()[-1] == \
            "internal error: RuntimeError('echo built')"


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

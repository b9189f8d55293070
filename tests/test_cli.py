import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkhom.braids import BraidWord, compose, pure_generator_word, unparse_braid_word
from linkhom.cli import main
from linkhom.closure import Move, replay_witness
from conftest import PAST_CAP_PAIRS, past_cap_pair


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gamma_golden_json(capsys):
    code, out, _ = run(capsys, "gamma", "-n", "3", "s1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["basis_order"] == ["1", "2", "3", "1.2", "1.3", "2.3", "1.2.3", "1.3.2"]
    assert data["rows"][0] == [0, 1, 0, 0, 0, 0, 0, 0]
    assert data["rows"][3] == [0, 1, 0, -1, 0, 0, 0, 0]
    assert data["rows"][6] == [0, 0, 0, 0, 0, 1, -1, -1]


def test_gamma_infers_strands(capsys):
    code_a, out_a, _ = run(capsys, "gamma", "s1", "--format", "json")
    code_b, out_b, _ = run(capsys, "gamma", "-n", "2", "s1", "--format", "json")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_gamma_six_strands(capsys):
    code, out, _ = run(capsys, "gamma", "-n", "6", "s1 s2 s3 s4 s5", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 415


def test_braid_eq_exit_codes(capsys):
    assert run(capsys, "braid-eq", "-n", "2", "", "")[0] == 0
    assert run(capsys, "braid-eq", "-n", "2", "a1,2", "a1,2 a1,2")[0] == 1


def test_braid_eq_six_strands(capsys):
    # a 300-letter word against itself with homotopy relators
    # [A_ij, lam A_ij lam^-1] inserted, then with one letter inverted
    rng = random.Random(6)
    n = 6
    word = [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(300)]
    other = list(word)
    for _ in range(4):
        a = pure_generator_word(n, *sorted(rng.sample(range(1, n + 1), 2)))
        lam = pure_generator_word(n, *sorted(rng.sample(range(1, n + 1), 2)))
        conj = compose(lam, a, lam.inverse())
        pos = rng.randint(0, len(other))
        other[pos:pos] = compose(a, conj, a.inverse(), conj.inverse()).letters
    text = unparse_braid_word(BraidWord(n, tuple(word)))
    assert run(capsys, "braid-eq", "-n", "6", text, unparse_braid_word(BraidWord(n, tuple(other))))[0] == 0
    i, sign = other[150]
    other[150] = (i, -sign)
    assert run(capsys, "braid-eq", "-n", "6", text, unparse_braid_word(BraidWord(n, tuple(other))))[0] == 1


def test_basis_listing(capsys):
    code, out, _ = run(capsys, "basis", "-n", "3")
    assert code == 0
    assert out.split() == ["1", "2", "3", "1.2", "1.3", "2.3", "1.2.3", "1.3.2"]
    assert run(capsys, "basis")[0] == 64  # -n required


def test_nf_and_magnus(capsys):
    code, out, _ = run(capsys, "nf", "x2 x1", "--format", "json")
    assert code == 0
    assert json.loads(out)["coefficients"] == {"1": 1, "2": 1, "1.2": -1}
    code, out, _ = run(capsys, "magnus", "x1 x2 x1^-1 x2^-1", "--format", "json")
    assert code == 0
    assert json.loads(out)["coefficients"] == {"": 1, "1.2": 1, "2.1": -1}


def test_reduced_words_infer_their_rank(capsys):
    code, out, _ = run(capsys, "nf", "x3 x1", "--format", "json")
    assert code == 0
    assert json.loads(out)["rank"] == 3
    # the braid needs 2 strands, the word rank 3
    code, out, _ = run(capsys, "act", "s1", "x3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"rank": 3, "word": "x3"}
    assert run(capsys, "magnus", "x1 y2")[0] == 64
    assert run(capsys, "nf", "x1^2")[0] == 64


@pytest.mark.parametrize("argv", [("nf", "x\u00b2"), ("magnus", "x1 x\u00b2"),
                                  ("act", "s1", "x\u00b2"), ("act", "-n", "3", "s1", "x\u00b2")])
def test_superscript_digits_in_reduced_words_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 64 and not out
    assert "malformed token" in err


def test_nf_json_values_are_integers(capsys):
    # x2^2000 x1^2000: the exponent of (1,2) is read off a power of -2000
    long_word = " ".join(["x2"] * 2000 + ["x1"] * 2000)
    for word in ("x2 x1", "x3 x2^-1 x1 x3^-1 x2", long_word):
        code, out, _ = run(capsys, "nf", word, "--format", "json")
        assert code == 0
        values = json.loads(out)["coefficients"].values()
        assert values and all(type(v) is int for v in values)
    assert json.loads(out)["coefficients"]["1.2"] == -4_000_000


def test_act(capsys):
    code, out, _ = run(capsys, "act", "s1", "x2")
    assert code == 0
    assert out.strip() == "x2^-1 x1 x2"


def test_act_refuses_an_image_past_the_letter_limit(capsys):
    # each s1 s2^-1 multiplies the length of the image by about 2.6:
    # 8 pairs give 3191 letters, 13 pairs 392,833 and 14 pairs 1,028,455
    code, out, _ = run(capsys, "act", " ".join(["s1 s2^-1"] * 8), "x1")
    assert code == 0 and len(out.split()) == 3191
    code, out, err = run(capsys, "act", " ".join(["s1 s2^-1"] * 14), "x1")
    assert (code, out) == (65, "")
    assert "1028455 letters" in err and "limit of 1000000" in err


def test_act_counts_pure_tokens_before_expanding_them(capsys):
    # a1,500001 expands to 1,000,000 letters, a1,500002 to 1,000,002
    code, out, err = run(capsys, "act", "a1,500002", "x2")
    assert (code, out) == (65, "")
    assert "braid of 1000002 letters" in err
    assert run(capsys, "act", f"s1 a1,{10**20}", "x2")[:2] == (65, "")
    # a malformed token after a huge one does not cancel its count
    assert run(capsys, "act", f"a1,{10**20} a{10**20},1", "x2")[:2] == (65, "")


def test_clasp_build_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "clasp", "-n", "3", "a1,3 a2,3 a1,3^-1 a2,3^-1", "--format", "json")
    assert code == 0
    vector = json.loads(out)
    assert vector["nu"] == {"1.2.3": 1}
    path = tmp_path / "v.json"
    path.write_text(json.dumps(vector))
    code, out, _ = run(capsys, "build", str(path))
    assert code == 0
    word = out.strip()
    code, out, _ = run(capsys, "clasp", "-n", "3", word, "--format", "json")
    assert code == 0
    assert json.loads(out)["nu"] == {"1.2.3": 1}


def test_clasp_rejects_non_pure(capsys):
    code, _, err = run(capsys, "clasp", "-n", "2", "s1")
    assert code == 64
    assert "pure" in err


def test_pc_command(capsys, tmp_path):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"n": 3, "order": "degree-lex",
                                "nu": {"1.3": 5, "1.2.3": 4}}))
    code, out, _ = run(capsys, "pc", str(path), "-i", "1", "-j", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["nu"] == {"1.3": 5, "1.2.3": 9}


def test_closure_eq_exit_codes_and_witness(capsys, tmp_path):
    v1 = tmp_path / "v1.json"
    v2 = tmp_path / "v2.json"
    v1.write_text(json.dumps({"n": 3, "nu": {"1.3": 1, "1.2.3": 5}}))
    v2.write_text(json.dumps({"n": 3, "nu": {"1.3": 1}}))
    code, out, _ = run(capsys, "closure-eq", str(v1), str(v2), "--format", "json")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["status"] == "equivalent"
    assert verdict["witness"]

    v2.write_text(json.dumps({"n": 3, "nu": {"1.3": 2}}))
    code, out, _ = run(capsys, "closure-eq", str(v1), str(v2), "--format", "json")
    assert code == 1
    assert json.loads(out)["invariant"]

    v1.write_text(json.dumps({"n": 5, "nu": {"1.2": 1}}))
    v2.write_text(json.dumps({"n": 5, "nu": {"1.2": 1, "1.2.3.4.5": 1}}))
    code, out, _ = run(capsys, "closure-eq", str(v1), str(v2), "--format", "json")
    assert code == 2


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter has no int-to-str digit cap")
def test_closure_eq_prints_multipliers_past_the_digit_cap(capsys, tmp_path):
    label = "moves-n5-1e150"
    n, nu1, nu2 = PAST_CAP_PAIRS[label]
    paths = []
    for name, nu in (("v1.json", nu1), ("v2.json", nu2)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps({"n": n, "nu": nu}))
    cap = sys.get_int_max_str_digits()
    code, text, _ = run(capsys, "closure-eq", *map(str, paths))
    assert code == 0
    assert text.startswith("equivalent\n")
    code, out, _ = run(capsys, "closure-eq", *map(str, paths), "--format", "json")
    assert code == 0
    assert sys.get_int_max_str_digits() == cap
    sys.set_int_max_str_digits(0)
    try:
        verdict = json.loads(out)
        assert max(len(str(m["multiplier"])) for m in verdict["witness"]) > cap
    finally:
        sys.set_int_max_str_digits(cap)
    v1, v2 = past_cap_pair(label)
    assert verdict["status"] == "equivalent"
    assert replay_witness(v1, [Move.from_json(m) for m in verdict["witness"]]) == v2


def test_closure_eq_budget_flag_is_gone(capsys, tmp_path):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"n": 4, "nu": {}}))
    assert run(capsys, "closure-eq", str(path), str(path), "--budget", "10")[0] == 64


def test_oversize_integers_in_input_are_data_errors(capsys, tmp_path):
    # past the 4300-digit int-to-str cap, which stays on while input is read
    huge = tmp_path / "huge.json"
    huge.write_text('{"n": 3, "nu": {"1.2.3": 1' + "0" * 5000 + "}}")
    for argv in (("build", str(huge)), ("pc", str(huge), "-i", "1", "-j", "2"),
                 ("closure-eq", str(huge), str(huge))):
        code, out, err = run(capsys, *argv)
        assert code == 65
        assert out == ""
        assert "cannot read clasp vector" in err


@pytest.mark.parametrize("text", [
    '{"n": 3, "nu": {"1.2": 1.5}}',
    '{"n": 3.9, "nu": {"1.2": 1}}',
    '{"n": 3, "nu": {"1.2": true}}',
])
def test_non_integer_json_values_are_data_errors(capsys, tmp_path, text):
    # int() would truncate these to a valid vector
    path = tmp_path / "v.json"
    path.write_text(text)
    for argv in (("build", str(path)), ("pc", str(path), "-i", "1", "-j", "2"),
                 ("closure-eq", str(path), str(path))):
        code, out, err = run(capsys, *argv)
        assert code == 65
        assert out == ""
        assert "expected an integer" in err


# Runs each command in one fresh interpreter and reports, after each, its
# exit code, its JSON output and whether numpy has been imported.
_BOUNDARY_SCRIPT = """
import contextlib, io, json, sys
import linkhom
loaded = ["numpy" in sys.modules]
import linkhom.cli
loaded.append("numpy" in sys.modules)
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = linkhom.cli.main(argv + ["--format", "json"])
    results.append((code, json.loads(out.getvalue()), "numpy" in sys.modules))
print(json.dumps({"loaded": loaded, "results": results}))
"""


def test_numpy_is_imported_only_by_the_matrix_layer(tmp_path):
    def vector(name, n, nu):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"n": n, "nu": nu}))
        return str(path)

    n3a = vector("n3a", 3, {"1.3": 1, "1.2.3": 5})
    n3b = vector("n3b", 3, {"1.3": 1})
    n4a = vector("n4a", 4, {"1.2.3": 2, "1.2.4": 1, "1.3.4": -1, "1.2.3.4": 5})
    n4b = vector("n4b", 4, {"1.2.3": 2, "1.2.4": 1, "1.3.4": -1, "1.2.3.4": 6})
    n5 = {"1.2.3": 1, "2.4.5": -2, "1.2.3.4": 3, "1.3.2.5": 1, "1.2.3.4.5": 2}
    n5a = vector("n5a", 5, n5)
    # n5a moved by the partial conjugation (3, 5, +1), from `pc` below
    n5b = vector("n5b", 5, {**n5, "1.2.3.5": 1, "1.2.4.3.5": -3})
    numpy_free = [
        ["basis", "-n", "4"],
        ["magnus", "x1 x2 x1^-1"],
        ["nf", "-n", "4", "x1 x2 x3 x1^-1"],
        ["act", "s1 s2^-1", "x1 x3"],
        ["build", n4a],
        ["tables"],
        ["closure-eq", n3a, n3b],
        ["closure-eq", n4a, n4b],
        ["closure-eq", n5a, n5b],
    ]
    matrix = [
        (["gamma", "-n", "3", "s1 s2^-1"], 0, {
            "basis_order": ["1", "2", "3", "1.2", "1.3", "2.3", "1.2.3", "1.3.2"],
            "rows": [[0, 0, 1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0],
                     [0, 1, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, -1, 0, 0, 0],
                     [0, 1, 0, 0, 0, -1, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0],
                     [0, 1, 0, 0, 0, -1, -1, -1], [0, 0, 0, -1, 0, 0, 1, 0]]}),
        (["braid-eq", "-n", "4", "s1 s2 s1", "s2 s1 s2"], 0, {"equal": True}),
        (["braid-eq", "-n", "4", "s1 s2 s1 a1,4", "s2 s1 s2 a2,4"], 1, {"equal": False}),
        (["clasp", "-n", "4", "a1,3 a2,4^-1 a1,2 a1,3^-1 a1,2^-1"], 0, {
            "n": 4, "order": "degree-lex", "nu": {"1.2.3": -1, "1.3.2.4": 1, "2.4": -1}}),
        (["pc", n5a, "-i", "3", "-j", "5"], 0, {
            "n": 5, "order": "degree-lex", "nu": {**n5, "1.2.3.5": 1, "1.2.4.3.5": -3}}),
    ]
    argv = numpy_free + [args for args, _, _ in matrix]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _BOUNDARY_SCRIPT, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["loaded"] == [False, False]  # import linkhom, import linkhom.cli
    free, rest = report["results"][:len(numpy_free)], report["results"][len(numpy_free):]
    for args, (code, _, loaded) in zip(numpy_free, free):
        assert code == 0, args
        assert not loaded, f"{args[0]} imported numpy"
    assert [out["status"] for _, out, _ in free[-3:]] == ["equivalent"] * 3
    for (args, code, expected), (got_code, got, _) in zip(matrix, rest):
        assert (got_code, got) == (code, expected), args
    assert rest[0][2]  # gamma is where numpy comes in


def test_optimised_interpreter_gives_the_same_answers():
    # python -O strips assert statements, so a certificate check written as
    # one would vanish there; the answers and exit codes must not change.
    # The 5-strand words take the float64 letter pairs.
    rng = random.Random(55)
    n = 5
    word = BraidWord(n, tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(80)))
    a = pure_generator_word(n, 2, 4)
    conj = compose(pure_generator_word(n, 1, 5), a, pure_generator_word(n, 1, 5).inverse())
    same = compose(word, a, conj, a.inverse(), conj.inverse())
    pure = compose(*(pure_generator_word(n, *sorted(rng.sample(range(1, n + 1), 2))) ** rng.choice((1, -1))
                     for _ in range(40)))
    text = unparse_braid_word
    cases = [
        ("braid-eq", "-n", "5", text(word), text(same)),
        ("braid-eq", "-n", "5", text(word), text(compose(same, a))),
        ("clasp", "-n", "5", text(pure)),
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    procs = [subprocess.Popen([sys.executable, *flags, "-m", "linkhom.cli", *args, "--format", "json"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
             for flags in ((), ("-O",)) for args in cases]
    answers = []
    try:
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert not err, err
            answers.append((proc.returncode, json.loads(out)))
    finally:
        for proc in procs:
            proc.kill()  # a no-op for the processes already waited for
            proc.communicate()
    plain, optimised = answers[:len(cases)], answers[len(cases):]
    assert optimised == plain
    assert [code for code, _ in plain] == [0, 1, 0]
    assert plain[0][1] == {"equal": True} and plain[1][1] == {"equal": False}
    assert plain[2][1]["n"] == 5 and plain[2][1]["nu"]


def test_tables_dump(capsys):
    code, out, _ = run(capsys, "tables", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["n4-partial-conjugations"]) == 12
    assert len(data["n3-partial-conjugations"]) == 6
    code, out, _ = run(capsys, "tables", "--table", "n4-closure-moves")
    assert code == 0
    assert "[n4-closure-moves]" in out
    assert run(capsys, "tables", "--table", "nope")[0] == 64


def test_usage_errors(capsys):
    assert run(capsys, "gamma", "-n", "3", "s9")[0] == 64
    assert run(capsys, "gamma", "-n", "3", "wat")[0] == 64
    assert run(capsys, "nope")[0] == 64


def test_build_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"n": 3, "nu": {"1.2": 1}})))
    assert run(capsys, "build", "-") == (0, "s1 s1\n", "")
    monkeypatch.setattr(sys, "stdin", io.StringIO("{broken"))
    assert run(capsys, "build", "-")[0] == 65


def test_data_errors(capsys, tmp_path):
    assert run(capsys, "closure-eq", "/does/not/exist.json", "/neither.json")[0] == 65
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run(capsys, "build", str(bad))[0] == 65
    bad.write_text(json.dumps({"n": 3, "nu": {"3.1": 1}}))
    assert run(capsys, "build", str(bad))[0] == 65
    # a braid word of 2 * 10^30 letters, past MAX_BUILD_LETTERS
    bad.write_text(json.dumps({"n": 3, "nu": {"1.2": 10**30}}))
    assert run(capsys, "build", str(bad))[:2] == (65, "")
    # semantically incompatible inputs are data errors too
    v3 = tmp_path / "v3.json"
    v4 = tmp_path / "v4.json"
    v3.write_text(json.dumps({"n": 3, "nu": {}}))
    v4.write_text(json.dumps({"n": 4, "nu": {}}))
    assert run(capsys, "closure-eq", str(v3), str(v4))[0] == 65
    v6 = tmp_path / "v6.json"
    v6.write_text(json.dumps({"n": 6, "nu": {}}))
    assert run(capsys, "closure-eq", str(v6), str(v6))[0] == 65
    assert run(capsys, "pc", str(v3), "-i", "1", "-j", "7")[0] == 65
    # strand indices below 1 are refused by every command that reads a vector
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"n": 3, "nu": {"1.2": 1}}))
    for nu in ({"1.2": 1, "0.2": 1}, {"-1.2": 5}):
        bad.write_text(json.dumps({"n": 3, "nu": nu}))
        for argv in (("build", str(bad)), ("pc", str(bad), "-i", "1", "-j", "2"),
                     ("closure-eq", str(bad), str(one))):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (65, "")
            assert err.count("\n") == 1 and "below 1" in err


def test_vectors_with_two_keys_for_one_comb_are_data_errors(capsys, tmp_path):
    # both used to run with exit 0: "01.2" merged into "1.2", and json.load
    # kept the last of two equal keys
    path = tmp_path / "v.json"
    texts = ['{"n": 3, "nu": {"1.2": 1, "01.2": 2}}', '{"n": 3, "nu": {"1.2": 1, "1.2": 2}}',
             '{"n": 3, "nu": {"1.2": 1}, "n": 4}']
    for text, reason in zip(texts, ("'01.2' is not written as '1.2'", "repeated key '1.2'",
                                    "repeated key 'n'")):
        path.write_text(text)
        for argv in (("build", str(path)), ("pc", str(path), "-i", "1", "-j", "3"),
                     ("closure-eq", str(path), str(path))):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (65, "")
            assert err.count("\n") == 1 and reason in err


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "gamma", "-n", "3", "s1 s2 s1^-1", "--format", "json")
    _, out2, _ = run(capsys, "gamma", "-n", "3", "s1 s2 s1^-1", "--format", "json")
    assert out1 == out2
    _, out1, _ = run(capsys, "tables", "--format", "json")
    _, out2, _ = run(capsys, "tables", "--format", "json")
    assert out1 == out2


def test_eight_strands_refused_before_allocation(capsys, tmp_path):
    # the basis at n = 8 has 16072 commutators, past the limit of 2372
    vector = tmp_path / "v8.json"
    vector.write_text(json.dumps({"n": 8, "nu": {"1.2": 1}}))
    for argv in (
        ("gamma", "-n", "8", "s1"),
        ("braid-eq", "-n", "8", "s1", "s1"),
        ("clasp", "-n", "8", "a1,2"),
        ("pc", str(vector), "-i", "1", "-j", "2"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 65
        assert out == ""
        assert "16072" in err and "limit of 2372" in err


def test_free_group_commands_refused_past_the_limit(capsys):
    # the basis grows about tenfold per rank: refused before enumerating it
    for argv in (("basis", "-n", "8"), ("nf", "x8"), ("nf", "-n", "8", "x1"),
                 ("magnus", "x1 x8")):
        code, out, err = run(capsys, *argv)
        assert code == 65
        assert out == ""
        assert "16072" in err and "limit of 2372" in err
    assert run(capsys, "nf", "x7")[0] == 0


def test_comb_enumeration_refused_past_the_limit(capsys, tmp_path):
    # 12 strands have ~10^7 comb sequences: refused before enumerating any
    big = tmp_path / "v12.json"
    big.write_text(json.dumps({"n": 12, "nu": {}}))
    eight = tmp_path / "v8.json"
    eight.write_text(json.dumps({"n": 8, "nu": {"1.2": 1}}))
    for argv in (("build", str(big)), ("build", str(eight)), ("closure-eq", str(eight), str(eight))):
        code, out, err = run(capsys, *argv)
        assert code == 65
        assert out == ""
        assert "limit of 2372" in err
    seven = tmp_path / "v7.json"
    seven.write_text(json.dumps({"n": 7, "nu": {"1.7": 1, "1.2.7": -1}}))
    code, out, _ = run(capsys, "build", str(seven), "--format", "json")
    assert code == 0
    assert json.loads(out)["n"] == 7


def test_strands_admitted_before_the_word_is_parsed(capsys, monkeypatch):
    # parsing expands a<i>,<j> into 2 (j - i) letters and is_pure() builds a
    # permutation of n entries, so n >= 8 must be refused before either
    import linkhom.cli as cli

    parse = cli.parse_braid_word

    def guarded(text, n):
        assert n < 8, f"parsed a braid word on {n} strands"
        return parse(text, n)

    monkeypatch.setattr(cli, "parse_braid_word", guarded)
    for argv in (
        ("clasp", "a1,2999999"),
        ("gamma", "a1,999999"),
        ("clasp", "s9999999"),
        ("clasp", "s99999999999999999999"),
        ("braid-eq", "s1", "a1,999999"),
        ("gamma", "-n", "8", "s1"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (65, "")
        assert "limit of 2372" in err
    assert run(capsys, "clasp", "a1,2")[0] == 0


def test_options_are_accepted_only_where_read(capsys, tmp_path):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"n": 3, "nu": {"1.2": 1}}))
    vector = str(path)
    for argv in (
        ("build", "-n", "3", vector),
        ("pc", "-n", "3", vector, "-i", "1", "-j", "2"),
        ("closure-eq", "-n", "3", vector, vector),
        ("tables", "-n", "3"),
        ("magnus", "--order", "weight-lex", "x1"),
        ("act", "--order", "weight-lex", "s1", "x1"),
        ("braid-eq", "--order", "weight-lex", "s1", "s1"),
        ("clasp", "--order", "weight-lex", "a1,2"),
        ("build", "--order", "weight-lex", vector),
        ("tables", "--order", "weight-lex"),
    ):
        assert run(capsys, *argv)[0] == 64, argv
    for argv in (
        ("basis", "-n", "3", "--order", "weight-revlex"),
        ("nf", "-n", "3", "--order", "weight-revlex", "x2 x1"),
        ("gamma", "-n", "3", "--order", "weight-revlex", "s1"),
        ("magnus", "-n", "2", "x1"),
        ("act", "-n", "3", "s1", "x1"),
        ("braid-eq", "-n", "3", "s1", "s1"),
        ("clasp", "-n", "3", "a1,2"),
        ("build", vector),
    ):
        assert run(capsys, *argv)[0] == 0, argv


# ---------------------------------------------------------------------------
# Grammar fuzz: every call returns a documented exit code and never raises.

_SUBCOMMANDS = ("basis", "magnus", "nf", "act", "gamma", "braid-eq", "clasp", "build",
                "pc", "closure-eq", "tables", "nope")
_ARITY = {"magnus": "w", "nf": "w", "act": "bw", "gamma": "b", "braid-eq": "bb",
          "clasp": "b", "build": "v", "pc": "v", "closure-eq": "vv"}
# the options each subcommand reads; pc needs -i and -j
_OPTIONS = {"basis": "nfo", "magnus": "nf", "nf": "nfo", "act": "nf", "gamma": "nfo",
            "braid-eq": "nf", "clasp": "nf", "build": "f", "pc": "fs", "closure-eq": "f",
            "tables": "ft"}
_SMALL = ("1", "2", "3", "4", "0")
_HUGE = ("9", "2999999", "99999999999999999999")
_SUFFIX = st.sampled_from(("", "", "^-1", "^2"))
# file contents, drawn as JSON text so that malformed files are drawn too
_VECTOR = st.one_of(
    st.builds(
        lambda n, nu: json.dumps({"n": n, "nu": nu}),
        st.sampled_from((3, 3, 4, 4, 1, 8, 10**20, 1.5, "3")),
        st.dictionaries(
            st.sampled_from(("1.2", "1.3", "2.3", "1.2.3", "1.3.2", "1.4", "2.4", "3.1", "x")),
            st.sampled_from((1, -2, 7, 0, 10**30, 1.5, True, "1")),
            max_size=3,
        ),
    ),
    st.sampled_from(("{broken", "[]", "null", '{"n": 3}', "")),
)


@st.composite
def cli_calls(draw):
    """An argv list whose items are strings or ("file", contents) pairs.

    A clean call is well formed for its subcommand, apart from the sizes of
    its indices, so that it reaches the computation; a noisy one may carry
    a malformed token, a foreign option or a missing or extra argument.
    """
    sub = draw(st.sampled_from(_SUBCOMMANDS))
    noisy = draw(st.integers(0, 3)) == 0

    def index(pool):
        return draw(st.sampled_from(pool[:4]) | st.sampled_from(pool))

    def suffix():
        return draw(st.sampled_from(("", "^-1", "^2") if noisy else ("", "^-1")))

    def braid():
        tokens = []
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.sampled_from("sa?" if noisy else "sa"))
            if kind == "s":
                tokens.append(f"s{index(_SMALL + _HUGE)}{suffix()}")
            elif kind == "a":
                i, j = index(_SMALL + _HUGE), index(_SMALL + _HUGE)
                if not noisy:
                    i, j = sorted((i, j), key=int)
                tokens.append(f"a{i},{j}{suffix()}")
            else:
                tokens.append(draw(st.sampled_from(("s", "a1", "x1", "s-1", "a1,", "s1^"))))
        return " ".join(tokens)

    def word():
        tokens = [f"x{index(_SMALL + _HUGE)}{suffix()}" for _ in range(draw(st.integers(0, 3)))]
        return " ".join(tokens + (draw(st.sampled_from(([], ["y1"], ["s1"]))) if noisy else []))

    kinds = _ARITY.get(sub, "")
    if noisy:
        kinds = draw(st.sampled_from((kinds, "", kinds + "b")))
    argv = [sub]
    for kind in kinds:
        argv.append({"b": braid, "w": word, "v": lambda: ("file", draw(_VECTOR))}[kind]())
    options = list(draw(st.lists(st.sampled_from(_OPTIONS.get(sub, "f")), max_size=3, unique=True)))
    if sub == "pc" and not (noisy and draw(st.booleans())):
        options += ["i", "j"]
    if noisy and draw(st.booleans()):
        options.append(draw(st.sampled_from("nofijst")))
    for option in options:
        argv += {
            "n": ["-n", draw(st.sampled_from(("3", "4", "2", "8", "99999999999999999999")
                                              + (("1", "0", "-1", "x") if noisy else ())))],
            "o": ["--order", draw(st.sampled_from(("weight-lex", "weight-revlex")
                                                  + (("bogus",) if noisy else ())))],
            "f": ["--format", draw(st.sampled_from(("text", "json") + (("xml",) if noisy else ())))],
            "i": ["-i", index(_SMALL + _HUGE)],
            "j": ["-j", index(_SMALL + ("-1",))],
            "s": ["--sign", draw(st.sampled_from(("1", "-1") + (("2",) if noisy else ())))],
            "t": ["--table", draw(st.sampled_from(("n4-closure-moves", "nope")))],
        }[option]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=250, deadline=None, derandomize=True)
@given(cli_calls())
@example(["clasp", "s99999999999999999999"])
@example(["clasp", "s9999999"])
@example(["gamma", "a1,999999"])
@example(["act", "a1,2999999", "x1"])
@example(["build", ("file", json.dumps({"n": 3, "nu": {"1.2": 10**30}}))])
@example(["build", ("file", json.dumps({"n": 3, "nu": {"1.3": 10**6}}))])
def test_cli_grammar_fuzz(fuzz_dir, argv):
    args = []
    for k, item in enumerate(argv):
        if isinstance(item, tuple):
            path = fuzz_dir / f"arg{k}.json"
            path.write_text(item[1])
            item = str(path)
        args.append(item)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    assert code in (0, 1, 2, 64, 65), (args, code)

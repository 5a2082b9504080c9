import importlib
import json
import sys

import pytest

from cuspidal.blowup import build_sequence, transform_form
from cuspidal.cli import main
from cuspidal.errors import (CuspidalError, IndexOutOfRange, InputError,
                             NotDicritical, NotInSemigroup, NotUniqueRange,
                             QAboveOrder, VerificationFailure)
from cuspidal.forms import OneForm, Region, initial_part
from cuspidal.jsonio import parse_curve, parse_form
from cuspidal.rationals import rat, rat_from_str
from cuspidal.semigroup import (PuiseuxPair, minimal_b_representation,
                                represent)
from cuspidal.semimodule import (GammaSemimodule, level_set, limits,
                                 minimal_basis, ray_level_set)
from cuspidal.semiroot import (semiroot, solve_invariant_branch,
                               verify_main_theorem)
from cuspidal.series import PuiseuxCurve
from cuspidal.stdbasis import compute_standard_basis, delorme_decompose

from oracles import no_digit_cap

CAP = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.fixture()
def corpus_dir(tmp_path):
    code = main(["seed-corpus", "--directory", str(tmp_path), "--count", "3",
                 "--output", str(tmp_path / "manifest.json")])
    assert code == 0
    return tmp_path


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_copair_example(capsys):
    code, out, _ = run(capsys, "semigroup", "--pair", "4,9", "--copair")
    assert code == 0
    assert json.loads(out) == {"copair": [3, 7]}


def test_semigroup_table(capsys):
    code, out, _ = run(capsys, "semigroup", "--pair", "5,11")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"pair": [5, 11], "conductor": 40,
                   "apery": [0, 11, 22, 33, 44]}


def test_standard_basis_of_seven_seventeen(capsys, corpus_dir):
    code, out, _ = run(capsys, "standard-basis",
                       "--curve", str(corpus_dir / "ex7_17.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == [7, 17, 37, 57]
    assert doc["t"] == [7, 17, 24, 38, 52]
    assert doc["u"] == [7, 24, 51, 71]
    assert len(doc["forms"]) == 4
    assert len(doc["delorme"]) == 6
    # every emitted form re-parses to a real OneForm
    for body in doc["forms"] + [doc["adjusted_form"]]:
        assert isinstance(parse_form(body), OneForm)


def test_output_is_byte_deterministic(capsys, corpus_dir):
    args = ("standard-basis", "--curve", str(corpus_dir / "ex5_11.json"))
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_inline_curve_and_delorme(capsys):
    inline = json.dumps({"n": 5, "m": 11,
                         "y": [[11, "1"], [12, "1"], [13, "1"]]})
    code, out, _ = run(capsys, "delorme", "--curve", inline,
                       "--i", "1", "--j", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["i"] == 1 and doc["j"] == 0
    assert doc["k"] == -1 and doc["vij"] == 21
    assert doc["coefficients"] == [[[1, 1, "-121"]],
                                   [[0, 1, "-5"], [2, 0, "55"]]]


def test_semimodule_from_generators(capsys):
    code, out, _ = run(capsys, "semimodule",
                       "--generators", "5,11,17,23,29")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == [5, 11, 17, 23, 29]
    assert doc["u"] == [5, 16, 22, 28, 34]
    assert doc["t"] == [5, 11, 16, 21, 26, 31]
    assert doc["increasing"] is True


def test_dicritical_check(capsys, corpus_dir):
    code, out, _ = run(capsys, "dicritical-check",
                       "--form", str(corpus_dir / "ex4_9_form.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["nu_E"] == 48
    assert doc["copair"] == [3, 7]
    assert doc["vertex"] == [3, 4]
    assert doc["totally_dicritical"] is True


def test_semiroots_listing(capsys, corpus_dir):
    code, out, _ = run(capsys, "semiroots",
                       "--curve", str(corpus_dir / "ex5_11.json"),
                       "--i", "2", "--a", "1,2")
    assert code == 0
    doc = json.loads(out)
    assert [sr["a"] for sr in doc["semiroots"]] == ["1", "2"]
    lead = doc["semiroots"][1]["parametrization"][:4]
    assert lead == [[11, "2"], [12, "4"], [13, "92/11"], [14, "2176/121"]]
    assert doc["semiroots"][0]["semimodule"] == [5, 11, 17]


def test_semiroots_print_coefficients_past_the_digit_cap(capsys):
    # the (5,11) omega_2 branch at a 61-digit parameter reaches
    # coefficients of more than 4300 digits, the default cap of str(int)
    curve = {"n": 5, "m": 11, "y": [[11, "1"], [12, "1"]]}
    a = "%d/%d" % (10 ** 60 + 7, 10 ** 60 + 9)
    code, out, err = run(capsys, "semiroots", "--curve", json.dumps(curve),
                         "--i", "2", "--a", a)
    assert (code, err) == (0, "")
    entries = json.loads(out)["semiroots"][0]["parametrization"]
    assert max(len(text) for _, text in entries) > 4300
    with no_digit_cap():
        printed = {k: rat_from_str(text) for k, text in entries}
    basis = compute_standard_basis(parse_curve(curve))
    assert printed == semiroot(basis, 2, rat_from_str(a)).curve.y.coeffs


def test_verify_all_semiroots(capsys, corpus_dir):
    code, out, _ = run(capsys, "verify",
                       "--curve", str(corpus_dir / "ex5_11.json"),
                       "--all-semiroots")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    seen = [(r["i"], r["a"]) for r in doc["reports"]]
    assert seen == [(i, a) for i in (1, 2, 3, 4)
                    for a in ("1", "2", "-1", "1/2")]
    assert all(r["pass"] for r in doc["reports"])


def test_verify_batch_keeps_order(capsys, corpus_dir):
    quasi = corpus_dir / "quasi.json"
    quasi.write_text(json.dumps({"n": 5, "m": 11, "y": [[11, "1"]]}))
    code, out, _ = run(capsys, "verify",
                       "--curve", str(quasi), str(quasi),
                       "--i", "1", "--a", "1")
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc, list) and len(doc) == 2
    assert doc[0] == doc[1]
    assert doc[0]["pass"] is True


def test_seed_corpus_round_trips(corpus_dir):
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    assert len(manifest["written"]) == 6
    for name in ("ex5_11.json", "ex7_17.json"):
        body = json.loads((corpus_dir / name).read_text())
        curve = parse_curve(body)
        assert curve.y.coeffs
    for k in range(3):
        body = json.loads((corpus_dir / ("rand_%03d.json" % k)).read_text())
        parse_curve(body)
    parse_form(json.loads((corpus_dir / "ex4_9_form.json").read_text()))


def test_exit_one_non_coprime(capsys):
    code, out, err = run(capsys, "semigroup", "--pair", "4,6", "--copair")
    assert code == 1 and out == ""
    assert "not coprime" in err


def test_exit_one_malformed_json(capsys):
    code, _, err = run(capsys, "standard-basis", "--curve", "{oops")
    assert code == 1
    assert "malformed JSON" in err


def test_exit_one_zero_leading_coefficient(capsys):
    inline = json.dumps({"n": 5, "m": 11, "y": [[11, "0"], [12, "1"]]})
    code, _, err = run(capsys, "standard-basis", "--curve", inline)
    assert code == 1
    assert "zero leading coefficient" in err


def test_exit_one_unknown_field(capsys):
    inline = json.dumps({"n": 5, "m": 11, "y": [[11, "1"]], "colour": "red"})
    code, _, err = run(capsys, "standard-basis", "--curve", inline)
    assert code == 1
    assert "unknown field" in err


@pytest.mark.parametrize("command, flag, body, rule", [
    ("standard-basis", "--curve", {"n": True, "m": 3, "y": [[3, "1"]]},
     "pair entries must be integers"),
    ("standard-basis", "--curve",
     {"n": 5, "m": 11, "y": [[11, "1"], [True, "1"]]}, "integer exponent"),
    ("dicritical-check", "--form",
     {"pair": [4, 9], "dx": [[True, 0, "1"]], "dy": []}, "integer exponents"),
], ids=["pair", "y", "form"])
def test_exit_one_bool_for_integer(capsys, command, flag, body, rule):
    # JSON true decodes to a Python int; it must not pass as 1
    code, _, err = run(capsys, command, flag, json.dumps(body))
    assert code == 1
    assert rule in err


@pytest.mark.parametrize("argv, rule", [
    (["semimodule", "--curve", {"n": 5, "m": 11, "y": 5}], "y must be a list"),
    (["semimodule", "--curve", {"n": 5, "m": 11, "y": None}],
     "y must be a list"),
    (["dicritical-check", "--form", {"pair": [4, 9], "dx": 5}],
     "dx must be a list"),
    (["dicritical-check", "--form", {"pair": [4, 9], "dy": None}],
     "dy must be a list"),
    (["semimodule", "--generators", "5,x"], "--generators wants integers"),
    (["semimodule", "--curve",
      {"n": 5, "m": 11, "y": [[11, "1"], [12, "1"], [12, "2"]]}],
     "duplicate"),
    (["dicritical-check", "--form",
      {"pair": [4, 9], "dx": [[1, 0, "1"], [1, 0, "2"]]}], "duplicate"),
    (["dicritical-check", "--form",
      {"pair": [4, 9], "dy": [[0, -1, "1"]]}], "negative exponent"),
    (["semimodule", "--curve", {"n": 5, "m": 11, "y": [[11, "x"]]}],
     "unreadable coefficient"),
    (["dicritical-check", "--form",
      {"pair": [4, 9], "dx": [[0, 0, "1/0"]]}], "unreadable coefficient"),
    (["semimodule", "--generators", "5,11,17", "--truncation", "3"],
     "--truncation needs --curve"),
    (["verify", "--curve", {"n": 5, "m": 11, "y": [[11, "1"]]},
      "--all-semiroots", "--i", "9", "--a", "7"],
     "--all-semiroots takes no --i or --a"),
    (["verify", "--curve", {"n": 2, "m": 3, "y": [[3, "1"], [40, "5"]]},
      "--i", "1", "--a", "1"], "y term t^40 at or above the truncation 14"),
    (["verify", "--curve",
      {"n": 2, "m": 3, "y": [[3, "1"], [25, "5"]], "truncation": 30},
      "--truncation", "20", "--i", "1", "--a", "1"],
     "y term t^25 at or above the truncation 20"),
    (["semigroup", "--pair", "5"], "--pair wants the form n,m"),
    (["semimodule"], "give exactly one of --curve or --generators"),
    (["semimodule", "--curve", {"n": 5, "m": 11, "y": [[11, "1"]]},
      "--generators", "5,11"], "give exactly one of --curve or --generators"),
    (["semimodule", "--generators", "5"], "--generators wants at least n,m"),
    (["verify", "--curve", {"n": 5, "m": 11, "y": [[11, "1"]]}, "--i", "1"],
     "verify wants --all-semiroots or both --i and --a"),
    (["standard-basis", "--curve", {"n": 5, "y": [[11, "1"]]}],
     "missing field 'm' in curve object"),
    (["standard-basis", "--curve", "list.json"],
     "curve object must be a JSON object"),
    (["dicritical-check", "--form", {"pair": [4]}],
     "form pair must be [n, m]"),
    pytest.param(["standard-basis", "--curve",
                  '{"n": 5, "m": 11, "y": [[11, "1"]], "truncation": %s}'
                  % ("7" * (CAP + 100))],
                 "Exceeds the limit (%d digits)" % CAP,
                 marks=pytest.mark.skipif(not CAP, reason="no digit cap")),
    (["seed-corpus", "--directory", "corp"],
     "cannot write 'corp/ex5_11.json': Is a directory"),
    (["standard-basis", "--curve", {"n": 1, "m": 2, "y": [[2, "1"]]}],
     "(1, 2) parametrizes a smooth branch"),
    (["standard-basis", "--curve",
      '{"n": 1, "m": %s, "y": [[%s, "1"]]}' % ("9" * 4000, "9" * 4000)],
     "(1, 99999999999999999999...) parametrizes a smooth branch"),
], ids=["y-int", "y-null", "dx-int", "dy-null", "generators",
        "y-duplicate", "dx-duplicate", "dy-negative", "y-unreadable",
        "dx-unreadable", "truncation-without-curve",
        "all-semiroots-with-i-a", "y-at-truncation", "y-at-override",
        "pair-one-entry", "semimodule-neither", "semimodule-both",
        "generators-one", "verify-i-without-a", "curve-without-m",
        "curve-not-an-object", "form-pair-one-entry", "truncation-over-cap",
        "corpus-file-is-a-directory", "smooth-branch", "smooth-branch-long"])
def test_exit_one_malformed_argument(capsys, tmp_path, monkeypatch, argv,
                                     rule):
    # run in a directory that holds a JSON file of a list and a corpus
    # directory whose ex5_11.json is itself a directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[1]")
    (tmp_path / "corp" / "ex5_11.json").mkdir(parents=True)
    argv = [a if isinstance(a, str) else json.dumps(a) for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert rule in err
    # a refusal echoes no argument whole
    assert len(err) <= 200


@pytest.mark.parametrize("argv, rule", [
    (["semiroots", "--curve", {"n": 5, "m": 11, "y": [[11, "1"]]},
      "--a", "1_0"], "unreadable parameter '1_0'"),
    (["semimodule", "--curve", {"n": 5, "m": 11, "y": [[11, "\uff11"]]}],
     "unreadable coefficient in y entry"),
    (["dicritical-check", "--form",
      {"pair": [4, 9], "dx": [[0, 0, "3/-4"]]}],
     "unreadable coefficient in dx entry"),
], ids=["underscore-parameter", "fullwidth-coefficient", "signed-denominator"])
def test_exit_one_rational_text_outside_the_grammar(capsys, argv, rule):
    # int() would read these as 10, 1 and -3/4; bad text is never coerced
    argv = [a if isinstance(a, str) else json.dumps(a) for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert rule in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no digit cap before CPython 3.11")
@pytest.mark.parametrize("where", ["parameter", "y", "dx", "dy"])
def test_exit_one_names_the_digit_cap_and_bounds_the_echo(capsys, where):
    # both readers of rational text, cli._parameter_list for --a and
    # jsonio._parse_entries for coefficients, forward rat_from_str's rule
    big = "7" * (sys.get_int_max_str_digits() + 700)
    curve = {"n": 5, "m": 11, "y": [[11, "1"], [12, "1"]]}
    if where == "parameter":
        argv = ["semiroots", "--curve", json.dumps(curve), "--a", "1," + big]
    elif where == "y":
        curve["y"][1][1] = big
        argv = ["semiroots", "--curve", json.dumps(curve)]
    else:
        form = {"pair": [4, 9], where: [[0, 0, "1/" + big]]}
        argv = ["dicritical-check", "--form", json.dumps(form)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "digit cap" in err
    assert all(len(line) < 200 for line in err.splitlines())


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no digit cap before CPython 3.11")
@pytest.mark.parametrize("argv", [
    ["standard-basis", "--curve", "ex5_11.json", "--truncation", "{big}"],
    ["semigroup", "--pair", "5,{big}"],
    ["semimodule", "--generators", "5,11,{big}"],
], ids=["flag", "pair", "generators"])
def test_exit_one_names_the_digit_cap_of_an_integer_argument(capsys, argv):
    # every integer argument goes through cli._integer, which refuses an
    # integer over the cap by naming the rule, not by echoing its digits
    big = "7" * (sys.get_int_max_str_digits() + 700)
    code, out, err = run(capsys, *[a.format(big=big) for a in argv])
    assert (code, out) == (1, "")
    assert "digit cap" in err
    assert all(len(line) < 200 for line in err.splitlines())


@pytest.mark.parametrize("argv, refusal", [
    (["delorme", "--curve", "x", "--i", "x", "--j", "1"],
     "cuspidal delorme: error: argument --i: invalid int value: 'x'\n"),
    (["semigroup", "--pair", "5,x"],
     "error: --pair wants two integers, got '5,x'\n"),
    (["semimodule", "--generators", "5,x"],
     "error: --generators wants integers, got '5,x'\n"),
], ids=["flag", "pair", "generators"])
def test_short_integer_refusals_keep_their_words(capsys, argv, refusal):
    assert run(capsys, *argv) == (1, "", refusal)


@pytest.mark.parametrize("argv, refusal", [
    (["semigroup", "--pair", "\uff15,11"],
     "error: --pair wants two integers, got '\uff15,11'\n"),
    (["semimodule", "--generators", "5,11,1_7"],
     "error: --generators wants integers, got '5,11,1_7'\n"),
    (["delorme", "--curve", "x", "--i", "1_0", "--j", "0"],
     "cuspidal delorme: error: argument --i: invalid int value: '1_0'\n"),
], ids=["fullwidth-pair", "underscore-generator", "underscore-flag"])
def test_integer_text_outside_the_grammar_is_refused(capsys, argv, refusal):
    # int() would read these as 5,11, 5,11,17 and 10; integer arguments
    # read the grammar of rational text
    assert run(capsys, *argv) == (1, "", refusal)


LONG = "x" * 5000


@pytest.mark.parametrize("argv, rule", [
    (["delorme", "--curve", "x", "--i", LONG, "--j", "0"],
     "invalid int value"),
    (["semigroup", "--pair", LONG + ",11"], "--pair wants two integers"),
    (["semimodule", "--generators", "5,11," + LONG],
     "--generators wants integers"),
    (["semiroots", "--curve", json.dumps({"n": 5, "m": 11, "y": [[11, "1"]]}),
      "--a", LONG], "unreadable parameter"),
    (["semiroots", "--curve",
      json.dumps({"n": 5, "m": 11, "y": [[11, "1"], [12, LONG]]})],
     "unreadable coefficient in y entry [12, "),
], ids=["flag", "pair", "generators", "parameter", "y"])
def test_refused_text_echoes_at_most_twenty_characters(capsys, argv, rule):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert rule in err and "...'" in err
    assert all(len(line) < 200 for line in err.splitlines())


NINES = "9" * 4000


@pytest.mark.parametrize("argv, rule", [
    (["standard-basis", "--curve", "{" + LONG],
     "malformed JSON in '{xxxxxxxxxxxxxxxxxxx...': "),
    (["standard-basis", "--curve", LONG + ".json"],
     "cannot read 'xxxxxxxxxxxxxxxxxxxx...': "),
    (["semigroup", "--pair", "5,11", "--output", LONG + "/x.json"],
     "cannot write 'xxxxxxxxxxxxxxxxxxxx...': it is a directory"),
    (["seed-corpus", "--directory", LONG, "--count", "0"],
     "cannot write 'xxxxxxxxxxxxxxxxxxxx...': "),
    (["standard-basis", "--curve",
      '{"n": 5, "m": 11, "y": [[11, "1"], [%s, "1"]]}' % NINES],
     "y term t^99999999999999999999... at or above the truncation 150"),
    (["dicritical-check", "--form",
      '{"pair": [4, 9], "dx": [[%s, 0, "1"], [%s, 0, "2"]]}' % (NINES, NINES)],
     "duplicate exponent in dx entry [99999999999999999999..., 0, '2']"),
    (["dicritical-check", "--form",
      '{"pair": [4, 9], "dy": [[0, -%s, "%s"]]}' % (NINES, LONG)],
     "negative exponent in dy entry [0, -9999999999999999999..., "
     "'xxxxxxxxxxxxxxxxxxxx...']"),
    (["dicritical-check", "--form",
      '{"pair": [4, 9], "dx": [[%s, 0, "z"]]}' % NINES],
     "unreadable coefficient in dx entry [99999999999999999999..., 0, 'z']"),
    (["standard-basis", "--curve",
      '{"n": 5, "m": 11, "y": [[11, "1"]], "%s": 1}' % LONG],
     "unknown field 'xxxxxxxxxxxxxxxxxxxx...' in curve object"),
    (["standard-basis", "--curve",
      '{"n": %s, "m": 11, "y": [[11, "1"]]}' % NINES],
     "invalid Puiseux pair (99999999999999999999..., 11): need 1 <= n <= m,"
     " got (99999999999999999999..., 11)"),
    (["standard-basis", "--curve", '{"n": 2, "m": %s, "y": [[%s, "1"]],'
      ' "truncation": 5}' % (NINES, NINES)],
     "truncation must be an integer >= 49999999999999999999... for the pair"
     " (2, 99999999999999999999...)"),
    (["semigroup", "--pair", NINES + ",5"],
     "need 1 <= n <= m, got (99999999999999999999..., 5)"),
    (["delorme", "--curve", '{"n": 5, "m": 11, "y": [[11, "1"]]}',
      "--i", NINES, "--j", "0"],
     "need 0 <= j <= i <= 0, got (99999999999999999999..., 0)"),
    (["semiroots", "--curve", '{"n": 5, "m": 11, "y": [[11, "1"]]}',
      "--i", NINES], "semiroot index 99999999999999999999... outside 1..1"),
], ids=["malformed-source", "missing-path", "output-path", "directory",
        "y-exponent", "dx-duplicate", "dy-negative", "dx-unreadable",
        "unknown-field", "json-pair", "truncation-floor", "pair-flag",
        "delorme-index", "semiroot-index"])
def test_long_paths_sources_and_exponents_are_echoed_cut(capsys, argv, rule):
    # every path, source, exponent and entry a refusal echoes is cut to
    # 20 characters and "...", however long the input was
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert rule in err
    assert all(len(line) < 200 for line in err.splitlines())


CHOICES = ("(choose from 'semigroup', 'semimodule', 'standard-basis',"
           " 'delorme', 'dicritical-check', 'semiroots', 'verify',"
           " 'seed-corpus')")
WORDS = " ".join(["x"] * 2500)


@pytest.mark.parametrize("argv, refusal", [
    ([LONG], "cuspidal: error: argument command: invalid choice:"
     " 'xxxxxxxxxxxxxxxxxxxx...' " + CHOICES),
    (["semigroup", "--pair", "5,11", LONG],
     "cuspidal: error: unrecognized arguments: xxxxxxxxxxxxxxxxxxxx..."),
    (["semigroup", "--copair=" + LONG], "cuspidal semigroup: error: argument"
     " --copair: ignored explicit argument 'xxxxxxxxxxxxxxxxxxxx...'"),
    (["nosuch"], "cuspidal: error: argument command: invalid choice:"
     " 'nosuch' " + CHOICES),
    (["semigroup", "--pair", "5,11", "a", "b", "c"],
     "cuspidal: error: unrecognized arguments: a b c"),
    (["semigroup", "--copair=1"], "cuspidal semigroup: error: argument"
     " --copair: ignored explicit argument '1'"),
    (["semigroup", "--pair", "5,11", "--bogus"],
     "cuspidal: error: unrecognized arguments: --bogus"),
    ([WORDS], "cuspidal: error: argument command: invalid choice:"
     " 'x x x x x x x x x x ...' " + CHOICES),
    (["semigroup", "--pair", "5,11", WORDS],
     "cuspidal: error: unrecognized arguments: x x x x x x x x x x ..."),
    (["semigroup", "--pair", "5,11"] + WORDS.split(),
     "cuspidal: error: unrecognized arguments: x x x x x x x x x x ..."),
    (["semigroup", "--copair=" + WORDS], "cuspidal semigroup: error: argument"
     " --copair: ignored explicit argument 'x x x x x x x x x x ...'"),
], ids=["long-choice", "long-extra", "long-explicit", "choice", "extra",
        "explicit", "option", "words-choice", "words-extra", "many-extras",
        "words-explicit"])
def test_argparse_refusals_echo_at_most_twenty_characters(capsys, argv,
                                                          refusal):
    # argparse builds these messages; the parser's error hook cuts what
    # they quote of argv, and a short refusal keeps its bytes
    assert run(capsys, *argv) == (1, "", refusal + "\n")


def test_unreadable_file_is_refused_without_a_traceback(capsys, tmp_path):
    source = tmp_path / "curve.json"
    source.write_bytes(b"\xff{")
    code, out, err = run(capsys, "standard-basis", "--curve", str(source))
    assert (code, out) == (1, "")
    assert err.endswith(": not UTF-8 text\n")


def test_internal_value_error_is_not_reported_as_bad_input(capsys,
                                                           monkeypatch):
    # main reports CuspidalError, InputError among them; a ValueError
    # raised after the input was read is a fault of the program and
    # propagates
    import cuspidal.cli as cli_mod

    def boom(basis, i, j):
        raise ValueError("boom")

    monkeypatch.setattr(cli_mod, "delorme_decompose", boom)
    inline = json.dumps({"n": 5, "m": 11, "y": [[11, "1"]]})
    with pytest.raises(ValueError, match="boom"):
        main(["delorme", "--curve", inline, "--i", "0", "--j", "0"])


P511 = PuiseuxPair(5, 11)


def basis511():
    return compute_standard_basis(PuiseuxCurve(P511, {11: 1, 12: 1, 13: 1}))


@pytest.mark.parametrize("build, rule", [
    (lambda: PuiseuxPair(4, 6), "pair (4, 6) is not coprime"),
    (lambda: PuiseuxPair(11, 5), "need 1 <= n <= m, got (11, 5)"),
    (lambda: PuiseuxCurve(P511, {11: 1}, 100),
     "truncation must be an integer >= 150 for the pair (5, 11)"),
    (lambda: PuiseuxCurve(P511, {11: 1, 150: 2}, 150),
     "y term t^150 at or above the truncation 150"),
    (lambda: GammaSemimodule(P511, (5, 11, 16)), "generator 16 is redundant:"
     " already in the semimodule of the previous ones"),
    (lambda: GammaSemimodule(P511, (11, 5)), "generators must be strictly"
     " increasing; call minimal_basis() to normalize"),
    (lambda: GammaSemimodule(P511, ()), "empty generator system"),
    (lambda: GammaSemimodule(P511, (-1, 5)),
     "generators must be non-negative"),
    (lambda: minimal_basis(P511, ()), "empty generator system"),
    (lambda: minimal_basis(P511, (5, -1)), "generators must be non-negative"),
    (lambda: level_set(GammaSemimodule(P511, (5, 11)), -1),
     "level index must be >= 0"),
    (lambda: OneForm.from_cloud(P511, {(0, 1): (1, 0)}),
     "mu at alpha=0 is not a regular form"),
    (lambda: OneForm.from_cloud(P511, {(1, 0): (0, 1)}),
     "zeta at beta=0 is not a regular form"),
    (lambda: transform_form(build_sequence(P511), OneForm(PuiseuxPair(4, 9)),
                            0), "form lives at pair (4, 9), not (5, 11)"),
    (lambda: rat_from_str("1_0"), "not a rational: '1_0'"),
    (lambda: rat_from_str("1/0"), "zero denominator in '1/0'"),
    (lambda: rat_from_str(" 3 / 00 "), "zero denominator in ' 3 / 00 '"),
    pytest.param(lambda: rat_from_str("9" * (CAP + 1)),
                 "over the digit cap: an integer of more than %d digits in"
                 " '99999999999999999999...'" % CAP,
                 marks=pytest.mark.skipif(not CAP, reason="no digit cap")),
    (lambda: PuiseuxPair(True, 2), "pair entries must be integers"),
    (lambda: PuiseuxPair(5.0, 11), "pair entries must be integers"),
    (lambda: PuiseuxCurve(P511, {11: 1, 12.5: 1}),
     "y exponents must be integers"),
    (lambda: PuiseuxCurve(P511, {11: 1, 12: True}),
     "y coefficients must be rationals"),
    (lambda: GammaSemimodule(P511, (5.9, 11)), "generators must be integers"),
    (lambda: GammaSemimodule(P511, (True, 11)), "generators must be integers"),
    (lambda: minimal_basis(P511, [5.5, 11]), "generators must be integers"),
    (lambda: minimal_basis(P511, ["5", 11]), "generators must be integers"),
    (lambda: minimal_basis(P511, [[5], 11]), "generators must be integers"),
    (lambda: Region(PuiseuxPair(4, 9), (1.7, 2)),
     "region base must be two integers"),
    (lambda: basis511().form(1.5), "form index must be an integer"),
    (lambda: basis511().form(True), "form index must be an integer"),
    (lambda: delorme_decompose(basis511(), 1.0, 0),
     "Delorme index must be an integer"),
    (lambda: delorme_decompose(basis511(), 1, False),
     "Delorme index must be an integer"),
    (lambda: limits(GammaSemimodule(P511, (5, 11)), 0.5),
     "limits index must be an integer"),
    (lambda: transform_form(build_sequence(P511), OneForm(P511), True),
     "step index must be an integer"),
    (lambda: verify_main_theorem(basis511(), 2.0, 1),
     "semiroot index must be an integer"),
    (lambda: verify_main_theorem(basis511(), True, 1),
     "semiroot index must be an integer"),
    (lambda: semiroot(basis511(), 1, 0.5),
     "branch parameter a must be a rational"),
    (lambda: semiroot(basis511(), 1, True),
     "branch parameter a must be a rational"),
    (lambda: verify_main_theorem(basis511(), 1, 0.5),
     "branch parameter a must be a rational"),
    (lambda: solve_invariant_branch(basis511().form(1), "1"),
     "branch parameter a must be a rational"),
    (lambda: solve_invariant_branch(basis511().form(2), 1, 150.0),
     "truncation must be an integer"),
    (lambda: solve_invariant_branch(basis511().form(2), 1, 2.5),
     "truncation must be an integer"),
    (lambda: solve_invariant_branch(basis511().form(2), 1, "150"),
     "truncation must be an integer"),
    # refused before the dicriticalness walk, which this form fails
    (lambda: solve_invariant_branch(OneForm(P511, A={(0, 0): rat(1)}), 1,
                                    True), "truncation must be an integer"),
    (lambda: solve_invariant_branch(OneForm(P511, A={(0, 0): rat(1)}), 1,
                                    100),
     "truncation must be an integer >= 150 for the pair (5, 11)"),
], ids=["not-coprime", "pair-order", "truncation-floor", "term-at-T",
        "redundant", "unsorted", "empty", "negative", "basis-empty",
        "basis-negative", "level-index", "mu-pole", "zeta-pole",
        "blowup-pair", "rational-text", "zero-denominator",
        "spaced-zero-denominator", "digit-cap", "bool-pair-entry",
        "float-pair-entry", "float-exponent", "bool-coefficient",
        "float-generator", "bool-generator", "float-basis-generator",
        "text-basis-generator", "unhashable-basis-generator",
        "float-region-base", "float-form-index", "bool-form-index",
        "float-delorme-index", "bool-delorme-index", "float-limits-index",
        "bool-blowup-step", "float-semiroot-index", "bool-semiroot-index",
        "float-parameter", "bool-parameter", "float-verify-parameter",
        "text-branch-parameter", "float-branch-truncation",
        "fractional-branch-truncation", "text-branch-truncation",
        "bool-branch-truncation", "branch-truncation-floor"])
def test_every_input_rule_raises_input_error(build, rule):
    # the owner of each rule raises the one refusal type, which main
    # reports as a CuspidalError and which is a ValueError as well
    with pytest.raises(InputError) as caught:
        build()
    assert str(caught.value) == rule
    assert isinstance(caught.value, CuspidalError)
    assert isinstance(caught.value, ValueError)


@pytest.mark.parametrize("build", [
    lambda b: semiroot(b, b.s_index + 1, 0.5),
    lambda b: verify_main_theorem(b, b.s_index + 1, True),
], ids=["semiroot", "verify"])
def test_bad_parameter_is_refused_before_the_adjustment(build):
    # the parameter rule runs before omega_{s+1} is built
    basis = basis511()
    with pytest.raises(InputError, match="branch parameter a must be"):
        build(basis)
    assert basis.adjusted is None


BIG = 10 ** 4999  # 5,000 digits, over the interpreter's digit cap
DX = OneForm(P511, {(0, 0): 1})
SM5 = GammaSemimodule(P511, (5, 11, 17, 23, 29))


@pytest.mark.parametrize("build, kind", [
    (lambda: GammaSemimodule(P511, (5, 11, BIG)), InputError),
    (lambda: represent(P511, BIG), NotUniqueRange),
    (lambda: minimal_b_representation(P511, -BIG), NotInSemigroup),
    (lambda: limits(GammaSemimodule(P511, (5, 11)), BIG), IndexOutOfRange),
    (lambda: initial_part(DX, BIG), QAboveOrder),
    (lambda: transform_form(build_sequence(P511), DX, BIG), IndexOutOfRange),
    (lambda: initial_part(DX, rat(BIG, 3)), QAboveOrder),
    (lambda: compute_standard_basis(PuiseuxCurve(P511, {11: 1})).form(9.5),
     IndexOutOfRange),
    (lambda: limits(GammaSemimodule(P511, (5, 11)), 7.5), IndexOutOfRange),
    (lambda: initial_part(DX, 30.5), QAboveOrder),
    (lambda: transform_form(build_sequence(P511), DX, 9.5), IndexOutOfRange),
    (lambda: SM5.truncated(-3), IndexOutOfRange),
    (lambda: SM5.truncated(-2), IndexOutOfRange),
    (lambda: SM5.truncated(99), IndexOutOfRange),
    (lambda: SM5.truncated(BIG), IndexOutOfRange),
    (lambda: SM5.truncated(True), IndexOutOfRange),
    (lambda: SM5.truncated(1.5), IndexOutOfRange),
    (lambda: PuiseuxCurve(P511, {11: 1}).y_power(-1), IndexOutOfRange),
    (lambda: PuiseuxCurve(P511, {11: 1}).y_power(2.5), IndexOutOfRange),
    (lambda: PuiseuxCurve(P511, {11: 1}).y_power(True), IndexOutOfRange),
    (lambda: represent(P511, 2.5), InputError),
    (lambda: represent(P511, True), InputError),
    (lambda: level_set(SM5, 1.5), InputError),
    (lambda: level_set(SM5, True), InputError),
    (lambda: ray_level_set(P511, 5, 1.5), InputError),
], ids=["redundant", "represent", "minimal-b", "limits", "initial-part",
        "blowup-step", "initial-part-rational", "float-form-index",
        "float-limits-index", "float-initial-part", "float-blowup-step",
        "negative-truncation", "empty-truncation", "truncation-past-s",
        "huge-truncation", "bool-truncation", "float-truncation",
        "negative-y-power", "float-y-power", "bool-y-power",
        "float-represent", "bool-represent", "float-level-index",
        "bool-level-index", "float-ray-level-index"])
def test_library_refusals_cut_the_integers_they_echo(build, kind):
    # each site formats the caller's number with rationals.cut, which
    # fails on none: %d would raise the interpreter's bare ValueError past
    # the digit cap, and a float would raise a bare TypeError there
    with pytest.raises(kind) as caught:
        build()
    assert type(caught.value) is kind
    assert len(str(caught.value)) <= 100


@pytest.mark.parametrize("build, kind", [
    (lambda: solve_invariant_branch(OneForm(P511, {(BIG, 0): 1}), 1),
     NotDicritical),
    (lambda: transform_form(build_sequence(P511),
                            OneForm(PuiseuxPair(2, BIG + 1)), 0), InputError),
], ids=["branch-form", "blowup-pair"])
def test_library_refusals_echo_no_form(build, kind):
    # a refusal names the rule and cuts the pairs it echoes; a form's
    # repr, or a pair's %r, past the digit cap would raise a bare
    # ValueError in place of the refusal
    with pytest.raises(kind) as caught:
        build()
    assert type(caught.value) is kind
    assert len(str(caught.value)) <= 100


@pytest.mark.parametrize("argv", [
    ["semiroots", "--a", "1_0"],
    ["verify", "--i", "1", "--a", "1_0"],
], ids=["semiroots", "verify"])
def test_bad_parameter_is_refused_before_the_construction(capsys, monkeypatch,
                                                          argv):
    import cuspidal.cli as cli_mod
    calls = []
    original = cli_mod.compute_standard_basis

    def counted(curve):
        calls.append(curve)
        return original(curve)

    monkeypatch.setattr(cli_mod, "compute_standard_basis", counted)
    inline = json.dumps({"n": 7, "m": 17,
                         "y": [[17, "1"], [30, "1"], [33, "1"], [36, "1"]]})
    code, out, err = run(capsys, *argv, "--curve", inline)
    assert (code, out) == (1, "")
    assert "unreadable parameter '1_0'" in err
    assert calls == []


@pytest.mark.parametrize("name", ["ex5_11", "ex7_17"])
def test_semimodule_of_curve_matches_its_generators(capsys, corpus_dir, name):
    code, from_curve, _ = run(capsys, "semimodule",
                              "--curve", str(corpus_dir / (name + ".json")))
    assert code == 0
    lam = json.loads(from_curve)["lambda"]
    code, from_generators, _ = run(capsys, "semimodule", "--generators",
                                   ",".join(str(v) for v in lam))
    assert code == 0
    assert from_generators == from_curve


@pytest.mark.parametrize("a", ["", ","], ids=["empty", "comma"])
def test_empty_parameter_is_refused_as_unreadable(capsys, a):
    # str.split(",") always yields a chunk, so an empty list never reaches
    # the solver: its first empty chunk is refused
    inline = json.dumps({"n": 5, "m": 11, "y": [[11, "1"]]})
    assert run(capsys, "semiroots", "--curve", inline, "--a", a) == \
        (1, "", "error: unreadable parameter ''\n")


@pytest.mark.parametrize("trunc", [150.5, True], ids=["float", "bool"])
def test_json_truncation_must_be_an_integer(capsys, trunc):
    inline = json.dumps({"n": 5, "m": 11, "y": [[11, "1"]],
                         "truncation": trunc})
    assert run(capsys, "standard-basis", "--curve", inline) == \
        (1, "", "error: truncation must be an integer\n")


def test_exit_one_truncation_below_floor(capsys):
    inline = json.dumps({"n": 5, "m": 11, "y": [[11, "1"]]})
    code, _, err = run(capsys, "standard-basis", "--curve", inline,
                       "--truncation", "60")
    assert code == 1
    assert "truncation" in err


def test_parser_is_built_once(capsys, monkeypatch):
    import argparse
    run(capsys, "semigroup", "--pair", "4,9")
    built = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    code, out, _ = run(capsys, "semigroup", "--pair", "4,9", "--copair")
    assert code == 0
    assert json.loads(out) == {"copair": [3, 7]}
    assert built == []


def test_exit_one_usage_error(capsys):
    code, _, err = run(capsys, "semigroup")
    assert code == 1
    assert "--pair" in err


def test_exit_two_serializes_the_failure(capsys, monkeypatch):
    import cuspidal.cli as cli_mod

    def boom(basis, i, a):
        raise VerificationFailure("synthetic failure", report={
            "i": i, "a": "1", "pass": False,
            "checks": {"invariance": False}})

    monkeypatch.setattr(cli_mod, "verify_main_theorem", boom)
    inline = json.dumps({"n": 5, "m": 11, "y": [[11, "1"]]})
    code, out, _ = run(capsys, "verify", "--curve", inline,
                       "--i", "1", "--a", "1")
    assert code == 2
    doc = json.loads(out)
    assert doc["pass"] is False
    assert doc["error"] == "synthetic failure"
    assert doc["report"]["checks"] == [{"name": "invariance", "pass": False}]


def _losing(monkeypatch):
    """Make every branch's standard basis lose its last generator, so the
    semiroot check fails in semiroots and verify alike."""
    semiroot_mod = importlib.import_module("cuspidal.semiroot")
    original = semiroot_mod.compute_standard_basis

    def losing(curve):
        basis = original(curve)
        basis.semimodule = basis.semimodule.truncated(basis.s_index - 1)
        return basis

    monkeypatch.setattr(semiroot_mod, "compute_standard_basis", losing)


def test_exit_two_prints_the_semiroot_failure_report(capsys, monkeypatch,
                                                     corpus_dir):
    # verify's report of the one failed check: the branch's standard
    # basis is made to lose its last generator
    curve = str(corpus_dir / "ex5_11.json")
    code, out, _ = run(capsys, "semiroots", "--curve", curve,
                       "--i", "2", "--a", "1")
    assert code == 0
    branch = json.loads(out)["semiroots"][0]["parametrization"]
    _losing(monkeypatch)
    code, out, _ = run(capsys, "semiroots", "--curve", curve,
                       "--i", "2", "--a", "1")
    assert code == 2
    doc = json.loads(out)
    assert doc == {
        "pass": False,
        "error": "semiroot check failed at i=2, a=1: "
                 "standard_basis_semimodule",
        "report": {"i": 2, "a": "1", "parametrization": branch,
                   "semimodule": [5, 11], "expected": [5, 11, 17],
                   "pass": False,
                   "checks": [{"name": "standard_basis_semimodule",
                               "pass": False}]}}
    assert list(doc) == ["pass", "error", "report"]
    assert list(doc["report"]) == ["i", "a", "parametrization", "semimodule",
                                   "expected", "pass", "checks"]


def test_semiroots_and_verify_fail_with_one_report_shape(capsys, monkeypatch,
                                                         corpus_dir):
    _losing(monkeypatch)
    curve = str(corpus_dir / "ex5_11.json")
    runs = [run(capsys, command, "--curve", curve, "--i", "2", "--a", "1")
            for command in ("semiroots", "verify")]
    assert [code for code, _, _ in runs] == [2, 2]
    docs = [json.loads(out) for _, out, _ in runs]
    for doc in docs:
        assert list(doc) == ["pass", "error", "report"]
        assert list(doc["report"]) == ["i", "a", "parametrization",
                                       "semimodule", "expected", "pass",
                                       "checks"]
        assert {"name": "standard_basis_semimodule", "pass": False} in \
            doc["report"]["checks"]
    semiroots, verify = (doc["report"] for doc in docs)
    assert len(semiroots["checks"]) == 1 and len(verify["checks"]) == 5
    assert {k: v for k, v in semiroots.items() if k != "checks"} == \
        {k: v for k, v in verify.items() if k != "checks"}


def test_output_file_option(capsys, tmp_path):
    target = tmp_path / "copair.json"
    code, out, _ = run(capsys, "semigroup", "--pair", "5,11", "--copair",
                       "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text()) == {"copair": [4, 9]}


def test_exit_one_on_unwritable_output(capsys, tmp_path, monkeypatch):
    import cuspidal.cli as cli_mod
    missing = str(tmp_path / "missing" / "x.json")
    code, out, err = run(capsys, "semigroup", "--pair", "3,5",
                         "--output", missing)
    assert (code, out) == (1, "") and "cannot write" in err

    def no_work(curve):
        raise AssertionError("ran before checking --output")

    monkeypatch.setattr(cli_mod, "compute_standard_basis", no_work)
    inline = json.dumps({"n": 5, "m": 11, "y": [[11, "1"]]})
    for target in (missing, str(tmp_path)):
        code, _, err = run(capsys, "verify", "--curve", inline,
                           "--all-semiroots", "--output", target)
        assert code == 1 and "cannot write" in err

    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, err = run(capsys, "seed-corpus", "--directory",
                       str(blocker / "sub"))
    assert code == 1 and "cannot write" in err
    code, _, err = run(capsys, "seed-corpus", "--directory",
                       str(tmp_path / "neg"), "--count", "-3")
    assert code == 1 and "--count must be >= 0" in err
    assert not (tmp_path / "neg").exists()

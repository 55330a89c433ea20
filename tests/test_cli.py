"""End-to-end CLI behavior: run, verify-suite, exit codes, report shape."""

import json

import pytest

from gradmult.cli import main
from gradmult.reports import canonical_json, run_script, strip_volatile
from gradmult.script import parse_script

CLEAN = """\
ring S vars [x, y] field qq relations [];
ideal I = [x, y^2];
cmd degseq I;
cmd transfer I kind=colength;
"""

COUNTER = """\
ring S vars [X, Y] field qq relations [X*Y, X^2];
elem u = X + Y^2;
ideal U = [u];
cmd samuel u mode=both;
cmd transfer U kind=colength;
"""

EXHAUSTED = """\
ring S vars [x, y] field qq relations [];
ideal I = [x, y^2];
cmd fc_seq I I retries=0;
"""

USAGE = """\
ring S vars [x, y] field qq relations [];
cmd bogus x;
"""

# packable generators whose S-pair shift takes an exponent to the packing
# guard bit: the kernel raises ArithmeticError, a kernel fault rather than
# bad input
INTERNAL = """\
ring S vars [x, y, z] field qq relations [];
ideal I = [x^2147483646*y + z^2147483647, x*z - y];
cmd degseq I;
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_run_clean_script(tmp_path, capsys):
    rc = main(["run", _write(tmp_path, "clean.gm", CLEAN)])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["script"] == "clean.gm"
    assert doc["ring"]["vars"] == ["x", "y"]
    assert doc["summary"]["commands"] == 2
    assert doc["summary"]["ok"] == 2
    assert doc["summary"]["agreements_checked"] == 2
    assert doc["summary"]["agreements_passed"] == 2
    assert doc["summary"]["exit_code"] == 0
    degseq = doc["reports"][0]
    assert degseq["status"] == "ok"
    assert degseq["values"]["degree_sequence"] == [1, 2]
    assert degseq["agree"] is True
    assert "wall_time_ms" in degseq


def test_run_canonical_and_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "clean.gm", CLEAN)
    main(["run", path])
    first = capsys.readouterr().out
    main(["run", path])
    second = capsys.readouterr().out
    assert first.endswith("\n")
    # canonical form: reserializing with sorted keys reproduces the bytes
    assert first == json.dumps(json.loads(first), sort_keys=True, indent=2) + "\n"
    a = strip_volatile(json.loads(first))
    b = strip_volatile(json.loads(second))
    assert canonical_json(a) == canonical_json(b)


def test_run_json_output_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    rc = main(["run", _write(tmp_path, "clean.gm", CLEAN), "--json", str(out_file)])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert out_file.read_text() == stdout


def test_run_field_and_seed_options(tmp_path, capsys):
    path = _write(tmp_path, "clean.gm", CLEAN)
    rc = main(["run", path, "--field", "fp:32003", "--seed", "7"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["field"] == "fp(32003)"
    assert doc["seed"] == 7


def test_exit_code_hypothesis_refuted(tmp_path, capsys):
    rc = main(["run", _write(tmp_path, "counter.gm", COUNTER)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 2
    samuel = doc["reports"][0]
    assert samuel["values"]["fastpath"] == "HYPOTHESIS-FAIL"
    assert samuel["values"]["oracle"] == 2
    assert samuel["agree"] is False
    transfer = doc["reports"][1]
    assert transfer["values"]["lhs"] == 3
    assert transfer["values"]["rhs"] == "INFINITE"
    assert transfer["agree"] is False


def test_exit_code_inconclusive(tmp_path, capsys):
    rc = main(["run", _write(tmp_path, "exhausted.gm", EXHAUSTED)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 3
    assert doc["reports"][0]["error"]["code"] == "SEARCH-EXHAUSTED"


def test_exit_code_usage_error(tmp_path, capsys):
    rc = main(["run", _write(tmp_path, "usage.gm", USAGE)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["reports"][0]["error"]["code"] == "USAGE-ERROR"


def test_mixed_bad_window_is_a_usage_error(tmp_path, capsys):
    text = "ring S vars [x, y] field qq relations [];\nideal I = [x, y];\n"
    # a reversed window, and a bare number where a pair belongs
    for option in ("n0=(5,2)", "n0=3"):
        rc = main(["run", _write(tmp_path, "window.gm", text + f"cmd mixed I {option};\n")])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert doc["reports"][0]["error"]["code"] == "USAGE-ERROR"
    # a one-point axis is a valid window whose fit fails: a refuted hypothesis
    rc = main(["run", _write(tmp_path, "thin.gm", text + "cmd mixed I n=(3,3);\n")])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert doc["reports"][0]["error"]["code"] == "FIT-MISMATCH"


def test_exit_code_internal_error(tmp_path, capsys):
    rc = main(["run", _write(tmp_path, "internal.gm", INTERNAL)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 4
    assert doc["summary"]["exit_code"] == 4
    assert doc["reports"][0]["error"]["code"] == "INTERNAL-ERROR"
    # a kernel fault outranks a usage error elsewhere in the script
    assert main(["run", _write(tmp_path, "both.gm", INTERNAL + "cmd bogus x;\n")]) == 4
    capsys.readouterr()


def test_transfer_graded_mult_runs(tmp_path, capsys):
    text = "ring S vars [x, y] field qq relations [];\nideal P = [x^2, y^3];\n"
    rc = main(["run", _write(tmp_path, "graded.gm", text + "cmd transfer P kind=graded-mult;\n")])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["reports"][0]["values"] == {"equal": True, "kind": "graded-mult", "lhs": 6, "rhs": 6}


def test_exit_code_priority(tmp_path, capsys):
    # usage beats hypothesis, hypothesis beats inconclusive
    both = COUNTER + "cmd bogus u;\n"
    assert main(["run", _write(tmp_path, "p1.gm", both)]) == 1
    capsys.readouterr()
    mixed = COUNTER + "ideal K = [X];\n"
    mixed = mixed.replace("cmd samuel", "cmd fc_seq U U retries=0;\ncmd samuel")
    assert main(["run", _write(tmp_path, "p2.gm", mixed)]) == 2
    capsys.readouterr()


def test_run_parse_failure(tmp_path, capsys):
    rc = main(["run", _write(tmp_path, "broken.gm", "ring S vars [] field qq relations [];")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "distinct and nonempty" in err


def test_run_missing_file(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "absent.gm")])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


def test_run_bad_field_override(tmp_path, capsys):
    rc = main(["run", _write(tmp_path, "clean.gm", CLEAN), "--field", "gf:4"])
    assert rc == 1
    assert "unrecognized field" in capsys.readouterr().err


def test_verify_suite(capsys):
    rc = main(["verify-suite"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "5/5 fixtures passed" in out
    assert out.count("PASS") == 5


def test_api_round_trip_matches_cli(tmp_path, capsys):
    doc_api, rc_api = run_script(parse_script(CLEAN), name="clean.gm")
    rc_cli = main(["run", _write(tmp_path, "clean.gm", CLEAN)])
    doc_cli = json.loads(capsys.readouterr().out)
    assert rc_api == rc_cli == 0
    assert strip_volatile(doc_api) == strip_volatile(doc_cli)


@pytest.mark.parametrize(
    "ideal",
    ["[x^2147483648, y]", "[x^2147483648*y + x, y^2]", "[x^1073741824 * x^1073741824, y]"],
)
def test_run_exponent_past_the_kernel_range(tmp_path, capsys, ideal):
    text = f"ring S vars [x, y] field fp(32003) relations [];\nideal J = {ideal};\ncmd degseq J;\n"
    rc = main(["run", _write(tmp_path, "huge.gm", text)])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert "exponent 2147483648 is too large" in err


def test_run_large_exponent_reads_its_degree_sequence(tmp_path, capsys):
    # the minimal basis comes off two reduced bases, so its cost does not grow
    # with the number of monomials below the top generator degree
    text = "ring S vars [x, y] field fp(32003) relations [];\nideal J = [x^65536, y];\ncmd degseq J;\n"
    rc = main(["run", _write(tmp_path, "large.gm", text)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    values = doc["reports"][0]["values"]
    assert values["degree_sequence"] == [1, 65536]
    assert values["initial_minimal_generators"] == 2


@pytest.mark.parametrize("command", [
    "cmd min_reduction I seed=(1,2)",
    "cmd min_reduction I seed=x",
    "cmd rees_mult I mode=fastpath seed=abc",
    "cmd fc_seq I I retries=(1,2)",
    "cmd fc_seq I I retries=abc",
    "cmd fc_seq I I retries=-1",
    "cmd fc_seq I I seed=(1,2)",
])
def test_bad_seed_or_retries_is_a_usage_error(tmp_path, capsys, command):
    text = "ring S vars [x, y] field qq relations [];\nideal I = [x, y^2];\n"
    rc = main(["run", _write(tmp_path, "options.gm", text + command + ";\n")])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["reports"][0]["error"]["code"] == "USAGE-ERROR"


def test_a_negative_seed_is_taken(tmp_path, capsys):
    text = "ring S vars [x, y] field qq relations [];\nideal I = [x, y^2];\ncmd min_reduction I seed=-3;\n"
    rc = main(["run", _write(tmp_path, "options.gm", text)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["reports"][0]["values"]["reduction_witness"] == 0


def test_quotient_route_reads_the_series(tmp_path, capsys):
    # graded-mult of a non-homogeneous ideal, and mixed_quotient, answer with
    # no window option; a window given to either is a usage error, since
    # neither reads one
    text = (
        "ring S vars [x, y] field fp(32003) relations [];\n"
        "ideal P = [x + y^2];\nideal M = [x, y];\n"
        "cmd transfer P kind=graded-mult;\n"
        "cmd mixed_quotient M x;\n"
    )
    rc = main(["run", _write(tmp_path, "quotient.gm", text)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    report = doc["reports"][0]
    assert report["values"] == {"equal": True, "kind": "graded-mult", "lhs": 1, "rhs": 1}
    report = doc["reports"][1]
    assert report["values"]["value"] == report["values"]["order_route"] == 1
    assert report["agree"] is True
    for command in ("cmd transfer P kind=graded-mult window=(1,3)", "cmd mixed_quotient M x window=(1,3)"):
        rc = main(["run", _write(tmp_path, "quotient.gm", text + command + ";\n")])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert [r["status"] for r in doc["reports"]] == ["ok", "ok", "error"]
        assert doc["reports"][2]["error"]["code"] == "USAGE-ERROR"


@pytest.mark.parametrize("command, message", [
    # a misspelled option name: the routes it meant to pick would all run
    ("cmd rees_mult I mdoe=fastpath", "rees_mult reads no option 'mdoe'"),
    ("cmd min_reduction I sead=3", "min_reduction reads no option 'sead'"),
    # an option the command never reads
    ("cmd degseq I mode=both", "degseq reads no option 'mode'"),
    ("cmd fc_seq I I window=(1,5)", "fc_seq reads no option 'window'"),
    ("cmd transfer I kind=colength window=(1,5)", "transfer kind=colength reads no window"),
    # a misspelled value of a named choice: the oracles would run
    ("cmd invariance I I oracle=of", "oracle must be one of ('on', 'off')"),
    ("cmd invariance I I oracle=1", "oracle must be one of ('on', 'off')"),
    ("cmd samuel_domain I I domain=asserte", "domain must be one of ('asserted',)"),
])
def test_unread_or_misspelled_options_are_usage_errors(tmp_path, capsys, command, message):
    text = "ring S vars [x, y] field qq relations [];\nideal I = [x, y^2];\n"
    rc = main(["run", _write(tmp_path, "options.gm", text + command + ";\n")])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    error = doc["reports"][0]["error"]
    assert (error["code"], error["message"]) == ("USAGE-ERROR", message)


def test_every_option_a_command_reads_is_taken(tmp_path, capsys):
    text = (
        "ring S vars [x, y] field qq relations [];\nideal I = [x, y^2];\n"
        "ideal E = [x, y^2, x*y];\nelem a = x;\nelem b = y;\n"
        "cmd invariance I E oracle=off seed=1;\n"
        "cmd invariance I E oracle=on;\n"
        "cmd rees_mult I mode=fastpath seed=2 window=(1,9);\n"
        "cmd samuel_domain I I domain=asserted mode=fastpath window=(1,9);\n"
        "cmd fc_seq I I seed=0 retries=4;\n"
        "cmd mixed I mode=oracle n0=(2,5) n=(2,5) seed=0;\n"
        "cmd samuel a b mode=oracle window=(1,9);\n"
        "cmd transfer I kind=samuel window=(1,9);\n"
    )
    rc = main(["run", _write(tmp_path, "options.gm", text)])
    doc = json.loads(capsys.readouterr().out)
    assert [r["status"] for r in doc["reports"]] == ["ok"] * 8
    assert rc == 0
    assert "rees_oracle_lhs" not in doc["reports"][0]["values"]
    assert doc["reports"][1]["values"]["rees_oracle_lhs"] == doc["reports"][1]["values"]["rees_fastpath_lhs"]

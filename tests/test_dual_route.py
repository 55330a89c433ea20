"""The dual-route commands through reports, in every mode.

samuel, samuel_domain and rees_mult each run a closed-form fast path, the
length oracle, or both.  The report must carry exactly the slots of the
routes that ran, and an agree field only when both did.
"""

import pytest

from gradmult.reports import run_script
from gradmult.script import parse_script

PLANE = """\
ring S vars [x, y] field fp(32003) relations [];
elem a = x;
elem b = y^2;
ideal I = [x, y^2];
ideal M = [x];
ideal N = [x^2, x*y];
"""

NONDOMAIN = """\
ring S vars [X, Y] field qq relations [X*Y, X^2];
elem u = X + Y^2;
"""

COMMANDS = {
    "samuel": "cmd samuel a b mode={mode};",
    "samuel_domain": "cmd samuel_domain I I domain=asserted mode={mode};",
    "rees_mult": "cmd rees_mult I mode={mode};",
}

FASTPATH_WITNESS = {
    "samuel": ("fastpath-thm-2.10", {"orders", "ring_multiplicity"}),
    "samuel_domain": (
        "fastpath-thm-2.8",
        {"degree_sequence", "ring_multiplicity", "reduction_witness"},
    ),
    "rees_mult": ("fastpath-cor-3.2(ii)", {"degree_sequence", "height", "ring_multiplicity"}),
}

ORACLE_WITNESS = {"window", "differences", "stable_from", "run_length"}
REES_ORACLE_EXTRA = {"presentation_dim", "route", "filtration"}

ROUTES = {"oracle": {"oracle"}, "fastpath": {"fastpath"}, "both": {"fastpath", "oracle"}}


def run_one(text):
    doc, rc = run_script(parse_script(text))
    (rep,) = doc["reports"]
    return rep, rc


@pytest.mark.parametrize("mode", list(ROUTES))
@pytest.mark.parametrize("op", list(COMMANDS))
def test_slots_follow_the_mode(op, mode):
    rep, rc = run_one(PLANE + COMMANDS[op].format(mode=mode))
    assert rep["status"] == "ok"
    assert rc == 0
    routes = ROUTES[mode]
    assert set(rep["values"]) == routes
    assert set(rep["methods"]) == routes
    assert set(rep["witnesses"]) == routes
    assert ("agree" in rep) == (mode == "both")
    if mode == "both":
        assert rep["agree"] is True
        assert rep["values"]["fastpath"] == rep["values"]["oracle"] == 2
    if "fastpath" in routes:
        method, keys = FASTPATH_WITNESS[op]
        assert rep["methods"]["fastpath"] == method
        assert set(rep["witnesses"]["fastpath"]) == keys
    if "oracle" in routes:
        assert rep["methods"]["oracle"] == "finite-difference-oracle"
        extra = REES_ORACLE_EXTRA if op == "rees_mult" else set()
        assert set(rep["witnesses"]["oracle"]) == ORACLE_WITNESS | extra


# (script, code of the refusal, exit code when only the fast path runs)
REFUSALS = {
    "samuel": (NONDOMAIN + "cmd samuel u mode={mode};", "HYPOTHESIS-FAIL", 2),
    "rees_mult": (PLANE + "cmd rees_mult N mode={mode};", "HYPOTHESIS-FAIL", 2),
    "samuel_domain": (
        PLANE + "cmd samuel_domain I M domain=asserted mode={mode};", "INCONCLUSIVE", 3,
    ),
}


@pytest.mark.parametrize("mode", ["fastpath", "both"])
@pytest.mark.parametrize("op", list(REFUSALS))
def test_fastpath_refusal_lands_in_its_slot(op, mode):
    text, code, alone_rc = REFUSALS[op]
    rep, rc = run_one(text.format(mode=mode))
    assert rep["status"] == "ok"
    assert rep["values"]["fastpath"] == code
    assert rep["witnesses"]["fastpath"]["code"] == code
    assert "fastpath" not in rep["methods"]
    assert set(rep["values"]) == ROUTES[mode]
    if mode == "both":
        # the oracle still reports, and a refusal never counts as agreement
        assert isinstance(rep["values"]["oracle"], int)
        assert rep["agree"] is False
        assert rc == 2
    else:
        assert "agree" not in rep
        assert rc == alone_rc


def test_mixed_both_finds_one_minimal_reduction(monkeypatch):
    # every type index reads the degree sequence of the first fast path's
    # reduction, so the search runs once, not once per index
    from gradmult import mixed_rees

    calls = []
    search = mixed_rees.find_minimal_reduction

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(mixed_rees, "find_minimal_reduction", counted)
    rep, rc = run_one(
        "ring S vars [x,y,z] field fp(32003) relations [];\n"
        "ideal I = [x^2, y^2, z^2, x*y, y*z];\n"
        "cmd mixed I mode=both;\n"
    )
    assert rc == 0
    assert rep["values"]["fastpath"] == {"0": 1, "1": 2, "2": 4}
    assert rep["agree"] is True
    assert len(calls) == 1

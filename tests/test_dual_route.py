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

# (xy, y^2, x^3) has the reduction (xy, y^2 + x^3), whose generators mix
# degrees: the search, drawing from one graded piece per generator, exhausts
EXHAUSTED = """\
ring S vars [x, y] field qq relations [];
ideal I = [x*y, y^2, x^3];
"""

# Thm 2.8 on a domain where the initial forms of the reduction's adjusted
# basis (x^2, xy and xy, y^2) are no system of parameters: its product 4
# would disagree with the oracle's 5, so the fast path refuses
THM28_NO_SOP = """\
ring S vars [x, y] field qq relations [];
ideal I = [x^2 + y^3, x*y];
ideal J = [x*y, y^2 + x^3];
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
    "rees_mult-exhausted": (EXHAUSTED + "cmd rees_mult I mode={mode};", "SEARCH-EXHAUSTED", 3),
    "samuel_domain": (
        PLANE + "cmd samuel_domain I M domain=asserted mode={mode};", "INCONCLUSIVE", 3,
    ),
    "samuel_domain-no-sop-I": (
        THM28_NO_SOP + "cmd samuel_domain I I domain=asserted mode={mode};", "HYPOTHESIS-FAIL", 2,
    ),
    "samuel_domain-no-sop-J": (
        THM28_NO_SOP + "cmd samuel_domain J J domain=asserted mode={mode};", "HYPOTHESIS-FAIL", 2,
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


def test_exhausted_search_lands_in_the_first_mixed_slot():
    # the table still reports; the refusal never counts as agreement
    rep, rc = run_one(EXHAUSTED + "cmd mixed I mode=both;")
    assert rep["status"] == "ok"
    assert rep["values"]["table"] == {"1,0": 1, "0,1": 2}
    assert rep["values"]["fastpath"] == {"fastpath[0]": "SEARCH-EXHAUSTED"}
    assert rep["witnesses"]["fastpath[0]"]["code"] == "SEARCH-EXHAUSTED"
    assert rep["agree"] is False
    assert rc == 2


def test_mixed_both_finds_one_minimal_reduction(monkeypatch):
    # every type index reads the search kept on the ideal, so it runs
    # once, not once per index
    from gradmult import reductions

    calls = []
    search = reductions._search_reduction

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(reductions, "_search_reduction", counted)
    rep, rc = run_one(
        "ring S vars [x,y,z] field fp(32003) relations [];\n"
        "ideal I = [x^2, y^2, z^2, x*y, y*z];\n"
        "cmd mixed I mode=both;\n"
    )
    assert rc == 0
    assert rep["values"]["fastpath"] == {"0": 1, "1": 2, "2": 4}
    assert rep["agree"] is True
    assert len(calls) == 1

"""Command dispatch and JSON report assembly for session scripts.

Every command produces one report object carrying the echoed command, the
claim tags it exercises, inputs, per-value method tags, witnesses, and an
explicit agree field whenever two routes were compared.  Module errors are
serialized with their machine-readable codes rather than tracebacks.
"""

import datetime
import json
import time
from dataclasses import dataclass

from .algebra import make_algebra, minimal_basis
from .degseq import degree_sequence, initial_ideal, verify_initial_transfer
from .errors import FitMismatch, HypothesisFail, Inconclusive, KernelError
from .groebner import INFINITE
from .mixed_rees import (
    bhattacharya_oracle,
    invariance_check,
    mixed_fastpath,
    mixed_via_fc_quotient,
    rees_multiplicity_fastpath,
    rees_multiplicity_oracle,
)
from .multiplicity import (
    samuel_fastpath_domain,
    samuel_fastpath_general,
    samuel_oracle,
)
from .reductions import build_fc_sequence, find_minimal_reduction
from .script import SessionScript

SCHEMA_VERSION = 1

# wire tags naming the claims a command exercises
TAG_DEGSEQ = ("Prop-2.2(i)", "Prop-2.4")
TAG_INITIAL = ("Prop-2.2(i)",)
TAG_SAMUEL = ("Thm-2.10",)
TAG_SAMUEL_DOMAIN = ("Thm-2.8",)
TAG_TRANSFER = ("Prop-2.5", "Rem-2.6")
TAG_REES = ("Cor-3.2(ii)", "Trung-1.1")
TAG_MIXED = ("Cor-3.2(i)", "Rem-3.5")
TAG_FC = ("Lem-2.12", "Lem-3.1")
TAG_INVARIANCE = ("Cor-3.3",)
TAG_QUOTIENT = ("Rem-2.13", "Thm-2.14")

_HYPOTHESIS_CODES = {"HYPOTHESIS-FAIL", "FIT-MISMATCH"}
_INCONCLUSIVE_CODES = {"NO-STABILIZATION", "SEARCH-EXHAUSTED", "INCONCLUSIVE"}
_INTERNAL_CODE = "INTERNAL-ERROR"


class UsageError(KernelError):
    code = "USAGE-ERROR"


@dataclass
class Session:
    script: SessionScript
    algebra: object
    elements: dict
    ideals: dict
    seed: int


def build_session(script, seed=0):
    algebra = make_algebra(script.ring, script.relations)
    elements = {}
    for idx, name in enumerate(script.var_names):
        elements[name] = algebra.gens()[idx]
    for name, poly in script.elems.items():
        el = algebra.element(poly)
        if el.is_zero():
            raise UsageError(f"element {name!r} is zero in the quotient", name=name)
        elements[name] = el
    ideals = {
        name: algebra.ideal([algebra.element(p) for p in polys])
        for name, polys in script.ideals.items()
    }
    return Session(script, algebra, elements, ideals, seed)


def _jsonable(v):
    if v is INFINITE:
        return "INFINITE"
    if isinstance(v, bool) or isinstance(v, int) or v is None or isinstance(v, str):
        return v
    if isinstance(v, float):
        return "INFINITE" if v == float("inf") else v
    if isinstance(v, dict):
        return {_key(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return repr(v)


def _key(k):
    if isinstance(k, tuple):
        return ",".join(str(x) for x in k)
    return str(k)


def _need(table, kind, command, pos=0):
    """The session's ideal or element named by argument pos."""
    if len(command.args) <= pos:
        raise UsageError(f"{command.op} needs an {kind} argument")
    name = command.args[pos]
    if name not in table:
        raise UsageError(f"{command.op} expects an {kind}, got {name!r}", name=name)
    return table[name]


def _all_elements(session, command, start=0):
    out = []
    for name in command.args[start:]:
        if name not in session.elements:
            raise UsageError(f"expected elements, got {name!r}", name=name)
        out.append(session.elements[name])
    return out


def _mode(command, allowed=("oracle", "fastpath", "both")):
    mode = command.options.get("mode", "both")
    if mode not in allowed:
        raise UsageError(f"mode must be one of {allowed}", mode=mode)
    return mode


def _window(command, key="window"):
    w = command.options.get(key)
    if w is None:
        return None
    if not (isinstance(w, tuple) and len(w) == 2):
        raise UsageError(f"{key} must be a pair (lo,hi)", value=list(w) if isinstance(w, tuple) else w)
    return w


def _seed(command, session):
    return command.options.get("seed", session.seed)


def _capture(out, values, witnesses, slot, fn, *args, **kwargs):
    """Run one route; a coded refusal becomes that slot's value instead of
    aborting the command, so the other route still reports."""
    try:
        res = fn(*args, **kwargs)
    except (HypothesisFail, FitMismatch, Inconclusive) as exc:
        values[slot] = exc.code
        witnesses[slot] = exc.payload()
        out.append(exc.code)
        return None
    return res


def _dual_route(mode, fastpath, oracle, tags):
    """Handler result of a command that runs the routes the mode asks for.

    A coded refusal of the fast path fills its slot (see _capture); the
    oracle's window leads its witness; agree is set only when both ran.
    """
    values, methods, witnesses, failures = {}, {}, {}, []
    if mode in ("fastpath", "both"):
        res = _capture(failures, values, witnesses, "fastpath", fastpath)
        if res is not None:
            values["fastpath"] = res.value
            methods["fastpath"] = res.method
            witnesses["fastpath"] = res.witness
    if mode in ("oracle", "both"):
        res = oracle()
        values["oracle"] = res.value
        methods["oracle"] = res.method
        witnesses["oracle"] = {"window": list(res.window), **res.witness}
    agree = None
    if mode == "both":
        agree = values.get("fastpath") == values.get("oracle")
    return values, methods, witnesses, agree, tags


# -- handlers ----------------------------------------------------------------


def _cmd_ring_info(session, command):
    algebra = session.algebra
    hd = algebra.hilbert
    values = {
        "dimension": algebra.dim,
        "multiplicity": algebra.mult,
        "hilbert_numerator": list(hd.numerator),
        "variables": list(session.script.var_names),
        "relations": [repr(r) for r in session.script.relations],
    }
    return values, {"multiplicity": "homogeneous-series"}, {}, None, ()


def _cmd_order(session, command):
    x = _need(session.elements, "element", command)
    values = {
        "order": _jsonable(x.order),
        "initial_form": repr(x.initial_form.rep) if not x.is_zero() else "0",
    }
    return values, {}, {}, None, ()


def _cmd_degseq(session, command):
    ideal = _need(session.ideals, "ideal", command)
    seq = degree_sequence(ideal)
    inI, _ = initial_ideal(ideal)
    mu_in = len(minimal_basis(inI))
    values = {
        "degree_sequence": list(seq),
        "minimal_generators": len(seq),
        "initial_minimal_generators": mu_in,
    }
    return values, {"degree_sequence": "adjusted-minimal-basis"}, {}, len(seq) == mu_in, TAG_DEGSEQ


def _cmd_initial_ideal(session, command):
    ideal = _need(session.ideals, "ideal", command)
    inI, adjusted = initial_ideal(ideal)
    values = {
        "generators": [repr(g.rep) for g in inI.gens],
        "adjusted_basis": [repr(a.rep) for a in adjusted],
        "degree_sequence": list(degree_sequence(ideal)),
        "homogeneous": inI.is_homogeneous(),
    }
    return values, {}, {}, None, TAG_INITIAL


def _cmd_samuel(session, command):
    xs = _all_elements(session, command)
    if not xs:
        raise UsageError("samuel needs parameter elements")
    mode = _mode(command)
    window = _window(command)
    return _dual_route(
        mode,
        lambda: samuel_fastpath_general(xs),
        lambda: samuel_oracle(session.algebra.ideal(xs), window=window),
        TAG_SAMUEL,
    )


def _cmd_samuel_domain(session, command):
    I = _need(session.ideals, "ideal", command, 0)
    if len(command.args) < 2 or command.args[1] not in session.ideals:
        raise UsageError("samuel_domain needs a second ideal (the reduction)")
    J = session.ideals[command.args[1]]
    domain = command.options.get("domain") == "asserted"
    mode = _mode(command)
    window = _window(command)
    return _dual_route(
        mode,
        lambda: samuel_fastpath_domain(I, J, domain_asserted=domain),
        lambda: samuel_oracle(I, window=window),
        TAG_SAMUEL_DOMAIN,
    )


def _cmd_transfer(session, command):
    ideal = _need(session.ideals, "ideal", command)
    kind = command.options.get("kind")
    if kind not in ("colength", "samuel", "graded-mult"):
        raise UsageError("transfer needs kind=colength|samuel|graded-mult", kind=kind)
    window = _window(command)
    rep = verify_initial_transfer(ideal, kind, window=window)
    values = {
        "kind": rep.kind,
        "lhs": _jsonable(rep.lhs),
        "rhs": _jsonable(rep.rhs),
        "equal": rep.equal,
    }
    methods = {"lhs": rep.lhs_method, "rhs": rep.rhs_method}
    witnesses = {}
    if rep.reason:
        witnesses["reason"] = rep.reason
    return values, methods, witnesses, rep.equal, TAG_TRANSFER


def _cmd_rees_mult(session, command):
    ideal = _need(session.ideals, "ideal", command)
    mode = _mode(command)
    window = _window(command)
    seed = _seed(command, session)
    return _dual_route(
        mode,
        lambda: rees_multiplicity_fastpath(ideal, seed=seed),
        lambda: rees_multiplicity_oracle(ideal, window=window),
        TAG_REES,
    )


def _cmd_mixed(session, command):
    ideal = _need(session.ideals, "ideal", command)
    mode = _mode(command, allowed=("oracle", "both"))
    n0 = command.options.get("n0", (2, 5))
    nr = command.options.get("n", (2, 5))
    seed = _seed(command, session)
    table = bhattacharya_oracle([ideal], n0_range=n0, n_ranges=(nr,))
    values = {
        "q": table.q,
        "table": {_key(k): v for k, v in sorted(table.entries.items())},
    }
    methods = {"table": "bhattacharya-fit"}
    witnesses = {
        "fit_points": [list(p) for p in table.fit_points],
        "fit_residual": table.fit_residual,
    }
    agree = None
    if mode == "both":
        d = session.algebra.dim
        fast = {}
        failures = []
        comparisons = []
        for i in range(d):
            res = _capture(
                failures, fast, witnesses, f"fastpath[{i}]",
                mixed_fastpath, ideal, i=i, seed=seed,
            )
            if res is None:
                break
            fast[str(i)] = res.value
            if table.q == d:
                comparisons.append(res.value == table.entry_for_type(i))
        values["fastpath"] = fast
        methods["fastpath"] = "fastpath-cor-3.2(i)"
        agree = bool(comparisons) and all(comparisons) and not failures
    return values, methods, witnesses, agree, TAG_MIXED


def _cmd_min_reduction(session, command):
    ideal = _need(session.ideals, "ideal", command)
    seed = _seed(command, session)
    J, cert = find_minimal_reduction(ideal, seed=seed)
    values = {
        "generators": [repr(g.rep) for g in J.gens],
        "degree_sequence": list(degree_sequence(J)),
        "reduction_witness": cert.n_witness,
    }
    return values, {}, {}, None, ()


def _cmd_fc_seq(session, command):
    J = _need(session.ideals, "ideal", command, 0)
    if len(command.args) < 2 or command.args[1] not in session.ideals:
        raise UsageError("fc_seq needs two ideals: the reduction, then the ideal")
    I = session.ideals[command.args[1]]
    seed = _seed(command, session)
    retries = command.options.get("retries", 32)
    seq = build_fc_sequence(J, I, seed=seed, retries=retries)
    target = list(degree_sequence(J))
    values = {
        "elements": [repr(x.rep) for x in seq.elements],
        "o_values": list(seq.o_values),
        "degree_sequence": target,
        "attempt": seq.attempt,
        "fc1_pass": all(r.fc1_pass for r in seq.reports),
        "fc2_pass": all(r.fc2_pass for r in seq.reports),
    }
    agree = list(seq.o_values) == target
    return values, {"o_values": "fc-sequence"}, {}, agree, TAG_FC


def _cmd_invariance(session, command):
    I = _need(session.ideals, "ideal", command, 0)
    if len(command.args) < 2 or command.args[1] not in session.ideals:
        raise UsageError("invariance needs two ideals")
    E = session.ideals[command.args[1]]
    seed = _seed(command, session)
    with_oracle = command.options.get("oracle", "on") != "off"
    rep = invariance_check(I, E, with_oracle=with_oracle, seed=seed)
    values = {
        "closure_certified": rep.closure_certified,
        "degree_sequence_lhs": list(rep.degseq_lhs),
        "degree_sequence_rhs": list(rep.degseq_rhs),
        "rees_fastpath_lhs": rep.rees_fastpath_lhs,
        "rees_fastpath_rhs": rep.rees_fastpath_rhs,
    }
    if with_oracle:
        values["rees_oracle_lhs"] = rep.rees_oracle_lhs
        values["rees_oracle_rhs"] = rep.rees_oracle_rhs
        values["mixed_lhs"] = {_key(k): v for k, v in sorted(rep.mixed_lhs.items())}
        values["mixed_rhs"] = {_key(k): v for k, v in sorted(rep.mixed_rhs.items())}
    methods = {
        "rees_fastpath": "fastpath-cor-3.2(ii)",
        "rees_oracle": "finite-difference-oracle",
        "mixed": "bhattacharya-fit",
    }
    return values, methods, {}, rep.agree, TAG_INVARIANCE


def _cmd_mixed_quotient(session, command):
    ideal = _need(session.ideals, "ideal", command, 0)
    xs = _all_elements(session, command, start=1)
    window = _window(command)
    rep = mixed_via_fc_quotient(ideal, xs, window=window)
    values = {
        "value": rep.value,
        "t": rep.t,
        "fc_verified": rep.fc_verified,
    }
    methods = {"value": "quotient-multiplicity"}
    if rep.order_route_value is not None:
        values["order_route"] = rep.order_route_value
        methods["order_route"] = "fastpath-thm-2.14"
    return values, methods, {}, rep.agree, TAG_QUOTIENT


_HANDLERS = {
    "ring_info": _cmd_ring_info,
    "order": _cmd_order,
    "degseq": _cmd_degseq,
    "initial_ideal": _cmd_initial_ideal,
    "samuel": _cmd_samuel,
    "samuel_domain": _cmd_samuel_domain,
    "transfer": _cmd_transfer,
    "rees_mult": _cmd_rees_mult,
    "mixed": _cmd_mixed,
    "min_reduction": _cmd_min_reduction,
    "fc_seq": _cmd_fc_seq,
    "invariance": _cmd_invariance,
    "mixed_quotient": _cmd_mixed_quotient,
}


def _inputs_for(session, command):
    out = {}
    for name in command.args:
        if name in session.ideals:
            out[name] = [repr(g.rep) for g in session.ideals[name].gens]
        elif name in session.elements:
            out[name] = repr(session.elements[name].rep)
    return out


def run_command(session, command):
    """Execute one command; returns the report dict (never raises KernelError)."""
    started = time.perf_counter()
    report = {
        "command": command.text,
        "op": command.op,
        "args": list(command.args),
        "options": {k: _jsonable(v) for k, v in command.options.items()},
        "inputs": _inputs_for(session, command),
    }
    handler = _HANDLERS.get(command.op)
    try:
        if handler is None:
            raise UsageError(f"unknown command {command.op!r}", op=command.op)
        values, methods, witnesses, agree, tags = handler(session, command)
        report["tags"] = list(tags)
        report["status"] = "ok"
        report["values"] = _jsonable(values)
        report["methods"] = methods
        report["witnesses"] = _jsonable(witnesses)
        if agree is not None:
            report["agree"] = agree
    except KernelError as exc:
        report["status"] = "error"
        report["error"] = _jsonable(exc.payload())
        report.setdefault("tags", [])
    except ValueError as exc:
        report["status"] = "error"
        report["error"] = {"code": "USAGE-ERROR", "message": str(exc)}
        report.setdefault("tags", [])
    except ArithmeticError as exc:
        report["status"] = "error"
        report["error"] = {"code": _INTERNAL_CODE, "message": str(exc)}
        report.setdefault("tags", [])
    report["wall_time_ms"] = int((time.perf_counter() - started) * 1000)
    return report


def classify_exit(reports):
    """Exit code of a run, highest priority first: 4 a kernel invariant failed
    (an internal error, not the input's fault); 1 usage error; 2 a hypothesis
    was refuted or two routes disagreed; 3 inconclusive; 0 all agreements pass."""
    worst = 0
    saw_hypothesis = False
    saw_inconclusive = False
    for rep in reports:
        code = rep.get("error", {}).get("code")
        if rep["status"] == "error":
            if code == _INTERNAL_CODE:
                worst = 4
            elif code in _HYPOTHESIS_CODES:
                saw_hypothesis = True
            elif code in _INCONCLUSIVE_CODES:
                saw_inconclusive = True
            else:
                worst = max(worst, 1)
        if rep.get("agree") is False:
            saw_hypothesis = True
        for v in rep.get("values", {}).values():
            if isinstance(v, str) and v in _HYPOTHESIS_CODES:
                saw_hypothesis = True
            if isinstance(v, str) and v in _INCONCLUSIVE_CODES:
                saw_inconclusive = True
    if worst:
        return worst
    if saw_hypothesis:
        return 2
    if saw_inconclusive:
        return 3
    return 0


def run_script(script, seed=0, name=None):
    """Run every command; returns (report document, exit code)."""
    session = build_session(script, seed=seed)
    reports = [run_command(session, c) for c in script.commands]
    exit_code = classify_exit(reports)
    agrees = [r["agree"] for r in reports if "agree" in r]
    doc = {
        "schema": SCHEMA_VERSION,
        "script": name or "<inline>",
        "seed": seed,
        "field": repr(script.field),
        "ring": {
            "name": script.ring_name,
            "vars": list(script.var_names),
            "relations": [repr(r) for r in script.relations],
        },
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "reports": reports,
        "summary": {
            "commands": len(reports),
            "ok": sum(1 for r in reports if r["status"] == "ok"),
            "errors": [r["error"]["code"] for r in reports if r["status"] == "error"],
            "agreements_checked": len(agrees),
            "agreements_passed": sum(1 for a in agrees if a),
            "exit_code": exit_code,
        },
    }
    return doc, exit_code


def canonical_json(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def strip_volatile(doc):
    """Copy without the timestamp and wall-time fields, for golden comparison."""
    out = json.loads(json.dumps(doc))
    out.pop("generated_at", None)
    for rep in out.get("reports", ()):
        rep.pop("wall_time_ms", None)
    return out

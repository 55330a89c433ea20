"""The three benchmark workloads: their inputs and their correctness checks.

Imported by the pass process (passes.py), which has src/ on its path.

* suite     - the shipped fixtures, checked against their goldens and the
              manifest exit codes.
* heavy     - three Groebner-heavy scripts under bench/scripts, checked
              against stripped reports made from the seed commit
              (bench/expected) and against agree == true on every command.
* random-qq - seeded m-primary ideals over qq, run through the library:
              generator independence of the degree sequence, bounds that
              tie e(I) to l(S/I) and o(I), and stored values for seed 0.

The --seed only orders the scripts of suite and heavy (their kernel seeds are
pinned by the goldens); for random-qq it draws every coefficient and the
regenerating matrices.
"""

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import gradmult
import gradmult.reports
import gradmult.script
from gradmult import QQ, AlgIdeal, make_algebra, poly_ring
from gradmult.reports import strip_volatile
from gradmult.scalars import field_from_text

# Entry points that the tracer may wrap are looked up through their module at
# call time (gradmult.x.f(...)), never bound here by name.

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SUITE = ROOT / "src" / "gradmult" / "suite"
HEAVY = ("heavy_fc", "heavy_mixed", "heavy_rees")

# The case shapes (variables, monomial supports, pure-power exponents) come
# from this fixed seed, so a pass costs about the same on every --seed; the
# --seed draws the coefficients, which is what makes the inputs distinct.
SHAPE_SEED = 150302755
PLANE_CASES = 8
SPACE_CASES = 3
RANDOM_QQ_EXPECTED = BENCH / "expected" / "random_qq_seed0.json"


@dataclass
class ScriptJob:
    name: str
    text: str
    seed: int
    field: str
    golden: dict
    exit_code: int
    all_agree: bool


def script_jobs(workload):
    """The scripts of a script workload, each with its expected report."""
    jobs = []
    if workload == "suite":
        manifest = json.loads((SUITE / "manifest.json").read_text())
        for fx in manifest["fixtures"]:
            jobs.append(ScriptJob(
                fx["script"], (SUITE / fx["script"]).read_text(), fx.get("seed", 0),
                fx.get("field"), json.loads((SUITE / fx["golden"]).read_text()),
                fx["exit"], False,
            ))
    else:
        for name in HEAVY:
            jobs.append(ScriptJob(
                name + ".gm", (BENCH / "scripts" / (name + ".gm")).read_text(), 0, None,
                json.loads((BENCH / "expected" / (name + ".json")).read_text()), 0, True,
            ))
    return jobs


def parse_job(job):
    override = field_from_text(job.field) if job.field else None
    return gradmult.script.parse_script(job.text, field_override=override)


def run_job(job, script):
    """Run one script as `gradmult run` does; returns the canonical JSON text."""
    doc, _ = gradmult.reports.run_script(script, seed=job.seed, name=job.name)
    return gradmult.reports.canonical_json(doc)


def check_job(job, blob):
    """Per-command problems (None when the command passed) of one script run,
    and the report without its volatile fields, which every pass must repeat."""
    doc = strip_volatile(json.loads(blob))
    stable = json.dumps(doc, sort_keys=True)
    golden = strip_volatile(job.golden)
    reports, want = doc.pop("reports"), golden.pop("reports")
    shared = []
    if doc["summary"]["exit_code"] != job.exit_code:
        shared.append(f"exit {doc['summary']['exit_code']} != {job.exit_code}")
    if doc != golden:
        shared.append("document header or summary differs from the expected report")
    if len(reports) != len(want):
        shared.append(f"{len(reports)} reports, expected {len(want)}")
    out = []
    for i, rep in enumerate(reports):
        problems = list(shared)
        if i >= len(want) or rep != want[i]:
            problems.append("report differs from the expected report")
        if job.all_agree and rep.get("agree") is not True:
            problems.append(f"agree is {rep.get('agree')!r}")
        out.append("; ".join(problems) or None)
    return out, stable


# -- random-qq ---------------------------------------------------------------


def _monomial(rng, nv, degree):
    e = [0] * nv
    for _ in range(degree):
        e[rng.randrange(nv)] += 1
    return tuple(e)


def _shapes():
    """(variables, f supports, pure-power exponents) of every case.

    Plane cases are I = (f1, f2, x^a, y^b); space cases carry one f, because
    with five generators the oracle's I^7 took 13-18 s per case.  Each f is a
    binomial: a term of its order 1..3 plus one term of higher degree, so
    f is not homogeneous.
    """
    rng = random.Random(SHAPE_SEED)
    shapes = []
    for nv, count, nf in ((2, PLANE_CASES, 2), (3, SPACE_CASES, 1)):
        for _ in range(count):
            fs = []
            for _ in range(nf):
                o = rng.randint(1, 3)
                fs.append((_monomial(rng, nv, o), _monomial(rng, nv, o + rng.randint(1, 2))))
            pows = tuple(rng.randint(2, 3) for _ in range(nv))
            shapes.append((nv, tuple(fs), pows))
    return shapes


def regenerate(ideal, rng):
    """The same ideal with a new generating set: an invertible triangular mix."""
    field = ideal.algebra.ring.field
    new = list(ideal.gens)
    for i in range(len(new)):
        acc = field.random_nonzero(rng) * new[i]
        for j in range(i):
            acc = acc + field.random(rng) * new[j]
        new[i] = acc
    for i in reversed(range(len(new))):
        acc = new[i]
        for j in range(i + 1, len(new)):
            acc = acc + field.random(rng) * new[j]
        new[i] = acc
    rng.shuffle(new)
    return AlgIdeal(ideal.algebra, new)


def random_qq_cases(seed):
    """(ideal, regenerated ideal) pairs drawn from the seed."""
    rng = random.Random(seed)
    algebras = {nv: make_algebra(poly_ring(("x", "y", "z")[:nv], QQ)) for nv in (2, 3)}
    cases = []
    for nv, fs, pows in _shapes():
        algebra = algebras[nv]
        ring = algebra.ring
        gens = []
        for low, high in fs:
            gens.append(ring.monomial(low, QQ.random_nonzero(rng))
                        + ring.monomial(high, QQ.random_nonzero(rng)))
        gens += [ring.var(i) ** p for i, p in enumerate(pows)]
        ideal = AlgIdeal(algebra, gens)
        cases.append((ideal, regenerate(ideal, rng)))
    return cases


def run_case(ideal, regenerated):
    """What a library user asks of one ideal.  The oracle window is the
    smallest it accepts (d + 3 steps): the default reaches I^(d+6), whose
    Groebner basis costs seconds per plane case."""
    d = ideal.algebra.dim
    return {
        "degree_sequence": list(gradmult.degree_sequence(ideal)),
        "regenerated": list(gradmult.degree_sequence(regenerated)),
        "e": gradmult.samuel_oracle(ideal, window=(1, d + 4)).value,
        "colength": gradmult.colength(ideal),
        "dim": d,
    }


def check_case(values, expected=None):
    """Problems with one case's values; None when it passed.  A typed
    refusal (a KernelError) fails only where a value is stored.

    In a d-dimensional polynomial ring, for I m-primary of order o:
    o^d <= e(I) (I lies in m^o), l(S/I) <= e(I) (S is Cohen-Macaulay) and
    e(I) <= d! l(S/I) (Lech's inequality).
    """
    if "refused" in values:
        return None if expected in (None, values) else f"refused ({values['refused']})"
    seq, e, l, d = values["degree_sequence"], values["e"], values["colength"], values["dim"]
    problems = []
    if values["regenerated"] != seq:
        problems.append(f"degree sequence {seq} changed to {values['regenerated']} "
                        "under regeneration")
    if not seq[0] ** d <= e:
        problems.append(f"e = {e} below o(I)^d = {seq[0] ** d}")
    if not l <= e <= math.factorial(d) * l:
        problems.append(f"e = {e} outside [l, d! l] with l = {l}")
    if expected is not None and values != expected:
        problems.append(f"values {values} differ from the stored {expected}")
    return "; ".join(problems) or None


def random_qq_expected(seed):
    """Stored per-case values, kept for seed 0 only."""
    if seed != 0:
        return None
    return json.loads(RANDOM_QQ_EXPECTED.read_text())

"""The verification registry: one executable check per named identity.

Each check has a stable id, a kind (exact-per-degree, exact-finite, or
valuation-threshold), and a runner that sweeps its parameter grid and
produces a CheckReport.  Failures never abort a suite run; every check
reports pass/fail/skipped with a witness string, and valuation-threshold
checks also record the achieved valuation of the difference.  A check
whose grid holds no case at the given parameters is skipped, not passed.

Reports are deterministic: two runs with the same parameters produce the
same records up to the timing field.
"""

import fnmatch
import io
import json
import time
from dataclasses import dataclass, field

from . import shuffle, tate
from .errors import CarlitzError, InvalidParams, UnknownCheck
from .ffield import FieldContext
from .mzv import (bernoulli_goss, bg_block_values, bg_congruence_survey,
                  bg_degree_formula, bg_formula_rhs)
from .poly import irreducibles_of_degree, necklace_count
from .powersums import (SemiChar, SeqCache, partial_F_one_q, power_sum_bruteforce,
                        power_sum_closed, power_sum_qn_closed, tau_b_expand)
from .skew import frak_S, star_chain_check
from .shuffle import ShuffleEngine

DEFAULT_PARAMS = {"qs": (3, 4), "d_max": 5, "prec": 25, "budget": 200_000}
DEEP_PARAMS = {"qs": (3, 4, 5), "d_max": 6, "prec": 40, "budget": 2_000_000}


@dataclass
class CheckReport:
    id: str
    params: dict
    status: str                     # pass | fail | skipped
    witness: str = ""
    achieved_valuation: object = None
    elapsed_ms: float = 0.0

    def as_record(self):
        rec = {"id": self.id, "params": _canon_params(self.params),
               "status": self.status, "witness": self.witness,
               "elapsed_ms": round(self.elapsed_ms, 3)}
        if self.achieved_valuation is not None:
            rec["achieved_valuation"] = (
                "inf" if self.achieved_valuation == float("inf")
                else self.achieved_valuation)
        return rec


def _canon_params(params):
    return {k: (list(v) if isinstance(v, tuple) else v)
            for k, v in sorted(params.items())}


class _Pool:
    """Shared per-q caches and engines for one run."""

    def __init__(self, budget):
        self.budget = budget
        self._stores = {}

    def get(self, q):
        if q not in self._stores:
            ctx = FieldContext(q)
            cache = SeqCache(ctx, budget=self.budget)
            self._stores[q] = (ctx, cache, ShuffleEngine(cache))
        return self._stores[q]


@dataclass
class CheckSpec:
    id: str
    kind: str                      # exact-per-degree | exact-finite | valuation-threshold
    description: str
    runner: object = field(repr=False)

    def run(self, pool, params):
        t0 = time.perf_counter()
        try:
            status, witness, achieved = self.runner(pool, params)
        except CarlitzError as exc:
            status, witness, achieved = "fail", f"{type(exc).__name__}: {exc}", None
        elapsed = (time.perf_counter() - t0) * 1000
        return CheckReport(self.id, dict(params), status, witness, achieved, elapsed)


REGISTRY = {}


def _register(id, kind, description):
    def deco(fn):
        REGISTRY[id] = CheckSpec(id, kind, description, fn)
        return fn
    return deco


_NO_CASE = "no case ran at these parameters"


def _grid_result(failures, cases, extra="", over=()):
    """Status and witness of a grid; `over` names the grid points left out
    because their enumeration exceeds the budget."""
    tail = f"; over budget: {', '.join(over)}" if over else ""
    if failures:
        return "fail", "; ".join(failures[:4]) + tail, None
    if not cases:
        return "skipped", _NO_CASE + tail, None
    msg = f"{cases} cases exact"
    if extra:
        msg += f"; {extra}"
    return "pass", msg + tail, None


# ---------------------------------------------------------------------------
# closed forms vs enumeration
# ---------------------------------------------------------------------------

_CLOSED_SPECS = {
    "eq-e1": ("e1", 1, ()), "eq-e2": ("e2", 1, (1,)), "eq-e3": ("e3", 1, (1, 2)),
    "eq-f2": ("f2", 2, (1,)), "eq-f3": ("f3", 2, (1, 2)),
}

def _make_closed_check(check_id):
    which, order, varis = _CLOSED_SPECS[check_id]

    def run(pool, params):
        failures, cases = [], 0
        for q in params["qs"]:
            ctx, cache, _ = pool.get(q)
            sigma = SemiChar(ctx, len(varis), varis=varis)
            for d in range(min(params["d_max"], 4) + 1):
                closed = power_sum_closed(cache, d, which)
                brute = power_sum_bruteforce(cache, d, order, sigma,
                                             params["budget"])
                cases += 1
                if closed != brute:
                    failures.append(f"q={q} d={d}: closed {closed!r} != "
                                    f"enumerated {brute!r}")
        return _grid_result(failures, cases)
    return run

for _cid in _CLOSED_SPECS:
    _register(_cid, "exact-finite",
              f"closed form {_CLOSED_SPECS[_cid][0]} equals enumeration")(
        _make_closed_check(_cid))


@_register("eq-Fdq", "exact-finite",
           "q-variable weight-one partial sum equals its enumerated form")
def _check_fdq(pool, params):
    failures, cases, over = [], 0, []
    for q in params["qs"]:
        if q != 3 and q ** 3 > params["budget"]:
            over.append(f"q={q}")
            continue
        ctx, cache, _ = pool.get(q)
        sigma = SemiChar(ctx, q, varis=tuple(range(1, q + 1)))
        for d in range(min(params["d_max"], 3) + 1):
            closed = partial_F_one_q(cache, d)
            acc = None
            for k in range(d + 1):
                term = power_sum_bruteforce(cache, k, 1, sigma, params["budget"])
                acc = term if acc is None else acc + term
            cases += 1
            if closed != acc:
                failures.append(f"q={q} d={d}: product form != enumerated sum")
    return _grid_result(failures, cases, over=over)


# ---------------------------------------------------------------------------
# the shuffle identities, per degree
# ---------------------------------------------------------------------------

_PER_DEGREE = {
    "thm-formulas-1": (shuffle.product_weight_one_untwisted,
                       "weight-one square: F(1)^2 = F(2) + 2 F(1,1)"),
    "thm-formulas-2": (lambda eng, d: shuffle.product_weight_one_single(eng, d, "s"),
                       "F(1;s) F(1) = F[[s,1]] + F(2;s)"),
    "thm-formulas-3": (lambda eng, d: shuffle.product_weight_one_single(eng, d, "p"),
                       "F(1;p) F(1) = F[[p,1]] + F(2;p)"),
    "thm-formulas-4": (shuffle.product_weight_one_split,
                       "F(1;s) F(1;p) = F(2;sp)"),
    "thm-formulas-5": (shuffle.product_weight_one_joint,
                       "F(1) F(1;sp) = F(2;sp) + four depth-two terms"),
    "eq-Fsfirst": (lambda eng, d: shuffle.product_weight_one_single(eng, d, "s"),
                   "the truncated form behind formulas-2"),
    "eq-formulabis": (shuffle.per_degree_split,
                      "S(1;s) S(1;p) = S(2;sp) - S[[p,s]] - S[[s,p]]"),
    "eq-formulater": (shuffle.per_degree_joint,
                      "S(1) S(1;sp) = S(2;sp) - S[[p,s]] - S[[s,p]]"),
    "eq-lastone": (shuffle.product_weight_one_joint,
                   "the truncated form behind formulas-5"),
    "lemma-alemma": (shuffle.depth_two_decomposition,
                     "S(2;sp) = S(1;s)S(1;p) + S[[p,s]] + S[[s,p]]"),
    "remark-trivial": (shuffle.difference_identity,
                       "F(1)F(1;sp) - F(1;s)F(1;p) = four depth-two terms"),
    "thakur-thm1": (shuffle.weight_q_product,
                    "F(1) F(q-1) = F(q) + F(q-1,1) + F(1,q-1)"),
    "star-bridge": (shuffle.star_bridge,
                    "F*(q-1,1) = F(q-1,1) + F(1)^q"),
}

def _make_per_degree_check(check_id):
    fn, _ = _PER_DEGREE[check_id]

    def run(pool, params):
        failures, cases = [], 0
        for q in params["qs"]:
            _, _, eng = pool.get(q)
            for d in range(params["d_max"] + 1):
                lhs, rhs = fn(eng, d)
                cases += 1
                if not lhs.equals(rhs):
                    failures.append(f"q={q} d={d}: sides differ")
        return _grid_result(failures, cases)
    return run

for _cid, (_fn, _desc) in _PER_DEGREE.items():
    _register(_cid, "exact-per-degree", _desc)(_make_per_degree_check(_cid))


@_register("remark-nu", "exact-per-degree",
           "degree-character shuffle and its t := 1 specialization")
def _check_nu(pool, params):
    failures, cases = [], 0
    for q in params["qs"]:
        _, _, eng = pool.get(q)
        for d in range(params["d_max"] + 1):
            lhs, rhs = shuffle.degree_character_identity(eng, d)
            cases += 1
            if not lhs.equals(rhs):
                failures.append(f"q={q} d={d}: identity fails")
                continue
            l1, r1 = shuffle.product_weight_one_untwisted(eng, d)
            if not (lhs.substitute_one(1).equals(l1.substitute_one(1))
                    and rhs.substitute_one(1).equals(r1.substitute_one(1))):
                failures.append(f"q={q} d={d}: t := 1 does not reproduce the "
                                "untwisted square identity")
    return _grid_result(failures, cases)


# ---------------------------------------------------------------------------
# Frobenius expansions and the skew ring
# ---------------------------------------------------------------------------

@_register("lemma-tau-b", "exact-finite",
           "Frobenius of b_d expands over the ell-weighted b-basis")
def _check_tau_b(pool, params):
    failures, cases = [], 0
    for q in params["qs"]:
        _, cache, _ = pool.get(q)
        top = 8 if q == 3 else min(params["d_max"], 4)
        for d in range(top + 1):
            lhs, rhs = tau_b_expand(cache, 1, d)
            cases += 1
            if lhs != rhs:
                failures.append(f"q={q} d={d}: expansion differs")
    return _grid_result(failures, cases)


@_register("prop4", "exact-finite",
           "iterated Frobenius expansion and the q^n-order closed form")
def _check_prop4(pool, params):
    failures, cases, over = [], 0, []
    for q in params["qs"]:
        ctx, cache, _ = pool.get(q)
        n_top = 3 if q == 3 else 2
        d_top = min(params["d_max"], 5) if q == 3 else min(params["d_max"], 3)
        for n in range(1, n_top + 1):
            for d in range(d_top + 1):
                lhs, rhs = tau_b_expand(cache, n, d)
                cases += 1
                if lhs != rhs:
                    failures.append(f"q={q} n={n} d={d}: chain expansion differs")
        # the derived power-sum form, pinned against enumeration
        chi = SemiChar.chi(ctx, 1, 1)
        for n in range(1, 3):
            for d in range(min(params["d_max"], 4 if q == 3 else 3) + 1):
                if q ** d > params["budget"]:
                    over.append(f"q={q} n={n} d={d}")
                    continue
                closed = power_sum_qn_closed(cache, n, d)
                brute = power_sum_bruteforce(cache, d, q ** n, chi, params["budget"])
                cases += 1
                if closed != brute:
                    failures.append(f"q={q} n={n} d={d}: closed power sum != enumeration")
    return _grid_result(failures, cases, over=over)


@_register("cor-noncommide", "exact-finite",
           "twisted power sums in the skew ring: chain form vs enumeration")
def _check_noncommide(pool, params):
    failures, cases = [], 0
    for q in params["qs"]:
        if q > 4:
            continue  # enumeration cost grows as q^(d q^n); covered by q=3,4
        _, cache, _ = pool.get(q)
        d_top = min(params["d_max"], 4) if q == 3 else min(params["d_max"], 3)
        for n in (1, 2):
            for d in range(1, d_top + 1):
                try:
                    frak_S(cache, d, n, params["budget"])
                    cases += 1
                except CarlitzError as exc:
                    failures.append(f"q={q} n={n} d={d}: {exc}")
    return _grid_result(failures, cases, "degree zero excluded by design")


@_register("star-chain", "exact-finite",
           "skew evaluation sums equal the star and strict truncations")
def _check_star_chain(pool, params):
    failures, cases = [], 0
    for q in params["qs"]:
        if q > 4:
            continue
        _, cache, _ = pool.get(q)
        for d in range(1, params["d_max"] + 1):
            rep = star_chain_check(cache, d, params["budget"])
            cases += 1
            bad = [k for k in ("skew_equals_star", "star_equals_strict_plus_power",
                               "star_equals_product_minus_swap") if not rep[k]]
            if bad:
                failures.append(f"q={q} d={d}: broken links {bad}")
    return _grid_result(failures, cases)


# ---------------------------------------------------------------------------
# Bernoulli-Goss checks
# ---------------------------------------------------------------------------

def _bg_grid(params):
    for q in params["qs"]:
        top = {3: min(params["d_max"], 4), 4: 3, 5: 2}.get(q, 2)
        for d in range(1, top + 1):
            yield q, d


@_register("thm-formulaBG", "exact-finite",
           "finite zeta sum at q^d - 2 equals the closed double sum")
def _check_formula_bg(pool, params):
    failures, cases, over = [], 0, []
    for q, d in _bg_grid(params):
        _, cache, _ = pool.get(q)
        if q ** (d + 2) > params["budget"]:
            over.append(f"q={q} d={d}")
            continue
        bg = bernoulli_goss(cache, q ** d - 2, params["budget"])
        rhs = bg_formula_rhs(cache, d)
        cases += 1
        if bg.value != rhs:
            failures.append(f"q={q} d={d}: {bg.value!r} != {rhs!r}")
    return _grid_result(failures, cases, over=over)


@_register("thm-exactdegree", "exact-finite",
           "degree of the finite zeta sum matches the closed formula")
def _check_exactdegree(pool, params):
    failures, cases, over = [], 0, []
    for q in params["qs"]:
        top = {3: min(params["d_max"], 5), 4: 3, 5: 3}.get(q, 2)
        _, cache, _ = pool.get(q)
        for d in range(1, top + 1):
            if q ** (d + 2) > params["budget"]:
                over.append(f"q={q} d={d}")
                continue
            pred = bg_degree_formula(q, d)
            bg = bernoulli_goss(cache, q ** d - 2, params["budget"])
            cases += 1
            if bg.value.degree != pred.degree:
                failures.append(f"q={q} d={d}: deg {bg.value.degree} != {pred.degree}")
                continue
            if d >= 2:
                dom, merged, tail = bg_block_values(cache, d)
                ok = (-dom.valuation == pred.dominant_degree
                      and -merged.valuation == pred.merged_degree
                      and pred.dominant_degree > pred.merged_degree)
                if d >= 3:
                    ok = ok and -tail.valuation == pred.tail_degree
                if not ok:
                    failures.append(f"q={q} d={d}: block degrees off")
    return _grid_result(failures, cases,
                        "tail block empty below d=3 (excluded there)", over)


@_register("cor-TAOD", "exact-finite",
           "finite zeta sum congruent to the truncated weight-one sum mod "
           "every irreducible of the matching degree")
def _check_taod(pool, params):
    failures, cases, over = [], 0, []
    for q, d in _bg_grid(params):
        _, cache, _ = pool.get(q)
        if q ** (d + 2) > params["budget"]:
            over.append(f"q={q} d={d}")
            continue
        sv = bg_congruence_survey(cache, d, params["budget"])
        cases += len(sv.rows)
        if not sv.all_congruent:
            bad = [r for r in sv.rows if not r.congruent][0]
            failures.append(f"q={q} d={d}: fails at P = {bad.modulus!r}")
    return _grid_result(failures, cases, over=over)


@_register("necklace-bound", "exact-finite",
           "irreducible counts match the necklace polynomial and the "
           "vanishing count respects the divisor bound")
def _check_necklace(pool, params):
    failures, cases, over = [], 0, []
    for q in params["qs"]:
        ctx, cache, _ = pool.get(q)
        count_top = 6 if q == 3 else 4
        for d in range(1, count_top + 1):
            cases += 1
            if len(irreducibles_of_degree(ctx, d)) != necklace_count(q, d):
                failures.append(f"q={q} d={d}: irreducible count != necklace value")
    for q, d in _bg_grid(params):
        _, cache, _ = pool.get(q)
        if q ** (d + 2) > params["budget"]:
            over.append(f"q={q} d={d}")
            continue
        sv = bg_congruence_survey(cache, d, params["budget"])
        cases += 1
        if not (sv.bound_holds and sv.count_matches_necklace and sv.divisor_consistent):
            failures.append(f"q={q} d={d}: zero count {sv.zero_count} vs bound "
                            f"{sv.zero_bound}, divisor consistency {sv.divisor_consistent}")
    return _grid_result(failures, cases, over=over)


# ---------------------------------------------------------------------------
# valuation-threshold checks
# ---------------------------------------------------------------------------

def _numeric_result(outcomes):
    if not outcomes:
        return "skipped", _NO_CASE, None
    worst = min(o["achieved"] for o in outcomes)
    if all(o["passed"] for o in outcomes):
        return "pass", f"{len(outcomes)} identities beyond threshold", worst
    bad = [o for o in outcomes if not o["passed"]]
    return "fail", (f"{len(bad)} below threshold; worst achieved "
                    f"{bad[0]['achieved']} vs {bad[0]['threshold']}"), worst


@_register("eq-annals", "valuation-threshold",
           "root-free weight-one evaluation identity, plus the exact "
           "specializations at theta and at the first trivial zero")
def _check_annals(pool, params):
    outcomes = []
    for q in params["qs"]:
        if q != 3:
            continue
        _, cache, _ = pool.get(q)
        rep = tate.annals_check(cache, params["prec"])
        if not (rep["value_at_theta_is_one"] and rep["trivial_zero_vanishes"]):
            return "fail", "specialization sub-checks failed", rep["achieved"]
        outcomes.append(rep)
    return _numeric_result(outcomes)


@_register("family-qk", "valuation-threshold",
           "zeta(q^k) zeta(q^k - 1) = zeta(2q^k - 1) + zeta(q^k - 1, q^k)")
def _check_family(pool, params):
    outcomes = []
    for q in params["qs"]:
        if q != 3:
            continue
        _, cache, _ = pool.get(q)
        for k in (1, 2):
            outcomes.append(tate.family_qk_check(cache, k, params["prec"],
                                                 params["budget"]))
    return _numeric_result(outcomes)


@_register("thakur-thm5", "valuation-threshold",
           "zeta(m, m(q-1)) = zeta(mq) / (theta - theta^q)^m")
def _check_thakur5(pool, params):
    outcomes = []
    for q in params["qs"]:
        if q != 3:
            continue
        _, cache, _ = pool.get(q)
        for m in (1, 2):
            outcomes.append(tate.thakur_weight_check(cache, m, params["prec"],
                                                     params["budget"]))
    return _numeric_result(outcomes)


@_register("strange-shuffle", "valuation-threshold",
           "the two-parameter untwisted specialization family")
def _check_strange(pool, params):
    outcomes = []
    for q in params["qs"]:
        if q != 3:
            continue
        _, cache, _ = pool.get(q)
        for h, k in ((0, 1), (1, 1)):
            outcomes.append(tate.strange_shuffle_check(cache, h, k, params["prec"],
                                                       params["budget"]))
    return _numeric_result(outcomes)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _validated(params):
    merged = dict(DEFAULT_PARAMS)
    profile = params.pop("profile", None)
    if profile == "deep":
        merged = dict(DEEP_PARAMS)
    elif profile not in (None, "default"):
        raise InvalidParams(f"unknown profile {profile!r}")
    for key, value in params.items():
        if key not in merged:
            raise InvalidParams(f"unknown parameter {key!r}")
        if key == "qs":
            value = tuple(int(q) for q in value)
            if any(q <= 2 for q in value):
                raise InvalidParams("q > 2 is required")
        else:
            value = int(value)
            if value < 0:
                raise InvalidParams(f"{key} must be nonnegative")
        merged[key] = value
    return merged


def run_check(check_id, pool=None, **params):
    """Run one registered check; raises UnknownCheck for unknown ids."""
    if check_id not in REGISTRY:
        raise UnknownCheck(check_id)
    merged = _validated(dict(params))
    if pool is None:
        pool = _Pool(merged["budget"])
    return REGISTRY[check_id].run(pool, merged)


def run_suite(pattern="all", **params):
    """Run every check whose id matches the glob pattern, in id order.

    Returns the list of CheckReports; failures are recorded, never raised.
    """
    merged = _validated(dict(params))
    ids = sorted(REGISTRY) if pattern in ("all", "*") else \
        sorted(fnmatch.filter(REGISTRY, pattern))
    pool = _Pool(merged["budget"])
    return [REGISTRY[i].run(pool, merged) for i in ids]


def all_passed(reports):
    return all(r.status == "pass" for r in reports)


def exit_code(reports):
    """The exit status of a verify run: 1 if a check failed or if every
    selected check was skipped, else 0 (also when no check was selected)."""
    statuses = {r.status for r in reports}
    return 1 if "fail" in statuses or statuses == {"skipped"} else 0


# ---------------------------------------------------------------------------
# report formatting
# ---------------------------------------------------------------------------

def reports_to_json(reports, pretty=True):
    doc = {"all_passed": all_passed(reports),
           "checks": [r.as_record() for r in reports]}
    return json.dumps(doc, sort_keys=True, indent=2 if pretty else None)


def reports_to_ndjson(reports):
    return "\n".join(json.dumps(r.as_record(), sort_keys=True) for r in reports)


def reports_to_csv(reports):
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["id", "status", "achieved_valuation", "witness", "params"])
    for r in reports:
        rec = r.as_record()
        writer.writerow([rec["id"], rec["status"],
                         rec.get("achieved_valuation", ""), rec["witness"],
                         json.dumps(rec["params"], sort_keys=True)])
    return buf.getvalue()


def reports_to_text(reports):
    lines = []
    width = max((len(r.id) for r in reports), default=10)
    for r in reports:
        mark = {"pass": "ok", "fail": "FAIL", "skipped": "skip"}[r.status]
        extra = ""
        if r.achieved_valuation is not None:
            extra = f"  [val {r.achieved_valuation}]"
        lines.append(f"{r.id:<{width}}  {mark:<4}  {r.witness}{extra}")
    lines.append(f"-- {sum(r.status == 'pass' for r in reports)}/{len(reports)} passed")
    return "\n".join(lines)

"""The verification registry: one executable check per named identity.

Each check has a stable id, a kind (exact-per-degree, exact-finite, or
valuation-threshold), and a grid: grid(q, params) yields the check's
points at one q as (monics, case, coords), where monics is the number of
monics the point enumerates (0 if none), coords its ordered coordinates
such as {"n": 1, "d": 3}, and case(ctx, cache, engine, **coords) yields,
per case, None if it held or a failure text (or a valuation outcome).

One driver, `_walk`, alone loops over the run's q list and holds monics
against the budget.  It labels each point once (`q=3 n=1 d=3`), runs its
case on that q's shared store, and names in an over-budget tail each
point whose monics exceed the budget or whose case raised BudgetExceeded
(a series finds its depth only while it is summed).  Failures never abort
a suite run: every check reports pass/fail/skipped with a witness string,
each failure prefixed with its point's label, and valuation-threshold
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
from ._rawfrac import RawTPoly
from .errors import BudgetExceeded, CarlitzError, InvalidParams, UnknownCheck
from .ffield import FieldContext
from .mzv import (bernoulli_goss, bg_block_values, bg_congruence_survey,
                  bg_degree_formula, bg_formula_rhs)
from .poly import irreducibles_of_degree, necklace_count
from .powersums import (DEFAULT_BUDGET, SemiChar, SeqCache, closed_raw, partial_F_one_q,
                        power_sum_bruteforce, tau_b_expand)
from .skew import frak_S, star_chain_check
from .shuffle import ShuffleEngine

DEFAULT_PARAMS = {"qs": (3, 4), "d_max": 5, "prec": 25, "budget": DEFAULT_BUDGET}
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

_NO_CASE = "no case ran at these parameters"


def _walk(pool, params, grid, over):
    """The one walk over a check's points: at each q of the run, label each
    point of grid(q, params) once and run its case on the q's store,
    yielding (label, result) per result.  The label of a point whose monics
    exceed the budget, or whose case raises BudgetExceeded, goes to over."""
    for q in params["qs"]:
        for monics, case, coords in grid(q, params):
            label = " ".join([f"q={q}"] + [f"{k}={v}" for k, v in coords.items()])
            if monics > pool.budget:
                over.append(label)
                continue
            try:
                for result in case(*pool.get(q), **coords):
                    yield label, result
            except BudgetExceeded:
                over.append(label)


def _tail(over):
    return f"; over budget: {', '.join(over)}" if over else ""


def _grid_check(id, kind, description, extra=""):
    """Register a grid as an exact check.  Each result of a case is one
    case: None if it held, else a failure text, which the witness prefixes
    with the point's label.  The first four failures make a failing
    witness, no case at all a skip, and the points over budget a tail."""
    def deco(grid):
        def run(pool, params):
            failures, over, cases = [], [], 0
            for label, failure in _walk(pool, params, grid, over):
                cases += 1
                if failure is not None:
                    failures.append(f"{label}: {failure}")
            if failures:
                return "fail", "; ".join(failures[:4]) + _tail(over), None
            if not cases:
                return "skipped", _NO_CASE + _tail(over), None
            note = f"; {extra}" if extra else ""
            return "pass", f"{cases} cases exact{note}{_tail(over)}", None
        REGISTRY[id] = CheckSpec(id, kind, description, run)
        return grid
    return deco


def _each_degree(case):
    """The grid of a case that enumerates nothing, at d = 0 .. d_max."""
    return lambda q, params: ((0, case, {"d": d}) for d in range(params["d_max"] + 1))


# ---------------------------------------------------------------------------
# closed forms vs enumeration
# ---------------------------------------------------------------------------

_CLOSED_SPECS = {
    "eq-e1": ("e1", 1, ()), "eq-e2": ("e2", 1, (1,)), "eq-e3": ("e3", 1, (1, 2)),
    "eq-f2": ("f2", 2, (1,)), "eq-f3": ("f3", 2, (1, 2)),
}

def _closed_grid(order, varis):
    def case(ctx, cache, _, d):
        sigma = SemiChar(ctx, len(varis), varis=varis)
        closed = closed_raw(cache, d, order, sigma)
        brute = power_sum_bruteforce(cache, d, order, sigma)
        yield None if closed.equals(brute) else f"closed {closed!r} != enumerated {brute!r}"
    return lambda q, params: ((q ** d, case, {"d": d})
                              for d in range(min(params["d_max"], 4) + 1))

for _cid, _spec in _CLOSED_SPECS.items():
    _grid_check(_cid, "exact-finite",
                f"closed form {_spec[0]} equals enumeration")(_closed_grid(*_spec[1:]))


def _fdq_case(ctx, cache, _, d):
    sigma = SemiChar(ctx, ctx.q, varis=tuple(range(1, ctx.q + 1)))
    enumerated = RawTPoly.sum(power_sum_bruteforce(cache, k, 1, sigma) for k in range(d + 1))
    yield None if partial_F_one_q(cache, d).equals(enumerated) else (
        "product form != enumerated sum")

_grid_check("eq-Fdq", "exact-finite",
            "q-variable weight-one partial sum equals its enumerated form")(
    lambda q, params: ((q ** d, _fdq_case, {"d": d})
                       for d in range(min(params["d_max"], 3) + 1)))


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
    "eq-Fsfirst": (shuffle.per_degree_single, "S(1;s) S(1) = S(2;s) - S[[1,s]]"),
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

def _sides_case(fn):
    def case(ctx, cache, eng, d):
        lhs, rhs = fn(eng, d)
        yield None if lhs.equals(rhs) else "sides differ"
    return case

for _cid, (_fn, _desc) in _PER_DEGREE.items():
    _grid_check(_cid, "exact-per-degree", _desc)(_each_degree(_sides_case(_fn)))


def _nu_case(ctx, cache, eng, d):
    lhs, rhs = shuffle.degree_character_identity(eng, d)
    if not lhs.equals(rhs):
        yield "identity fails"
        return
    l1, r1 = shuffle.product_weight_one_untwisted(eng, d)
    ok = (lhs.substitute(1, [1]).equals(l1.substitute(1, [1]))
          and rhs.substitute(1, [1]).equals(r1.substitute(1, [1])))
    yield None if ok else "t := 1 does not reproduce the untwisted square identity"

_grid_check("remark-nu", "exact-per-degree",
            "degree-character shuffle and its t := 1 specialization")(_each_degree(_nu_case))


# ---------------------------------------------------------------------------
# Frobenius expansions and the skew ring
# ---------------------------------------------------------------------------

def _tau_b_case(ctx, cache, _, d):
    lhs, rhs = tau_b_expand(cache, 1, d)
    yield None if lhs.equals(rhs) else "expansion differs"

_grid_check("lemma-tau-b", "exact-finite",
            "Frobenius of b_d expands over the ell-weighted b-basis")(
    lambda q, params: ((0, _tau_b_case, {"d": d})
                       for d in range((8 if q == 3 else min(params["d_max"], 4)) + 1)))


def _chain_case(ctx, cache, _, n, d):
    lhs, rhs = tau_b_expand(cache, n, d)
    yield None if lhs.equals(rhs) else "chain expansion differs"


def _chain_power_sum_case(ctx, cache, _, n, d):
    chi = SemiChar.chi(ctx, 1, 1)
    closed = closed_raw(cache, d, ctx.q ** n, chi)
    brute = power_sum_bruteforce(cache, d, ctx.q ** n, chi)
    yield None if closed.equals(brute) else "closed power sum != enumeration"


@_grid_check("prop4", "exact-finite",
             "iterated Frobenius expansion and the q^n-order closed form")
def _prop4_grid(q, params):
    n_top, d_top = (3, 5) if q == 3 else (2, 3)
    for n in range(1, n_top + 1):
        for d in range(min(params["d_max"], d_top) + 1):
            yield 0, _chain_case, {"n": n, "d": d}
    # the derived power-sum form, pinned against enumeration
    for n in range(1, 3):
        for d in range(min(params["d_max"], 4 if q == 3 else 3) + 1):
            yield q ** d, _chain_power_sum_case, {"n": n, "d": d}


def _noncommide_case(ctx, cache, _, n, d):
    try:
        frak_S(cache, d, n)
    except CarlitzError as exc:
        yield str(exc)
    else:
        yield None


@_grid_check("cor-noncommide", "exact-finite",
             "twisted power sums in the skew ring: chain form vs enumeration",
             "degree zero excluded by design")
def _noncommide_grid(q, params):
    if q > 4:
        return  # enumeration cost grows as q^(d q^n); covered by q=3,4
    for n in (1, 2):
        for d in range(1, min(params["d_max"], 4 if q == 3 else 3) + 1):
            yield q ** d, _noncommide_case, {"n": n, "d": d}


def _star_chain_case(ctx, cache, _, d):
    rep = star_chain_check(cache, d)
    bad = [k for k in ("skew_equals_star", "star_equals_strict_plus_power",
                       "star_equals_product_minus_swap") if not rep[k]]
    yield f"broken links {bad}" if bad else None

@_grid_check("star-chain", "exact-finite",
             "skew evaluation sums equal the star and strict truncations")
def _star_chain_grid(q, params):
    if q > 4:
        return
    for d in range(1, params["d_max"] + 1):
        yield q ** (d - 1), _star_chain_case, {"d": d}  # frak_S(k) enumerates k < d


# ---------------------------------------------------------------------------
# Bernoulli-Goss checks
# ---------------------------------------------------------------------------

def _bg_grid(case, tops=lambda d_max: {3: min(d_max, 4), 4: 3, 5: 2}):
    """The grid of case over the Bernoulli-Goss degrees d = 1 .. tops(d_max)
    at q (2 for a q not listed): BG_(q^d - 2) sums degrees < d and checks
    d, d + 1 (q^(d+1) monics)."""
    def grid(q, params):
        top = tops(params["d_max"]).get(q, 2)
        return ((q ** (d + 1), case, {"d": d}) for d in range(1, top + 1))
    return grid


def _formula_bg_case(ctx, cache, _, d):
    bg = bernoulli_goss(cache, ctx.q ** d - 2)
    rhs = bg_formula_rhs(cache, d)
    yield None if bg.value == rhs else f"{bg.value!r} != {rhs!r}"


def _exactdegree_case(ctx, cache, _, d):
    pred = bg_degree_formula(ctx.q, d)
    bg = bernoulli_goss(cache, ctx.q ** d - 2)
    if bg.value.degree != pred.degree:
        yield f"deg {bg.value.degree} != {pred.degree}"
        return
    ok = True
    if d >= 2:
        dom, merged, tail = bg_block_values(cache, d)
        ok = (-dom.valuation == pred.dominant_degree
              and -merged.valuation == pred.merged_degree
              and pred.dominant_degree > pred.merged_degree
              and (d < 3 or -tail.valuation == pred.tail_degree))
    yield None if ok else "block degrees off"


def _taod_case(ctx, cache, _, d):
    sv = bg_congruence_survey(cache, d)
    bad = [r for r in sv.rows if not r.congruent]
    if bad:
        yield f"fails at P = {bad[0].modulus!r}"
    else:
        yield from (None for _ in sv.rows)


def _zero_count_case(ctx, cache, _, d):
    sv = bg_congruence_survey(cache, d)
    ok = sv.bound_holds and sv.count_matches_necklace and sv.divisor_consistent
    yield None if ok else (f"zero count {sv.zero_count} vs bound {sv.zero_bound}, "
                           f"divisor consistency {sv.divisor_consistent}")


_grid_check("thm-formulaBG", "exact-finite",
            "finite zeta sum at q^d - 2 equals the closed double sum")(
    _bg_grid(_formula_bg_case))

_grid_check("thm-exactdegree", "exact-finite",
            "degree of the finite zeta sum matches the closed formula",
            "tail block empty below d=3 (excluded there)")(
    _bg_grid(_exactdegree_case, lambda d_max: {3: min(d_max, 5), 4: 3, 5: 3}))

_grid_check("cor-TAOD", "exact-finite",
            "finite zeta sum congruent to the truncated weight-one sum mod "
            "every irreducible of the matching degree")(_bg_grid(_taod_case))


def _necklace_case(ctx, cache, _, d):
    ok = len(irreducibles_of_degree(ctx, d)) == necklace_count(ctx.q, d)
    yield None if ok else "irreducible count != necklace value"


@_grid_check("necklace-bound", "exact-finite",
             "irreducible counts match the necklace polynomial and the "
             "vanishing count respects the divisor bound")
def _necklace_grid(q, params):
    for d in range(1, (6 if q == 3 else 4) + 1):
        yield 0, _necklace_case, {"d": d}
    yield from _bg_grid(_zero_count_case)(q, params)


# ---------------------------------------------------------------------------
# valuation-threshold checks
# ---------------------------------------------------------------------------

# id -> (description, identity(cache, *args, prec), parameter names, the
# argument tuples): the identities checked at q = 3, each returning a dict
# with the achieved and the threshold valuation (looked up in `tate` at
# call time, so that a test can replace one)
_VALUATION = {
    "eq-annals": ("root-free weight-one evaluation identity, plus the exact "
                  "specializations at theta and at the first trivial zero",
                  lambda *a: tate.annals_check(*a), (), [()]),
    "family-qk": ("zeta(q^k) zeta(q^k - 1) = zeta(2q^k - 1) + zeta(q^k - 1, q^k)",
                  lambda *a: tate.family_qk_check(*a), ("k",), [(1,), (2,)]),
    "thakur-thm5": ("zeta(m, m(q-1)) = zeta(mq) / (theta - theta^q)^m",
                    lambda *a: tate.thakur_weight_check(*a), ("m",), [(1,), (2,)]),
    "strange-shuffle": ("the two-parameter untwisted specialization family",
                        lambda *a: tate.strange_shuffle_check(*a), ("h", "k"),
                        [(0, 1), (1, 1)]),
}

# exact sub-checks an outcome may carry besides its valuation
_EXACT_PARTS = ("value_at_theta_is_one", "trivial_zero_vanishes")


def _valuation_runner(identity, names, arg_tuples):
    """A check of identity at q = 3, one point per argument tuple, whose
    case yields the identity's outcome."""
    def grid(q, params):
        def case(ctx, cache, _, **args):
            yield identity(cache, *args.values(), params["prec"])
        return ((0, case, dict(zip(names, args))) for args in (arg_tuples if q == 3 else ()))

    def run(pool, params):
        outcomes, over = [], []
        for _, o in _walk(pool, params, grid, over):
            if not all(o.get(k, True) for k in _EXACT_PARTS):
                return "fail", "specialization sub-checks failed", o["achieved"]
            outcomes.append(o)
        if not outcomes:
            return "skipped", _NO_CASE + _tail(over), None
        worst = min(o["achieved"] for o in outcomes)
        bad = [o for o in outcomes if not o["passed"]]
        if not bad:
            return "pass", f"{len(outcomes)} identities beyond threshold{_tail(over)}", worst
        return "fail", (f"{len(bad)} below threshold; worst achieved "
                        f"{bad[0]['achieved']} vs {bad[0]['threshold']}{_tail(over)}"), worst
    return run

for _cid, (_desc, *_identities) in _VALUATION.items():
    REGISTRY[_cid] = CheckSpec(_cid, "valuation-threshold", _desc,
                               _valuation_runner(*_identities))


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
    """Run one registered check; raises UnknownCheck for unknown ids, and
    InvalidParams for a pool built at a budget other than the run's."""
    if check_id not in REGISTRY:
        raise UnknownCheck(check_id)
    merged = _validated(dict(params))
    pool = pool or _Pool(merged["budget"])
    if pool.budget != merged["budget"]:
        raise InvalidParams(f"pool budget {pool.budget} differs from the run's "
                            f"{merged['budget']}")
    return REGISTRY[check_id].run(pool, merged)


def iter_suite(pattern="all", **params):
    """Run every check whose id matches the glob pattern, in id order.

    Validates the parameters at once and returns a generator that yields
    each CheckReport as its check finishes; failures are recorded, never
    raised.
    """
    merged = _validated(dict(params))
    ids = sorted(REGISTRY) if pattern in ("all", "*") else \
        sorted(fnmatch.filter(REGISTRY, pattern))
    pool = _Pool(merged["budget"])
    return (REGISTRY[i].run(pool, merged) for i in ids)


def run_suite(pattern="all", **params):
    """The list of `iter_suite`'s CheckReports."""
    return list(iter_suite(pattern, **params))


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

def reports_to_json(reports):
    doc = {"all_passed": all_passed(reports),
           "checks": [r.as_record() for r in reports]}
    return json.dumps(doc, sort_keys=True, indent=2)


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

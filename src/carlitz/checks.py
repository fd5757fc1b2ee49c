"""The verification registry: one executable check per named identity.

Each check has a stable id, a kind (exact-per-degree, exact-finite, or
valuation-threshold), and a runner that sweeps its parameter grid and
produces a CheckReport.  Failures never abort a suite run; every check
reports pass/fail/skipped with a witness string, and valuation-threshold
checks also record the achieved valuation of the difference.  A check
whose grid holds no case at the given parameters is skipped, not passed.

An exact check is a generator over its grid, registered by `_grid_check`:
for each case it yields None if the case held or its failure message, and
for each grid point it leaves out because the enumeration would exceed
the budget, an `_Over` label naming the point.  That driver alone counts
the cases and turns them into a status and a witness.

Reports are deterministic: two runs with the same parameters produce the
same records up to the timing field.
"""

import fnmatch
import io
import json
import time
from dataclasses import dataclass, field

from . import shuffle, tate
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


class _Over(str):
    """A grid point left out because its enumeration exceeds the budget."""


def _grid_check(id, kind, description, extra=""):
    """Register a grid generator as a check.  Per case the generator yields
    None if the case held or its failure message; per grid point left out
    over budget, an _Over label.  The first four failures make a failing
    witness, no case at all a skip, and the over-budget labels a tail."""
    def deco(gen):
        def run(pool, params):
            failures, over, cases = [], [], 0
            for item in gen(pool, params):
                if isinstance(item, _Over):
                    over.append(item)
                    continue
                cases += 1
                if item is not None:
                    failures.append(item)
            tail = f"; over budget: {', '.join(over)}" if over else ""
            if failures:
                return "fail", "; ".join(failures[:4]) + tail, None
            if not cases:
                return "skipped", _NO_CASE + tail, None
            note = f"; {extra}" if extra else ""
            return "pass", f"{cases} cases exact{note}{tail}", None
        REGISTRY[id] = CheckSpec(id, kind, description, run)
        return gen
    return deco


# ---------------------------------------------------------------------------
# closed forms vs enumeration
# ---------------------------------------------------------------------------

_CLOSED_SPECS = {
    "eq-e1": ("e1", 1, ()), "eq-e2": ("e2", 1, (1,)), "eq-e3": ("e3", 1, (1, 2)),
    "eq-f2": ("f2", 2, (1,)), "eq-f3": ("f3", 2, (1, 2)),
}

def _closed_cases(order, varis):
    def cases(pool, params):
        for q in params["qs"]:
            ctx, cache, _ = pool.get(q)
            sigma = SemiChar(ctx, len(varis), varis=varis)
            for d in range(min(params["d_max"], 4) + 1):
                if q ** d > pool.budget:
                    yield _Over(f"q={q} d={d}")
                    continue
                closed = closed_raw(cache, d, order, sigma)
                brute = power_sum_bruteforce(cache, d, order, sigma)
                yield None if closed.equals(brute) else (
                    f"q={q} d={d}: closed {closed!r} != enumerated {brute!r}")
    return cases

for _cid, _spec in _CLOSED_SPECS.items():
    _grid_check(_cid, "exact-finite",
                f"closed form {_spec[0]} equals enumeration")(_closed_cases(*_spec[1:]))


@_grid_check("eq-Fdq", "exact-finite",
             "q-variable weight-one partial sum equals its enumerated form")
def _check_fdq(pool, params):
    for q in params["qs"]:
        ctx, cache, _ = pool.get(q)
        sigma = SemiChar(ctx, q, varis=tuple(range(1, q + 1)))
        for d in range(min(params["d_max"], 3) + 1):
            if q ** d > pool.budget:
                yield _Over(f"q={q} d={d}")
                continue
            closed = partial_F_one_q(cache, d)
            acc = None
            for k in range(d + 1):
                term = power_sum_bruteforce(cache, k, 1, sigma)
                acc = term if acc is None else acc + term
            yield None if closed.equals(acc) else (
                f"q={q} d={d}: product form != enumerated sum")


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

def _per_degree_cases(fn):
    def cases(pool, params):
        for q in params["qs"]:
            _, _, eng = pool.get(q)
            for d in range(params["d_max"] + 1):
                lhs, rhs = fn(eng, d)
                yield None if lhs.equals(rhs) else f"q={q} d={d}: sides differ"
    return cases

for _cid, (_fn, _desc) in _PER_DEGREE.items():
    _grid_check(_cid, "exact-per-degree", _desc)(_per_degree_cases(_fn))


@_grid_check("remark-nu", "exact-per-degree",
             "degree-character shuffle and its t := 1 specialization")
def _check_nu(pool, params):
    for q in params["qs"]:
        _, _, eng = pool.get(q)
        for d in range(params["d_max"] + 1):
            lhs, rhs = shuffle.degree_character_identity(eng, d)
            if not lhs.equals(rhs):
                yield f"q={q} d={d}: identity fails"
                continue
            l1, r1 = shuffle.product_weight_one_untwisted(eng, d)
            if (lhs.substitute_one(1).equals(l1.substitute_one(1))
                    and rhs.substitute_one(1).equals(r1.substitute_one(1))):
                yield None
            else:
                yield (f"q={q} d={d}: t := 1 does not reproduce the "
                       "untwisted square identity")


# ---------------------------------------------------------------------------
# Frobenius expansions and the skew ring
# ---------------------------------------------------------------------------

@_grid_check("lemma-tau-b", "exact-finite",
             "Frobenius of b_d expands over the ell-weighted b-basis")
def _check_tau_b(pool, params):
    for q in params["qs"]:
        _, cache, _ = pool.get(q)
        top = 8 if q == 3 else min(params["d_max"], 4)
        for d in range(top + 1):
            lhs, rhs = tau_b_expand(cache, 1, d)
            yield None if lhs.equals(rhs) else f"q={q} d={d}: expansion differs"


@_grid_check("prop4", "exact-finite",
             "iterated Frobenius expansion and the q^n-order closed form")
def _check_prop4(pool, params):
    for q in params["qs"]:
        ctx, cache, _ = pool.get(q)
        n_top = 3 if q == 3 else 2
        d_top = min(params["d_max"], 5) if q == 3 else min(params["d_max"], 3)
        for n in range(1, n_top + 1):
            for d in range(d_top + 1):
                lhs, rhs = tau_b_expand(cache, n, d)
                yield None if lhs.equals(rhs) else (
                    f"q={q} n={n} d={d}: chain expansion differs")
        # the derived power-sum form, pinned against enumeration
        chi = SemiChar.chi(ctx, 1, 1)
        for n in range(1, 3):
            for d in range(min(params["d_max"], 4 if q == 3 else 3) + 1):
                if q ** d > pool.budget:
                    yield _Over(f"q={q} n={n} d={d}")
                    continue
                closed = closed_raw(cache, d, q ** n, chi)
                brute = power_sum_bruteforce(cache, d, q ** n, chi)
                yield None if closed.equals(brute) else (
                    f"q={q} n={n} d={d}: closed power sum != enumeration")


@_grid_check("cor-noncommide", "exact-finite",
             "twisted power sums in the skew ring: chain form vs enumeration",
             "degree zero excluded by design")
def _check_noncommide(pool, params):
    for q in params["qs"]:
        if q > 4:
            continue  # enumeration cost grows as q^(d q^n); covered by q=3,4
        _, cache, _ = pool.get(q)
        d_top = min(params["d_max"], 4) if q == 3 else min(params["d_max"], 3)
        for n in (1, 2):
            for d in range(1, d_top + 1):
                if q ** d > pool.budget:
                    yield _Over(f"q={q} n={n} d={d}")
                    continue
                try:
                    frak_S(cache, d, n)
                except CarlitzError as exc:
                    yield f"q={q} n={n} d={d}: {exc}"
                else:
                    yield None


@_grid_check("star-chain", "exact-finite",
             "skew evaluation sums equal the star and strict truncations")
def _check_star_chain(pool, params):
    for q in params["qs"]:
        if q > 4:
            continue
        _, cache, _ = pool.get(q)
        for d in range(1, params["d_max"] + 1):
            if q ** (d - 1) > pool.budget:  # frak_S(k) enumerates k < d
                yield _Over(f"q={q} d={d}")
                continue
            rep = star_chain_check(cache, d)
            bad = [k for k in ("skew_equals_star", "star_equals_strict_plus_power",
                               "star_equals_product_minus_swap") if not rep[k]]
            yield f"q={q} d={d}: broken links {bad}" if bad else None


# ---------------------------------------------------------------------------
# Bernoulli-Goss checks
# ---------------------------------------------------------------------------

def _bg_grid(pool, params, case, tops=None):
    """Yield from case(cache, q, d) at each point of the Bernoulli-Goss
    grid, or an _Over label where the enumeration exceeds the budget:
    BG_(q^d - 2) sums degrees < d and checks d, d + 1 (q^(d+1) monics)."""
    for q in params["qs"]:
        top = (tops or {3: min(params["d_max"], 4), 4: 3, 5: 2}).get(q, 2)
        for d in range(1, top + 1):
            if q ** (d + 1) > pool.budget:
                yield _Over(f"q={q} d={d}")
            else:
                yield from case(pool.get(q)[1], q, d)


def _formula_bg_case(cache, q, d):
    bg = bernoulli_goss(cache, q ** d - 2)
    rhs = bg_formula_rhs(cache, d)
    yield None if bg.value == rhs else f"q={q} d={d}: {bg.value!r} != {rhs!r}"


def _exactdegree_case(cache, q, d):
    pred = bg_degree_formula(q, d)
    bg = bernoulli_goss(cache, q ** d - 2)
    if bg.value.degree != pred.degree:
        yield f"q={q} d={d}: deg {bg.value.degree} != {pred.degree}"
        return
    ok = True
    if d >= 2:
        dom, merged, tail = bg_block_values(cache, d)
        ok = (-dom.valuation == pred.dominant_degree
              and -merged.valuation == pred.merged_degree
              and pred.dominant_degree > pred.merged_degree
              and (d < 3 or -tail.valuation == pred.tail_degree))
    yield None if ok else f"q={q} d={d}: block degrees off"


def _taod_case(cache, q, d):
    sv = bg_congruence_survey(cache, d)
    bad = [r for r in sv.rows if not r.congruent]
    if bad:
        yield f"q={q} d={d}: fails at P = {bad[0].modulus!r}"
    else:
        yield from (None for _ in sv.rows)


def _zero_count_case(cache, q, d):
    sv = bg_congruence_survey(cache, d)
    ok = sv.bound_holds and sv.count_matches_necklace and sv.divisor_consistent
    yield None if ok else (f"q={q} d={d}: zero count {sv.zero_count} vs bound "
                           f"{sv.zero_bound}, divisor consistency {sv.divisor_consistent}")


_grid_check("thm-formulaBG", "exact-finite",
            "finite zeta sum at q^d - 2 equals the closed double sum")(
    lambda pool, params: _bg_grid(pool, params, _formula_bg_case))

_grid_check("thm-exactdegree", "exact-finite",
            "degree of the finite zeta sum matches the closed formula",
            "tail block empty below d=3 (excluded there)")(
    lambda pool, params: _bg_grid(pool, params, _exactdegree_case,
                                  {3: min(params["d_max"], 5), 4: 3, 5: 3}))

_grid_check("cor-TAOD", "exact-finite",
            "finite zeta sum congruent to the truncated weight-one sum mod "
            "every irreducible of the matching degree")(
    lambda pool, params: _bg_grid(pool, params, _taod_case))


@_grid_check("necklace-bound", "exact-finite",
             "irreducible counts match the necklace polynomial and the "
             "vanishing count respects the divisor bound")
def _check_necklace(pool, params):
    for q in params["qs"]:
        ctx = pool.get(q)[0]
        for d in range(1, (6 if q == 3 else 4) + 1):
            ok = len(irreducibles_of_degree(ctx, d)) == necklace_count(q, d)
            yield None if ok else f"q={q} d={d}: irreducible count != necklace value"
    yield from _bg_grid(pool, params, _zero_count_case)


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
    """Run each identity at q = 3; one whose enumeration exceeds the budget
    is left out and named in an over-budget tail, as in `_grid_check`."""
    def run(pool, params):
        outcomes, over = [], []
        for q in params["qs"]:
            if q != 3:
                continue
            for args in arg_tuples:
                try:
                    o = identity(pool.get(q)[1], *args, params["prec"])
                except BudgetExceeded:
                    over.append(" ".join([f"q={q}"] + [f"{n}={v}"
                                                       for n, v in zip(names, args)]))
                    continue
                if not all(o.get(k, True) for k in _EXACT_PARTS):
                    return "fail", "specialization sub-checks failed", o["achieved"]
                outcomes.append(o)
        tail = f"; over budget: {', '.join(over)}" if over else ""
        if not outcomes:
            return "skipped", _NO_CASE + tail, None
        worst = min(o["achieved"] for o in outcomes)
        bad = [o for o in outcomes if not o["passed"]]
        if not bad:
            return "pass", f"{len(outcomes)} identities beyond threshold{tail}", worst
        return "fail", (f"{len(bad)} below threshold; worst achieved "
                        f"{bad[0]['achieved']} vs {bad[0]['threshold']}{tail}"), worst
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

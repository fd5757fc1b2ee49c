"""Span tracing around the layer entry points of carlitz, installed from
outside the package.

`Tracer.install()` replaces every binding of each traced function: the
defining module's global, every by-name import of it in another carlitz
module (`from .powersums import power_sum` in `tate`, for example), the
re-export in the package namespace, and class-attribute aliases such as
`RatK.__radd__ = __add__`.  `Tracer.uninstall()` puts every original back.

Each call of a traced function records one span: name, start, end and the
index of the enclosing span.  Spans are kept in flat arrays in memory and
summarised by `Tracer.summary()` after the run: per span name the call
count and the inclusive and self time (a span's duration minus the time
its child spans cover), plus the work counters listed in `TRACED`.
`Tracer.dump()` writes the spans themselves out.
"""

import gzip
import json
import sys
import time
from array import array
from collections import Counter, defaultdict


def _kmul_slots(args, kwargs):
    la, lb = len(args[1]), len(args[2])
    return la + lb - 1 if la and lb else 0


def _kdivmod_qslots(args, kwargs):
    return max(0, len(args[1]) - len(args[2]) + 1)


def _kgcd_slots(args, kwargs):
    return len(args[1]) + len(args[2])


def _power_sum_monics(args, kwargs):
    cache, d = args[0], args[1]
    return cache.ctx.q ** d


def _runs_gcd(args, kwargs):
    """RatK(num, den, _reduced) normalizes (runs a gcd) unless it is told the
    parts are already reduced or the numerator is zero."""
    reduced = kwargs.get("_reduced", args[3] if len(args) > 3 else False)
    return not reduced and bool(getattr(args[1], "coeffs", None))


# (module, attribute path, span name, work counter name, work function,
#  predicate deciding whether a call is traced).  Some spans are reported
# only through their module's self time (FieldContext.init, CheckSpec.run,
# parse_matrix_data): they keep that time out of the caller's module.
TRACED = [
    ("ffield", "FieldContext.__init__", "ffield.FieldContext.init", None, None, None),
    ("_packed", "pack", "packed.pack", None, None, None),
    ("_packed", "unpack", "packed.unpack", None, None, None),
    ("_packed", "kmul", "packed.kmul", "packed.kmul.slots", _kmul_slots, None),
    ("_packed", "kdivmod", "packed.kdivmod", "packed.kdivmod.qslots",
     _kdivmod_qslots, None),
    ("_packed", "kgcd", "packed.kgcd", "packed.kgcd.slots", _kgcd_slots, None),
    ("_packed", "kpow", "packed.kpow", None, None, None),
    ("poly", "APoly.__mul__", "poly.APoly.mul", None, None, None),
    ("poly", "RatK.__init__", "poly.RatK.norm", None, None, _runs_gcd),
    ("poly", "irreducibles_of_degree", "poly.irreducibles_of_degree", None, None, None),
    ("tpoly", "TPoly.__mul__", "tpoly.TPoly.mul", None, None, None),
    ("tpoly", "TPoly.__add__", "tpoly.TPoly.add", None, None, None),
    ("_rawfrac", "RawTPoly.__mul__", "rawfrac.RawTPoly.mul", None, None, None),
    ("_rawfrac", "RawTPoly.__add__", "rawfrac.RawTPoly.add", None, None, None),
    ("_rawfrac", "RawTPoly.equals", "rawfrac.RawTPoly.equals", None, None, None),
    ("powersums", "power_sum_bruteforce", "powersums.power_sum_bruteforce",
     "powersums.power_sum_bruteforce.monics", _power_sum_monics, None),
    ("powersums", "power_sum", "powersums.power_sum", None, None, None),
    ("powersums", "power_sum_closed", "powersums.power_sum_closed", None, None, None),
    ("powersums", "tau_b_expand", "powersums.tau_b_expand", None, None, None),
    ("skew", "frak_S", "skew.frak_S", None, None, None),
    ("skew", "frak_S_bruteforce", "skew.frak_S_bruteforce", None, None, None),
    ("skew", "star_chain_check", "skew.star_chain_check", None, None, None),
    ("mzv", "partial_zeta", "mzv.partial_zeta", None, None, None),
    ("mzv", "multi_power_sum", "mzv.multi_power_sum", None, None, None),
    ("mzv", "bernoulli_goss", "mzv.bernoulli_goss", None, None, None),
    ("mzv", "bg_congruence_survey", "mzv.bg_congruence_survey", None, None, None),
    ("shuffle", "ShuffleEngine.S", "shuffle.ShuffleEngine.S", None, None, None),
    ("shuffle", "ShuffleEngine.Smulti", "shuffle.ShuffleEngine.Smulti", None, None, None),
    ("shuffle", "ShuffleEngine.Fmulti", "shuffle.ShuffleEngine.Fmulti", None, None, None),
    ("tate", "TateSeries.__mul__", "tate.TateSeries.mul", None, None, None),
    ("tate", "TateSeries.__add__", "tate.TateSeries.add", None, None, None),
    ("tate", "TateSeries.from_ratk", "tate.TateSeries.from_ratk", None, None, None),
    ("tate", "TateSeries.invert_unit", "tate.TateSeries.invert_unit", None, None, None),
    ("tate", "zeta_series", "tate.zeta_series", None, None, None),
    ("checks", "CheckSpec.run", "checks.CheckSpec.run", None, None, None),
    ("textio", "format_tpoly", "textio.format_tpoly", None, None, None),
    ("textio", "parse_matrix_data", "textio.parse_matrix_data", None, None, None),
]

# generators: counted per yielded item, without a span (their time is
# interleaved with the consumer's and stays in the consumer's span)
COUNTED_GENERATORS = [
    ("poly", "enumerate_monics", "poly.enumerate_monics.yielded"),
]


def _carlitz_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "carlitz" or name.startswith("carlitz."))]


def _bindings(target):
    """Every (namespace owner, attribute name, raw value) holding target:
    module globals and class dicts of every loaded carlitz module.  The raw
    value is the classmethod/staticmethod object where target is wrapped
    in one."""
    found = []
    seen_classes = set()
    for mod in _carlitz_modules():
        for name, value in list(vars(mod).items()):
            if value is target:
                found.append((mod, name, value))
            elif isinstance(value, type) and value.__module__.startswith("carlitz") \
                    and id(value) not in seen_classes:
                seen_classes.add(id(value))
                for attr, raw in list(vars(value).items()):
                    inner = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if inner is target:
                        found.append((value, attr, raw))
    return found


def _resolve(module, path):
    obj = sys.modules[f"carlitz.{module}"]
    *owners, last = path.split(".")
    for part in owners:
        obj = getattr(obj, part)
    raw = vars(obj)[last]
    return raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw


class Tracer:
    """Records spans around the traced carlitz entry points while
    installed.  Use as a context manager, or call install()/uninstall()."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("I")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.counters = Counter()
        self._stack = [-1]
        self._patches = []

    # -- installation --------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span_wrapper(self, fn, name, counter, work, when):
        nid = self._name_id(name)
        names, starts, ends, parents = (self.span_name, self.span_start,
                                        self.span_end, self.span_parent)
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            if counter is not None:
                counters[counter] += work(args, kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _counting_generator(self, fn, counter):
        counters = self.counters

        def counted(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counters[counter] += n

        counted.__wrapped__ = fn
        return counted

    def _patch(self, target, replacement):
        for owner, attr, raw in _bindings(target):
            if isinstance(raw, classmethod):
                new = classmethod(replacement)
            elif isinstance(raw, staticmethod):
                new = staticmethod(replacement)
            else:
                new = replacement
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, new)

    def install(self):
        import carlitz  # noqa: F401  -- loads every module that gets patched
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, path, name, counter, work, when in TRACED:
            fn = _resolve(module, path)
            self._patch(fn, self._span_wrapper(fn, name, counter, work, when))
        for module, path, counter in COUNTED_GENERATORS:
            fn = _resolve(module, path)
            self._patch(fn, self._counting_generator(fn, counter))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ---------------------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive seconds (`total_s`, counting only
        spans with no enclosing span of the same name, so recursion is not
        counted twice) and self seconds; per module (the span name's first
        component): self seconds; plus the work counters and
        `powersums.power_sum.enum_route`, the number of enumeration-oracle
        calls made directly by `power_sum`."""
        names, starts, ends, parents = (self.span_name, self.span_start,
                                        self.span_end, self.span_parent)
        n = len(names)
        child = [0.0] * n
        for i in range(n):
            par = parents[i]
            if par >= 0:
                child[par] += ends[i] - starts[i]
        calls = Counter()
        total = defaultdict(float)
        self_s = defaultdict(float)
        for i in range(n):
            nid = names[i]
            name = self.names[nid]
            dur = ends[i] - starts[i]
            calls[name] += 1
            self_s[name] += dur - child[i]
            par = parents[i]
            while par >= 0 and names[par] != nid:
                par = parents[par]
            if par < 0:
                total[name] += dur
        modules = defaultdict(float)
        for name, sec in self_s.items():
            modules[name.split(".", 1)[0]] += sec
        ps = self._ids.get("powersums.power_sum")
        brute = self._ids.get("powersums.power_sum_bruteforce")
        enum_route = sum(1 for i in range(n)
                         if names[i] == brute and parents[i] >= 0
                         and names[parents[i]] == ps)
        return {"spans": n, "calls": dict(calls), "total_s": dict(total),
                "self_s": dict(self_s), "module_self_s": dict(modules),
                "counters": dict(self.counters,
                                 **{"powersums.power_sum.enum_route": enum_route})}

    def dump(self, path):
        """Write every span (name, start, end, parent index) as gzipped JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"names": self.names, "name": self.span_name.tolist(),
               "start": self.span_start.tolist(), "end": self.span_end.tolist(),
               "parent": self.span_parent.tolist()}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)

"""The carlitz benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the program is imported from
`src/`.  Workloads: verify-default, shuffle-deep, zeta-partial, tate-series
(see `workloads.py` for what each runs and why).

Every pass of a workload runs in a fresh interpreter (`worker.py`), because a
`carlitz` invocation never carries state over, the `lru_cache` on
`irreducibles_of_degree` is process-wide, and peak memory is only per-pass
if the process is.  A pass is never cut short.

`--trace 0` measures the program against a frozen copy of carlitz as it
was when this benchmark was defined (`baseline/carlitz`, without the CLI;
its digest is checked against BASELINE_SHA256).  Other tenants of a shared
machine slow each CPU down by up to 2x, independently per CPU and changing
within a second, which no number of passes averages out.  So every pass is
a pair: a program worker and a baseline worker, started together and pinned
to the same CPU, where the scheduler interleaves them a few milliseconds at
a time; each times its operations in its own thread's CPU seconds.  Both
see the same machine, so the program-to-baseline ratio of a pair holds
within about 1% while the raw seconds move by 50%.  Pairs run one after
another while the next one is expected to end within `--seconds` (always
at least one pair).

Times are reported at a fixed machine speed: the one at which the baseline
takes the seconds in `baseline_times.json` (its fastest times alone on a
shared 2-core Xeon, see make_references.py).  A program time is that
reference times the program-to-baseline ratio, the median over the run's
pairs.  The baseline never changes, so a change to the program moves these
times in full.  The raw CPU seconds of both trees are printed on the
provenance line.

- wall_s: the time of a pass from the first call into the program to the
  last output (the sum of its operations' times; ratio of the pass sums);
- max_op_s: the slowest operation (ratio of that operation's times);
- setup_s: `import carlitz` plus building the workload's field contexts,
  over at least SETUP_SAMPLES pairs;
- peak_rss_mb: peak resident memory of a program worker, median over
  passes (not scaled);
- pass_frac: share of operations that passed and matched the committed
  references (`references.json`).

`--trace 1` runs one untraced and one traced pass and reports the per-layer
metrics from the traced one (see `spans.py`), the kernel grid
(`kernel_grid.py`), per-check times and executed cases from the untraced
pass, `trace.overhead_s` (traced minus untraced wall time of the two passes,
which machine noise can make negative) and `src.lines`.  It also requires the
traced pass's outputs to equal the untraced ones.

`--smoke` runs every workload at toy size against the smoke references, for
the benchmark's own tests.

A provenance line (seed, git commit, Python version, nproc, CPU model,
src.lines) is printed before the result, which is the last line of
standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "carlitz"
sys.path.insert(0, str(ROOT))

from perfbench.metrics import (CHECK_IDS, COUNTERS, END_TO_END, MODULES,  # noqa: E402
                               PER_LAYER, SPAN_METRICS, WORKLOADS)

SETUP_SAMPLES = 7
TREES = ("program", "baseline")
BASELINE = HERE / "baseline" / "carlitz"
BASELINE_SHA256 = "5ceb8f3514698bcf1638ddf2ed12ec7041de2ceb4a3e944baddf1703155d78a4"
# per workload: the baseline's set-up time and the time of each operation;
# smoke runs report raw seconds instead
BASELINE_TIMES = HERE / "baseline_times.json"
RUN_LIMIT_S = 170     # a run must end well inside 180 seconds


def _command(workload, seed, mode, smoke, tree="program", cpu=None):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--tree", tree]
    cmd += [] if cpu is None else ["--cpu", str(cpu)]
    return cmd + (["--smoke"] if smoke else [])


def _time_left(deadline, what):
    if deadline is None:
        return None
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError(f"no time left for a {what} pass")
    return timeout


def _worker(workload, seed, mode, smoke, deadline=None, tree="program"):
    """Run one worker process alone; return its JSON result."""
    proc = subprocess.run(_command(workload, seed, mode, smoke, tree), cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=_time_left(deadline, mode))
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({tree} {mode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _pair(workload, seed, mode, smoke, deadline):
    """Run a program and a baseline worker at once, both pinned to one CPU;
    return their JSON results by tree."""
    cpu = min(os.sched_getaffinity(0))
    procs = {}
    try:
        for tree in TREES:
            procs[tree] = subprocess.Popen(
                _command(workload, seed, mode, smoke, tree, cpu), cwd=ROOT,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        results = {}
        for tree, proc in procs.items():
            out, err = proc.communicate(timeout=_time_left(deadline, mode))
            if proc.returncode != 0:
                raise RuntimeError(f"worker failed ({tree} {mode}):\n{err}")
            results[tree] = json.loads(out.splitlines()[-1])
        return results
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def _compare(ops, expected):
    """(attempted, failed, problems) of one pass against its references:
    every expected operation must be present, without error, with the
    reference output.  An operation with no reference is a problem too."""
    got = {op["key"]: op for op in ops}
    problems = []
    for key, ref in expected.items():
        op = got.get(key)
        if op is None:
            problems.append(f"{key}: missing")
        elif "error" in op:
            problems.append(f"{key}: {op['error']}")
        elif op["out"] != ref:
            problems.append(f"{key}: output differs from the reference")
        elif isinstance(ref, dict) and ref["status"] != "pass":
            problems.append(f"{key}: status {ref['status']}")
    failed = len(problems)
    problems += [f"{key}: no reference" for key in sorted(got.keys() - expected.keys())]
    return len(expected), failed, problems


def _cases(ops):
    """Executed cases, parsed from the witnesses ("21 cases exact", ...)."""
    total = 0
    for op in ops:
        out = op.get("out")
        m = re.match(r"(\d+) ", out["witness"]) if isinstance(out, dict) else None
        total += int(m.group(1)) if m else 0
    return total


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.glob("*.py")))


def provenance(seed):
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"seed": seed, "git_commit": commit,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "src_lines": src_lines()}


def baseline_digest():
    h = hashlib.sha256()
    for path in sorted(BASELINE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def measure(workload, seed, seconds, smoke, expected, deadline):
    """End-to-end metrics over the pairs of passes that fit in `seconds`,
    and the raw figures for the provenance line."""
    pairs = []
    attempted = failed = 0
    problems = []
    t_start = time.monotonic()
    longest = 0.0
    while not pairs or time.monotonic() - t_start + longest <= seconds:
        t0 = time.monotonic()
        pair = _pair(workload, seed, "pass", smoke, deadline)
        longest = max(longest, time.monotonic() - t0)
        pairs.append(pair)
        a, f, p = _compare(pair["program"]["ops"], expected)
        attempted, failed, problems = attempted + a, failed + f, problems + p
        problems += [f"baseline {problem}"
                     for problem in _compare(pair["baseline"]["ops"], expected)[2]]
    setups = [(pair["program"]["setup_s"], pair["baseline"]["setup_s"]) for pair in pairs]
    while len(setups) < SETUP_SAMPLES:
        pair = _pair(workload, seed, "setup", smoke, deadline)
        setups.append((pair["program"]["setup_s"], pair["baseline"]["setup_s"]))

    def median_ratio(num, den):
        return statistics.median(n / d for n, d in zip(num, den))

    prog = [pr["program"] for pr in pairs]
    base = [pr["baseline"] for pr in pairs]
    wall = [sum(op["s"] for op in r["ops"]) for r in prog]
    base_wall = [sum(op["s"] for op in r["ops"]) for r in base]
    if smoke:
        wall_s = statistics.median(wall)
        max_op_s = statistics.median(max(op["s"] for op in r["ops"]) for r in prog)
        setup_s = statistics.median(sp for sp, _ in setups)
    else:
        # each program time scaled by the baseline figure measured alongside
        # it: the whole pass for wall_s, the same operation for max_op_s
        ref = json.loads(BASELINE_TIMES.read_text(encoding="utf-8"))[workload]
        wall_s = sum(ref["ops"].values()) * median_ratio(wall, base_wall)
        op_s = [{op["key"]: op["s"] for op in r["ops"]} for r in prog]
        base_op_s = [{op["key"]: op["s"] for op in r["ops"]} for r in base]
        max_op_s = wall_s   # a pass that failed as a whole is one operation
        if all(key in o for o in op_s for key in ref["ops"]):
            max_op_s = max(ref_s * median_ratio([o[key] for o in op_s],
                                                [o[key] for o in base_op_s])
                           for key, ref_s in ref["ops"].items())
        setup_s = ref["setup_s"] * median_ratio(*zip(*setups))
    metrics = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in prog),
        "pass_frac": (attempted - failed) / attempted,
        "max_op_s": max_op_s,
    }
    raw = {"pairs": len(pairs),
           "raw_wall_s": statistics.median(wall),
           "raw_baseline_wall_s": statistics.median(base_wall),
           "raw_setup_s": statistics.median(s for s, _ in setups),
           "raw_baseline_setup_s": statistics.median(b for _, b in setups)}
    return metrics, attempted, failed, problems, raw


def measure_traced(workload, seed, smoke, expected, deadline):
    """Per-layer metrics from one untraced and one traced pass."""
    plain = _worker(workload, seed, "pass", smoke, deadline)
    traced = _worker(workload, seed, "traced", smoke, deadline)
    attempted = failed = 0
    problems = []
    for res in (plain, traced):
        a, f, p = _compare(res["ops"], expected)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    strip = [[{k: v for k, v in op.items() if k != "s"} for op in r["ops"]]
             for r in (plain, traced)]
    if strip[0] != strip[1]:
        problems.append("traced outputs differ from untraced outputs")
    problems += [f"kernel grid: {f}" for f in traced["grid_failures"]]

    tr = traced["trace"]
    metrics = {f"{m}.self_s": tr["module_self_s"].get(m, 0.0) for m in MODULES}
    for span, kinds in SPAN_METRICS:
        if "calls" in kinds:
            metrics[f"{span}.calls"] = tr["calls"].get(span, 0)
        if "s" in kinds:
            metrics[f"{span}.s"] = tr["total_s"].get(span, 0.0)
    metrics.update({name: tr["counters"].get(name, 0) for name in COUNTERS})
    op_s = {op["key"]: op["s"] for op in plain["ops"]}
    metrics.update({f"checks.{cid}.s": op_s.get(cid, 0.0) for cid in CHECK_IDS})
    metrics["checks.cases"] = _cases(plain["ops"])
    metrics.update(traced["grid"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics["src.lines"] = src_lines()
    return metrics, attempted, failed, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="toy sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "__init__.py").is_file():
        print(f"error: no carlitz sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if baseline_digest() != BASELINE_SHA256:
        print(f"error: the frozen baseline under {BASELINE} has changed",
              file=sys.stderr)
        return 2
    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    expected = refs["smoke" if args.smoke else "full"][args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S

    if args.trace:
        metrics, attempted, failed, problems = measure_traced(
            args.workload, args.seed, args.smoke, expected, deadline)
        table = PER_LAYER
    else:
        metrics, attempted, failed, problems, raw = measure(
            args.workload, args.seed, args.seconds, args.smoke, expected, deadline)
        table = [(name, unit, better) for name, unit, better, _ in END_TO_END]

    for problem in problems:
        print(f"problem: {problem}")
    prov = provenance(args.seed)
    prov.update(workload=args.workload, trace=args.trace, smoke=args.smoke)
    if not args.trace:
        prov.update(raw)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit, _ in table}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate `references.json`, or `baseline_times.json` with
`--baseline-times`.

    python3 perfbench/make_references.py [--baseline-times]

`references.json` holds the expected output of every operation of every
workload, at full and at smoke size.  Check operations store their report
record without `elapsed_ms`; zeta-partial requests store the sha256 of their
`format_tpoly` text.  Regenerate it only when a change is meant to alter
reports; the benchmark fails any run whose outputs differ from these.

`baseline_times.json` holds, per workload, the frozen baseline's set-up time
and the time of each operation, each the fastest of BASELINE_PASSES passes
run alone: the machine speed at which run.py reports times.  It belongs to
the baseline and changes only with it.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.metrics import WORKLOADS  # noqa: E402
from perfbench.run import BASELINE_TIMES, HERE, _worker  # noqa: E402

BASELINE_PASSES = 5


def references():
    refs = {}
    for size, smoke in (("smoke", True), ("full", False)):
        refs[size] = {}
        for workload in WORKLOADS:
            t0 = time.monotonic()
            res = _worker(workload, 0, "pass", smoke)
            bad = [op["key"] for op in res["ops"]
                   if "error" in op or (isinstance(op["out"], dict)
                                        and op["out"]["status"] != "pass")]
            if bad:
                sys.exit(f"{workload} ({size}): operations did not pass: {bad}")
            refs[size][workload] = {op["key"]: op["out"] for op in res["ops"]}
            print(f"{size} {workload}: {len(res['ops'])} operations, "
                  f"{time.monotonic() - t0:.1f} s", file=sys.stderr)
    (HERE / "references.json").write_text(
        json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def baseline_times():
    times = {}
    for workload in WORKLOADS:
        runs = [_worker(workload, 0, "pass", False, tree="baseline")
                for _ in range(BASELINE_PASSES)]
        keys = [op["key"] for op in runs[0]["ops"]]
        ops = {key: round(min(op["s"] for r in runs for op in r["ops"]
                              if op["key"] == key), 6)
               for key in keys}
        times[workload] = {"setup_s": round(min(r["setup_s"] for r in runs), 6),
                           "ops": ops}
        print(f"{workload}: {sum(ops.values()):.3f} s", file=sys.stderr)
    BASELINE_TIMES.write_text(json.dumps(times, indent=1) + "\n", encoding="utf-8")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--baseline-times", action="store_true",
                    help="write baseline_times.json instead of references.json")
    if ap.parse_args().baseline_times:
        baseline_times()
    else:
        references()


if __name__ == "__main__":
    main()

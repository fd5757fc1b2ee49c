"""One measured pass of a workload in a fresh interpreter; prints one JSON
object on stdout.  Started by `run.py`, never imported.

    python3 perfbench/worker.py --workload W --seed N --mode setup|pass|traced
        [--tree program|baseline] [--cpu C] [--smoke]

`--tree` picks the carlitz that is imported: the program under `src/`
(the default) or the frozen copy under `perfbench/baseline/` (see run.py).
`--cpu` pins the process to one CPU.  All times are CPU seconds of the
worker's thread, so a pass that shares its CPU with another is not charged
for the other's time.

- `setup`: time `import carlitz` plus building the workload's field
  contexts, and exit.
- `pass`: set up, then run the workload once without tracing.
- `traced`: set up, run the workload once under the span tracer, then
  time the kernel grid with the tracer removed.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = {"program": ROOT / "src", "baseline": ROOT / "perfbench" / "baseline"}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    ap.add_argument("--tree", choices=TREES, default="program")
    ap.add_argument("--cpu", type=int)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    sys.path[:0] = [str(TREES[args.tree]), str(ROOT)]
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    t0 = time.thread_time()
    import carlitz
    from carlitz.ffield import FieldContext
    from perfbench.workloads import FIELDS, run_pass
    for q in FIELDS[args.workload]:
        FieldContext(q)
    out = {"setup_s": time.thread_time() - t0}
    if Path(carlitz.__file__).parent.parent != TREES[args.tree]:
        sys.exit(f"imported {carlitz.__file__}, not the {args.tree} tree")
    if args.mode == "pass":
        out["wall_s"], out["ops"] = run_pass(args.workload, args.seed, args.smoke)
    elif args.mode == "traced":
        from perfbench.kernel_grid import run_grid
        from perfbench.spans import Tracer
        with Tracer() as tracer:
            out["wall_s"], out["ops"] = run_pass(args.workload, args.seed, args.smoke)
        out["trace"] = tracer.summary()
        tracer.dump(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json.gz")
        out["grid"], out["grid_failures"] = run_grid(args.seed, args.smoke)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()

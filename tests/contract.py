"""The behavioural contract of carlitz as one sha256 per item.

Prints one line `<sha256>  <item>` for each of:

- the default and the `--profile deep` report of `carlitz verify --format
  json`, with every record's `elapsed_ms` removed;
- stdout, stderr and exit code of each command of a fixed CLI menu
  (`powsum`, `partial`, `zeta` with degree-character data, `bg`,
  `bg-survey` and `skew`) over q in {3, 4, 5, 9, 25};
- three `partial` requests where normalization is packed, the largest of
  the zeta-partial benchmark at each of q = 3, 4, 5 (about 0.1 s each).

Each item runs in its own `python -m carlitz.cli` process, with the
carlitz found on the caller's PYTHONPATH, so two checkouts compare by one
diff of two runs:

    PYTHONPATH=src python tests/contract.py > new.txt
    PYTHONPATH=../old/src python tests/contract.py > old.txt
    diff old.txt new.txt

`--show ITEM` prints that item's full output instead of its digest.
`--against OLD.txt` compares instead of printing: it prints `<item>: <old>
-> <new>` for each item whose digest differs from OLD.txt's (`None` for
an item that one side lacks), and exits 1 if any differs:

    PYTHONPATH=src python tests/contract.py --against old.txt

pytest does not collect this file.  The whole run takes about 8 s on a
shared 2-core Xeon, half of it the deep report.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

QS = (3, 4, 5, 9, 25)
# the precision of the degree-character zeta values at each q: enough for
# a few nonzero terms, while the sum enumerated over monics stays in budget
NU_PREC = {3: 8, 4: 6, 5: 5, 9: 2, 25: 1}


def _menu():
    """(item name, argv) of every CLI command in the contract."""
    items = []
    for q in QS:
        small = q <= 5
        d = 2 if small else 1
        for argv in (
                ("powsum", "--d", "2", "--data", "t1:1,1:1"),
                ("powsum", "--d", "2", "--data", "nu1:1,1:2", "--star"),
                ("powsum", "--d", "1", "--data", "t1*t2:2", "--format", "json"),
                ("partial", "--d", "3", "--data", "t1*t2:1,1:1"),
                ("partial", "--d", "2", "--data", "t1:3,1:1"),
                ("partial", "--d", "3", "--data", "nu1*t2:1,1:1", "--star"),
                ("zeta", "--prec", "12", "--data", "1:1,1:2"),
                ("zeta", "--prec", str(NU_PREC[q]), "--data", "nu1:1"),
                ("zeta", "--prec", str(2 * NU_PREC[q]), "--data", "nu1:2"),
                ("zeta", "--prec", "8" if small else "2", "--data", "t1:1"),
                ("bg", "--d", str(d)),
                ("bg", "--n", "5"),
                ("bg-survey", "--d", str(d)),
                ("skew", "--d", str(d), "--n", "1")):
            items.append((argv[0], "--q", str(q)) + argv[1:])
    for q in (3, 4, 5):
        items.append(("zeta", "--q", str(q), "--prec", "4",
                      "--data", "nu1*t2:1,1:1"))
    # over budget where the degree-character sum is enumerated
    items.append(("zeta", "--q", "3", "--prec", "200", "--data", "nu1:2",
                  "--budget", "50"))
    # numerators of thousands of coefficients over binomials of hundreds
    items += [("partial", "--q", "3", "--d", "7", "--data", "t1:2,1:1"),
              ("partial", "--q", "4", "--d", "5", "--data", "t1*t2:1,1:1", "--star"),
              ("partial", "--q", "5", "--d", "5", "--data", "t1:1,t2:1")]
    return [(" ".join(argv), argv) for argv in items]


def _run(argv):
    return subprocess.run([sys.executable, "-m", "carlitz.cli", *argv],
                          capture_output=True, text=True)


def _verify(profile):
    proc = _run(("verify", "--format", "json", "--profile", profile))
    doc = json.loads(proc.stdout)
    for rec in doc["checks"]:
        del rec["elapsed_ms"]
    return f"exit {proc.returncode}\n{json.dumps(doc, sort_keys=True, indent=2)}\n{proc.stderr}"


def _items():
    yield "verify default", lambda: _verify("default")
    yield "verify deep", lambda: _verify("deep")
    for name, argv in _menu():
        def output(argv=argv):
            proc = _run(argv)
            return f"exit {proc.returncode}\n--stdout\n{proc.stdout}--stderr\n{proc.stderr}"
        yield name, output


def _digest(output):
    return hashlib.sha256(output().encode()).hexdigest()


def read_digests(path):
    """{item: digest} from a file of `<sha256>  <item>` lines."""
    pairs = (line.split("  ", 1) for line in Path(path).read_text().splitlines() if line)
    return {name: digest for digest, name in pairs}


def differences(old, new):
    """(item, old digest, new digest) of each item, in new's order then
    old's, whose digests differ; None for a digest one side lacks."""
    return [(name, old.get(name), new.get(name)) for name in {**new, **old}
            if old.get(name) != new.get(name)]


def main(argv):
    if argv[:1] == ["--against"]:
        new = {name: _digest(output) for name, output in _items()}
        found = differences(read_digests(argv[1]), new)
        for name, a, b in found:
            print(f"{name}: {a} -> {b}")
        print(f"{len(found)} of {len(new)} items differ")
        return 1 if found else 0
    if argv[:1] == ["--show"]:
        want = " ".join(argv[1:])
        for name, output in _items():
            if name == want:
                print(output(), end="")
                return 0
        print(f"no item {want!r}", file=sys.stderr)
        return 2
    for name, output in _items():
        print(f"{_digest(output)}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

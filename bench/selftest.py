"""Show that the output checks reject corrupted outputs.

    python3 bench/selftest.py [--seed 1]

For every operation of both workloads: run it once, confirm its check
accepts the output, then corrupt a copy of the output in two ways and
confirm the check rejects each:

- nudge: one number of a middle row moves by 1e-3 (relative to max(1, |v|));
  for bp on the mismatched pair, every defect shrinks a thousandfold;
- truncate: the last data row is dropped (JSON reports: a field is changed).

Exit status is 1 when a check accepts a corrupted output.  The operation
that fails at this commit (negative-band reflectionless) has no output and
is skipped.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import fixtures  # noqa: E402
import workloads  # noqa: E402
from arvcanon import cli  # noqa: E402

#: column nudged in each subcommand's CSV
NUDGE_COLUMN = {"transfer": "a21_re", "disks": "center_re", "gauge": "a21_im",
                "schur": "s_re", "reflectionless": "sp_re", "bp": "defect",
                "riccati": "s_re"}


def rewrite_csv(path, edit):
    with open(path) as fh:
        lines = fh.read().splitlines()
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    header = lines[head].split(",")
    rows = [ln.split(",") for ln in lines[head + 1:]]
    rows = edit(header, rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines[: head + 1] + [",".join(r) for r in rows]) + "\n")


def nudge(op):
    if op.output.endswith(".json"):
        with open(op.output) as fh:
            rep = json.load(fh)
        rep["sigma_numeric"] += 0.05 * max(1.0, abs(rep["sigma_numeric"]))
        with open(op.output, "w") as fh:
            json.dump(rep, fh)
        return
    col = NUDGE_COLUMN[op.subcommand]

    def edit(header, rows):
        j = header.index(col)
        if op.name == "bp/const_mismatched":
            for r in rows:
                r[j] = repr(float(r[j]) * 1e-3)
            return rows
        r = rows[len(rows) // 2]
        v = float(r[j])
        r[j] = repr(v + 1e-3 * max(1.0, abs(v)))
        return rows

    rewrite_csv(op.output, edit)


def truncate(op):
    if op.output.endswith(".json"):
        with open(op.output) as fh:
            rep = json.load(fh)
        rep["sigma_integral"] *= 1.0 + 1e-6
        with open(op.output, "w") as fh:
            json.dump(rep, fh)
        return
    rewrite_csv(op.output, lambda header, rows: rows[:-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ns = ap.parse_args(argv)
    bad = 0
    with tempfile.TemporaryDirectory(dir=os.path.dirname(HERE)) as tmp:
        for workload, build in sorted(workloads.WORKLOADS.items()):
            fx = fixtures.generate(workload, ns.seed, os.path.join(tmp, workload))
            for op in build(fx):
                if cli.main(list(op.argv)) != 0:
                    print(f"{op.name:44s} fails to run; skipped")
                    continue
                clean = op.check(op)
                verdicts = ["accepts clean" if clean is None else f"REJECTS CLEAN: {clean}"]
                bad += clean is not None
                for corrupt in (nudge, truncate):
                    shutil.copy(op.output, op.output + ".orig")
                    corrupt(op)
                    reason = op.check(op)
                    shutil.move(op.output + ".orig", op.output)
                    verdicts.append(f"{corrupt.__name__}: " +
                                    ("ACCEPTED" if reason is None else "rejected"))
                    bad += reason is None
                print(f"{op.name:44s} " + "; ".join(verdicts))
    print("all corruptions rejected" if not bad else f"{bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Single-layer reference figures on the benchmark's seeded inputs.

    python3 bench/baseline.py [--seed 1]

Prints the cost of the steps the end-to-end rates are made of, each timed
alone in this process (median of repeats, package imported from ./src,
scaled to the reference machine as the benchmark's rates are):

- propagate.transfer_scaled per interval on a 10^4-interval system;
- weyl.schur_plus on a 100-interval constant-tail system as Im z falls;
- riccati.integrate_riccati over a 10-interval system;
- the disks subcommand on 40 z x 21 l x 400 intervals, 1 and 2 threads.

These are the figures quoted in README.md; they are not part of a run.
"""

import argparse
import os
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import fixtures  # noqa: E402
from run import reference_scaled, stopwatch  # noqa: E402
from arvcanon import ArovParameters, cli, propagate, riccati, weyl  # noqa: E402


def timed(fn, repeat):
    """Median wall time of fn, scaled to the reference machine like the
    benchmark's rates."""
    runs = [reference_scaled(lambda: stopwatch(fn)) for _ in range(repeat)]
    return statistics.median(scaled for _, _, scaled in runs), runs[-1][0]


def system(d):
    return ArovParameters(d.grid, d.m, d.a, d.tail)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ns = ap.parse_args(argv)
    rng = np.random.default_rng(ns.seed)

    p = system(fixtures.random_disk(rng, 10_000, 60.0, "constant"))
    t, _ = timed(lambda: propagate.transfer_scaled(0.5 + 0.3j, p, p.length), 5)
    print(f"transfer_scaled, N = 10^4: {t * 1e3:.1f} ms, "
          f"{t / p.n_intervals * 1e6:.2f} us per interval")

    p = system(fixtures.random_disk(rng, 100, 5.0, "constant", tail_a=0.5, tail_m=1.0))
    for eps in (1.0, 1e-1, 1e-2, 1e-3, 1e-4):
        t, sv = timed(lambda: weyl.schur_plus(complex(1.1, eps), p), 5)
        print(f"schur_plus, N = 100, z = 1.1 + {eps:g}i: {t * 1e3:.1f} ms, "
              f"l_stop = {sv.l_stop:g}")

    p = system(fixtures.random_disk(rng, 10, 2.0, "constant"))
    z = 0.5 + 0.7j
    s0 = weyl.schur_plus(z, p).value
    t, _ = timed(lambda: riccati.integrate_riccati(z, s0, p, p.length), 5)
    print(f"integrate_riccati, N = 10, total measure 2: {t * 1e3:.1f} ms")

    with tempfile.TemporaryDirectory(dir=os.path.dirname(HERE)) as tmp:
        fx = fixtures.Fixtures(tmp)
        fx.add("disks400", fixtures.random_disk(rng, 400, 4.0, "constant"))
        for threads in ("1", "2"):
            argv = ["disks", "--input", fx.paths["disks400"], "--zgrid=-1,0.1:1,1.5:40",
                    "--lgrid=0:10:0.5", "--threads", threads,
                    "--output", os.path.join(tmp, "disks.csv")]
            t, code = timed(lambda: cli.main(argv), 3)
            assert code == 0
            print(f"disks CLI, 40 z x 21 l x N = 400, --threads {threads}: {t:.2f} s")


if __name__ == "__main__":
    main()

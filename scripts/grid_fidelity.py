"""Fidelity of the tabulated grid steps of the built-in grid families.

For exponential-mean and the Gaussian mean-and-square family, prints the
largest total variation (TV) between a step's tabulated sampler and its
smooth step density, on the step laws of drawn runs (both variants) and on
laws built after unsteered i.i.d. prefixes (off track), and the largest
error of a step's normalizing constant over both.  The laws are the ones
the fidelity tests in tests/test_pathgen.py check, at seed 223; the knot
and pilot counts are raresum.pathgen's unless given.

    PYTHONPATH=src python scripts/grid_fidelity.py [--knots G] [--pilot P]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import raresum as rs  # noqa: E402
from raresum import pathgen  # noqa: E402
from helpers import drawn_step_laws, random_step_laws, step_grid_errors  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--knots", type=int, default=pathgen._KNOTS)
    ap.add_argument("--pilot", type=int, default=pathgen._PILOT)
    args = ap.parse_args(argv)
    if args.pilot < 3 or args.knots < 2:
        ap.error("need --pilot >= 3 and --knots >= 2")
    pathgen._KNOTS, pathgen._PILOT = args.knots, args.pilot
    print(f"knots {args.knots}, pilot {args.pilot}")
    print(f"{'family':<26}{'drawn TV':>11}{'off-track TV':>14}{'normalizer':>13}")
    for family in ("exponential-mean", "gaussian-mean-and-square"):
        model = rs.builtin_model(family)
        drawn = [step_grid_errors(model, *drawn_step_laws(model, variant, 4, 3,
                                                          np.random.default_rng(223)))
                 for variant in ("uniform-step", "paper-literal")]
        off = step_grid_errors(model, *random_step_laws(model, "uniform-step", 12,
                                                        np.random.default_rng(223)))
        norms = np.concatenate([e[1] for e in drawn] + [off[1]])
        worst = norms[np.argmax(np.abs(norms))]
        print(f"{family:<26}{max(np.max(e[0]) for e in drawn):>11.2e}"
              f"{np.max(off[0]):>14.2e}{worst:>13.2e}")


if __name__ == "__main__":
    main()

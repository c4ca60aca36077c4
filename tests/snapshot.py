"""Snapshot of solver outputs on a fixed set of draws, for byte-identity checks.

    python3 tests/snapshot.py 11 12 13 > snapshot.jsonl

Each argument is a seed of the benchmark's lines27 workload; 17 draws are
solved per seed, made by the generator in perfbench/workloads.py exactly
as the benchmark makes them. Then come the pillow system at solve seeds
0-3, the intro system at e = 0, 0.5, ..., 14 (eps = 10^-e), and one dense
draw each on P^2 at degree 8 and on P^3 at degree 3.

Every solve writes one JSON line: the solution-file dict without
`timings_ms`, or the type and message of the error it raised. The last
line counts the solves that raised. BLAS runs on one thread, so `diff`
of the outputs of two checkouts is a byte-identity check of everything
the solver returns, and the count on lines27 seeds is its failure census.
Each checkout solves with its own `src`.
"""

import json
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.dont_write_bytecode = True  # leave no cache files under perfbench/
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from systems import (  # noqa: E402
    HIRZEBRUCH_RAYS,
    PILLOW_RAYS_SOLVE,
    intro_laurent,
    pillow_laurent,
)
from toricsolve import solve  # noqa: E402
from toricsolve.formats import solution_file_dict  # noqa: E402
from workloads import LINES27_RAYS, Lines27, _seed, dense_system  # noqa: E402

LINES27_DRAWS = 17


def cases(lines27_seeds):
    """(label, equations, solve keyword arguments) for every solve."""
    for seed in lines27_seeds:
        bench = Lines27(np.random.default_rng(seed), None, None)
        for draw in range(LINES27_DRAWS):
            eqs, solve_seed = bench.draw()
            yield f"lines27 {seed}/{draw}", eqs, {"rays": LINES27_RAYS, "seed": solve_seed}
    for seed in range(4):
        yield f"pillow {seed}", pillow_laurent(), {"rays": PILLOW_RAYS_SOLVE, "seed": seed}
    for half in range(29):
        e = half / 2
        yield f"intro e={e}", intro_laurent(10.0 ** -e), {"rays": HIRZEBRUCH_RAYS}
    rng = np.random.default_rng(0)
    for n, d in ((2, 8), (3, 3)):
        eqs = dense_system(rng, n, d)
        yield f"dense P^{n} degree {d}", eqs, {"seed": _seed(rng)}


def main(argv):
    raised = total = 0
    for label, eqs, kwargs in cases([int(a) for a in argv]):
        total += 1
        try:
            out = solution_file_dict(solve(eqs, **kwargs))
            del out["metadata"]["timings_ms"]
        except Exception as exc:  # a raising solve is part of the snapshot
            raised += 1
            out = {"raised": type(exc).__name__, "message": str(exc)}
        print(json.dumps({"case": label, **out}, sort_keys=True), flush=True)
    print(f"raised {raised} of {total} solves")


if __name__ == "__main__":
    main(sys.argv[1:])

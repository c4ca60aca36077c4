"""Snapshot of solver outputs on a fixed set of draws, for byte-identity checks.

    python3 tests/snapshot.py 11 12 13 > snapshot.jsonl

Each argument is a seed of the benchmark's lines27 workload; 17 draws are
solved per seed, made by the generator in perfbench/workloads.py exactly
as the benchmark makes them. Then come the pillow system at solve seeds
0-3, the intro system at e = 0, 0.5, ..., 14 (eps = 10^-e), and one dense
draw each on P^2 at degree 8 and on P^3 at degree 3.

Every solve writes one JSON line: the solution-file dict without
`timings_ms`, or the type and message of the error it raised. BLAS runs
on one thread, so `diff` of the outputs of two checkouts is a
byte-identity check of everything the solver returns. Each checkout
solves with its own `src`.

The last lines are the failure census, one line per workload, as the
benchmark counts it: the solves that raised, by error type, and the
solves that returned but missed a pin of the benchmark's checks
(`check_lines27` on lines27, `check_dense` on the dense draws; pillow
and intro have none). The exit status is 1 when any solve raised
something other than a ToricSolveError.

    python3 tests/snapshot.py --compare old.jsonl new.jsonl

compares two snapshots numerically, for changes that move the last
digits and so cannot be byte-identical. Per workload it prints every
structural difference of a case (the error type it raised, the count
of solutions, and the multiplicity, zero pattern and torus or boundary
route of each) and the largest relative move of a Cox coordinate z
over the points matched between the two sides, each coordinate against
the larger of its two moduli. The exit status is 1 when any case
differs structurally.
"""

import json
import os
import sys
from collections import Counter
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
from toricsolve import ToricSolveError, solve  # noqa: E402
from toricsolve.formats import solution_file_dict  # noqa: E402
from workloads import (  # noqa: E402
    LINES27_RAYS,
    Lines27,
    Lines27Expect,
    _seed,
    check_dense,
    check_lines27,
    dense_system,
)

LINES27_DRAWS = 17


def cases(lines27_seeds):
    """(label, equations, solve keyword arguments, check) for every solve;
    the label starts with the workload's name, and check gives the
    problems of a result, or is None."""
    for seed in lines27_seeds:
        bench = Lines27(np.random.default_rng(seed), None, None)
        for draw in range(LINES27_DRAWS):
            eqs, solve_seed = bench.draw()
            yield (f"lines27 {seed}/{draw}", eqs, {"rays": LINES27_RAYS, "seed": solve_seed},
                   lambda result: check_lines27(result, Lines27Expect()))
    for seed in range(4):
        yield (f"pillow {seed}", pillow_laurent(),
               {"rays": PILLOW_RAYS_SOLVE, "seed": seed}, None)
    for half in range(29):
        e = half / 2
        yield f"intro e={e}", intro_laurent(10.0 ** -e), {"rays": HIRZEBRUCH_RAYS}, None
    rng = np.random.default_rng(0)
    for n, d in ((2, 8), (3, 3)):
        eqs = dense_system(rng, n, d)
        yield (f"dense P^{n} degree {d}", eqs, {"seed": _seed(rng)},
               lambda result, n=n, d=d: check_dense(result, n, d))


def main(argv):
    census = {}
    foreign = False
    for label, eqs, kwargs, check in cases([int(a) for a in argv]):
        row = census.setdefault(label.split()[0], [0, Counter(), None if check is None else 0])
        row[0] += 1
        try:
            result = solve(eqs, **kwargs)
            out = solution_file_dict(result)
            del out["metadata"]["timings_ms"]
        except Exception as exc:  # a raising solve is part of the snapshot
            row[1][type(exc).__name__] += 1
            foreign |= not isinstance(exc, ToricSolveError)
            out = {"raised": type(exc).__name__, "message": str(exc)}
        else:
            if check is not None:
                row[2] += bool(check(result))
        print(json.dumps({"case": label, **out}, sort_keys=True), flush=True)
    for workload, (total, raised, missed) in census.items():
        kinds = ", ".join(f"{name} {count}" for name, count in sorted(raised.items()))
        print(f"{workload}: {total} solves, raised {raised.total()}"
              + (f" ({kinds})" if kinds else "")
              + (", no pins" if missed is None else f", missed a pin {missed}"))
    return int(foreign)


def read_snapshot(path):
    """{case label: solve record} of a snapshot file; census lines skipped."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.startswith("{")]
    return {record.pop("case"): record for record in records}


def _route(sol):
    return sol["multiplicity"], tuple(sol["zero_pattern"]), sol["on_torus"]


def _z(sol):
    return np.array([complex(*x) for x in sol["z"]])


def _move(a, b):
    """Largest move of a coordinate against the larger of its two moduli;
    coordinates that vanish on both sides do not move."""
    scale = np.maximum(np.abs(a), np.abs(b))
    return float(np.max(np.abs(a - b) / np.where(scale > 0.0, scale, 1.0), initial=0.0))


def compare_case(old, new):
    """(structural differences, z moves of the matched points) of one case.
    Each old point is matched to the nearest unmatched new point on the
    same route."""
    raised = old.get("raised"), new.get("raised")
    if raised != (None, None):
        return ([] if raised[0] == raised[1] else [f"raised {raised[0]} -> {raised[1]}"]), []
    olds, news = old["solutions"], new["solutions"]
    if len(olds) != len(news):
        return [f"{len(olds)} -> {len(news)} solutions"], []
    routes = sorted(map(_route, olds)), sorted(map(_route, news))
    if routes[0] != routes[1]:
        return [f"routes (multiplicity, zero pattern, on torus) {routes[0]} -> {routes[1]}"], []
    moves, left = [], list(news)
    for sol in olds:
        same = [cand for cand in left if _route(cand) == _route(sol)]
        best = min(same, key=lambda cand: _move(_z(sol), _z(cand)))
        moves.append(_move(_z(sol), _z(best)))
        left.remove(best)
    return [], moves


def compare(old_path, new_path):
    old, new = read_snapshot(old_path), read_snapshot(new_path)
    if old.keys() != new.keys():
        print(f"the snapshots solve other cases: {sorted(old.keys() ^ new.keys())}")
        return 1
    report, differs = {}, False
    for case in old:
        diffs, moves = compare_case(old[case], new[case])
        for diff in diffs:
            print(f"{case}: {diff}")
        row = report.setdefault(case.split()[0], [0, 0, []])
        row[0] += 1
        row[1] += bool(diffs)
        row[2] += moves
        differs |= bool(diffs)
    for workload, (cases, structural, moves) in report.items():
        print(f"{workload}: {cases} cases, {structural} with structural differences, "
              f"largest z move {max(moves, default=0.0):.2g} over {len(moves)} points")
    return int(differs)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        sys.exit(compare(*sys.argv[2:]))
    sys.exit(main(sys.argv[1:]))

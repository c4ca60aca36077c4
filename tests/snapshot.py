"""Snapshot of solver outputs on a fixed set of draws, for byte-identity checks.

    python3 tests/snapshot.py 11 12 13 > snapshot.jsonl

Each argument is a seed of the benchmark's lines27 workload; 17 draws are
solved per seed, made by the generator in perfbench/workloads.py exactly
as the benchmark makes them. Then come the pillow system at solve seeds
0-3, the intro system at e = 0, 0.5, ..., 14 (eps = 10^-e), and one dense
draw each on P^2 at degree 8 and on P^3 at degree 3, then one of each of
the benchmark's dense shapes, P^2 at degree 20 and P^3 at degree 6. Last
come passes of the benchmark's sweep (`toricsolve sweep` of its template
over e = 0, 0.5, ..., 14, in process, as the benchmark runs it): one per
argument, at the solve seed of the benchmark's first pass at that seed,
then one at SWEEP_SEED.

Every solve writes one JSON line: the solution-file dict without
`timings_ms`, or the type and message of the error it raised; a sweep
row writes its CSV fields without `wall_ms`. BLAS runs
on one thread, so `diff` of the outputs of two checkouts is a
byte-identity check of everything the solver returns. Each checkout
solves with its own `src`.

The last lines are the failure census, as the benchmark counts it.
Per workload, one line counts the solves that raised, by error type,
and the solves that returned but missed a pin of the benchmark's checks
(`check_lines27` on lines27, `check_dense` on the dense draws,
`check_sweep_rows` on the sweep rows, whose solves raise by the stage
their status names; pillow and intro have none). One line per failing
solve follows, its case and
its cause: the error type it raised, or the pins it missed, named
without their values. So `diff` of the census lines of two snapshots
shows which draws joined the failing set and which left it. The exit
status is 1 when any solve raised something other than a
ToricSolveError.

    python3 tests/snapshot.py --rotate 2 11 12 13 > snapshot.jsonl

also solves each lines27 draw K = 2 more times, with the cokernel basis N
that solve takes left-multiplied by a seeded Haar unitary, seed k for the
k-th rotation (rotated). In exact arithmetic the solutions do not depend
on which orthonormal basis of the cokernel N is, so a rotation moves only
the rounding. The JSON lines stay those of the unrotated solves, and
`--rotate 0` prints exactly what no flag prints. With K >= 1 the lines27
census line adds two counts, draws that fail in every one of the K + 1
orientations ("stable") and draws that fail in some of them
("sensitive"), and a failing draw is one that fails in any orientation:
its line gives the cause of the unrotated solve ("ok" when that passed),
then in how many orientations it fails and with which causes.

    python3 tests/snapshot.py --compare old.jsonl new.jsonl

compares two snapshots numerically, for changes that move the last
digits and so cannot be byte-identical. Per workload it prints every
structural difference of a case (the error type it raised, the count
of solutions, and the multiplicity, zero pattern, torus or boundary
route and non-simplicial flag of each; a sweep row's status and delta+),
how many cases are byte-identical, and the largest relative move of a
point's Cox coordinates z over the points matched between the two
sides, with the case it is in. z is fixed only up to the group that
fixes the point, so a move is read off what that group keeps
(_invariants), each value against the larger of its two moduli. A
sweep row has no points: its move is that of max_norm, the norm of its
largest solution. The exit status is 1 when any case differs
structurally.
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
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
from toricsolve import ToricSolveError, cli, solve, solver  # noqa: E402
from toricsolve.formats import solution_file_dict  # noqa: E402
from toricsolve.lattice import integer_kernel  # noqa: E402
from workloads import (  # noqa: E402
    LINES27_RAYS,
    SWEEP_GRID,
    Lines27,
    Lines27Expect,
    SweepExpect,
    _seed,
    check_dense,
    check_lines27,
    check_sweep_rows,
    dense_system,
    sweep_template,
)

LINES27_DRAWS = 17
# a sweep seed whose row at e = 13.5 misses the benchmark's max_res pin
SWEEP_SEED = 1531391094


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
    for n, d in ((2, 8), (3, 3), (2, 20), (3, 6)):
        eqs = dense_system(rng, n, d)
        yield (f"dense P^{n} degree {d}", eqs, {"seed": _seed(rng)},
               lambda result, n=n, d=d: check_dense(result, n, d))


def sweep_seeds(lines27_seeds):
    """The solve seed of each sweep pass: the benchmark's first at each
    seed, then SWEEP_SEED."""
    return [_seed(np.random.default_rng(seed)) for seed in lines27_seeds] + [SWEEP_SEED]


def sweep_pass(seed, workdir):
    """The CSV lines of one `toricsolve sweep` pass of the benchmark's
    template at solve seed seed, through cli.main as the benchmark runs
    it."""
    path, csv = workdir / "sweep_system.json", workdir / f"sweep_{seed}.csv"
    path.write_text(json.dumps(sweep_template()), encoding="utf-8")
    argv = ["sweep", str(path), "--param", "e", "--grid", SWEEP_GRID,
            "--output", str(csv), "--seed", str(seed)]
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv, standalone_mode=False)
    return csv.read_text(encoding="utf-8").splitlines()


def sweep_records(seed, lines):
    """(label, record, status, cause) of every row of one sweep pass: the
    record its CSV fields without wall_ms, the cause the problems
    check_sweep_rows finds (missed), or the status of a row whose solve
    raised, or None when it passed."""
    columns = lines[0].split(",")
    for line, problems in zip(lines[1:], check_sweep_rows(lines, SweepExpect())):
        record = dict(zip(columns, line.split(",")))
        del record["wall_ms"]
        status, cause = record["status"], None
        if status != "ok":
            cause = status
        elif problems:
            cause = missed([(kind, text.split(": ", 1)[1]) for kind, text in problems])
        yield f"sweep {seed} e={record['e']}", record, status, cause


def missed(problems):
    """The cause of a solve that missed pins: the pins, without values."""
    return "missed " + ", ".join(re.match(r"[^\d\[(]*", text).group().strip()
                                 for _, text in problems)


def census_lines(census):
    """The census of {workload: (solves, Counter of raised error types,
    pins missed or None, [(case, cause) of every failing solve][,
    Counter of stable and sensitive draws])}; the last only when the
    workload's draws were rotated."""
    for workload, (total, raised, pins, failing, *split) in census.items():
        kinds = ", ".join(f"{name} {count}" for name, count in sorted(raised.items()))
        yield (f"{workload}: {total} solves, raised {raised.total()}"
               + (f" ({kinds})" if kinds else "")
               + (", no pins" if pins is None else f", missed a pin {pins}")
               + "".join(f", stable {s['stable']}, sensitive {s['sensitive']}" for s in split))
        for case, cause in failing:
            yield f"{case}: {cause}"


def haar(size, seed):
    """A Haar-distributed size x size unitary, the same for the same seed:
    the Q of the QR of a complex Gaussian, each column turned by the phase
    of its diagonal entry of R (Mezzadri, "How to generate random matrices
    from the classical compact groups", Notices AMS 54, 2007)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((size, size))
                        + 1j * rng.standard_normal((size, size)))
    d = r.diagonal()
    return q * (d / np.abs(d))


@contextlib.contextmanager
def rotated(k):
    """Within the block, the cokernel map that solve takes has its N
    left-multiplied by haar(delta+, k), by a wrapper at the name solve
    calls it by (solver.cokernel), as perfbench/tracing.py wraps
    callables; k = 0 leaves it alone."""
    cokernel = solver.cokernel

    def turned(*args, **kwargs):
        cok = cokernel(*args, **kwargs)
        if cok.N is not None:
            cok.N = haar(len(cok.N), k) @ cok.N
        return cok

    if k:
        solver.cokernel = turned
    try:
        yield
    finally:
        solver.cokernel = cokernel


def outcome(eqs, kwargs, check):
    """(record, error, cause) of one solve: the solution-file dict without
    timings_ms, or the type and message of the error it raised; that
    error or None; and why it failed, the error's type or the pins it
    missed (missed), or None when it passed."""
    try:
        result = solve(eqs, **kwargs)
        out = solution_file_dict(result)
        del out["metadata"]["timings_ms"]
    except Exception as exc:  # a raising solve is part of the snapshot
        return {"raised": type(exc).__name__, "message": str(exc)}, exc, type(exc).__name__
    problems = [] if check is None else check(result)
    return out, None, missed(problems) if problems else None


def main(argv, rotate=0):
    census = {}
    foreign = False
    seeds = [int(a) for a in argv]
    for label, eqs, kwargs, check in cases(seeds):
        workload = label.split()[0]
        turns = rotate if workload == "lines27" else 0
        row = census.setdefault(workload, [0, Counter(), None if check is None else 0, []]
                                + [Counter()] * bool(turns))
        outcomes = []
        for k in range(turns + 1):
            with rotated(k):
                outcomes.append(outcome(eqs, kwargs, check))
        foreign |= any(exc is not None and not isinstance(exc, ToricSolveError)
                       for _, exc, _ in outcomes)
        out, exc, cause = outcomes[0]
        row[0] += 1
        if exc is not None:
            row[1][type(exc).__name__] += 1
        elif cause:
            row[2] += 1
        causes = Counter(why for *_, why in outcomes if why)
        if causes and turns:
            fails = causes.total()
            row[4]["stable" if fails == turns + 1 else "sensitive"] += 1
            kinds = ", ".join(f"{why} {count}" for why, count in sorted(causes.items()))
            row[3].append((label, f"{cause or 'ok'}, fails in {fails} of {turns + 1} "
                                  f"orientations ({kinds})"))
        elif causes:
            row[3].append((label, cause))
        print(json.dumps({"case": label, **out}, sort_keys=True), flush=True)
    row = census.setdefault("sweep", [0, Counter(), 0, []])
    with tempfile.TemporaryDirectory() as workdir:
        for seed in sweep_seeds(seeds):
            lines = sweep_pass(seed, Path(workdir))
            for label, record, status, cause in sweep_records(seed, lines):
                row[0] += 1
                if status != "ok":
                    row[1][status] += 1
                elif cause:
                    row[2] += 1
                if cause:
                    row[3].append((label, cause))
                print(json.dumps({"case": label, **record}, sort_keys=True), flush=True)
    for line in census_lines(census):
        print(line)
    return int(foreign)


def read_snapshot(path):
    """{case label: solve record} of a snapshot file; census lines skipped."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.startswith("{")]
    return {record.pop("case"): record for record in records}


def _route(sol):
    return (sol["multiplicity"], tuple(sol["zero_pattern"]), sol["on_torus"],
            sol["non_simplicial"])


def _z(sol):
    return np.array([complex(*x) for x in sol["z"]])


def _invariants(sol, rays):
    """What the Cox coordinates z of a point say about it, whichever
    element of the group that fixes it they were taken at: the moduli
    |z|, and the torus coordinates t of a torus point, or on a boundary
    orbit its characters prod_{j not in the cone} z_j^<u_j, m>, m an
    integer basis of the characters that vanish on the cone."""
    z = _z(sol)
    if sol["on_torus"]:
        return np.abs(z), np.array([complex(*x) for x in sol["t"]])
    cone = sol["zero_pattern"]
    basis = np.reshape(integer_kernel([rays[j] for j in cone]), (-1, len(rays[0])))
    off = [j for j in range(len(z)) if j not in cone]
    pairings = basis @ np.array(rays)[off].T
    return np.abs(z), np.array([np.prod(z[off] ** row) for row in pairings])


def _moved(a, b, rays):
    """Largest move of the invariants of two points (_invariants)."""
    return max(_move(x, y) for x, y in zip(_invariants(a, rays), _invariants(b, rays)))


def _move(a, b):
    """Largest move of a coordinate against the larger of its two moduli;
    coordinates that vanish on both sides do not move."""
    scale = np.maximum(np.abs(a), np.abs(b))
    return float(np.max(np.abs(a - b) / np.where(scale > 0.0, scale, 1.0), initial=0.0))


def compare_case(old, new):
    """(structural differences, z moves of the matched points) of one case.
    Each old point is matched to the nearest unmatched new point on the
    same route, by the move of its invariants (_moved). A sweep row
    differs by its status and delta+, and moves by its max_norm."""
    if "status" in old:
        diffs = [f"{key} {old[key]} -> {new[key]}" for key in ("status", "delta_plus")
                 if old[key] != new[key]]
        if diffs or old["status"] != "ok":
            return diffs, []
        return [], [_move(np.array([float(old["max_norm"])]), np.array([float(new["max_norm"])]))]
    raised = old.get("raised"), new.get("raised")
    if raised != (None, None):
        return ([] if raised[0] == raised[1] else [f"raised {raised[0]} -> {raised[1]}"]), []
    olds, news = old["solutions"], new["solutions"]
    if len(olds) != len(news):
        return [f"{len(olds)} -> {len(news)} solutions"], []
    routes = sorted(map(_route, olds)), sorted(map(_route, news))
    if routes[0] != routes[1]:
        return [f"routes (multiplicity, zero pattern, on torus, non-simplicial) "
                f"{routes[0]} -> {routes[1]}"], []
    moves, left, rays = [], list(news), old["metadata"]["rays"]
    for sol in olds:
        same = [cand for cand in left if _route(cand) == _route(sol)]
        best = min(same, key=lambda cand: _moved(sol, cand, rays))
        moves.append(_moved(sol, best, rays))
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
        row = report.setdefault(case.split()[0], [0, 0, 0, [], (0.0, None)])
        row[0] += 1
        row[1] += json.dumps(old[case], sort_keys=True) == json.dumps(new[case], sort_keys=True)
        row[2] += bool(diffs)
        row[3] += moves
        row[4] = max(row[4], (max(moves, default=0.0), case), key=lambda move: move[0])
        differs |= bool(diffs)
    for workload, (cases, identical, structural, moves, (largest, where)) in report.items():
        value, items = ("max_norm", "rows") if workload == "sweep" else ("z", "points")
        print(f"{workload}: {cases} cases, {identical} byte-identical, "
              f"{structural} with structural differences, "
              f"largest {value} move {largest:.2g} over {len(moves)} {items}"
              + (f" ({where})" if largest > 0.0 else ""))
    return int(differs)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        sys.exit(compare(*sys.argv[2:]))
    if sys.argv[1:2] == ["--rotate"]:
        sys.exit(main(sys.argv[3:], rotate=int(sys.argv[2])))
    sys.exit(main(sys.argv[1:]))

"""The benchmark's three closed-loop workloads and their output checks.

One client: the next solve starts only when the previous one returns.
Every input comes from the workload's random generator, seeded from
the command line; every draw is solved and checked, none is filtered
or redrawn. A check returns a list of problems, each tagged

- "wrong": the output contradicts what is known exactly about the
  system: delta+ differs from its root count, or the sweep CSV is
  malformed; or
- "miss": the solve raised, or missed a pinned value: the split into
  orbit counts, multiplicities and zero patterns, a residual bound, or
  the sweep's large norm.

Either kind makes the solve count as failed; only "wrong" makes the
run incorrect.
"""

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from itertools import product

import numpy as np
import toricsolve
from toricsolve import cli

from tracing import PASS, REFERENCE, SOLVE


# A fixed kernel that shares no code with toricsolve, run before every
# solve and once after the last. Other tenants of a shared machine slow
# every solve by up to 1.7x for seconds at a time; a solve's time divided
# by the mean of the kernel times on either side of it cancels most of
# that. Its two halves mirror the solver's mix and take about equal time:
# exact integer loops over a box, and complex SVDs.
_REF_ROWS = (((1, 0, 0), 4), ((0, 1, 0), 4), ((0, 0, 1), 4),
             ((-1, -1, 0), 5), ((0, -1, -1), 5), ((-1, 0, -1), 5))
_REF_RNG = np.random.default_rng(0)
_REF_MATRIX = (_REF_RNG.standard_normal((48, 48))
               + 1j * _REF_RNG.standard_normal((48, 48)))


def reference_ms(reps):
    """Mean wall time (ms) of `reps` runs of the reference kernel."""
    t0 = time.perf_counter()
    for _ in range(reps):
        inside = 0
        for m in product(range(-3, 4), repeat=3):
            if all(sum(a * b for a, b in zip(g, m)) + c >= 0 for g, c in _REF_ROWS):
                inside += 1
        for _ in range(4):
            np.linalg.svd(_REF_MATRIX)
    return 1e3 * (time.perf_counter() - t0) / reps


class SolveLog:
    """Times every solve call and keeps what the metrics need from it.

    `ref_reps` reference runs precede each solve: a few percent of a
    solve's time, at least one. Warm-up logs run none.
    """

    def __init__(self, ref_reps=0):
        self.records = []
        self.tracer = None
        self.ref_reps = ref_reps
        self._supports = {}

    def solve(self, fn, equations, **kwargs):
        support = tuple(frozenset(e for e, _ in eq) for eq in equations)
        repeat = support in self._supports
        index = self._supports.setdefault(support, len(self._supports))
        ref = None
        if self.ref_reps and self.tracer is None:
            ref = reference_ms(self.ref_reps)
        elif self.ref_reps:
            ref = self.tracer.call(REFERENCE, reference_ms, (self.ref_reps,))
        record = {"traced": self.tracer is not None, "repeat": repeat,
                  "support": index, "resid": None, "timings": None,
                  "ref_before": ref}
        self.records.append(record)
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                result = fn(equations, **kwargs)
            else:
                result = self.tracer.call(SOLVE, fn, (equations,), kwargs,
                                          solve_root=True)
        finally:
            record["wall_ms"] = 1e3 * (time.perf_counter() - t0)
        record["resid"] = result.max_residual() if result.solutions else None
        record["timings"] = dict(result.timings)
        return result

    def finish(self):
        """Run the closing reference and give every record its `ref_ms`."""
        after = [r["ref_before"] for r in self.records[1:]] + [reference_ms(self.ref_reps)]
        for record, ref in zip(self.records, after):
            record["ref_ms"] = (record["ref_before"] + ref) / 2


def _gaussian(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _seed(rng):
    return int(rng.integers(2 ** 31))


# ---------------------------------------------------------------------------
# lines27: 27 lines on a cubic surface


# Ray order of the compactifying fan (P^2 x P^2); it fixes the Cox
# variable order, so the boundary zero pattern reads [2, 3].
LINES27_RAYS = [(0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, -1, 0), (0, -1, 0, -1),
                (1, 0, 0, 0), (0, 1, 0, 0)]

# Per equation: (exponent in (s, t, u, v), index into the 20 shared
# coefficients, integer multiplier). A cubic form in (t, v), the same
# form in (s, u), and two mixed partial combinations.
LINES27_TERMS = [
    [((0, 3, 0, 0), 0, 1), ((0, 2, 0, 1), 1, 1), ((0, 1, 0, 2), 2, 1),
     ((0, 0, 0, 3), 3, 1), ((0, 2, 0, 0), 4, 1), ((0, 1, 0, 1), 5, 1),
     ((0, 0, 0, 2), 6, 1), ((0, 1, 0, 0), 7, 1), ((0, 0, 0, 1), 8, 1),
     ((0, 0, 0, 0), 9, 1)],
    [((3, 0, 0, 0), 0, 1), ((2, 0, 1, 0), 1, 1), ((1, 0, 2, 0), 2, 1),
     ((0, 0, 3, 0), 3, 1), ((2, 0, 0, 0), 10, 1), ((1, 0, 1, 0), 11, 1),
     ((0, 0, 2, 0), 12, 1), ((1, 0, 0, 0), 16, 1), ((0, 0, 1, 0), 17, 1),
     ((0, 0, 0, 0), 19, 1)],
    [((1, 2, 0, 0), 0, 3), ((1, 1, 0, 1), 1, 2), ((1, 0, 0, 2), 2, 1),
     ((0, 2, 1, 0), 1, 1), ((0, 1, 1, 1), 2, 2), ((0, 0, 1, 2), 3, 3),
     ((1, 1, 0, 0), 4, 2), ((1, 0, 0, 1), 5, 1), ((0, 2, 0, 0), 10, 1),
     ((0, 1, 1, 0), 5, 1), ((0, 1, 0, 1), 11, 1), ((0, 0, 1, 1), 6, 2),
     ((0, 0, 0, 2), 12, 1), ((1, 0, 0, 0), 7, 1), ((0, 1, 0, 0), 13, 1),
     ((0, 0, 1, 0), 8, 1), ((0, 0, 0, 1), 14, 1), ((0, 0, 0, 0), 15, 1)],
    [((2, 1, 0, 0), 0, 3), ((2, 0, 0, 1), 1, 1), ((1, 1, 1, 0), 1, 2),
     ((1, 0, 1, 1), 2, 2), ((0, 1, 2, 0), 2, 1), ((0, 0, 2, 1), 3, 3),
     ((2, 0, 0, 0), 4, 1), ((1, 1, 0, 0), 10, 2), ((1, 0, 1, 0), 5, 1),
     ((1, 0, 0, 1), 11, 1), ((0, 1, 1, 0), 11, 1), ((0, 0, 2, 0), 6, 1),
     ((0, 0, 1, 1), 12, 2), ((1, 0, 0, 0), 13, 1), ((0, 1, 0, 0), 16, 1),
     ((0, 0, 1, 0), 14, 1), ((0, 0, 0, 1), 17, 1), ((0, 0, 0, 0), 18, 1)],
]


@dataclass(frozen=True)
class Lines27Expect:
    delta_plus: int = 45
    torus: int = 27
    torus_resid: float = 1e-8
    boundary: int = 3
    boundary_mult: int = 6
    zero_pattern: tuple = (2, 3)


def check_lines27(result, expect):
    problems = []
    if result.delta_plus != expect.delta_plus:
        problems.append(("wrong", f"delta+ {result.delta_plus} != {expect.delta_plus}"))
    torus, boundary = result.on_torus(), result.on_boundary()
    resid = max((max(s.residuals) for s in torus), default=0.0)
    if resid > expect.torus_resid:
        problems.append(("miss", f"torus residual {resid:.1e} > {expect.torus_resid:.0e}"))
    if len(torus) != expect.torus or any(s.multiplicity != 1 for s in torus):
        problems.append(("miss", f"torus multiplicities {sorted(s.multiplicity for s in torus)}"))
    if len(boundary) != expect.boundary or any(
            s.multiplicity != expect.boundary_mult
            or tuple(sorted(s.zero_pattern)) != expect.zero_pattern for s in boundary):
        problems.append(("miss", "boundary points " + str(
            [(s.multiplicity, sorted(s.zero_pattern)) for s in boundary])))
    return problems


class Lines27:
    """The cubic-surface system, fresh Gaussian coefficients every solve.

    Chosen because the exact-lattice layers (homogenize plus pair
    selection) do most of the work, and because it is the only workload
    with multiplicity-6 boundary clusters: it exercises cluster widening
    and boundary recovery.
    """

    name = "lines27"
    warmup_kwargs = {}
    ref_reps = 4
    # nominal seconds per step on a 2-vCPU VM, reference runs included
    step_s = 1.75

    def __init__(self, rng, log, workdir, expect=Lines27Expect()):
        self.rng = rng
        self.log = log
        self.expect = expect

    def draw(self):
        c = _gaussian(self.rng, 20)
        eqs = [[(e, mult * c[i]) for e, i, mult in eq] for eq in LINES27_TERMS]
        return eqs, _seed(self.rng)

    def step(self):
        """One solve; returns (attempted, problem lists of failed solves)."""
        eqs, seed = self.draw()
        try:
            result = self.log.solve(toricsolve.solve, eqs, rays=LINES27_RAYS, seed=seed)
        except Exception as exc:  # a raising solve is a measured failure
            return 1, [[("miss", f"raised {type(exc).__name__}: {exc}")]]
        problems = check_lines27(result, self.expect)
        return 1, [problems] if problems else []

    def close(self):
        pass


# ---------------------------------------------------------------------------
# dense: square dense systems on P^2 and P^3


def dense_system(rng, n, d):
    """n equations with every monomial of total degree <= d, Gaussian."""
    pts = [p for p in product(range(d + 1), repeat=n) if sum(p) <= d]
    return [list(zip(pts, _gaussian(rng, len(pts)))) for _ in range(n)]


def check_dense(result, n, d):
    want = d ** n
    problems = []
    if result.delta_plus != want:
        problems.append(("wrong", f"delta+ {result.delta_plus} != {want}"))
    if len(result.solutions) != want or any(
            not s.on_torus or s.multiplicity != 1 for s in result.solutions):
        problems.append(("miss", f"{len(result.on_torus())} torus points of "
                                 f"{len(result.solutions)}, expected {want} simple"))
    return problems


class Dense:
    """Dense square systems, alternating P^2 at degree 20 and P^3 at degree 6.

    Chosen because the eigensolver and recovery layers do most of the
    work: Schur clustering dominates on P^2 (delta+ = 400), the cokernel
    SVD on P^3 (delta+ = 216, Res 969 x 858). One step solves one system
    of each shape, so every run has as many samples of each.
    """

    name = "dense"
    ref_reps = 16
    step_s = 7.5
    # small warm-up systems run the same code paths in a fraction of the time
    warmup_kwargs = {"shapes": ((2, 6), (3, 2))}

    def __init__(self, rng, log, workdir, shapes=((2, 20), (3, 6))):
        self.rng = rng
        self.log = log
        self.shapes = shapes

    def step(self):
        failed = []
        for n, d in self.shapes:
            eqs, seed = dense_system(self.rng, n, d), _seed(self.rng)
            try:
                result = self.log.solve(toricsolve.solve, eqs, seed=seed)
            except Exception as exc:  # a raising solve is a measured failure
                failed.append([("miss", f"raised {type(exc).__name__}: {exc}")])
                continue
            problems = check_dense(result, n, d)
            if problems:
                failed.append(problems)
        return len(self.shapes), failed

    def close(self):
        pass


# ---------------------------------------------------------------------------
# sweep: the `toricsolve sweep` command, in process


SWEEP_GRID = "0:14:0.5"
SWEEP_POINTS = 29
HIRZEBRUCH_RAYS = [(1, 0), (0, 1), (0, -1), (-1, -1)]


def sweep_template():
    """Two quadrics on the Hirzebruch quad; one root diverges as e grows."""
    def eq(coeffs):
        exps = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]
        return {"terms": [{"exponent": list(x), "coeff": c} for x, c in zip(exps, coeffs)]}
    return {
        "format_version": "1",
        "variables": ["t1", "t2"],
        "equations": [eq([[-1, 0], [1, 0], [1, 0], [1, 0], [1, 0]]),
                      eq([[-2, 0], [2, 0], "5-2*10**(-e)", [4, 0], [5, 0]])],
        "fan": {"rays": [list(r) for r in HIRZEBRUCH_RAYS]},
    }


@dataclass(frozen=True)
class SweepExpect:
    delta_plus: int = 3
    max_res: float = 1e-12
    norm_e: float = 8.0
    norm: float = 1.414213532799484e8
    norm_rel: float = 0.01


def check_sweep_rows(lines, expect):
    """Problem list per CSV row of one pass."""
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    if header != toricsolve.SWEEP_HEADER or len(rows) != SWEEP_POINTS:
        return [[("wrong", f"sweep CSV has {len(rows)} rows under {header!r}")]] * SWEEP_POINTS
    out = []
    for e, max_res, _, _, max_norm, delta_plus, status, _ in rows:
        problems = []
        if status != "ok":
            problems.append(("miss", f"e={e}: status {status}"))
        else:
            if int(delta_plus) != expect.delta_plus:
                problems.append(("wrong", f"e={e}: delta+ {delta_plus}"))
            if float(max_res) > expect.max_res:
                problems.append(("miss", f"e={e}: max_res {max_res}"))
            if (float(e) == expect.norm_e
                    and abs(float(max_norm) - expect.norm) > expect.norm_rel * expect.norm):
                problems.append(("miss", f"e={e}: norm {max_norm}"))
        out.append(problems)
    return out


class Sweep:
    """`toricsolve sweep` over 29 grid points, pass after pass, through cli.main.

    Chosen because it is the only workload on the cli and formats layers,
    its fixed per-solve cost is mostly pair selection, it covers fourteen
    decades of degeneration, and its many samples give it a real tail.
    Each pass gets its own solve seed from the workload generator.
    """

    name = "sweep"
    warmup_kwargs = {}
    ref_reps = 1
    step_s = 1.5

    def __init__(self, rng, log, workdir, expect=SweepExpect()):
        self.rng = rng
        self.log = log
        self.expect = expect
        self.path = workdir / "sweep_system.json"
        self.path.write_text(json.dumps(sweep_template()), encoding="utf-8")
        self.csv = workdir / "sweep.csv"
        self._run_solve = cli.run_solve
        # time each solve at the name the command calls it by
        cli.run_solve = lambda eqs, **kw: log.solve(self._run_solve, eqs, **kw)

    def step(self):
        argv = ["sweep", str(self.path), "--param", "e", "--grid", SWEEP_GRID,
                "--output", str(self.csv), "--seed", str(_seed(self.rng))]
        if self.csv.exists():
            self.csv.unlink()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if self.log.tracer is None:
                    cli.main(argv, standalone_mode=False)
                else:
                    self.log.tracer.call(PASS, cli.main, (argv,),
                                         {"standalone_mode": False})
            lines = self.csv.read_text(encoding="utf-8").splitlines()
        except (Exception, SystemExit) as exc:  # the whole pass failed
            return SWEEP_POINTS, [[("miss", f"pass raised {type(exc).__name__}: {exc}")]] * SWEEP_POINTS
        return SWEEP_POINTS, [p for p in check_sweep_rows(lines, self.expect) if p]

    def close(self):
        cli.run_solve = self._run_solve


WORKLOADS = {w.name: w for w in (Lines27, Dense, Sweep)}


def worst_resid_log10(records):
    resid = [r["resid"] for r in records if r["resid"] is not None]
    worst = max(resid, default=0.0)
    return math.log10(worst) if worst > 0 else None


def support_repeat_frac(records):
    return sum(r["repeat"] for r in records) / len(records) if records else 0.0


def stage_medians(records):
    """Median per solve of each stage time `solve` records itself."""
    out = {}
    for key in ("homogenize_ms", "pair_ms", "cokernel_ms", "family_ms",
                "schur_ms", "recover_ms"):
        vals = [r["timings"][key] for r in records if r["timings"] and key in r["timings"]]
        out[f"solver.{key}"] = float(np.median(vals)) if vals else 0.0
    return out

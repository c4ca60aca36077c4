"""Command line tool: solve system files, report degree pairs, run sweeps.

Exit codes: 0 success, 2 input/parse problems, 3 degree pair selection,
4 ambiguous numerical rank, 5 eigenvalue clustering, 6 coordinate
recovery, 1 anything else. Click reports its own usage errors (missing
files, malformed flags) with code 2, matching the input category.
"""

import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from .cox import homogenize
from .errors import InputError, ToricSolveError
from .formats import (
    dump_solution_file,
    load_system_file,
    solution_file_text,
    sweep_csv_lines,
    write_series_csv,
)
from .regularity import (
    default_pair,
    improved_pair,
    predicted_shape,
    user_pair,
    verify_pair,
)
from .solver import check_options
from .solver import solve as run_solve

__all__ = ["main"]

# most values --grid may expand to; more is refused before any solve
GRID_MAX = 10**6


def _parse_int_vector(text, what):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(
            f"{what} must be comma-separated integers, got {text!r}"
        ) from None


def _parse_pair_flag(text):
    """Parse --pair "a1,...,ak;b1,...,bk" into two divisor vectors."""
    parts = text.split(";")
    if len(parts) != 2:
        raise InputError(
            'expected --pair "alpha;alpha0" with two comma-separated '
            f"integer vectors, got {text!r}"
        )
    return (_parse_int_vector(parts[0], "alpha"),
            _parse_int_vector(parts[1], "alpha0"))


def _parse_fan_flag(text):
    """Parse --fan "u11,u12;u21,u22;..." into a ray list."""
    rays = [_parse_int_vector(part, "ray") for part in text.split(";")]
    lengths = {len(r) for r in rays}
    if len(lengths) > 1:
        raise InputError(f"fan rays have mixed lengths in {text!r}")
    return rays


def _parse_grid(text):
    """Parse --grid "start:stop:step" into an inclusive value list."""
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(
            f'expected --grid "start:stop:step", got {text!r}'
        )
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise InputError(f"grid bounds must be numbers, got {text!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise InputError(f"grid bounds must be finite, got {text!r}")
    if step <= 0:
        raise InputError(f"grid step must be positive, got {step}")
    if stop < start:
        raise InputError(f"empty grid: stop {stop} is below start {start}")
    steps = (stop - start) / step + 1e-9
    if not steps < GRID_MAX:  # an overflow to inf fails this too
        raise InputError(f"grid {text!r} has more than {GRID_MAX} values")
    return [start + i * step for i in range(int(steps) + 1)]


@contextmanager
def _writing(path):
    """Turn an OSError inside into an InputError that names path."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _prepare_outputs(output, emit_csv):
    """Before any solve: --output's directory exists, --emit-csv's is made."""
    if output is not None and not output.parent.is_dir():
        raise InputError(f"cannot write {output}: no directory {output.parent}")
    if emit_csv is not None:
        with _writing(emit_csv):
            emit_csv.mkdir(parents=True, exist_ok=True)


def _emit_diagnostics(directory, result, prefix=""):
    with _writing(directory):
        for name in ("res_r_diagonal", "block_leakage"):
            write_series_csv(directory / f"{prefix}{name}.csv", result.diagnostics[name])


def _system_file(input_path, fan_flag, pair_flag):
    """The system file at input_path, with the rays and pair its flags give."""
    sf = load_system_file(input_path)
    if fan_flag:
        sf.rays = _parse_fan_flag(fan_flag)
    if pair_flag:
        sf.pair = _parse_pair_flag(pair_flag)
    return sf


_INPUT_ARG = click.argument(
    "input_path", type=click.Path(exists=True, dir_okay=False, path_type=Path)
)


def _common_solve_options(fn):
    for option in reversed([
        click.option("--seed", type=int, default=0, show_default=True,
                     help="Seed for every randomized choice in the run."),
        click.option("--pair", "pair_flag", type=str, default=None,
                     metavar='"ALPHA;ALPHA0"',
                     help="Degree pair as divisor vectors, overriding both "
                          "the automatic choice and the file."),
        click.option("--fan", "fan_flag", type=str, default=None,
                     metavar='"U1;U2;..."',
                     help="Explicit ray order, overriding the file."),
        click.option("--emit-csv", "emit_csv", default=None,
                     type=click.Path(file_okay=False, path_type=Path),
                     help="Directory for diagnostics CSV export."),
    ]):
        fn = option(fn)
    return fn


class _Commands(click.Group):
    """Group whose commands end a ToricSolveError with one error line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ToricSolveError as exc:
            click.echo(f"error ({exc.stage}): {exc}")
            sys.exit(exc.exit_code)


@click.group(cls=_Commands)
def main():
    """Numerical solver for sparse polynomial systems.

    Systems are compactified over a toric variety built from their
    Newton polytopes, so solutions on the torus and on the boundary
    (including diverging families) come out of one eigenvalue
    computation.
    """


@main.command("solve")
@_INPUT_ARG
@click.option("--output", "-o", type=click.Path(dir_okay=False, path_type=Path),
              default=None, help="Solution file destination (default stdout).")
@_common_solve_options
def cmd_solve(input_path, output, seed, pair_flag, fan_flag, emit_csv):
    """Solve the system in INPUT_PATH and write a solution file."""
    sf = _system_file(input_path, fan_flag, pair_flag)
    _prepare_outputs(output, emit_csv)
    result = run_solve(sf.laurent(), rays=sf.rays, pair=sf.pair, seed=seed)
    if emit_csv is not None:
        _emit_diagnostics(emit_csv, result)
    if output is None:
        click.echo(solution_file_text(result, sf.variables), nl=False)
    else:
        with _writing(output):
            dump_solution_file(result, output, sf.variables)
        click.echo(
            f"wrote {output}: delta={result.delta} "
            f"delta_plus={result.delta_plus} "
            f"torus={len(result.on_torus())} "
            f"boundary={len(result.on_boundary())} "
            f"max_residual={result.max_residual():.3e}"
        )


@main.command("regpair")
@_INPUT_ARG
@click.option("--pair", "pair_flag", type=str, default=None,
              metavar='"ALPHA;ALPHA0"', help="Report this pair instead.")
@click.option("--fan", "fan_flag", type=str, default=None,
              metavar='"U1;U2;..."', help="Explicit ray order.")
@click.option("--verify/--no-verify", default=False, show_default=True,
              help="Also compare coranks numerically (assembles one Res).")
def cmd_regpair(input_path, pair_flag, fan_flag, verify):
    """Report degree pair choices and predicted matrix shapes.

    Without --pair, prints the default pair (sum of the equation
    degrees) and the improved pair (structure-aware, smaller matrices).
    """
    sf = _system_file(input_path, fan_flag, pair_flag)
    system = homogenize(sf.laurent(), rays=sf.rays)
    if sf.pair:
        pairs = [("user", user_pair(system, *sf.pair))]
    else:
        pairs = [("default", default_pair(system)),
                 ("improved", improved_pair(system))]
    k = system.fan.k
    click.echo(
        f"system: {len(sf.equations)} equations, {sf.n} variables; "
        f"fan: {k} rays; class group rank "
        f"{system.fan.class_group.free_rank}"
    )
    for name, p in pairs:
        rows, cols = predicted_shape(system, p)
        line = (f"{name:<8}: alpha={tuple(p.alpha.a)}  "
                f"alpha0={tuple(p.alpha0.a)}  "
                f"provenance={p.provenance.value}  "
                f"shape={rows}x{cols}")
        if verify:
            lo, hi = verify_pair(system, p)
            line += f"  verified={lo == hi}  coranks={(lo, hi)}"
            if lo == hi:
                line += f"  delta_plus={lo}"
        click.echo(line)


@main.command("sweep")
@_INPUT_ARG
@click.option("--param", default="e", show_default=True,
              help="Name of the template parameter to sweep.")
@click.option("--grid", "grid_flag", required=True, metavar='"START:STOP:STEP"',
              help="Inclusive parameter grid.")
@click.option("--output", "-o", type=click.Path(dir_okay=False, path_type=Path),
              default=None, help="CSV destination (default stdout).")
@_common_solve_options
def cmd_sweep(input_path, param, grid_flag, output, seed, pair_flag, fan_flag,
              emit_csv):
    """Solve the template in INPUT_PATH over a parameter grid.

    Emits one CSV row per grid value with residual statistics, the
    largest solution norm, and the solution count; rows for failed
    points carry the failure stage in the status column and the run
    continues.
    """
    # a bad seed would fail every row alike
    check_options(seed)
    sf = _system_file(input_path, fan_flag, pair_flag)
    sf.check_parameter(param)
    values = _parse_grid(grid_flag)
    _prepare_outputs(output, emit_csv)
    rows = []
    for index, value in enumerate(values):
        t0 = time.perf_counter()
        try:
            inst = sf.instantiate(param, value)
            result = run_solve(inst.laurent(), rays=sf.rays, pair=sf.pair, seed=seed)
        except ToricSolveError as exc:
            rows.append({
                "e": float(value),
                "status": exc.stage,
                "wall_ms": int(round(1e3 * (time.perf_counter() - t0))),
            })
            continue
        wall_ms = int(round(1e3 * (time.perf_counter() - t0)))
        # the ufunc reductions carry a nan wherever it sits, max and min do not
        per_solution = [float(np.maximum.reduce(s.residuals)) for s in result.solutions]
        rows.append({
            "e": float(value),
            "max_res": float(np.maximum.reduce(per_solution, initial=0.0)),
            "mean_res": sum(per_solution) / len(per_solution) if per_solution else 0.0,
            "min_res": float(np.minimum.reduce(per_solution)) if per_solution else 0.0,
            "max_norm": max((s.norm for s in result.solutions), default=0.0),
            "delta_plus": result.delta_plus,
            "status": "ok",
            "wall_ms": wall_ms,
        })
        if emit_csv is not None:
            _emit_diagnostics(emit_csv, result, prefix=f"point_{index:03d}_")

    text = "\n".join(sweep_csv_lines(rows)) + "\n"
    if output is None:
        click.echo(text, nl=False)
    else:
        with _writing(output):
            output.write_text(text, encoding="utf-8")
        ok = sum(1 for r in rows if r["status"] == "ok")
        click.echo(f"wrote {output}: {ok}/{len(rows)} points solved")


if __name__ == "__main__":
    main()

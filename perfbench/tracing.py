"""Span recording around toricsolve's public callables, from outside.

A `Tracer` replaces each callable in `PATCHES` with a timing wrapper at
the name its caller looks it up under (for example `solver.cokernel`,
the name `solve` calls), and puts the original back on `uninstall`.
Nothing in the package is edited; the wrappers live only in the
benchmark process and only while a traced step runs.

Each span records name, start, end, parent span and solve id. A few
wrappers also keep attributes read off the call's result (matrix
shapes, singular-value gap, cluster counts) so that ratios are measured
where the work happens. Self time is a span's duration minus the time
its direct child spans cover; calls are sequential, so children never
overlap.
"""

import functools
import importlib
import json
import math
import time

# (module, class or None, attribute, span name, caller tag)
PATCHES = (
    ("toricsolve.lattice", "Polytope", "from_points", "lattice.from_points", None),
    ("toricsolve.lattice", "Polytope", "from_inequalities",
     "lattice.from_inequalities", None),
    ("toricsolve.lattice", "Polytope", "lattice_points", "lattice.lattice_points", None),
    ("toricsolve.lattice", "Polytope", "minkowski", "lattice.minkowski", None),
    ("toricsolve.toric", "Fan", "normal_fan", "toric.Fan.normal_fan", None),
    ("toricsolve.solver", None, "homogenize", "cox.homogenize", None),
    ("toricsolve.regularity", None, "graded_basis", "cox.graded_basis", "regularity"),
    ("toricsolve.eigensolver", None, "graded_basis", "cox.graded_basis", "eigensolver"),
    ("toricsolve.cox", "HomogeneousSystem", "residuals", "cox.residuals", None),
    ("toricsolve.solver", None, "improved_pair", "regularity.improved_pair", None),
    ("toricsolve.solver", None, "assemble_res", "eigensolver.assemble_res", None),
    ("toricsolve.solver", None, "cokernel", "eigensolver.cokernel", None),
    ("toricsolve.solver", None, "multiplication_family",
     "eigensolver.multiplication_family", None),
    ("toricsolve.solver", None, "schur_cluster", "eigensolver.schur_cluster", None),
    ("toricsolve.recovery", "EigenvalueTable", "from_clustering",
     "recovery.from_clustering", None),
    ("toricsolve.solver", None, "recover_torus_point", "recovery.torus", None),
    ("toricsolve.solver", None, "recover_boundary_point", "recovery.boundary", None),
    ("toricsolve.cli", None, "load_system_file", "formats.load_system_file", None),
    ("toricsolve.formats", "SystemFile", "instantiate", "formats.instantiate", None),
    ("toricsolve.cli", None, "sweep_csv_lines", "formats.sweep_csv_lines", None),
)

SPAN_NAMES = tuple(dict.fromkeys(p[3] for p in PATCHES))

SOLVE = "solve"
PASS = "cli.sweep"
# the benchmark's own reference kernel, when it runs inside a sweep pass
REFERENCE = "reference"


def _box_points(poly):
    """Number of lattice points in the bounding box `lattice_points` scans."""
    if poly.is_empty:
        return 0
    los, his = poly.bounding_box()
    return math.prod(hi - lo + 1 for lo, hi in zip(los, his))


def _res_attrs(args, kwargs, res):
    rows, cols = res.matrix.shape
    return {"rows": rows, "cols": cols}


def _cokernel_attrs(args, kwargs, cok):
    # the corank is counted against the row dimension, as `cokernel` does
    rows, cols = cok.res.matrix.shape
    s = cok.singular_values
    rank = rows - cok.delta_plus
    gap = None
    if 0 < rank < len(s) and s[rank] > 0.0:
        gap = math.log10(s[rank - 1] / s[rank])
    return {"rows": rows, "cols": cols, "gap_log10": gap}


def _family_attrs(args, kwargs, family):
    cond = family.cond
    return {"members": len(family.matrices),
            "cond_log10": math.log10(cond) if cond > 0 else None}


def _schur_attrs(args, kwargs, clustering):
    requested = kwargs.get("cluster_gap", 1e-4)
    leak = clustering.leakage
    return {"clusters": len(clustering.block_sizes),
            "widening_log10": math.log10(clustering.cluster_gap / requested),
            "leakage_log10": math.log10(leak) if leak > 0 else None}


def _lattice_attrs(args, kwargs, points):
    return {"returned": len(points), "scanned": _box_points(args[0])}


ATTRS = {
    "lattice.lattice_points": _lattice_attrs,
    "eigensolver.assemble_res": _res_attrs,
    "eigensolver.cokernel": _cokernel_attrs,
    "eigensolver.multiplication_family": _family_attrs,
    "eigensolver.schur_cluster": _schur_attrs,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "solve_id", "ok", "attrs")

    def __init__(self, name, start, parent, solve_id):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.solve_id = solve_id
        self.ok = True
        self.attrs = None


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._solve_id = None
        self._next_solve = 0
        self._saved = []

    # -- recording

    def _open(self, name, solve_root=False):
        if solve_root:
            self._solve_id = self._next_solve
            self._next_solve += 1
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self._solve_id)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span, solve_root=False):
        span.end = time.perf_counter()
        self._stack.pop()
        if solve_root:
            self._solve_id = None

    def call(self, name, fn, args=(), kwargs=None, solve_root=False):
        """Run fn(*args, **kwargs) inside a span; a solve root starts a solve id."""
        return self._wrapper(name, fn, None, solve_root)(*args, **(kwargs or {}))

    # -- wrapping

    def _wrapper(self, name, fn, caller, solve_root=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, solve_root)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            finally:
                self._close(span, solve_root)
            attrs = ATTRS.get(name)
            if caller or attrs is not None:
                span.attrs = {"via": caller} if caller else {}
                if attrs is not None:
                    span.attrs.update(attrs(args, kwargs, result))
            return result
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, cls_name, attr, name, caller in PATCHES:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr] if cls_name else getattr(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrapper(name, original.__func__, caller))
            else:
                wrapped = self._wrapper(name, original, caller)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output

    def self_ms(self):
        """Self time in ms per span index: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        return [1e3 * (s.end - s.start - c) for s, c in zip(self.spans, child)]

    def write(self, path):
        """Write every span as one JSON line, with its self time."""
        selfs = self.self_ms()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (span, own) in enumerate(zip(self.spans, selfs)):
                fh.write(json.dumps({
                    "id": i, "name": span.name, "parent": span.parent,
                    "solve": span.solve_id, "start": span.start,
                    "end": span.end, "self_ms": own, "ok": span.ok,
                    "attrs": span.attrs,
                }) + "\n")


def svd_gflop(rows, cols):
    """Computed flop count (Gflop) of the cokernel SVD on a rows x cols Res.

    `cokernel` asks numpy for the full U when rows > cols and the thin
    factors otherwise. Real-arithmetic counts are Golub and Van Loan's
    for the R-SVD (Matrix Computations): 4 m^2 n + 22 n^3 with full U,
    6 m n^2 + 20 n^3 thin, for m >= n; a complex flop is taken as four
    real ones. LAPACK's divide-and-conquer routine (gesdd) does less.
    """
    m, n = max(rows, cols), min(rows, cols)
    real = 4 * m * m * n + 22 * n ** 3 if rows > cols else 6 * m * n * n + 20 * n ** 3
    return 4 * real / 1e9


def layer_metrics(tracer):
    """Per-layer metrics from a tracer's spans.

    Calls and times are per traced solve (a `solve` span). Quality
    figures read off results are the worst over the run (gap, condition,
    leakage) or the mean per call (clusters, widenings). The sweep
    overhead is per traced pass (a `cli.sweep` span), net of the solves
    and the reference kernel runs inside it.
    """
    spans = tracer.spans
    selfs = tracer.self_ms()
    per = max(sum(1 for s in spans if s.name == SOLVE), 1)
    out = {}
    for name in SPAN_NAMES:
        idx = [i for i, s in enumerate(spans) if s.name == name]
        out[f"{name}.calls"] = len(idx) / per
        out[f"{name}.ms"] = sum(1e3 * (spans[i].end - spans[i].start) for i in idx) / per
        out[f"{name}.self_ms"] = sum(selfs[i] for i in idx) / per

    def values(name, key):
        return [s.attrs[key] for s in spans
                if s.name == name and s.attrs and s.attrs.get(key) is not None]

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    scanned = sum(values("lattice.lattice_points", "scanned"))
    out["lattice.lattice_points.hit_ratio"] = (
        sum(values("lattice.lattice_points", "returned")) / scanned if scanned else 0.0)
    out["regularity.graded_basis.calls"] = values(
        "cox.graded_basis", "via").count("regularity") / per

    shapes = list(zip(values("eigensolver.assemble_res", "rows"),
                      values("eigensolver.assemble_res", "cols")))
    rows, cols = max(shapes, key=lambda rc: rc[0] * rc[1], default=(0, 0))
    out["eigensolver.res_rows"] = rows
    out["eigensolver.res_cols"] = cols
    out["eigensolver.res_bytes"] = rows * cols * 16
    out["eigensolver.cokernel.gap_log10"] = min(
        values("eigensolver.cokernel", "gap_log10"), default=0.0)
    out["eigensolver.svd_flops"] = sum(
        svd_gflop(r, c) for r, c in zip(values("eigensolver.cokernel", "rows"),
                                        values("eigensolver.cokernel", "cols"))) / per
    out["eigensolver.family.members"] = mean(
        values("eigensolver.multiplication_family", "members"))
    out["eigensolver.family.cond_log10"] = max(
        values("eigensolver.multiplication_family", "cond_log10"), default=0.0)
    out["eigensolver.schur.clusters"] = mean(values("eigensolver.schur_cluster", "clusters"))
    out["eigensolver.schur.widenings"] = mean(
        values("eigensolver.schur_cluster", "widening_log10"))
    out["eigensolver.schur.leakage_log10"] = max(
        values("eigensolver.schur_cluster", "leakage_log10"), default=0.0)
    torus = [s.ok for s in spans if s.name == "recovery.torus"]
    out["recovery.torus.ok_ratio"] = mean(torus)

    passes = [1e3 * (s.end - s.start) for s in spans if s.name == PASS]
    inner = sum(1e3 * (s.end - s.start) for s in spans
                if s.name in (SOLVE, REFERENCE) and s.parent is not None)
    out["cli.sweep.overhead_ms"] = (sum(passes) - inner) / len(passes) if passes else 0.0
    return out

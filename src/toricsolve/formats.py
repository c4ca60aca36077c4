"""System and solution files, parameter templates, and CSV export.

System files are JSON: a list of equations, each a list of terms with an
integer exponent vector and a coefficient given as an [re, im] pair. A
coefficient may instead be a string template in one scalar parameter
(for sweeps), built from numbers, + - * / ** and parentheses. Optional
blocks pin the fan (explicit ray order) and the degree pair.

Solution files are JSON with a metadata block (seed, pair, tolerances,
counts, timings) and one record per solution. Two runs with the same
seed produce byte-identical files apart from the timings block.

All documents carry format_version "1".
"""

import ast
import json

from .errors import InputError
from .lattice import is_int

__all__ = [
    "FORMAT_VERSION",
    "SWEEP_HEADER",
    "SystemFile",
    "eval_scalar",
    "load_system_file",
    "load_solution_file",
    "solution_file_dict",
    "dump_solution_file",
    "sweep_csv_lines",
    "write_series_csv",
]

FORMAT_VERSION = "1"

_SWEEP_COLUMNS = ("e", "max_res", "mean_res", "min_res", "max_norm",
                  "delta_plus", "status", "wall_ms")

SWEEP_HEADER = ",".join(_SWEEP_COLUMNS)


# ---------------------------------------------------------------------------
# safe scalar expressions


_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a ** b,
}

_UNARYOPS = {
    ast.UAdd: lambda a: +a,
    ast.USub: lambda a: -a,
}


def _eval_node(node, env):
    if isinstance(node, ast.Expression):
        return _eval_node(node.body, env)
    if isinstance(node, ast.Constant):
        # integers become floats, so a huge power overflows at once
        # instead of building an exact integer with billions of digits
        if isinstance(node.value, int):
            return float(node.value)
        if isinstance(node.value, (float, complex)):
            return node.value
        raise InputError(
            f"non-numeric constant {node.value!r} in coefficient template"
        )
    if isinstance(node, ast.Name):
        if node.id in env:
            return env[node.id]
        raise InputError(f"parameter not found: {node.id!r}")
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        left = _eval_node(node.left, env)
        right = _eval_node(node.right, env)
        try:
            return _BINOPS[type(node.op)](left, right)
        except ZeroDivisionError:
            raise InputError("coefficient template divides by zero") from None
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARYOPS:
        return _UNARYOPS[type(node.op)](_eval_node(node.operand, env))
    raise InputError(
        f"unsupported syntax {type(node).__name__!r} in coefficient template; "
        "allowed: numbers, parameter name, + - * / ** and parentheses"
    )


# CPython's parser and the recursive evaluator give up on deep nesting
# with RecursionError or MemoryError; both are input problems here
def _too_deep(text):
    return InputError(f"coefficient template {text[:40]!r}... ({len(text)} "
                      "characters) nests too deeply to evaluate")


def _parse_template(text):
    try:
        return ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise InputError(f"bad coefficient template {text!r}: {exc.msg}") from None
    except (RecursionError, MemoryError):
        raise _too_deep(text) from None


def eval_scalar(text, env):
    """Evaluate a template like "5-2*10**(-e)" with env = {"e": value}.

    Only arithmetic on numeric literals and names from env is allowed;
    anything else (calls, attributes, subscripts) is rejected.

    Integer literals are evaluated as floats.

    Raises:
        InputError: syntax errors, unknown names, non-arithmetic nodes,
            division by zero, a value beyond the float range, or nesting
            too deep to parse or evaluate.
    """
    return _eval_tree(_parse_template(text), text, env)


def _eval_tree(tree, text, env):
    """eval_scalar on the parsed template `tree` of `text`."""
    try:
        value = _eval_node(tree, env)
    except OverflowError:
        raise InputError(f"coefficient template {text!r} overflows the float range") from None
    except RecursionError:
        raise _too_deep(text) from None
    return complex(value) if isinstance(value, complex) else float(value)


def _names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _template_names(text):
    return _names(_parse_template(text))


# ---------------------------------------------------------------------------
# system files


class SystemFile:
    """Parsed system file: equations plus optional fan and pair blocks.

    Attributes:
        variables: tuple of variable names, length n.
        equations: list of equations; each a list of (exponent tuple,
            coefficient) where the coefficient is a complex number or an
            unevaluated template string.
        rays: explicit ray order for the fan, or None.
        pair: (alpha, alpha0) divisor vectors, or None.

    Each template is parsed once per SystemFile (_parsed), so a sweep
    evaluates the kept syntax trees row after row.
    """

    __slots__ = ("variables", "equations", "rays", "pair", "_templates")

    def __init__(self, variables, equations, rays=None, pair=None):
        self.variables = tuple(variables)
        self.equations = [list(eq) for eq in equations]
        self.rays = None if rays is None else tuple(tuple(r) for r in rays)
        self.pair = None if pair is None else (
            tuple(pair[0]), tuple(pair[1]))
        # template text -> (syntax tree, names it uses), each text parsed once
        self._templates = {}

    @property
    def n(self):
        return len(self.variables)

    def _parsed(self):
        """{template text: (syntax tree, names it uses)} of every
        unevaluated coefficient in the equations as they stand."""
        out = {}
        for eq in self.equations:
            for _, coeff in eq:
                if isinstance(coeff, str) and coeff not in out:
                    if coeff not in self._templates:
                        tree = _parse_template(coeff)
                        self._templates[coeff] = tree, _names(tree)
                    out[coeff] = self._templates[coeff]
        return out

    def parameter_names(self):
        """Names referenced by any unevaluated coefficient template."""
        names = set()
        for _, used in self._parsed().values():
            names |= used
        return names

    def instantiate(self, name, value):
        """Substitute the parameter and return a template-free copy.

        Raises:
            InputError: no template references the parameter, a template
                references a different name, or evaluation fails.
        """
        if name not in self.parameter_names():
            raise InputError(
                f"parameter not found: no coefficient template uses {name!r}"
            )
        env = {name: value}
        templates = self._parsed()
        equations = []
        for eq in self.equations:
            terms = []
            for exp, coeff in eq:
                if isinstance(coeff, str):
                    coeff = _eval_tree(templates[coeff][0], coeff, env)
                terms.append((exp, coeff))
            equations.append(terms)
        return SystemFile(self.variables, equations, self.rays, self.pair)

    def laurent(self):
        """Equations as (exponent, complex coefficient) term lists.

        Raises:
            InputError: some coefficient is an unevaluated template.
        """
        out = []
        for i, eq in enumerate(self.equations, start=1):
            terms = []
            for j, (exp, coeff) in enumerate(eq, start=1):
                if isinstance(coeff, str):
                    names = ", ".join(sorted(_template_names(coeff))) or "?"
                    raise InputError(
                        f"equation {i}, term {j}: unresolved parameter "
                        f"({names}) in coefficient {coeff!r}; "
                        "use the sweep command or instantiate first"
                    )
                terms.append((exp, complex(coeff)))
            out.append(terms)
        return out


def _is_int_vector(v):
    return isinstance(v, list) and all(map(is_int, v))


def _parse_coeff(raw, where):
    if isinstance(raw, str):
        _template_names(raw)  # validates syntax early
        return raw
    if (isinstance(raw, (list, tuple)) and len(raw) == 2
            and all(is_int(x) or isinstance(x, float) for x in raw)):
        return complex(float(raw[0]), float(raw[1]))
    raise InputError(
        f"{where}: coefficient must be an [re, im] pair or a template "
        f"string, got {raw!r}"
    )


def _read_json(path, kind):
    """The JSON object in the file at path, of format_version "1".

    Raises:
        InputError: unreadable file, malformed JSON (with line/column),
            no JSON object, or another format_version; each message names
            kind, the kind of file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {kind} {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{kind} {path} is not valid JSON: {exc.msg} "
            f"(line {exc.lineno}, column {exc.colno})"
        ) from None
    if not isinstance(doc, dict):
        raise InputError(f"{kind} must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise InputError(
            f"{kind} has unsupported format_version {version!r}; expected "
            f"{FORMAT_VERSION!r}"
        )
    return doc


def load_system_file(path):
    """Read and validate a system file.

    Raises:
        InputError: unreadable file, malformed JSON (with line/column),
            wrong format_version, or schema violations, each reported
            with its equation/term location.
    """
    doc = _read_json(path, "system file")
    raw_eqs = doc.get("equations")
    if not isinstance(raw_eqs, list) or not raw_eqs:
        raise InputError("system file needs at least one equation")

    variables = doc.get("variables")
    n = None
    if variables is not None:
        if (not isinstance(variables, list)
                or not all(isinstance(v, str) for v in variables)):
            raise InputError("variables must be a list of names")
        n = len(variables)

    equations = []
    for i, raw_eq in enumerate(raw_eqs, start=1):
        if not isinstance(raw_eq, dict) or "terms" not in raw_eq:
            raise InputError(f"equation {i}: expected an object with terms")
        raw_terms = raw_eq["terms"]
        if not isinstance(raw_terms, list) or not raw_terms:
            raise InputError(f"equation {i}: needs at least one term")
        terms = []
        for j, raw_term in enumerate(raw_terms, start=1):
            where = f"equation {i}, term {j}"
            if not isinstance(raw_term, dict):
                raise InputError(f"{where}: expected an object")
            exp = raw_term.get("exponent")
            if not _is_int_vector(exp):
                raise InputError(
                    f"{where}: exponent must be an integer vector, got {exp!r}"
                )
            if n is None:
                n = len(exp)
            if len(exp) != n:
                raise InputError(
                    f"{where}: exponent has length {len(exp)}, expected {n}"
                )
            coeff = _parse_coeff(raw_term.get("coeff"), where)
            terms.append((tuple(exp), coeff))
        equations.append(terms)

    if variables is None:
        variables = [f"t{i + 1}" for i in range(n)]

    rays = None
    if "fan" in doc:
        fan_doc = doc["fan"]
        if not isinstance(fan_doc, dict) or not isinstance(fan_doc.get("rays"), list):
            raise InputError("fan block must be an object with a list of rays")
        rays = []
        for r in fan_doc["rays"]:
            if not _is_int_vector(r) or len(r) != n:
                raise InputError(
                    f"fan ray {r!r} must be an integer vector of length {n}"
                )
            rays.append(tuple(r))

    pair = None
    if "pair" in doc:
        pair_doc = doc["pair"]
        if (not isinstance(pair_doc, dict)
                or "alpha" not in pair_doc or "alpha0" not in pair_doc):
            raise InputError("pair block must carry alpha and alpha0")
        alpha = pair_doc["alpha"]
        alpha0 = pair_doc["alpha0"]
        for name, vec in (("alpha", alpha), ("alpha0", alpha0)):
            if not _is_int_vector(vec):
                raise InputError(f"pair {name} must be an integer vector")
        pair = (tuple(alpha), tuple(alpha0))

    return SystemFile(variables, equations, rays, pair)


# ---------------------------------------------------------------------------
# solution files


def _complex_pair(value):
    return [float(value.real), float(value.imag)]


def solution_file_dict(result, variables=None):
    """Serialize a SolutionSet as a JSON-ready dict; variables default to t1..tn."""
    pair = result.pair
    meta = {
        "seed": result.seed,
        "delta": result.delta,
        "delta_plus": result.delta_plus,
        "pair": {
            "alpha": list(pair.alpha.a),
            "alpha0": list(pair.alpha0.a),
            "provenance": pair.provenance.value,
            # solve returns only pairs whose two coranks agree
            "verified": True,
            "coranks": [result.delta_plus, result.delta_plus],
        },
        "tolerances": dict(result.tolerances),
        "timings_ms": {k: float(v) for k, v in result.timings.items()},
        "variables": list(variables or (f"t{i + 1}" for i in range(result.system.fan.n))),
        "rays": [list(r) for r in result.system.fan.rays],
    }
    sols = []
    for s in result.solutions:
        sols.append({
            "z": [_complex_pair(x) for x in s.z],
            "t": None if s.t is None else [_complex_pair(x) for x in s.t],
            "multiplicity": s.multiplicity,
            "zero_pattern": sorted(s.zero_pattern),
            "residuals": [float(r) for r in s.residuals],
            "on_torus": s.on_torus,
            "non_simplicial": s.non_simplicial,
        })
    return {
        "format_version": FORMAT_VERSION,
        "metadata": meta,
        "solutions": sols,
    }


def dump_solution_file(result, path_or_file, variables=None):
    """Write a SolutionSet as a solution file (sorted keys, stable text)."""
    text = json.dumps(solution_file_dict(result, variables), sort_keys=True, indent=2)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text + "\n")
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def load_solution_file(path):
    """Read a solution file back into a dict, checking the version."""
    return _read_json(path, "solution file")


# ---------------------------------------------------------------------------
# CSV export


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def sweep_csv_lines(rows):
    """Render sweep rows as CSV lines with the pinned header.

    Each row is a dict with keys from the header; missing keys become
    empty cells, so failure rows keep the column layout.
    """
    lines = [SWEEP_HEADER]
    for row in rows:
        lines.append(",".join(_cell(row.get(col)) for col in _SWEEP_COLUMNS))
    return lines


def write_series_csv(path, values):
    """Write a value series as index,value CSV (diagnostics export)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,value\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{_cell(float(v))}\n")

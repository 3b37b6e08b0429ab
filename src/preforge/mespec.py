"""Model spec files: JSON schema, safe expression evaluation, built-in catalog.

Schema (JSON object):

    name        optional string
    description optional string
    dim         integer >= 2
    parameters  object mapping parameter names to default scalars (null
                means "must be bound at load time")
    hamiltonian D x D nested list
    lindblads   list of D x D nested lists

Each matrix entry is one of
  * a number (real),
  * a two-element list [re, im],
  * a string expression in the declared parameters, e.g. "0.5*Omega" or
    "1j*sqrt(gamma)".  Expressions support + - * / ** ( ), the functions
    sqrt, sin, cos, exp, the constant pi, and complex literals like 1j.
"""

from __future__ import annotations

import ast
import cmath
import json
import math
from importlib import resources

from .errors import PreForgeError
from .model import MasterEquation

__all__ = ["MESpecError", "UnboundParameterError", "read_me_spec", "load_me_spec", "parse_me_spec",
           "catalog_names", "catalog_doc", "load_catalog"]


class MESpecError(PreForgeError, ValueError):
    """Model spec file is malformed."""


class UnboundParameterError(MESpecError):
    """An expression references a parameter with no bound value."""

    def __init__(self, name):
        super().__init__(f"parameter '{name}' is not bound")
        self.name = name


_FUNCTIONS = {"sqrt": cmath.sqrt, "sin": cmath.sin, "cos": cmath.cos, "exp": cmath.exp}
_CONSTANTS = {"pi": math.pi, "e": math.e}

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a ** b,
}


def _eval_node(node, bindings):
    if isinstance(node, ast.Expression):
        return _eval_node(node.body, bindings)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float, complex)):
            return node.value
        raise MESpecError(f"literal {node.value!r} is not numeric")
    if isinstance(node, ast.Name):
        if node.id in bindings:
            value = bindings[node.id]
            if value is None:
                raise UnboundParameterError(node.id)
            return value
        if node.id in _CONSTANTS:
            return _CONSTANTS[node.id]
        raise UnboundParameterError(node.id)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _BINOPS[type(node.op)](
            _eval_node(node.left, bindings), _eval_node(node.right, bindings)
        )
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        value = _eval_node(node.operand, bindings)
        return -value if isinstance(node.op, ast.USub) else value
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id not in _FUNCTIONS:
            raise MESpecError(f"unknown function '{node.func.id}'")
        if len(node.args) != 1 or node.keywords:
            raise MESpecError(f"{node.func.id}() takes exactly one argument")
        return _FUNCTIONS[node.func.id](_eval_node(node.args[0], bindings))
    raise MESpecError(f"unsupported expression element: {ast.dump(node)}")


def eval_entry(entry, bindings):
    """Evaluate one matrix entry (number, [re, im] pair, or expression)."""
    if isinstance(entry, (int, float)):
        return complex(entry)
    if isinstance(entry, list):
        if len(entry) != 2 or not all(isinstance(v, (int, float)) for v in entry):
            raise MESpecError(f"matrix entry {entry!r} is not a [re, im] pair")
        return complex(entry[0], entry[1])
    if isinstance(entry, str):
        try:
            tree = ast.parse(entry, mode="eval")
        except SyntaxError as exc:
            raise MESpecError(f"cannot parse expression {entry!r}: {exc}") from exc
        return complex(_eval_node(tree, bindings))
    raise MESpecError(f"matrix entry {entry!r} has unsupported type")


def _eval_matrix(rows, dim, bindings, label):
    if not isinstance(rows, list) or len(rows) != dim or any(
        not isinstance(r, list) or len(r) != dim for r in rows
    ):
        raise MESpecError(f"{label} must be a {dim}x{dim} nested list")
    return [[eval_entry(entry, bindings) for entry in row] for row in rows]


def parse_me_spec(doc: dict, params: dict | None = None) -> MasterEquation:
    """Build a MasterEquation from a parsed spec document.

    ``params`` overrides/completes the file's parameter defaults; every
    parameter referenced by an expression must end up bound, and every
    name in ``params`` must be declared or referenced.
    """
    if not isinstance(doc, dict):
        raise MESpecError("spec document must be a JSON object")
    try:
        dim = int(doc["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MESpecError("spec is missing an integer 'dim'") from exc
    declared = doc.get("parameters", {}) or {}
    if not isinstance(declared, dict):
        raise MESpecError("'parameters' must map names to default values")
    bindings = dict(declared)
    bindings.update(params or {})
    ham = _eval_matrix(doc.get("hamiltonian"), dim, bindings, "hamiltonian")
    lindblads = doc.get("lindblads", [])
    if not isinstance(lindblads, list):
        raise MESpecError("'lindblads' must be a list of matrices")
    cs = [_eval_matrix(c, dim, bindings, f"lindblads[{i}]") for i, c in enumerate(lindblads)]
    unknown = set(params or {}) - set(declared)
    if unknown:  # names that an expression uses are valid without a declaration
        entries = [e for m in [doc["hamiltonian"], *lindblads] for row in m for e in row]
        trees = [ast.parse(e, mode="eval") for e in entries if isinstance(e, str)]
        names = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
        unknown -= names - set(_FUNCTIONS)  # binding a function name changes nothing
    if unknown:
        raise MESpecError(
            f"unknown parameter(s) {', '.join(map(repr, sorted(unknown)))} "
            f"(declared: {', '.join(declared) or 'none'})"
        )
    return MasterEquation(dim, ham, cs)


def read_me_spec(path) -> dict:
    """The JSON document of a spec file, for :func:`parse_me_spec`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise MESpecError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def load_me_spec(path, params: dict | None = None) -> MasterEquation:
    """Load a spec file from disk and bind parameters."""
    return parse_me_spec(read_me_spec(path), params)


def catalog_names() -> list:
    """Names of the bundled example model specs."""
    root = resources.files("preforge").joinpath("catalog")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def catalog_doc(name: str) -> dict:
    """The JSON document of a bundled spec, for :func:`parse_me_spec`."""
    res = resources.files("preforge").joinpath("catalog", f"{name}.json")
    if not res.is_file():
        raise MESpecError(f"no catalog entry '{name}' (have: {', '.join(catalog_names())})")
    return json.loads(res.read_text(encoding="utf-8"))


def load_catalog(name: str, params: dict | None = None) -> MasterEquation:
    """Load a bundled spec by name."""
    return parse_me_spec(catalog_doc(name), params)

"""Contracts on the package source itself."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import preforge

# A handler that catches every error hides the failures it should report.
BROAD_EXCEPT = re.compile(r"^\s*except\s*(:|.*\b(Base)?Exception\b)")


def test_no_catch_all_exception_handlers():
    package = Path(preforge.__file__).parent
    offenders = [
        f"{path.relative_to(package)}:{lineno}: {line.strip()}"
        for path in sorted(package.rglob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if BROAD_EXCEPT.match(line)
    ]
    assert not offenders, "catch-all exception handlers:\n" + "\n".join(offenders)


def test_cli_import_leaves_heavy_scipy_subpackages_unloaded():
    # Start-up cost: the program runs on numpy alone, so importing every
    # preforge module must load no scipy module at all.
    env = dict(os.environ, PYTHONPATH=str(Path(preforge.__file__).parent.parent))
    probe = (
        "import importlib, pkgutil, sys, preforge; "
        "names = [m.name for m in pkgutil.iter_modules(preforge.__path__, 'preforge.')]; "
        "[importlib.import_module(n) for n in names]; "
        "print(len(names)); "
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    count, *scipy_modules = done.stdout.split()
    assert int(count) >= 10  # cli, solver, trajectory, ... all imported
    assert scipy_modules == []


def test_every_exported_name_resolves():
    # A deletion must take its name out of __all__ too.
    missing = []
    for info in pkgutil.iter_modules(preforge.__path__, "preforge."):
        module = importlib.import_module(info.name)
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, "names in __all__ that do not resolve: " + ", ".join(missing)


# Only the solver decides whether a result is a new ensemble.
EQUIVALENCE_CALL = re.compile(r"\b(same_ensemble|family_equivalent)\(")
# The exact relabelling distance costs K! work; no program path may call it.
DISTANCE_CALL = re.compile(r"(?<!def )\bensemble_distance\(")


def _calls(pattern, skip=()):
    package = Path(preforge.__file__).parent
    return [
        f"{path.relative_to(package)}:{lineno}: {line.strip()}"
        for path in sorted(package.rglob("*.py"))
        if path.name not in skip
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]


def test_ensemble_equivalence_is_decided_in_solver_alone():
    offenders = _calls(EQUIVALENCE_CALL, skip=("solver.py",))
    assert not offenders, "equivalence decided outside solver.py:\n" + "\n".join(offenders)


def test_no_program_path_computes_the_exact_relabelling_distance():
    offenders = _calls(DISTANCE_CALL)
    assert not offenders, "ensemble_distance called:\n" + "\n".join(offenders)


def _checks_ensemble(node) -> bool:
    """Whether a call runs the projector-form check or validates an Ensemble."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "verify"
    return isinstance(func, ast.Attribute) and func.attr == "from_states_kappa"


def test_solver_checks_ensembles_only_in_its_shared_acceptance():
    # Every route hands its candidates to _verified; a route with its own
    # check would fork the acceptance again.
    tree = ast.parse((Path(preforge.__file__).parent / "solver.py").read_text(encoding="utf-8"))
    shared = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_verified")
    inside = {id(node) for node in ast.walk(shared)}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and _checks_ensemble(node)]
    assert [ast.unparse(node.func) for node in calls if id(node) in inside] == ["Ensemble.from_states_kappa", "verify"]
    offenders = [f"solver.py:{node.lineno}: {ast.unparse(node)}" for node in calls if id(node) not in inside]
    assert not offenders, "ensembles checked outside _verified:\n" + "\n".join(offenders)


def test_no_function_in_constraints_or_solver_takes_a_rate_scale():
    # The solvers work in the model's rate unit and compare an ensemble's
    # rates with its own largest rate, so no caller hands a scale in.
    offenders = []
    for name in ("constraints.py", "solver.py"):
        tree = ast.parse((Path(preforge.__file__).parent / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                if "rate_scale" in [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]:
                    offenders.append(f"{name}:{node.lineno}")
    assert not offenders, "rate_scale parameters:\n" + "\n".join(offenders)

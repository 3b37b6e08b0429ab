"""Contracts on the package source itself."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import preforge
from preforge import measurement, trajectory

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


# The calls that validate, check or build an Ensemble.
ENSEMBLE_CHECKS = ("from_states_kappa", "verify", "validate_stack", "projector_residuals", "Ensemble")


def _checks_ensemble(node) -> bool:
    """Whether a call validates, checks or builds an Ensemble."""
    func = node.func
    name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
    return name in ENSEMBLE_CHECKS


def test_solver_checks_ensembles_only_in_its_shared_acceptance():
    # Every route hands its candidates to _verified, which validates and
    # checks them all in one stacked call each; a route with its own check,
    # or a per-candidate Ensemble.from_states_kappa or verify, would fork
    # the acceptance again.
    tree = ast.parse((Path(preforge.__file__).parent / "solver.py").read_text(encoding="utf-8"))
    shared = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_verified")
    inside = {id(node) for node in ast.walk(shared)}
    calls = sorted(
        (node for node in ast.walk(tree) if isinstance(node, ast.Call) and _checks_ensemble(node)),
        key=lambda node: (node.lineno, node.col_offset),
    )
    assert [ast.unparse(node.func) for node in calls if id(node) in inside] == [
        "validate_stack",
        "projector_residuals",
        "Ensemble",
    ]
    offenders = [f"solver.py:{node.lineno}: {ast.unparse(node)}" for node in calls if id(node) not in inside]
    assert not offenders, "ensembles checked outside _verified:\n" + "\n".join(offenders)


def test_every_name_the_span_tracer_patches_exists():
    # bench/spans.py wraps program functions by name; a renamed or deleted
    # one makes a traced benchmark run die with an AttributeError.
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        spans.install(tracer)  # raises on a name that no longer exists
    finally:
        tracer.restore()
    spans_named = {"constraints.ensemble", "constraints.verify", "solver.dedup", "solver.family_equivalent", "solver.solve"}
    assert spans_named <= set(tracer.names)


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


# l0 is read once per model: BlochModel keeps its spectrum and its norm.
L0_READ = re.compile(r"(?<!def )\beig_full\(|np\.linalg\.norm\(bm\.l0\b")


def test_the_spectrum_and_norm_of_l0_are_computed_in_model_alone():
    offenders = _calls(L0_READ, skip=("model.py",))
    assert not offenders, "l0 decomposed outside model.py:\n" + "\n".join(offenders)


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


# What only a Wigner certifier computes: the structure tensor's image and the
# report's state-set and antiunitary entries.
STATE_SET_CHECKS = {"_structure_constants"}
STATE_SET_KEYS = {"state_set", "antiunitary"}


def _computes_state_set_checks(function) -> bool:
    for node in ast.walk(function):
        if isinstance(node, ast.Call) and _called_name(node) in STATE_SET_CHECKS:
            return True
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            key = node.slice
            if isinstance(key, ast.Constant) and key.value in STATE_SET_KEYS:
                return True
        if isinstance(node, ast.Dict) and any(
            isinstance(key, ast.Constant) and key.value in STATE_SET_KEYS for key in node.keys
        ):
            return True
    return False


def test_symmetry_keeps_one_wigner_certifier():
    # certify_wigner is the one-candidate stack of _wigner_reports; a second
    # function computing the state-set or antiunitary checks would fork the
    # certificate between the solver's calls and the stacked screen.
    tree = ast.parse((Path(preforge.__file__).parent / "symmetry.py").read_text(encoding="utf-8"))
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert [f.name for f in functions if _computes_state_set_checks(f)] == ["_wigner_reports"]
    (certify,) = [f for f in functions if f.name == "certify_wigner"]
    returned = [node.value for node in ast.walk(certify) if isinstance(node, ast.Return)]
    assert len(returned) == 1 and "_wigner_reports" in {
        _called_name(node) for node in ast.walk(returned[0]) if isinstance(node, ast.Call)
    }


def _scopes_of(picked):
    """``file:function`` of the innermost function around each node ``picked`` selects, over the package."""
    package = Path(preforge.__file__).parent
    scopes = set()
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if picked(node):
                scope = node
                while scope in parents and not isinstance(scope, ast.FunctionDef):
                    scope = parents[scope]
                scopes.add(f"{path.name}:{getattr(scope, 'name', '<module>')}")
    return sorted(scopes)


def _reads(name):
    return lambda node: (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def _calls_to(name):
    return lambda node: isinstance(node, ast.Call) and _called_name(node) == name


def test_realization_is_judged_in_one_certificate():
    # synthesize, simulate and the click rates read one certificate; a second
    # place that measures closure or judges it would fork the verdict again.
    # The fit in synthesize reads the rate tolerance too, to round a self-loop
    # weight the certificate would not see to zero.
    assert _scopes_of(_calls_to("_coherence_distance")) == ["measurement.py:certify"]
    assert _scopes_of(_reads("CLOSURE_TOL")) == ["measurement.py:certify"]
    assert _scopes_of(_reads("RATE_TOL")) == ["measurement.py:_rate_tol"]
    assert _scopes_of(_calls_to("_rate_tol")) == ["measurement.py:certify", "measurement.py:synthesize"]
    for module in (measurement, trajectory):
        for gone in ("EIGENSTATE_TOL", "DIRECTION_TOL", "DRIFT_TOL", "_check_member", "_certified_chain"):
            assert not hasattr(module, gone), f"{module.__name__}.{gone}"
    assert _scopes_of(_calls_to("jumps_and_generator")) == [
        "measurement.py:_operation_reps",
        "measurement.py:certify",
        "trajectory.py:unconditional_check",
    ]

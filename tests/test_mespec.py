import json

import numpy as np
import pytest

from preforge.mespec import (
    MESpecError,
    UnboundParameterError,
    catalog_names,
    eval_entry,
    load_catalog,
    load_me_spec,
    parse_me_spec,
)


def test_catalog_lists_both_models():
    names = catalog_names()
    assert "resonance_fluorescence" in names
    assert "absorption_emission" in names


def test_catalog_load_builds_model():
    me = load_catalog("resonance_fluorescence", {"gamma": 2.0, "Omega": 0.5})
    assert me.dim == 2
    assert np.allclose(me.hamiltonian, 0.25 * np.array([[0, 1], [1, 0]]))
    assert np.allclose(me.lindblads[0], 1j * np.sqrt(2.0) * np.array([[0, 0], [1, 0]]))


def test_expression_forms():
    bindings = {"gamma": 4.0}
    assert eval_entry("sqrt(gamma)", bindings) == 2.0
    assert eval_entry("1j*sqrt(gamma)", bindings) == 2.0j
    assert eval_entry("-gamma/2 + 1", bindings) == -1.0
    assert eval_entry("gamma**2", bindings) == 16.0
    assert eval_entry("cos(0)", bindings) == 1.0
    assert eval_entry([1.5, -2.0], bindings) == 1.5 - 2.0j
    assert eval_entry(3, bindings) == 3.0


def test_unbound_parameter_is_named():
    with pytest.raises(UnboundParameterError) as err:
        eval_entry("0.5*Omega", {"gamma": 1.0})
    assert err.value.name == "Omega"
    with pytest.raises(UnboundParameterError):
        eval_entry("gamma", {"gamma": None})  # declared but not bound


def test_rejected_expressions():
    with pytest.raises(MESpecError):
        eval_entry("__import__('os')", {})
    with pytest.raises(MESpecError):
        eval_entry("gamma(3)", {"gamma": 1.0})
    with pytest.raises(MESpecError):
        eval_entry("exp(1, 2)", {})
    with pytest.raises(MESpecError):
        eval_entry({"re": 1}, {})


def test_parse_rejects_malformed_documents():
    with pytest.raises(MESpecError):
        parse_me_spec({"hamiltonian": [[0]]})  # missing dim
    with pytest.raises(MESpecError):
        parse_me_spec({"dim": 2, "hamiltonian": [[0, 0]]})  # wrong shape
    with pytest.raises(MESpecError):
        parse_me_spec({"dim": 2, "hamiltonian": [["0", "0"], ["0", "0"]], "lindblads": "no"})


def test_defaults_and_overrides(tmp_path):
    doc = {
        "dim": 2,
        "parameters": {"g": 1.0},
        "hamiltonian": [["0", "0"], ["0", "0"]],
        "lindblads": [[["0", "sqrt(g)"], ["0", "0"]]],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    me = load_me_spec(path)
    assert np.isclose(np.abs(me.lindblads[0][0, 1]), 1.0)
    me = load_me_spec(path, {"g": 9.0})
    assert np.isclose(np.abs(me.lindblads[0][0, 1]), 3.0)


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  broken\n}")
    with pytest.raises(MESpecError) as err:
        load_me_spec(path)
    assert "line" in str(err.value)


def test_unknown_parameter_is_rejected():
    doc = {
        "dim": 2,
        "parameters": {"g": 1.0},
        "hamiltonian": [["0", "0"], ["0", "0"]],
        "lindblads": [[["0", "sqrt(g*h)"], ["0", "0"]]],
    }
    with pytest.raises(MESpecError) as err:
        parse_me_spec(doc, {"h": 1.0, "nosuch": 2.0})
    assert "'nosuch'" in str(err.value) and "declared: g" in str(err.value)
    # an undeclared name that an expression uses can be bound
    me = parse_me_spec(doc, {"h": 4.0})
    assert np.isclose(np.abs(me.lindblads[0][0, 1]), 2.0)
    for name in ("nosuch", "sqrt"):  # sqrt is called, not bound, by the catalog entry
        with pytest.raises(MESpecError, match=f"'{name}'"):
            load_catalog("resonance_fluorescence", {"gamma": 1.0, "Omega": 0.2, name: 1.0})

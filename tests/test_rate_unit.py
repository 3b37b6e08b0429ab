"""One rate unit per model: scaling every rate by 2^m changes only the rates.

A model whose rates are all multiplied by 2^m has the same pure-state
ensembles with rates 2^m times the original ones.  The solvers work in the
model's rate unit s = 2^round(log2 ||l0||_2), so such a model is solved as
the original: the same starts, the same routes, the same decisions.
"""

import json

import numpy as np
import pytest

from preforge.cli import _ensemble_from_doc, main
from preforge.mespec import load_catalog
from preforge.model import vectorize
from preforge.solver import DEDUP_EPS, _Candidate, analytic_k2, same_ensemble, solve_wigner_family


def _rf_params(m):
    return {"gamma": 2.0**m, "Omega": 0.18 * 2.0**m}


def _ae_params(m):
    return {"gamma_minus": 2.0**m, "gamma_plus": 0.05 * 2.0**m}


MODELS = {"rf": ("resonance_fluorescence", _rf_params), "ae": ("absorption_emission", _ae_params)}


def _bm(model, m):
    name, params = MODELS[model]
    return vectorize(load_catalog(name, params(m)))


def _spec_args(model, m):
    name, params = MODELS[model]
    return [name, *(a for key, value in params(m).items() for a in ("--param", f"{key}={value!r}"))]


def _in_unit(ens, unit):
    return _Candidate(ens.dim, ens.states, unit * ens.kappa)


@pytest.mark.parametrize("model", ["rf", "ae"])
@pytest.mark.parametrize("m", [-40, 40])
def test_vectorize_keeps_the_steady_state_in_any_time_unit(model, m):
    # An even power of two scales the jump operators exactly, so l0 and b
    # scale exactly and the steady state keeps every bit.
    ref, scaled = _bm(model, 0), _bm(model, m)
    assert ref.rate_unit == 1.0 and scaled.rate_unit == 2.0**m
    assert np.array_equal(scaled.l0, 2.0**m * ref.l0)
    assert np.array_equal(scaled.x_ss, ref.x_ss)


@pytest.mark.parametrize("m", [-30, 23, 40])
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_wigner_family_is_solved_in_the_rate_unit(k, m):
    ref, scaled = solve_wigner_family(_bm("ae", 0), k), solve_wigner_family(_bm("ae", m), k)
    assert scaled.diagnostics == ref.diagnostics
    assert len(scaled.ensembles) == len(ref.ensembles) > 0
    for got, want, tag, want_tag in zip(scaled.ensembles, ref.ensembles, scaled.family_tags, ref.family_tags):
        assert np.max(np.abs(got.states - want.states)) <= DEDUP_EPS
        assert same_ensemble(got, _in_unit(want, 2.0**m), DEDUP_EPS)
        assert np.allclose(tag["rates_out"], 2.0**m * want_tag["rates_out"], rtol=DEDUP_EPS, atol=0)


SEARCHES = {
    "rf-k2": ("rf", ["--k", "2"]),
    "rf-k3": ("rf", ["--k", "3", "--seeds", "128", "--rng", "7"]),
    "ae-k3": ("ae", ["--k", "3"]),
}
_searched = {}


def _search(capsys, tmp_path, case, m):
    if (case, m) not in _searched:
        model, extra = SEARCHES[case]
        out = tmp_path / f"{case}_{m}.json"
        code = main(["search", *_spec_args(model, m), *extra, "-o", str(out)])
        capsys.readouterr()
        _searched[case, m] = code, json.loads(out.read_text())["results"]
    return _searched[case, m]


@pytest.mark.parametrize("m", [-30, 23])
@pytest.mark.parametrize("case", list(SEARCHES))
def test_search_is_the_same_in_any_time_unit(capsys, tmp_path, case, m):
    # Every route makes the same starts and the same decisions, and lists
    # the same ensembles with the rates in the model's unit.
    ref_code, ref = _search(capsys, tmp_path, case, 0)
    code, got = _search(capsys, tmp_path, case, m)
    assert code == ref_code == 0
    keys = ("route", "n_starts", "n_converged", "n_accepted", "rejections", "skipped")
    assert [{key: r.get(key) for key in keys} for r in got["routes"]] == [
        {key: r.get(key) for key in keys} for r in ref["routes"]
    ]
    assert len(got["ensembles"]) == len(ref["ensembles"]) > 0
    for doc, ref_doc in zip(got["ensembles"], ref["ensembles"]):
        assert doc["source"]["route"] == ref_doc["source"]["route"]
        ens, want = _ensemble_from_doc(doc), _ensemble_from_doc(ref_doc)
        assert np.max(np.abs(ens.states - want.states)) <= DEDUP_EPS
        assert np.max(np.abs(ens.kappa - 2.0**m * want.kappa)) <= DEDUP_EPS * 2.0**m * np.max(want.kappa)


@pytest.mark.parametrize("case", ["rf-k3", "ae-k3"])
def test_subspace_routes_keep_their_labels_in_any_time_unit(capsys, tmp_path, case):
    # Subspaces are ordered by their eigenvalues in the rate unit, so at
    # 2^40 each label names the same subspace route as at m = 0.
    keys = ("route", "n_starts", "n_converged", "n_accepted", "rejections", "skipped")
    ref, got = (_search(capsys, tmp_path, case, m)[1]["routes"] for m in (0, 40))
    assert [{key: r.get(key) for key in keys} for r in got] == [{key: r.get(key) for key in keys} for r in ref]
    assert sum(r["route"].startswith("subspace") for r in ref) >= 3


def _write_ensemble(path, ens, factor=1.0):
    path.write_text(json.dumps({"dim": ens.dim, "states": ens.states.tolist(), "kappa": (factor * ens.kappa).tolist()}))
    return str(path)


@pytest.mark.parametrize("m", [-30, 0, 23])
def test_scheme_judges_rates_in_the_model_time_unit(capsys, tmp_path, m):
    # The exact ensemble has a scheme; with every rate doubled it is no PRE,
    # and synthesis fails for it in every time unit.
    ens = analytic_k2(_bm("rf", m)).ensembles[0]
    codes = [
        main(["scheme", *_spec_args("rf", m), "--ensemble", _write_ensemble(tmp_path / f"ens_{f}.json", ens, f)])
        for f in (1.0, 2.0)
    ]
    capsys.readouterr()
    assert codes == [0, 3]


def test_simulate_prints_readable_click_rates_in_a_slow_time_unit(capsys, tmp_path):
    m = -30
    ens = analytic_k2(_bm("rf", m)).ensembles[0]
    bundle = tmp_path / "sim.json"
    args = ["--ensemble", _write_ensemble(tmp_path / "ens.json", ens), "--jumps", "200", "--rng", "3"]
    assert main(["simulate", *_spec_args("rf", m), *args, "-o", str(bundle)]) == 0
    (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("click rates")]
    printed = [float(v) for pair in line.split(": ", 1)[1].split() for v in pair.split("/")]
    rates = json.loads(bundle.read_text())["results"]["click_rates"]
    stored = [v for pair in zip(rates["sampled"], rates["exact"]) for v in pair]
    assert np.allclose(printed, stored, rtol=1e-5, atol=0) and min(printed) > 0


def test_verify_judges_residuals_in_the_rate_unit(capsys, tmp_path):
    # At a time unit of 2^30 the rates are about 1e-9: the exact ensemble
    # passes and is connected, the one with doubled rates fails.
    m = -30
    ens = analytic_k2(_bm("rf", m)).ensembles[0]
    codes = []
    for factor in (1.0, 2.0):
        path = tmp_path / f"ens_{factor}.json"
        path.write_text(json.dumps({"dim": 2, "states": ens.states.tolist(), "kappa": (factor * ens.kappa).tolist()}))
        codes.append(main(["verify", *_spec_args("rf", m), "--ensemble", str(path)]))
        out = capsys.readouterr().out
        assert "connected=True" in out
        assert f"(tol {1e-8 * 2.0**m:.1e})" in out
    assert codes == [0, 1]
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "relative to the model's rate unit" in " ".join(capsys.readouterr().out.split())

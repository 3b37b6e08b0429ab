import json
import logging
import time
import warnings

import numpy as np
import pytest
from preforge.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_driven_qubit(capsys, tmp_path):
    out_path = tmp_path / "bundle.json"
    code, out, _ = run(
        capsys,
        "analyze",
        "resonance_fluorescence",
        "--param",
        "gamma=1",
        "--param",
        "Omega=0.18",
        "-o",
        str(out_path),
    )
    assert code == 0
    assert "-0.5" in out and "0.18" in out
    bundle = json.loads(out_path.read_text())
    model = bundle["results"]["model"]
    assert np.allclose(model["l0"], [[-0.5, 0, 0], [0, -0.5, -0.18], [0, 0.18, -1.0]])
    assert np.allclose(model["b"], [0, 0, -1.0])


def test_analyze_thermal_qubit_eigenvalues(capsys):
    code, out, _ = run(
        capsys,
        "analyze",
        "absorption_emission",
        "--param",
        "gamma_minus=1",
        "--param",
        "gamma_plus=0.3",
    )
    assert code == 0
    assert "-0.65" in out  # half rate, twice
    assert "-1.3" in out
    assert "geometric 2" in out  # equatorial degeneracy


def test_missing_parameter_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "resonance_fluorescence", "--param", "gamma=1")
    assert code == 2
    assert "Omega" in err


def test_unknown_spec_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "no_such_model")
    assert code == 2
    assert "catalog" in err


def test_search_finds_k2_census_and_bundle_roundtrip(capsys, tmp_path):
    args = [
        "search",
        "resonance_fluorescence",
        "--param",
        "gamma=1",
        "--param",
        "Omega=0.18",
        "--k",
        "2",
        "--seeds",
        "96",
        "--rng",
        "0",
    ]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    code, _, _ = run(capsys, *args, "-o", str(out1))
    assert code == 0
    code, _, _ = run(capsys, *args, "-o", str(out2))
    assert code == 0
    assert out1.read_text() == out2.read_text()  # bitwise reproducible
    bundle = json.loads(out1.read_text())
    ensembles = bundle["results"]["ensembles"]
    analytic = [e for e in ensembles if e["source"]["route"] == "analytic-k2"]
    assert len(analytic) == 3
    # numeric routes found nothing new beyond the analytic census
    assert len(ensembles) == 3


SEARCH_RF_K2 = ("search", "resonance_fluorescence", "--param", "gamma=1", "--param", "Omega=0.18", "--k", "2")
# At K=2 analytic_k2 settles rf and no route reaches the solver; at K=3 the
# 2-D subspace routes do, and the full route is skipped: every K=3 ensemble
# lies in one of those invariant planes.
SEARCH_RF = (*SEARCH_RF_K2[:-1], "3")


def test_search_bundle_reports_every_solved_route(capsys, tmp_path, caplog):
    # absorption_emission has a 2-D real eigenspace, so no K=2 route is skipped.
    out = tmp_path / "bundle.json"
    with caplog.at_level(logging.DEBUG, logger="preforge"):
        code, _, _ = run(
            capsys, "search", "absorption_emission", "--param", "gamma_minus=1", "--param",
            "gamma_plus=0.3", "--k", "2", "--seeds", "24", "--rng", "1", "-o", str(out),
        )
    assert code == 0
    results = json.loads(out.read_text())["results"]
    routes = results["routes"]
    # One entry per numerically solved route: each searched subspace, then the full space.
    assert len(routes) == len(results["searched_subspaces"]) + 1
    assert routes[-1]["route"] == "full"
    # The meridian disc is solved by the chord map: its two 2-periodic orbits,
    # each found from both members.  On the equatorial disc every point lies
    # on a 2-periodic orbit, a continuous family, which is left to the multistart.
    assert [e["method"] for e in routes] == ["multistart"] * 3 + ["chord map", "multistart"]
    for entry in routes:
        if entry["method"] == "chord map":
            assert (entry["n_starts"], entry["n_accepted"], entry["rejections"]) == (4, 2, {"duplicate": 2})
            assert entry["n_cells"] > 0 and entry["n_unresolved"] == 0
        else:
            assert entry["n_starts"] == 24
        assert entry["n_starts"] == entry["n_accepted"] + sum(entry["rejections"].values())
        assert entry["n_converged"] <= entry["n_starts"]
    assert routes[-1]["n_accepted"] == 13 and routes[-1]["rejections"]["duplicate"] > 0
    records = [r.getMessage() for r in caplog.records if r.getMessage().startswith("route ")]
    assert len(records) == len(routes)
    assert records[-1].startswith("route full: 24 starts")


def _record_solves(monkeypatch):
    """Let ``cli.solve_systems`` run, and return the list of systems it is given."""
    import preforge.cli as cli

    systems = []
    real_solve = cli.solve_systems

    def recording_solve(batch, cfg):
        systems.extend(batch)
        return real_solve(batch, cfg)

    monkeypatch.setattr(cli, "solve_systems", recording_solve)
    return systems


def test_search_rf_k2_skips_every_numeric_route(capsys, tmp_path, caplog, monkeypatch):
    # Each real eigenvalue of the rf l0 has a 1-D eigenspace, so analytic_k2
    # is complete and no numeric route is solved.
    solved = _record_solves(monkeypatch)
    out = tmp_path / "bundle.json"
    with caplog.at_level(logging.DEBUG, logger="preforge"):
        code, _, _ = run(capsys, *SEARCH_RF_K2, "--seeds", "24", "-o", str(out))
    assert code == 0 and solved == []
    results = json.loads(out.read_text())["results"]
    routes = results["routes"]
    assert len(routes) == len(results["searched_subspaces"]) + 1 == 7
    for entry in routes:
        assert entry["skipped"].startswith("analytic_k2 lists every K=2 ensemble")
        assert (entry["n_starts"], entry["n_converged"], entry["n_accepted"]) == (0, 0, 0)
        assert entry["rejections"] == {}
    assert [e["source"]["route"] for e in results["ensembles"]] == ["analytic-k2"] * 3
    records = [r.getMessage() for r in caplog.records if r.getMessage().startswith("route ")]
    assert records == [f"route {e['route']}: skipped, {e['skipped']}" for e in routes]


def test_search_rf_k2_lists_every_line_ensemble_of_a_fast_model(capsys, tmp_path):
    # Every numeric route is skipped on the proof that analytic_k2 lists
    # all K=2 ensembles, so none of its three may fail the projector-form
    # check on rounding, which grows with the rates.
    out = tmp_path / "bundle.json"
    argv = ("search", "resonance_fluorescence", "--param", "gamma=1e7", "--param", "Omega=1.8e6", "--k", "2")
    code, _, _ = run(capsys, *argv, "-o", str(out))
    assert code == 0
    results = json.loads(out.read_text())["results"]
    assert all("skipped" in entry for entry in results["routes"])
    assert [e["source"]["route"] for e in results["ensembles"]] == ["analytic-k2"] * 3


@pytest.fixture(scope="module")
def rf_k3_full_search(tmp_path_factory):
    """Seed-7 rf ``--k 3 --graph full`` bundle and the systems handed to the solver."""
    out = tmp_path_factory.mktemp("k3full") / "bundle.json"
    with pytest.MonkeyPatch.context() as monkeypatch:
        solved = _record_solves(monkeypatch)
        code = main([*SEARCH_RF, "--graph", "full", "--seeds", "128", "--rng", "7", "-o", str(out)])
    assert code == 0
    return json.loads(out.read_text())["results"], solved


def _member_gaps(states):
    states = np.asarray(states)
    return [np.linalg.norm(states[i] - states[j]) for i in range(len(states)) for j in range(i)]


def test_search_drops_results_with_coincident_members(rf_k3_full_search):
    results, _ = rf_k3_full_search
    # Without the drop this search lists 91 ensembles, 88 of them with two
    # members within 1e-12: relabelled K=2 ensembles with a free rate split.
    gaps = [min(_member_gaps(e["states"])) for e in results["ensembles"]]
    assert len(gaps) == 4
    assert all(0.008 <= g <= 0.08 for g in gaps)
    dropped = 0
    for entry in results["routes"]:
        assert entry["n_starts"] == entry["n_accepted"] + sum(entry["rejections"].values())
        dropped += entry["rejections"].get("coincident members", 0)
    assert dropped > 0


def test_search_k3_skips_one_dimensional_slices(rf_k3_full_search):
    results, solved = rf_k3_full_search
    routes = results["routes"]
    skipped = [e for e in routes if "skipped" in e]
    assert [e["route"] for e in skipped] == [f"subspace[{i}] dim 1" for i in range(3)]
    assert all(e["skipped"] == "a 1-D slice holds at most 2 distinct pure states" for e in skipped)
    assert all(e["n_starts"] == 0 and e["rejections"] == {} for e in skipped)
    # Every other route, and only those, reached the solver.
    assert len(solved) == len(routes) - len(skipped) == 4
    assert [s.embed.shape[1] for s in solved] == [2, 2, 2, 3]


@pytest.mark.parametrize(
    "extra",
    [["search", "--k", "2", "--seeds", "2", "--subspace", "none", "-o"], ["verify", "--ensemble"]],
    ids=["search-output", "verify-ensemble"],
)
def test_directory_as_file_path_is_usage_error(capsys, tmp_path, extra):
    command, *options = extra
    code, _, err = run(
        capsys, command, "resonance_fluorescence", "--param", "gamma=1", "--param", "Omega=0.18",
        *options, str(tmp_path),
    )
    assert code == 2
    assert err.startswith("error:") and err.count("error:") == 1 and str(tmp_path) in err
    assert "Traceback" not in err


def test_search_checks_output_path_before_solving(capsys, tmp_path, monkeypatch):
    import preforge.cli as cli

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_systems ran before the output path was checked")

    monkeypatch.setattr(cli, "solve_systems", no_solve)
    for target in (tmp_path, tmp_path / "missing" / "bundle.json"):
        code, _, err = run(capsys, *SEARCH_RF, "-o", str(target))
        assert code == 2
        assert err.startswith("error:") and err.count("error:") == 1 and str(target) in err


def test_failed_search_leaves_no_output_file(capsys, tmp_path, monkeypatch):
    import preforge.cli as cli
    from preforge.errors import ConvergenceError

    def failing_solve(*args, **kwargs):
        raise ConvergenceError("solver failed")

    monkeypatch.setattr(cli, "solve_systems", failing_solve)
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    kept.write_text("earlier bundle\n")
    for target in (fresh, kept):
        code, _, err = run(capsys, *SEARCH_RF, "-o", str(target))
        assert code == 3 and "numerical failure" in err
    assert not fresh.exists()
    assert kept.read_text() == "earlier bundle\n"


def test_search_warns_below_heuristic(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "search",
        "absorption_emission",
        "--param",
        "gamma_minus=1",
        "--param",
        "gamma_plus=0.3",
        "--k",
        "2",
        "--seeds",
        "8",
        "-o",
        str(tmp_path / "x.json"),
    )
    assert code == 0
    assert "warning" not in err  # K=2 meets the bound for qubits


def test_verify_flags_perturbed_rates(capsys, tmp_path, rf_bm):
    from preforge.solver import analytic_k2

    ens = analytic_k2(rf_bm).ensembles[0]
    doc = {
        "dim": 2,
        "states": ens.states.tolist(),
        "kappa": (ens.kappa * 1.15).tolist(),
    }
    path = tmp_path / "ens.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(
        capsys,
        "verify",
        "resonance_fluorescence",
        "--param",
        "gamma=1",
        "--param",
        "Omega=0.18",
        "--ensemble",
        str(path),
    )
    assert code == 1
    assert "FAIL" in out and "residual" in out


def test_verify_passes_good_ensemble(capsys, tmp_path, rf_bm):
    from preforge.solver import analytic_k2

    ens = analytic_k2(rf_bm).ensembles[0]
    path = tmp_path / "ens.json"
    path.write_text(
        json.dumps({"dim": 2, "states": ens.states.tolist(), "kappa": ens.kappa.tolist()})
    )
    code, out, _ = run(
        capsys,
        "verify",
        "resonance_fluorescence",
        "--param",
        "gamma=1",
        "--param",
        "Omega=0.18",
        "--ensemble",
        str(path),
    )
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("command", ["verify", "scheme", "simulate"])
@pytest.mark.parametrize(
    "doc, message",
    [
        ({"dim": 2, "states": [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]}, "lacks 'kappa'"),
        ([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], "JSON object, not a list"),
        (
            {"dim": 2, "states": [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]], "kappa": [[0, 1], [1, 0]]},
            "kappa needs shape (3, 3) for 3 members, got (2, 2)",
        ),
        (
            {"dim": 2, "states": [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], "kappa": np.ones((3, 3)).tolist()},
            "kappa needs shape (2, 2) for 2 members, got (3, 3)",
        ),
        ({"dim": 2, "states": [[0.0, 0.0, 1.0]], "kappa": [[0.0]]}, "with K >= 2, got (1, 3)"),
        # A NaN passes every comparison the later checks make, and an infinite
        # rate leaves the graph looking disconnected: finiteness is checked first.
        (
            {"dim": 2, "states": [[0.0, 0.0, 1.0], [0.0, float("nan"), -1.0]], "kappa": [[0, 1], [1, 0]]},
            "non-finite member coordinate",
        ),
        (
            {"dim": 2, "states": [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], "kappa": [[0, float("inf")], [1, 0]]},
            "non-finite rate",
        ),
    ],
    ids=[
        "missing-kappa", "top-level-list", "three-states-2x2-kappa", "two-states-3x3-kappa", "one-member",
        "nan-member", "inf-rate",
    ],
)
def test_malformed_ensemble_file_is_usage_error(capsys, tmp_path, command, doc, message):
    path = tmp_path / "ens.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(
        capsys, command, "resonance_fluorescence", "--param", "gamma=1", "--param", "Omega=0.18",
        "--ensemble", str(path),
    )
    assert code == 2
    assert err.startswith("error:") and err.count("error:") == 1 and message in err
    assert "Traceback" not in err


def test_scheme_reports_half_unit_oscillator(capsys, tmp_path, rf_bm):
    from preforge.solver import analytic_k2

    sols = analytic_k2(rf_bm)
    ens = next(
        e for e, t in zip(sols.ensembles, sols.family_tags) if abs(t["eigenvalue"] + 0.5) < 1e-9
    )
    path = tmp_path / "ens.json"
    path.write_text(
        json.dumps({"dim": 2, "states": ens.states.tolist(), "kappa": ens.kappa.tolist()})
    )
    bundle_path = tmp_path / "scheme.json"
    code, out, _ = run(
        capsys,
        "scheme",
        "resonance_fluorescence",
        "--param",
        "gamma=1",
        "--param",
        "Omega=0.18",
        "--ensemble",
        str(path),
        "-o",
        str(bundle_path),
    )
    assert code == 0
    betas = [
        complex(b[0], b[1])
        for entry in json.loads(bundle_path.read_text())["results"]["scheme"]["settings"]
        for b in entry["beta"]
    ]
    assert abs(betas[0] + betas[1]) < 1e-9
    assert all(abs(abs(b) - 0.5) < 1e-6 and abs(b.real) < 1e-7 for b in betas)


def test_plotdata_member_rows(capsys, tmp_path, rf_bm):
    # build a small search bundle, then slice figure data out of it
    args = [
        "search",
        "resonance_fluorescence",
        "--param",
        "gamma=1",
        "--param",
        "Omega=0.18",
        "--k",
        "2",
        "--seeds",
        "16",
    ]
    bundle_path = tmp_path / "bundle.json"
    code, _, _ = run(capsys, *args, "-o", str(bundle_path))
    assert code == 0
    csv_path = tmp_path / "fig.csv"
    code, _, _ = run(
        capsys, "plotdata", str(bundle_path), "--figure-id", "fig1a", "-o", str(csv_path)
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    records = [line.split(",")[0] for line in lines[1:]]
    assert records.count("member") == 2
    assert records.count("steady") == 1
    assert records.count("arrow") == 2


def test_search_thermal_k3_on_meridian_disc(capsys, tmp_path):
    out = tmp_path / "bundle.json"
    code, _, _ = run(
        capsys,
        "search",
        "absorption_emission",
        "--param",
        "gamma_minus=1",
        "--param",
        "gamma_plus=0.05",
        "--k",
        "3",
        "--seeds",
        "96",
        "--wigner-reduce",
        "none",
        "-o",
        str(out),
    )
    assert code == 0
    ensembles = json.loads(out.read_text())["results"]["ensembles"]
    assert len(ensembles) == 2  # distinct cycles, families counted once
    assert all(e["source"]["route"].startswith("subspace") for e in ensembles)


def test_plotdata_cycling_direction_column(capsys, tmp_path):
    states = [
        [0.9061487215985603, 0.0, -0.42307692307692305],
        [-0.45307436079928017, 0.7847476323362848, -0.42307692307692305],
        [-0.45307436079928017, -0.7847476323362848, -0.42307692307692305],
    ]
    kappa = [[0.0, 0.0, 0.25], [0.25, 0.0, 0.0], [0.0, 0.25, 0.0]]
    bundle = {
        "results": {
            "model": {"x_ss": [0.0, 0.0, -0.42307692307692305]},
            "ensembles": [
                {"states": states, "kappa": kappa, "occupations": [1 / 3] * 3}
            ],
        }
    }
    bundle_path = tmp_path / "bundle.json"
    bundle_path.write_text(json.dumps(bundle))
    csv_path = tmp_path / "fig3.csv"
    code, _, _ = run(
        capsys, "plotdata", str(bundle_path), "--figure-id", "fig3", "-o", str(csv_path)
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].endswith("cycle_direction")
    member_rows = [l for l in lines[1:] if l.startswith("member")]
    assert len(member_rows) == 3
    assert all(row.endswith("forward") for row in member_rows)


def test_simulate_command_writes_events(capsys, tmp_path, ae_bm):
    from preforge.solver import analytic_k2

    sols = analytic_k2(ae_bm)
    poles = next(
        e for e, t in zip(sols.ensembles, sols.family_tags) if t["family"] is None
    )
    ens_path = tmp_path / "ens.json"
    ens_path.write_text(
        json.dumps({"dim": 2, "states": poles.states.tolist(), "kappa": poles.kappa.tolist()})
    )
    events_path = tmp_path / "events.csv"
    code, out, _ = run(
        capsys,
        "simulate",
        "absorption_emission",
        "--param",
        "gamma_minus=1",
        "--param",
        "gamma_plus=0.3",
        "--ensemble",
        str(ens_path),
        "--jumps",
        "300",
        "--events",
        str(events_path),
    )
    assert code == 0
    assert "occupancy" in out and "drift" in out
    lines = events_path.read_text().strip().splitlines()
    assert lines[0] == "time,channel,from_label,to_label"
    assert len(lines) == 301


def test_plotdata_unknown_figure(capsys, tmp_path):
    bundle_path = tmp_path / "bundle.json"
    bundle_path.write_text(json.dumps({"results": {"ensembles": []}}))
    code, _, err = run(capsys, "plotdata", str(bundle_path), "--figure-id", "fig99")
    assert code == 2
    assert "unknown figure" in err


def test_plotdata_empty_solution_set(capsys, tmp_path):
    bundle_path = tmp_path / "bundle.json"
    bundle_path.write_text(json.dumps({"results": {"ensembles": [], "model": {}}}))
    csv_path = tmp_path / "fig.csv"
    code, _, _ = run(capsys, "plotdata", str(bundle_path), "--figure-id", "fig2", "-o", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1  # header only


def test_scheme_synthesis_failure_is_numeric_error(capsys, tmp_path, rf_bm):
    from preforge.solver import analytic_k2

    ens = analytic_k2(rf_bm).ensembles[0]
    path = tmp_path / "ens.json"
    path.write_text(
        json.dumps(
            {"dim": 2, "states": ens.states.tolist(), "kappa": (ens.kappa * 1.5).tolist()}
        )
    )
    code, _, err = run(
        capsys,
        "scheme",
        "resonance_fluorescence",
        "--param",
        "gamma=1",
        "--param",
        "Omega=0.18",
        "--ensemble",
        str(path),
    )
    assert code == 3
    assert "numerical failure" in err


def test_full_graph_k3_is_found_realized_and_simulated(capsys, tmp_path, rf_bm):
    from preforge.constraints import build_full
    from preforge.solver import SolverConfig, solve_numeric

    ens = solve_numeric(build_full(rf_bm, 3, "full"), SolverConfig(seeds=128, rng_seed=0)).ensembles[0]
    path = tmp_path / "ens.json"
    path.write_text(
        json.dumps({"dim": 2, "states": ens.states.tolist(), "kappa": ens.kappa.tolist()})
    )
    model = ["resonance_fluorescence", "--param", "gamma=1", "--param", "Omega=0.18"]
    bundle_path = tmp_path / "scheme.json"
    code, _, _ = run(capsys, "scheme", *model, "--ensemble", str(path), "-o", str(bundle_path))
    assert code == 0
    settings = json.loads(bundle_path.read_text())["results"]["scheme"]["settings"]
    for entry in settings:
        assert entry["detectors"] == 2 and len(entry["routing"]) == 2
        assert entry["eigen_residual"] < 1e-8 and entry["gram_residual"] < 1e-8
        assert "sigma" in entry

    sim_path = tmp_path / "sim.json"
    code, _, _ = run(
        capsys, "simulate", *model, "--ensemble", str(path), "--jumps", "20000", "-o", str(sim_path)
    )
    assert code == 0
    results = json.loads(sim_path.read_text())["results"]
    occ, stat = np.array(results["occupancy"]), np.array(results["stationary"])
    sigma = np.sqrt(stat * (1 - stat) / results["n_jumps"])
    assert np.all(np.abs(occ - stat) <= 3 * sigma + 5e-3)
    assert results["max_state_drift"] <= 1e-6

    with pytest.raises(SystemExit) as exit_info:
        main(["scheme", *model, "--ensemble", str(path), "--detectors", "2"])
    assert exit_info.value.code == 2


# Pure dephasing (H = 0, L = sigma_z) leaves every diagonal state
# stationary, so l0 is singular and there is no unique steady state.
DEPHASING_SPEC = {
    "name": "dephasing",
    "dim": 2,
    "parameters": {},
    "hamiltonian": [["0", "0"], ["0", "0"]],
    "lindblads": [[["1", "0"], ["0", "-1"]]],
}


def test_singular_generator_is_numeric_error(capsys, tmp_path):
    spec = tmp_path / "dephasing.json"
    spec.write_text(json.dumps(DEPHASING_SPEC))
    code, _, err = run(capsys, "analyze", str(spec))
    assert code == 3
    assert "numerical failure" in err and "singular" in err


def test_catalog_command(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "resonance_fluorescence" in out
    assert "absorption_emission" in out


def test_scan_small_grid(capsys, tmp_path):
    csv_path = tmp_path / "scan.csv"
    code, _, err = run(
        capsys,
        "scan",
        "absorption_emission",
        "--param",
        "gamma_minus=1",
        "--scan-param",
        "gamma_plus",
        "--values",
        "0.04:0.08:0.02",
        "--k",
        "3",
        "--subspace-span",
        "1,0,0;0,0,1",
        "--seeds",
        "128",
        "-o",
        str(csv_path),
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "gamma_plus,n_ensembles,n_starts,n_converged,n_accepted"
    rows = dict(line.split(",")[:2] for line in lines[1:])
    assert rows["0.04"] == "2"
    assert rows["0.08"] == "0"
    assert "count changes" in err


def test_scan_csv_has_each_points_solver_counts(capsys, tmp_path, caplog):
    from preforge.constraints import build_subspace_reduced
    from preforge.mespec import load_catalog
    from preforge.model import vectorize
    from preforge.solver import SolverConfig, solve_numeric
    from preforge.symmetry import subspace_from_span

    csv_path = tmp_path / "scan.csv"
    with caplog.at_level(logging.DEBUG, logger="preforge"):
        code, _, _ = run(
            capsys, "scan", "absorption_emission", "--param", "gamma_minus=1", "--scan-param", "gamma_plus",
            "--values", "0.05:0.07:0.01", "--k", "3", "--subspace-span", "1,0,0;0,0,1",
            "--seeds", "32", "--rng", "2", "-o", str(csv_path),
        )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "gamma_plus,n_ensembles,n_starts,n_converged,n_accepted"
    records = [r.getMessage() for r in caplog.records if r.getMessage().startswith("gamma_plus = ")]
    assert len(records) == len(lines) - 1 == 3
    for line, record in zip(lines[1:], records):
        value, _, *counts = line.split(",")
        bm = vectorize(load_catalog("absorption_emission", {"gamma_minus": 1.0, "gamma_plus": float(value)}))
        cs = build_subspace_reduced(bm, subspace_from_span(bm, np.array([[1.0, 0, 0], [0, 0, 1.0]]).T), 3, "cyclic")
        diag = solve_numeric(cs, SolverConfig(seeds=32, rng_seed=2)).diagnostics
        assert [int(c) for c in counts] == [diag["n_starts"], diag["n_converged"], diag["n_accepted"]]
        assert record == (
            f"gamma_plus = {value}: {diag['n_starts']} starts, {diag['n_converged']} converged, "
            f"{diag['n_accepted']} accepted; rejections {diag['rejections']}"
        )


def test_scan_full_graph_counts_no_relabelled_smaller_ensemble(capsys, tmp_path, monkeypatch):
    # On the full graph many starts end on a K=2 ensemble with one member
    # listed twice and a free rate split.  Counted as K=3 ensembles, these
    # made the two points below read 12 and 15.
    from preforge import solver

    solved = []
    real_solve = solver.solve_systems

    def recording_solve(systems, cfg):
        solsets = real_solve(systems, cfg)
        solved.extend(sols.ensembles for sols in solsets)
        return solsets

    monkeypatch.setattr(solver, "solve_systems", recording_solve)
    csv_path = tmp_path / "scan.csv"
    code, _, _ = run(
        capsys, "scan", "absorption_emission", "--param", "gamma_minus=1", "--scan-param", "gamma_plus",
        "--values", "0.05:0.06:0.01", "--k", "3", "--graph", "full", "--subspace-span", "1,0,0;0,0,1",
        "--seeds", "192", "--rng", "0", "-o", str(csv_path),
    )
    assert code == 0
    counts = [int(line.split(",")[1]) for line in csv_path.read_text().splitlines()[1:]]
    assert len(counts) == len(solved) == 2
    for count, ensembles in zip(counts, solved):
        assert 1 <= count <= len(ensembles)
        assert all(min(_member_gaps(ens.states)) > 1e-3 for ens in ensembles)


@pytest.mark.parametrize(
    "values, message",
    [
        ("0.04:0.05:0", "positive STEP"),
        ("0.04:0.05:-0.01", "positive STEP"),
        ("0.05:0.04:0.01", "START <= STOP"),
        ("0.04:0.05", "START:STOP:STEP"),
    ],
)
def test_scan_rejects_bad_grid(capsys, values, message):
    code, _, err = run(
        capsys, "scan", "absorption_emission", "--param", "gamma_minus=1",
        "--scan-param", "gamma_plus", "--values", values, "--k", "2", "--seeds", "2",
    )
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


def test_scan_rejects_short_subspace_span(capsys):
    code, _, err = run(
        capsys, "scan", "resonance_fluorescence", "--param", "gamma=1",
        "--scan-param", "Omega", "--values", "0.18:0.18:0.01", "--k", "2", "--seeds", "2",
        "--subspace-span", "1,0",
    )
    assert code == 2
    assert err.startswith("error:") and "D^2-1 = 3" in err


def test_scan_rejects_rank_zero_subspace_span(capsys):
    code, out, err = run(
        capsys, "scan", "resonance_fluorescence", "--param", "gamma=1",
        "--scan-param", "Omega", "--values", "0.18:0.18:0.01", "--k", "2", "--seeds", "2",
        "--subspace-span", "0,0,0",
    )
    assert code == 2
    assert err.startswith("error:") and "rank 0" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv, name",
    [
        (["scan", "absorption_emission", "--param", "gamma_minus=1", "--param", "gamma_plus=0.1",
          "--scan-param", "nosuch", "--values", "0.1:0.1:0.1", "--k", "2", "--seeds", "2"], "nosuch"),
        (["search", "resonance_fluorescence", "--param", "gamma=1", "--param", "Omega=0.18",
          "--param", "bogus=3", "--k", "2", "--seeds", "2"], "bogus"),
    ],
)
def test_unknown_parameter_is_usage_error(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and f"'{name}'" in err


SCAN_AE = (
    "scan", "absorption_emission", "--param", "gamma_minus=1", "--scan-param", "gamma_plus",
    "--values", "0.04:0.06:0.01", "--k", "3", "--seeds", "2",
)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", ["search", "scan"])
def test_non_finite_tol_is_usage_error(capsys, command, value):
    argv = (*SEARCH_RF, "--seeds", "2") if command == "search" else SCAN_AE
    code, out, err = run(capsys, *argv, "--tol", value)
    assert code == 2 and out == ""
    assert err == f"error: tol must be a positive finite number, got {value}\n"


@pytest.mark.parametrize("graph", ["cyclic", "full"])
def test_search_with_every_start_within_tol_takes_no_step(capsys, tmp_path, graph):
    # At --tol 1e6 every multistart start is within 1e-3 tol before its
    # first step, so the Levenberg-Marquardt stack has no start to iterate.
    out = tmp_path / "bundle.json"
    code, _, err = run(
        capsys, *SEARCH_RF, "--tol", "1e6", "--seeds", "4", "--subspace", "none", "--graph", graph, "-o", str(out)
    )
    assert code in (0, 1) and "error" not in err
    (route,) = json.loads(out.read_text())["results"]["routes"]
    assert route["method"] == "multistart" and route["n_starts"] == route["n_converged"] == 4


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["search", "scan"])
def test_non_finite_param_is_usage_error(capsys, command, value):
    if command == "search":
        name, argv = "Omega", ("search", "resonance_fluorescence", "--param", "gamma=1", "--k", "3", "--seeds", "2")
    else:
        name, argv = "gamma_minus", SCAN_AE[:2] + SCAN_AE[4:]
    code, out, err = run(capsys, *argv, "--param", f"{name}={value}")
    assert code == 2 and out == ""
    assert err == f"error: --param {name}: '{value}' is not a finite number\n"


def test_rf_k3_search_lists_every_ensemble_without_the_full_space_multistart(capsys, tmp_path, monkeypatch):
    # Each K=3 ensemble lies in an invariant plane, and on rf every plane is
    # a chord-map subspace route, so the full route is skipped and no
    # multistart runs; the census of 8 comes from two of the planes.
    from preforge import constraints, solver

    def no_multistart(*args, **kwargs):
        raise AssertionError("the multistart ran")

    monkeypatch.setattr(constraints, "_levenberg_marquardt", no_multistart)
    monkeypatch.setattr(solver, "_levenberg_marquardt", no_multistart)
    out = tmp_path / "bundle.json"
    code, _, _ = run(capsys, *SEARCH_RF, "--seeds", "128", "--rng", "7", "-o", str(out))
    assert code == 0
    results = json.loads(out.read_text())["results"]
    full = results["routes"][-1]
    assert full["route"] == "full" and "invariant plane" in full["skipped"]
    assert (full["n_starts"], full["n_converged"], full["n_accepted"], full["rejections"]) == (0, 0, 0, {})
    assert [r.get("method") for r in results["routes"][:-1]] == [None] * 3 + ["chord map"] * 3
    assert len(results["ensembles"]) == 8
    assert {doc["source"]["route"] for doc in results["ensembles"]} == {"subspace[4] dim 2", "subspace[5] dim 2"}


RF_MODEL = ("resonance_fluorescence", "--param", "gamma=1", "--param", "Omega=0.18")


@pytest.fixture()
def rf_ensemble_file(tmp_path, rf_bm):
    from preforge.solver import analytic_k2

    sols = analytic_k2(rf_bm)
    ens = next(
        e for e, t in zip(sols.ensembles, sols.family_tags) if abs(t["eigenvalue"] + 0.5) < 1e-9
    )
    path = tmp_path / "ens.json"
    path.write_text(json.dumps({"dim": 2, "states": ens.states.tolist(), "kappa": ens.kappa.tolist()}))
    return path


def _forbid(monkeypatch, name):
    import preforge.cli as cli

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} ran before the output paths were checked")

    monkeypatch.setattr(cli, name, forbidden)


def _assert_unusable_path_error(code, err, target):
    assert code == 2
    assert err.startswith("error:") and err.count("error:") == 1 and str(target) in err
    assert "Traceback" not in err


def test_scan_checks_output_path_before_scanning(capsys, tmp_path, monkeypatch):
    _forbid(monkeypatch, "scan_existence")
    _forbid(monkeypatch, "find_wigner_symmetries")
    for target in (tmp_path, tmp_path / "missing" / "scan.csv"):
        code, _, err = run(
            capsys, "scan", "absorption_emission", "--param", "gamma_minus=1", "--scan-param", "gamma_plus",
            "--values", "0.04:0.08:0.02", "--k", "3", "--quotient", "auto", "-o", str(target),
        )
        _assert_unusable_path_error(code, err, target)
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_scheme_checks_output_path_before_synthesis(capsys, tmp_path, monkeypatch, rf_ensemble_file):
    _forbid(monkeypatch, "synthesize")
    (tmp_path / "out_dir").mkdir()
    for target in (tmp_path / "out_dir", tmp_path / "missing" / "scheme.json"):
        code, _, err = run(capsys, "scheme", *RF_MODEL, "--ensemble", str(rf_ensemble_file), "-o", str(target))
        _assert_unusable_path_error(code, err, target)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ens.json", "out_dir"]


@pytest.mark.parametrize("bad", ["--events", "-o"])
def test_simulate_checks_output_paths_before_simulating(capsys, tmp_path, monkeypatch, rf_ensemble_file, bad):
    _forbid(monkeypatch, "synthesize")
    _forbid(monkeypatch, "simulate")
    good = "-o" if bad == "--events" else "--events"
    fresh = tmp_path / "fresh.out"
    for target in (tmp_path, tmp_path / "missing" / "file.out"):
        code, _, err = run(
            capsys, "simulate", *RF_MODEL, "--ensemble", str(rf_ensemble_file), "--jumps", "10",
            good, str(fresh), bad, str(target),
        )
        _assert_unusable_path_error(code, err, target)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ens.json"]


def test_failed_unconditional_check_exits_one(capsys, tmp_path, rf_ensemble_file):
    # One trajectory cannot reproduce the mixed unconditional state.
    bundle_path = tmp_path / "sim.json"
    code, out, _ = run(
        capsys, "simulate", *RF_MODEL, "--ensemble", str(rf_ensemble_file), "--jumps", "50",
        "--unconditional", "--trajectories", "1", "-o", str(bundle_path),
    )
    assert code == 1
    assert "unconditional max distance" in out
    assert json.loads(bundle_path.read_text())["results"]["unconditional"]["passed"] is False


def _simulate_argv(config):
    """The ``simulate`` command line that a bundle's embedded config records."""
    argv = ["simulate", config["spec"], "--ensemble", config["ensemble"]]
    argv += [arg for name, value in config["params"].items() for arg in ("--param", f"{name}={value!r}")]
    argv += ["--jumps", str(config["jumps"]), "--rng", str(config["rng_seed"])]
    if config.get("unconditional"):
        argv += ["--unconditional", "--trajectories", str(config["trajectories"])]
    return argv


@pytest.mark.parametrize("flags", [(), ("--unconditional", "--trajectories", "120")], ids=["plain", "unconditional"])
def test_simulate_bundle_config_reproduces_the_bundle(capsys, tmp_path, rf_ensemble_file, flags):
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    code, _, _ = run(
        capsys, "simulate", *RF_MODEL, "--ensemble", str(rf_ensemble_file), "--jumps", "300",
        "--rng", "5", *flags, "-o", str(first),
    )
    bundle = json.loads(first.read_text())
    assert ("unconditional" in bundle["results"]) == bool(flags)
    argv = _simulate_argv(bundle["config"])
    assert run(capsys, *argv, "-o", str(again))[0] == code
    assert again.read_bytes() == first.read_bytes()


def test_simulate_bundle_has_member_click_rates(capsys, tmp_path, rf_ensemble_file):
    bundle_path = tmp_path / "sim.json"
    code, out, _ = run(
        capsys, "simulate", *RF_MODEL, "--ensemble", str(rf_ensemble_file), "--jumps", "2000",
        "--rng", "3", "-o", str(bundle_path),
    )
    assert code == 0 and "click rates (sampled/exact)" in out
    results = json.loads(bundle_path.read_text())["results"]
    rates = results["click_rates"]
    clicks = np.sum(results["jump_counts"], axis=0) + np.array(results["self_loop_counts"])
    for sampled, exact, n in zip(rates["sampled"], rates["exact"], clicks):
        assert abs(sampled - exact) <= 4.0 / np.sqrt(n) * exact


def test_each_member_operators_are_built_once_per_certificate_and_engine(capsys, monkeypatch, rf_me, rf_ensemble_file):
    # synthesize builds each member's operators once, for its certificate;
    # simulate certifies once more and the unconditional check builds its
    # click engine once, so a run builds them three times per member.
    import preforge.model as model
    from preforge.cli import _load_ensemble
    from preforge.measurement import synthesize

    builds = []
    build = model.transformed_operators
    monkeypatch.setattr(model, "transformed_operators", lambda *args: builds.append(1) or build(*args))
    ens = _load_ensemble(rf_ensemble_file)
    synthesize(rf_me, ens)
    assert len(builds) == ens.k
    builds.clear()
    code, _, _ = run(
        capsys, "simulate", *RF_MODEL, "--ensemble", str(rf_ensemble_file), "--jumps", "200",
        "--unconditional", "--trajectories", "20",
    )
    assert code == 0 and len(builds) <= 3 * ens.k


@pytest.fixture()
def ae_ensemble_file(tmp_path, ae_bm):
    from preforge.solver import analytic_k2

    ens = analytic_k2(ae_bm).ensembles[0]
    path = tmp_path / "ae_ens.json"
    path.write_text(json.dumps({"dim": 2, "states": ens.states.tolist(), "kappa": ens.kappa.tolist()}))
    return path


AE_MODEL = ("absorption_emission", "--param", "gamma_minus=1", "--param", "gamma_plus=0.3")


@pytest.mark.parametrize("model, ensemble", [(RF_MODEL, "rf_ensemble_file"), (AE_MODEL, "ae_ensemble_file")])
def test_unconditional_check_passes_at_its_defaults(capsys, tmp_path, request, model, ensemble):
    # The default 200 trajectories leave a sampling error near 5e-2, ten
    # times a fixed 5e-3; the band scales with it.
    bundle_path = tmp_path / "sim.json"
    code, out, _ = run(
        capsys, "simulate", *model, "--ensemble", str(request.getfixturevalue(ensemble)), "--jumps", "50",
        "--rng", "7", "--unconditional", "-o", str(bundle_path),
    )
    assert code == 0 and "unconditional max distance" in out
    report = json.loads(bundle_path.read_text())["results"]["unconditional"]
    assert report["passed"] is True and report["z"] == 4.0
    sigma, bounds = np.array(report["sigma"]), np.array(report["bounds"])
    assert np.all((sigma > 0.3) & (sigma <= np.sqrt(0.5) + 1e-12))  # qubit: 1 - ||rho||_F^2 <= 1/2
    assert np.allclose(bounds, 4.0 * sigma / np.sqrt(200), rtol=0, atol=1e-8)
    assert np.all(np.array(report["distances"]) <= bounds)
    assert max(report["distances"]) > 5e-3


@pytest.mark.parametrize("count", ["0", "-3"])
def test_simulate_checks_trajectory_count_before_any_work(capsys, monkeypatch, rf_ensemble_file, count):
    # At the default --jumps the whole run would come first.
    _forbid(monkeypatch, "synthesize")
    code, _, err = run(
        capsys, "simulate", *RF_MODEL, "--ensemble", str(rf_ensemble_file), "--unconditional",
        "--trajectories", count,
    )
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1 and "trajectory count must be positive" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--jumps", "0"), "jump count must be positive"),
        (("--jumps", "-5"), "jump count must be positive"),
        (("--unconditional", "--trajectories", "0"), "trajectory count must be positive"),
        (("--unconditional", "--trajectories", "-3"), "trajectory count must be positive"),
    ],
)
def test_simulate_rejects_non_positive_counts(capsys, tmp_path, rf_ensemble_file, flags, message):
    bundle_path = tmp_path / "sim.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(
            capsys, "simulate", *RF_MODEL, "--ensemble", str(rf_ensemble_file), "--jumps", "20", *flags,
            "-o", str(bundle_path),
        )
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1 and message in err
    assert not bundle_path.exists()


def _exit_case_argv(case, tmp_path, rf_bm):
    """Command line of one documented exit code's case."""
    if case == "ok":
        return ["catalog"]
    if case == "failed-check":
        from preforge.solver import analytic_k2

        ens = analytic_k2(rf_bm).ensembles[0]
        path = tmp_path / "ens.json"
        path.write_text(json.dumps({"dim": 2, "states": ens.states.tolist(), "kappa": (ens.kappa * 1.15).tolist()}))
        return ["verify", *RF_MODEL, "--ensemble", str(path)]
    if case == "usage":
        return ["analyze", "resonance_fluorescence", "--param", "gamma=1"]
    spec = tmp_path / "dephasing.json"
    spec.write_text(json.dumps(DEPHASING_SPEC))
    return ["analyze", str(spec)]


@pytest.mark.parametrize(
    "case, code, error",
    [
        ("ok", 0, None),
        ("failed-check", 1, None),
        ("usage", 2, "UnboundParameterError"),
        ("numeric", 3, "SteadyStateError"),
    ],
)
def test_documented_exit_code(capsys, tmp_path, monkeypatch, rf_bm, case, code, error):
    # Exit codes 0 and 1 are returned by the command; 2 and 3 are what main
    # maps the named error class to.
    import preforge.cli as cli

    raised = []

    def recording(command):
        def call(args):
            try:
                return command(args)
            except Exception as exc:
                raised.append(type(exc).__name__)
                raise

        return call

    for name in ("cmd_catalog", "cmd_verify", "cmd_analyze"):
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    got, _, err = run(capsys, *_exit_case_argv(case, tmp_path, rf_bm))
    assert got == code
    assert raised == ([] if error is None else [error])
    if code >= 2:
        assert err.startswith("numerical failure:" if code == 3 else "error:") and err.count("\n") == 1


def _package_errors():
    from preforge import errors, mespec  # noqa: F401  (mespec defines MESpecError)

    found, todo = [], [errors.PreForgeError]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo += cls.__subclasses__()
    return sorted(found[1:], key=lambda c: c.__name__)


NUMERIC_ERRORS = ("ConvergenceError", "RealizationError", "SteadyStateError", "SynthesisError")


@pytest.mark.parametrize("error", _package_errors(), ids=lambda c: c.__name__)
def test_every_package_error_exits_usage_or_numeric(capsys, monkeypatch, error):
    # The numerical failures exit 3; every other package error is a
    # ValueError and exits 2.  None reaches the caller as a traceback.
    import preforge.cli as cli

    def failing(args):
        raise error("planted")

    monkeypatch.setattr(cli, "cmd_catalog", failing)
    code, _, err = run(capsys, "catalog")
    if error.__name__ in NUMERIC_ERRORS:
        assert code == 3 and err.startswith("numerical failure:")
    else:
        assert issubclass(error, ValueError)
        assert code == 2 and err.startswith("error:")
    assert "planted" in err


def test_scan_and_search_solve_qubit_discs_without_the_multistart(capsys, tmp_path, monkeypatch):
    # The README scan and the rf K=3 disc routes are cyclic systems on 2-D
    # qubit slices, which the chord map solves: with the solver's
    # Levenberg-Marquardt iteration made to raise, both still complete.
    from preforge import constraints, solver
    from preforge.mespec import load_catalog
    from preforge.model import vectorize
    from preforge.symmetry import find_invariant_subspaces

    def no_multistart(*args, **kwargs):
        raise AssertionError("the multistart ran")

    monkeypatch.setattr(constraints, "_levenberg_marquardt", no_multistart)
    monkeypatch.setattr(solver, "_levenberg_marquardt", no_multistart)
    csv_path = tmp_path / "scan.csv"
    code, _, _ = run(
        capsys, "scan", "absorption_emission", "--param", "gamma_minus=1", "--scan-param", "gamma_plus",
        "--values", "0.02:0.10:0.005", "--k", "3", "--subspace-span", "1,0,0;0,0,1", "-o", str(csv_path),
    )
    assert code == 0
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert len(rows) == 17
    assert [int(row[1]) for row in rows] == [2 if float(row[0]) < 1 / 18 else 0 for row in rows]
    bm = vectorize(load_catalog("resonance_fluorescence", {"gamma": 1.0, "Omega": 0.18}))
    discs = [i for i, sub in enumerate(find_invariant_subspaces(bm)) if sub.n == 2]
    accepted = []
    for idx in discs:
        out = tmp_path / f"disc{idx}.json"
        code, _, _ = run(capsys, *SEARCH_RF, "--subspace", str(idx), "-o", str(out))
        (route,) = json.loads(out.read_text())["results"]["routes"]
        assert route["method"] == "chord map"
        assert code == (0 if route["n_accepted"] else 1)
        accepted.append(route["n_accepted"])
    assert sorted(accepted) == [0, 4, 4]


def test_verify_writes_a_bundle_for_a_passing_ensemble(capsys, tmp_path, rf_bm):
    from preforge.solver import analytic_k2

    ens = analytic_k2(rf_bm).ensembles[0]
    path = tmp_path / "ens.json"
    path.write_text(json.dumps({"dim": 2, "states": ens.states.tolist(), "kappa": ens.kappa.tolist()}))
    out = tmp_path / "verify.json"
    code, _, _ = run(capsys, "verify", *SEARCH_RF_K2[1:6], "--ensemble", str(path), "-o", str(out))
    assert code == 0
    assert json.loads(out.read_text())["results"]["passed"] is True


SEARCH_AE = ("search", "absorption_emission", "--param", "gamma_minus=1", "--param", "gamma_plus=0.3")


def _search_ensembles(capsys, tmp_path, *argv):
    from preforge.cli import _ensemble_from_doc

    out = tmp_path / "bundle.json"
    run(capsys, *SEARCH_AE, *argv, "-o", str(out))
    docs = json.loads(out.read_text())["results"]["ensembles"]
    return [doc["source"] for doc in docs], [_ensemble_from_doc(doc) for doc in docs]


def test_search_lists_each_closed_form_ensemble_once(capsys, tmp_path):
    # The Wigner family and analytic_k2 both give the equatorial K=2
    # ensemble; it is listed once, from the route that comes first.
    from preforge.solver import DEDUP_EPS, family_equivalent, same_ensemble

    sources, ensembles = _search_ensembles(capsys, tmp_path, "--k", "2", "--seeds", "16")
    assert [src["route"] for src in sources[:2]] == ["wigner-family", "analytic-k2"]
    equator = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    for i, j in [(i, j) for i in range(len(ensembles)) for j in range(i)]:
        assert not same_ensemble(ensembles[i], ensembles[j], DEDUP_EPS)
        assert not family_equivalent(ensembles[j], ensembles[i], equator)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_wigner_family_route_follows_the_graph(capsys, tmp_path, k):
    # At K=3 and K=4 every family member has rates to two or more others, so
    # no family ensemble is a K-cycle and only the full graph lists them.
    listed = {}
    for graph in ("cyclic", "full"):
        argv = ("--k", str(k), "--graph", graph, "--subspace", "none", "--seeds", "4")
        sources, ensembles = _search_ensembles(capsys, tmp_path, *argv)
        listed[graph] = [e for src, e in zip(sources, ensembles) if src["route"] == "wigner-family"]
    assert listed["full"]
    if k == 2:
        assert len(listed["cyclic"]) == len(listed["full"]) == 1
    else:
        assert listed["cyclic"] == []
        assert all(np.min(np.count_nonzero(e.kappa, axis=0)) >= 2 for e in listed["full"])


README_SCAN = (
    "scan", "absorption_emission", "--param", "gamma_minus=1", "--scan-param", "gamma_plus",
    "--values", "0.02:0.10:0.005", "--subspace-span", "1,0,0;0,0,1",
)


def _assert_pairwise_new(ensembles, generators):
    from preforge.solver import DEDUP_EPS, family_equivalent, same_ensemble

    for i, j in [(i, j) for i in range(len(ensembles)) for j in range(i)]:
        assert not same_ensemble(ensembles[i], ensembles[j], DEDUP_EPS)
        assert not any(family_equivalent(ensembles[j], ensembles[i], gen) for gen in generators)


def test_search_rf_k8_finishes_and_lists_each_ensemble_once(capsys, tmp_path):
    # Deciding identity by the exact minimum over all 8! relabellings of
    # every pair kept this search running for minutes; the one eps-test
    # tries only relabellings that move no member beyond eps.
    from preforge.cli import _ensemble_from_doc

    out = tmp_path / "rf_k8.json"
    start = time.perf_counter()
    code, _, _ = run(capsys, *SEARCH_RF_K2[:-1], "8", "--seeds", "16", "-o", str(out))
    elapsed = time.perf_counter() - start
    ensembles = [_ensemble_from_doc(doc) for doc in json.loads(out.read_text())["results"]["ensembles"]]
    assert code == 0 and len(ensembles) > 100
    assert elapsed < 60.0
    _assert_pairwise_new(ensembles, [])


def test_readme_scan_at_k8_finishes_and_counts_each_ensemble_once(capsys, tmp_path, monkeypatch):
    from preforge import solver

    counted = []  # (ensembles counted, quotient generators) per grid value
    original = solver.new_ensembles

    def recording(candidates, earlier=(), generators=()):
        kept = original(candidates, earlier, generators)
        counted.append((kept, list(generators)))
        return kept

    monkeypatch.setattr(solver, "new_ensembles", recording)
    csv_path = tmp_path / "scan.csv"
    start = time.perf_counter()
    code, _, _ = run(capsys, *README_SCAN, "--k", "8", "-o", str(csv_path))
    elapsed = time.perf_counter() - start
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert code == 0 and len(rows) == len(counted) == 17
    assert elapsed < 60.0
    assert [int(row[1]) for row in rows] == [len(kept) for kept, _ in counted]
    assert all(len(gens) == 1 for _, gens in counted)
    for kept, gens in counted:
        _assert_pairwise_new(kept, gens)


@pytest.mark.parametrize("subspace", ["none", "auto"])
def test_every_ensemble_search_lists_at_a_loose_tol_passes_verify(capsys, tmp_path, subspace):
    # --tol loosens the multistart's convergence test, but the projector-form
    # check never accepts above verify's default tolerance: each listed
    # ensemble passes `pre-forge verify` as it stands.
    out = tmp_path / "bundle.json"
    run(capsys, *SEARCH_RF, "--subspace", subspace, "--seeds", "16", "--tol", "1e-3", "-o", str(out))
    docs = json.loads(out.read_text())["results"]["ensembles"]
    for i, doc in enumerate(docs):
        path = tmp_path / f"ensemble{i}.json"
        path.write_text(json.dumps(doc))
        code, report, _ = run(capsys, "verify", *RF_MODEL, "--ensemble", str(path))
        assert code == 0, report
    if subspace == "auto":
        assert len(docs) == 8  # the chord-map census


@pytest.mark.parametrize("tol", ["1e-3", "1e-4", "1e-5", "1e-10"])
def test_full_space_census_does_not_depend_on_tol(capsys, tmp_path, tol):
    # Each start iterates to 1e-3 * min(tol, 1e-10), so at a loose --tol the
    # copies of one ensemble still merge in the dedup instead of being listed
    # several times (17 ensembles at 1e-5 when the stop followed --tol).
    out = tmp_path / "bundle.json"
    code, _, _ = run(capsys, *SEARCH_RF, "--subspace", "none", "--seeds", "64", "--tol", tol, "-o", str(out))
    assert code == 0
    assert len(json.loads(out.read_text())["results"]["ensembles"]) == 8


def test_search_subspace_index_out_of_range_is_usage_error(capsys, tmp_path):
    out = tmp_path / "bundle.json"
    code, stdout, err = run(capsys, *SEARCH_RF, "--subspace", "99", "-o", str(out))
    assert code == 2 and stdout == ""
    assert err == "error: --subspace 99 out of range: 6 subspaces detected\n"
    assert not out.exists()


def test_scan_without_a_span_solves_the_full_space(capsys, tmp_path):
    from preforge.constraints import build_full
    from preforge.mespec import load_catalog
    from preforge.model import vectorize
    from preforge.solver import SolverConfig, scan_existence
    from preforge.symmetry import find_wigner_symmetries

    csv_path = tmp_path / "scan.csv"
    code, _, _ = run(
        capsys, "scan", "absorption_emission", "--param", "gamma_minus=1", "--scan-param", "gamma_plus",
        "--values", "0.02:0.06:0.02", "--k", "2", "--seeds", "16", "-o", str(csv_path),
    )
    assert code == 0

    def model(value):
        return vectorize(load_catalog("absorption_emission", {"gamma_minus": 1.0, "gamma_plus": value}))

    (generator,) = [w.generator for w in find_wigner_symmetries(model(0.02)) if w.generator is not None]
    table = scan_existence(
        model, [0.02, 0.04, 0.06], lambda bm: build_full(bm, 2, "cyclic"), SolverConfig(seeds=16),
        quotient_generator=generator,
    )
    counts = ("n_starts", "n_converged", "n_accepted")
    expected = [
        [f"{value:.6g}", str(count), *(str(diag[key]) for key in counts)]
        for (value, count), diag in zip(table.rows(), table.diagnostics)
    ]
    assert [line.split(",") for line in csv_path.read_text().splitlines()[1:]] == expected
    assert all(count > 0 for count in table.counts)


def test_pure_steady_state_is_usage_error(capsys):
    # Undriven decay ends in the ground state.  Every slice through a
    # full-rank steady state meets the pure-state sphere; this one is refused.
    code, out, err = run(capsys, "analyze", *RF_MODEL[:3], "--param", "Omega=0")
    assert code == 2 and out == ""
    assert err == "error: steady state is rank deficient\n"


SCAN_THRESHOLD = (
    "scan", "absorption_emission", "--param", "gamma_minus=1", "--scan-param", "gamma_plus",
    "--values", "0.035:0.075:0.005", "--k", "3", "--subspace-span", "1,0,0;0,0,1", "--seeds", "4",
)


@pytest.mark.parametrize(
    "argv, calls",
    [
        ((*SEARCH_RF_K2, "--seeds", "4"), 1),
        ((*SEARCH_RF, "--seeds", "4"), 1),
        ((*SEARCH_AE, "--k", "2", "--seeds", "4"), 1),
        ((*SEARCH_AE, "--k", "3", "--seeds", "4"), 1),
        (("analyze", *RF_MODEL), 1),
        (SCAN_THRESHOLD, 0),
    ],
    ids=["search-rf-k2", "search-rf-k3", "search-ae-k2", "search-ae-k3", "analyze", "scan"],
)
def test_each_command_decomposes_l0_at_most_once(capsys, tmp_path, monkeypatch, argv, calls):
    # The spectrum of l0 is computed on first use and kept on the model, so
    # search and analyze pay for it once and scan never does.
    import sys

    from preforge import algebra

    original, seen = algebra.eig_full, []

    def counting(*args, **kwargs):
        seen.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "preforge":
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    code, _, _ = run(capsys, *argv, "-o", str(tmp_path / "out"))
    assert code in (0, 1) and len(seen) == calls

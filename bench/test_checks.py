"""The benchmark's own tests: the oracle against the program's verifier, and
each workload check against a deliberately corrupted output."""

import dataclasses
import json

import numpy as np
import pytest

import checks
import oracle
from preforge import cli
from preforge.constraints import Ensemble, verify
from preforge.measurement import synthesize
from preforge.mespec import load_catalog, load_me_spec
from preforge.model import vectorize
from preforge.solver import analytic_k2
from preforge.symmetry import find_invariant_subspaces, find_wigner_symmetries
from preforge.trajectory import TrajectoryConfig, simulate, unconditional_check
from workloads import CASCADE_SPEC, GAMMA, OMEGA, RF_SPEC

CATALOG_K2 = [
    ("resonance_fluorescence", {"gamma": 1.0, "Omega": 0.18}, oracle.resonance_fluorescence(1.0, 0.18)),
    ("resonance_fluorescence", {"gamma": 1.0, "Omega": 0.5}, oracle.resonance_fluorescence(1.0, 0.5)),
    ("absorption_emission", {"gamma_minus": 1.0, "gamma_plus": 0.3}, oracle.absorption_emission(1.0, 0.3)),
]


def _rotate_member(states, k, angle):
    """Move member k along the pure sphere by a rotation about the y axis."""
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])
    out = np.array(states, float)
    out[k] = rot @ out[k]
    return out


@pytest.mark.parametrize("name,params,model", CATALOG_K2)
def test_oracle_agrees_with_verify_on_catalog_k2(name, params, model):
    bm = vectorize(load_catalog(name, params))
    gen = oracle.liouvillian(*model)
    l0, b, x_ss = oracle.bloch_generator(gen)
    assert np.max(np.abs(l0 - bm.l0)) <= 1e-12 and np.max(np.abs(x_ss - bm.x_ss)) <= 1e-12
    ensembles = analytic_k2(bm).ensembles
    assert ensembles
    for ens in ensembles:
        ours = oracle.projector_residuals(gen, ens.states, ens.kappa)
        assert np.max(np.abs(ours - verify(bm, ens).residuals)) <= 1e-12
        assert np.max(np.abs(oracle.stationary(ens.kappa) - ens.occupations)) <= 1e-12


def test_closed_form_matches_oracle_generator():
    l0, b, x_ss = oracle.bloch_generator(oracle.liouvillian(*oracle.resonance_fluorescence(GAMMA, OMEGA)))
    ref = oracle.rf_bloch(GAMMA, OMEGA)
    for ours, closed in zip((l0, b, x_ss), ref):
        assert np.max(np.abs(ours - closed)) <= 1e-12


@pytest.fixture(scope="module")
def search_bundles(tmp_path_factory):
    out = {}
    for k, seeds in ((2, 4), (3, 32)):
        path = tmp_path_factory.mktemp("search") / f"k{k}.json"
        argv = ["search", *RF_SPEC, "--k", str(k), "--seeds", str(seeds), "--rng", "0", "-o", str(path)]
        assert cli.main(argv) == 0
        out[k] = json.loads(path.read_text())
    return out


def _corrupt(doc, index, **changes):
    doc = json.loads(json.dumps(doc))
    doc["results"]["ensembles"][index].update(changes)
    return doc


@pytest.mark.parametrize("k", [2, 3])
def test_search_check_rejects_corruption(search_bundles, k):
    doc = search_bundles[k]
    assert checks.check_search(doc, k, GAMMA, OMEGA) == []
    ens = doc["results"]["ensembles"][1]
    scaled = (1.1 * np.asarray(ens["kappa"])).tolist()
    assert checks.check_search(_corrupt(doc, 1, kappa=scaled), k, GAMMA, OMEGA)
    moved = _rotate_member(ens["states"], 0, 1e-3).tolist()
    assert checks.check_search(_corrupt(doc, 1, states=moved), k, GAMMA, OMEGA)
    dropped = json.loads(json.dumps(doc))
    dropped["results"]["ensembles"].pop()
    assert checks.check_search(dropped, k, GAMMA, OMEGA)


def test_search_check_rejects_broken_flip_pairing(search_bundles):
    doc = search_bundles[3]
    ensembles = doc["results"]["ensembles"]
    off_plane = [i for i, e in enumerate(ensembles) if np.max(np.abs(np.asarray(e["states"])[:, 0])) > 1e-7]
    states = np.asarray(ensembles[off_plane[0]]["states"])
    mirrored = (states * [-1.0, 1.0, 1.0]).tolist()
    failures = checks.check_search(_corrupt(doc, off_plane[0], states=mirrored), 3, GAMMA, OMEGA)
    assert any("partner" in f for f in failures)


def test_scan_check_rejects_corruption():
    values = np.arange(0.02, 0.1025, 0.005)

    def table(counts):
        return "gamma_plus,n_ensembles\n" + "".join(f"{v:.6g},{c}\n" for v, c in zip(values, counts))

    good = [2 if v < 1 / 18 else 0 for v in values]
    assert checks.check_scan(table(good), values) == []
    missing = list(good)
    missing[2] = 1
    assert checks.check_scan(table(missing), values)
    late = list(good)
    late[values.tolist().index(min(values[values > 1 / 18]))] = 2
    assert checks.check_scan(table(late), values)


@pytest.fixture(scope="module")
def simulation():
    me = load_catalog("resonance_fluorescence", {"gamma": GAMMA, "Omega": OMEGA})
    _, states, kappa = min(oracle.rf_k2_ensembles(GAMMA, OMEGA), key=lambda e: abs(e[0] + GAMMA / 2))
    ens = Ensemble.from_states_kappa(2, states, kappa)
    psi0 = ens.kets()[0]
    scheme = synthesize(me, ens)
    stats = simulate(me, scheme, ens, TrajectoryConfig(n_jumps=500, rng_seed=0))
    report = unconditional_check(
        me, scheme, TrajectoryConfig(rng_seed=0, t_max=2.0 / GAMMA), psi0=psi0, n_trajectories=200
    )
    betas = np.array([s.beta[0] for s in scheme.settings])
    return betas, stats, report, ens, psi0


def test_simulation_check_rejects_corruption(simulation):
    betas, stats, report, ens, psi0 = simulation

    def run(b=betas, s=stats, r=report):
        return checks.check_simulation(b, s, r, ens.states, ens.kappa, psi0, GAMMA, OMEGA)

    assert run() == []
    sigma = np.sqrt(ens.occupations[0] * ens.occupations[1] / stats.n_jumps)
    shifted = stats.occupancy + np.array([5 * sigma, -5 * sigma])
    assert run(s=dataclasses.replace(stats, occupancy=shifted))
    assert run(s=dataclasses.replace(stats, max_state_drift=1e-3))
    assert run(b=betas * 1j)
    off = report.averages.copy()
    off[-1] += np.diag([1e-2, -1e-2])
    assert run(r=dataclasses.replace(report, averages=off))


@pytest.fixture(scope="module")
def cascade_symmetries():
    bm = vectorize(load_me_spec(CASCADE_SPEC))
    return find_invariant_subspaces(bm), find_wigner_symmetries(bm)


def test_symmetry_check_rejects_corruption(cascade_symmetries):
    subs, syms = cascade_symmetries
    model = oracle.cascade_d3()
    assert checks.check_symmetries(subs, syms, *model) == []

    basis = subs[0].basis_i0.copy()
    basis[:, 0] = np.roll(basis[:, 0], 1)
    moved = [dataclasses.replace(subs[0], basis_i0=basis)] + subs[1:]
    assert checks.check_symmetries(moved, syms, *model)
    assert checks.check_symmetries(subs + subs[:1], syms, *model)

    discrete = [i for i, w in enumerate(syms) if w.generator is None]
    bent = list(syms)
    t0 = syms[discrete[0]].t0.copy()
    t0[[0, 1]] = t0[[1, 0]]
    bent[discrete[0]] = dataclasses.replace(syms[discrete[0]], t0=t0)
    assert checks.check_symmetries(subs, bent, *model)
    assert checks.check_symmetries(subs, [w for w in syms if w.generator is None], *model)
    assert checks.check_symmetries(subs, [w for w in syms if w.generator is not None], *model)

"""The four benchmark workloads.

A workload sets itself up from the seed, primes the program with a small
call whose time is not measured, then offers a fixed list of operations.
Each operation is a pair of callables: ``call`` runs the program and is the
only part timed; ``collect`` turns what it returned into
``(exit_code, payload_bytes, value)``.  The payload is what the determinism
check compares between rounds (bundle/CSV bytes for commands, a byte
serialization of every checked output for library calls); ``value`` is what
:meth:`check` hands to :mod:`checks`.  Program entry points are looked up
on their modules at call time, so a traced run reaches the wrapped ones.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import checks
import oracle
from preforge import cli, measurement, symmetry, trajectory
from preforge.constraints import Ensemble
from preforge.mespec import load_catalog, load_me_spec
from preforge.model import vectorize
from preforge.trajectory import TrajectoryConfig

BENCH_DIR = Path(__file__).resolve().parent
CASCADE_SPEC = BENCH_DIR / "models" / "cascade_d3.json"

GAMMA, OMEGA = 1.0, 0.18
RF_SPEC = ["resonance_fluorescence", "--param", f"gamma={GAMMA:g}", "--param", f"Omega={OMEGA:g}"]
RF_PARAMS = {"gamma": GAMMA, "Omega": OMEGA}
SCAN_VALUES = "0.035:0.075:0.005"


def run_cli(argv) -> int:
    """``pre-forge <argv>`` in this process, its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _bytes(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


class SearchRF:
    """``pre-forge search resonance_fluorescence`` at K=2 and K=3."""

    seeds = {2: 16, 3: 128}
    writes_output = True

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def prime(self):
        run_cli(["search", *RF_SPEC, "--k", "2", "--seeds", "1", "-o", str(self._path(2))])

    def operations(self):
        return [(f"search-k{k}", self._call(k), self._collect(k)) for k in self.seeds]

    def _path(self, k):
        return self.out_dir / f"search-k{k}.json"

    def _call(self, k):
        argv = ["search", *RF_SPEC, "--k", str(k), "--seeds", str(self.seeds[k])]
        argv += ["--rng", str(self.seed), "-o", str(self._path(k))]
        return lambda: run_cli(argv)

    def _collect(self, k):
        def collect(rc):
            payload = self._path(k).read_bytes()
            return rc, payload, json.loads(payload)

        return collect

    def check(self, values) -> list:
        return [f for k in self.seeds for f in checks.check_search(values[f"search-k{k}"], k, GAMMA, OMEGA)]

    def work(self, values) -> dict:
        """Multistart starts: seeds times routes (searched subspaces plus the full system)."""
        starts = sum(
            self.seeds[k] * (len(values[f"search-k{k}"]["results"]["searched_subspaces"]) + 1)
            for k in self.seeds
        )
        return {"starts": starts}


class ScanThreshold:
    """The README ``scan`` of the absorption/emission threshold at K=3, on a
    grid narrowed to the points around 1/18."""

    seeds = 48
    writes_output = True

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.path = out_dir / "scan.csv"
        start, stop, step = (float(v) for v in SCAN_VALUES.split(":"))
        self.values = np.arange(start, stop + 0.5 * step, step)

    def _argv(self, values, seeds):
        return [
            "scan", "absorption_emission", "--param", "gamma_minus=1", "--scan-param", "gamma_plus",
            "--values", values, "--k", "3", "--subspace-span", "1,0,0;0,0,1", "--quotient", "auto",
            "--seeds", str(seeds), "--rng", str(self.seed), "-o", str(self.path),
        ]

    def prime(self):
        run_cli(self._argv("0.02:0.02:0.005", 1))

    def operations(self):
        argv = self._argv(SCAN_VALUES, self.seeds)

        def collect(rc):
            payload = self.path.read_bytes()
            return rc, payload, payload.decode()

        return [("scan", lambda: run_cli(argv), collect)]

    def check(self, values) -> list:
        return checks.check_scan(values["scan"], self.values)

    def work(self, values) -> dict:
        return {"starts": self.seeds * len(self.values)}


class SimulateK2:
    """synthesize -> simulate -> unconditional_check on the K=2 ensemble at -gamma/2.

    The ensemble comes from the oracle's closed form and enters the program
    the way ``pre-forge scheme``/``simulate`` read an ensemble file.
    """

    jumps = 4000
    trajectories = 2000
    writes_output = False

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.me = load_catalog("resonance_fluorescence", RF_PARAMS)
        _, states, kappa = min(oracle.rf_k2_ensembles(GAMMA, OMEGA), key=lambda e: abs(e[0] + GAMMA / 2))
        self.ens = Ensemble.from_states_kappa(2, states, kappa)
        self.psi0 = self.ens.kets()[0]
        self.scheme = None

    def prime(self):
        self._synthesize()
        cfg = TrajectoryConfig(n_jumps=200, rng_seed=self.seed)
        trajectory.simulate(self.me, self.scheme, self.ens, cfg)
        trajectory.unconditional_check(self.me, self.scheme, cfg, n_trajectories=20)

    def operations(self):
        return [
            ("synthesize", self._synthesize, self._collect_scheme),
            ("simulate", self._simulate, self._collect_stats),
            ("unconditional", self._unconditional, self._collect_report),
        ]

    def _synthesize(self):
        self.scheme = measurement.synthesize(self.me, self.ens)
        return self.scheme

    def _collect_scheme(self, scheme):
        betas = np.array([s.beta[0] for s in scheme.settings])
        s_mats = [s.s for s in scheme.settings]
        return 0, _bytes(betas, scheme.jump_map, *s_mats), betas

    def _simulate(self):
        cfg = TrajectoryConfig(n_jumps=self.jumps, rng_seed=self.seed)
        return trajectory.simulate(self.me, self.scheme, self.ens, cfg)

    def _collect_stats(self, stats):
        payload = _bytes(
            stats.occupancy, stats.jump_counts, stats.self_loop_counts,
            np.array([stats.max_state_drift, stats.total_time, stats.n_jumps]),
            np.array(stats.events, dtype=float),
        )
        return 0, payload, stats

    def _unconditional(self):
        cfg = TrajectoryConfig(rng_seed=self.seed, t_max=2.0 / GAMMA)
        return trajectory.unconditional_check(
            self.me, self.scheme, cfg, psi0=self.psi0, n_trajectories=self.trajectories
        )

    def _collect_report(self, report):
        return 0, _bytes(report.times, report.distances, report.averages), report

    def check(self, values) -> list:
        return checks.check_simulation(
            values["synthesize"], values["simulate"], values["unconditional"],
            self.ens.states, self.ens.kappa, self.psi0, GAMMA, OMEGA,
        )

    def work(self, values) -> dict:
        return {"jumps": values["simulate"].n_jumps, "trajectories": values["unconditional"].n_trajectories}


class SymmetryD3:
    """Invariant subspaces and Wigner symmetries of the D=3 driven cascade."""

    writes_output = False

    def __init__(self, seed: int, out_dir: Path):
        self.bm = vectorize(load_me_spec(CASCADE_SPEC))

    def prime(self):
        """Nothing to prime: detection has no lazy state and allocates little."""

    def operations(self):
        def collect_subspaces(subs):
            payload = _bytes(*[a for s in subs for a in (s.basis_i0, s.pure_witness, [s.certificate])])
            return 0, payload + repr([s.tags for s in subs]).encode(), subs

        def collect_symmetries(syms):
            payload = _bytes(*[w.t0 for w in syms], *[w.generator for w in syms if w.generator is not None])
            return 0, payload + repr([(w.antiunitary, w.generator_tag) for w in syms]).encode(), syms

        return [
            ("subspaces", lambda: symmetry.find_invariant_subspaces(self.bm), collect_subspaces),
            ("wigner", lambda: symmetry.find_wigner_symmetries(self.bm), collect_symmetries),
        ]

    def check(self, values) -> list:
        return checks.check_symmetries(values["subspaces"], values["wigner"], *oracle.cascade_d3())

    def work(self, values) -> dict:
        return {}


WORKLOADS = {
    "search-rf": SearchRF,
    "scan-threshold": ScanThreshold,
    "simulate-k2": SimulateK2,
    "symmetry-d3": SymmetryD3,
}

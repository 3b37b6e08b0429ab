"""One set-up of a workload in a fresh interpreter: import ``preforge``, then
load and vectorize the workload's models.

``run.py`` times whole runs of this script (interpreter start included) for
the ``setup_s`` metric.  Usage: ``python3 bench/setup_probe.py <workload>``.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import preforge.cli  # noqa: E402,F401  (the import a user's command pays for)
from preforge.mespec import load_catalog, load_me_spec  # noqa: E402
from preforge.model import vectorize  # noqa: E402

MODELS = {
    "search-rf": lambda: load_catalog("resonance_fluorescence", {"gamma": 1.0, "Omega": 0.18}),
    "scan-threshold": lambda: load_catalog("absorption_emission", {"gamma_minus": 1.0, "gamma_plus": 0.02}),
    "simulate-k2": lambda: load_catalog("resonance_fluorescence", {"gamma": 1.0, "Omega": 0.18}),
    "symmetry-d3": lambda: load_me_spec(BENCH_DIR / "models" / "cascade_d3.json"),
}

if __name__ == "__main__":
    vectorize(MODELS[sys.argv[1]]())

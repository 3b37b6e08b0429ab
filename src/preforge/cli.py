"""Command-line front end: analyze, search, verify, scheme, simulate, scan,
plotdata, catalog.

Model spec files are JSON documents (see :mod:`preforge.mespec` for the
schema); bare names resolve against the built-in catalog.  Results are
written as deterministic JSON bundles that embed the full configuration, so
re-running a bundle's command reproduces it bit for bit.  Exit codes:
0 success, 1 failed check or nothing found, 2 usage error (an unusable
file path included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .constraints import (
    VERIFY_TOL,
    Ensemble,
    build_full,
    build_subspace_reduced,
    heuristic_min_k,
    verify,
)
from .errors import ConvergenceError, EnsembleError, SteadyStateError
from .errors import RealizationError, SynthesisError
from .measurement import synthesize
from .mespec import MESpecError, UnboundParameterError
from .mespec import catalog_doc, catalog_names, parse_me_spec, read_me_spec
from .model import vectorize
from .solver import (
    SolverConfig,
    analytic_k2,
    new_ensembles,
    route_skip_reasons,
    scan_existence,
    solve_systems,
    solve_wigner_family,
)
from .symmetry import find_invariant_subspaces, find_wigner_symmetries
from .trajectory import TrajectoryConfig, member_click_rates, simulate, unconditional_check

SCHEMA_VERSION = 1

_log = logging.getLogger("preforge")

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_SEEDS_HELP = (
    "multistart starts per system; cyclic systems on 2-D qubit slices are solved "
    "exactly by the chord map, which neither --seeds nor --rng affects"
)
# Solver diagnostics copied into each solved route's entry of a search bundle;
# the cell counts are there on chord-map routes only.
_ROUTE_KEYS = ("method", "n_starts", "n_converged", "n_accepted", "rejections", "n_cells", "n_unresolved")


def _parse_params(pairs):
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise MESpecError(f"--param expects NAME=VALUE, got '{pair}'")
        name, _, value = pair.partition("=")
        try:
            number = float(value)
        except ValueError as exc:
            raise MESpecError(f"--param {name}: '{value}' is not a number") from exc
        if not np.isfinite(number):
            raise MESpecError(f"--param {name}: '{value}' is not a finite number")
        params[name.strip()] = number
    return params


def _load_model(spec, params):
    return parse_me_spec(_model_doc(spec), params)


def _model_doc(spec) -> dict:
    """The spec document of a spec file or catalog entry."""
    if os.path.exists(spec):
        return read_me_spec(spec)
    if spec in catalog_names():
        return catalog_doc(spec)
    raise MESpecError(
        f"'{spec}' is neither a file nor a catalog entry (catalog: {', '.join(catalog_names())})"
    )


def _ensemble_to_doc(ens: Ensemble) -> dict:
    return {
        "dim": ens.dim,
        "states": ens.states.tolist(),
        "kappa": ens.kappa.tolist(),
        "occupations": ens.occupations.tolist(),
    }


def _ensemble_from_doc(doc: dict) -> Ensemble:
    if not isinstance(doc, dict):
        raise EnsembleError(f"ensemble file must hold a JSON object, not a {type(doc).__name__}")
    missing = [key for key in ("dim", "states", "kappa") if key not in doc]
    if missing:
        raise EnsembleError(f"ensemble file lacks {', '.join(map(repr, missing))}")
    return Ensemble.from_states_kappa(
        int(doc["dim"]), np.asarray(doc["states"], float), np.asarray(doc["kappa"], float)
    )


def _load_ensemble(path) -> Ensemble:
    with open(path, "r", encoding="utf-8") as fh:
        return _ensemble_from_doc(json.load(fh))


def _bundle(command, config, results) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "pre-forge", "version": __version__},
        "command": command,
        "config": config,
        "results": results,
    }


def _check_writable(path):
    """Raise ``OSError`` now if ``path`` cannot be opened for writing.

    Opening for append creates no content and keeps an existing file as it
    is; a file created only by this probe is removed again, so nothing is
    left behind when the work before ``_emit`` fails.
    """
    if not path:
        return
    existed = os.path.exists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def _emit(doc, path):
    payload = json.dumps(doc, indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _model_summary(bm) -> dict:
    spectrum = bm.spectrum
    clusters = [
        {
            "eigenvalue": [c.value.real, c.value.imag],
            "algebraic": c.algebraic,
            "geometric": c.geometric,
            "defective": c.defective,
            "vectors": np.round(c.vectors.real, 12).tolist()
            if np.max(np.abs(c.vectors.imag)) < 1e-12
            else [
                [[v.real, v.imag] for v in c.vectors[:, i]]
                for i in range(c.vectors.shape[1])
            ],
            "jordan_chain_lengths": [len(ch) for ch in c.jordan_chains],
        }
        for c in spectrum.clusters
    ]
    return {
        "dim": bm.dim,
        "l0": bm.l0.tolist(),
        "b": bm.b.tolist(),
        "x_ss": bm.x_ss.tolist(),
        "defective": spectrum.defective,
        "eigen_clusters": clusters,
    }


def cmd_analyze(args) -> int:
    me = _load_model(args.spec, _parse_params(args.param))
    bm = vectorize(me)
    summary = _model_summary(bm)
    print(f"dim = {bm.dim}")
    print("l0 =")
    for row in bm.l0:
        print("   [" + "  ".join(f"{v: .6g}" for v in row) + "]")
    print("b  = [" + "  ".join(f"{v: .6g}" for v in bm.b) + "]")
    print("x_ss = [" + "  ".join(f"{v: .6g}" for v in bm.x_ss) + "]")
    print(f"defective generator: {summary['defective']}")
    for c in summary["eigen_clusters"]:
        re, im = c["eigenvalue"]
        lam = f"{re:.6g}" + (f"{im:+.6g}i" if abs(im) > 1e-12 else "")
        print(
            f"eigenvalue {lam}: algebraic {c['algebraic']}, geometric {c['geometric']}"
            + (", defective" if c["defective"] else "")
        )
    bundle = _bundle(
        "analyze", {"spec": args.spec, "params": _parse_params(args.param)}, {"model": summary}
    )
    if args.output:
        _emit(bundle, args.output)
    return EXIT_OK


def _subspace_doc(sub) -> dict:
    return {
        "dim": sub.n,
        "basis": sub.basis_i0.tolist(),
        "certificate": sub.certificate,
        "family": sub.family.kind if sub.family else None,
        "tags": list(sub.tags),
    }


def cmd_search(args) -> int:
    """Collect K-member ensembles from every route and write one bundle.

    The closed-form routes come first (the azimuthal Wigner family, and
    ``analytic_k2`` at K=2), then one numeric route per searched subspace
    and one for the full space.  All four share one screen, one
    projector-form check and one quotient: a route lists the results that
    ``new_ensembles`` finds new next to those already listed, with the
    model's continuous Wigner symmetries as the family quotient.  Under
    ``--graph cyclic`` a family ensemble counts only when each member has
    one outgoing rate (a K-cycle up to relabelling).  Each numeric route's
    entry in ``results.routes`` is the solver's method, its start count
    (the roots found, on a chord-map route), its counts and its rejection
    histogram.  A route that ``route_skip_reasons`` proves adds nothing is
    not solved (at K=2 when ``analytic_k2`` is complete, at K>=3 on a 1-D
    slice, and the full route of a qubit at K=3 under the cyclic graph when
    every invariant plane is a subspace route of the plan,
    so the plan's subspaces are handed over whole); it stays in
    ``results.routes`` with zero counts and its reason under ``"skipped"``.
    The other routes are solved by one ``solve_systems`` call, so cyclic
    routes on 2-D qubit slices are solved by the chord map and routes of
    one shape share a stack, and are then walked in plan order.
    """
    params = _parse_params(args.param)
    me = _load_model(args.spec, params)
    _check_writable(args.output)
    bm = vectorize(me)
    k = args.k
    floor = heuristic_min_k(bm.dim)
    if k < floor:
        print(
            f"warning: K={k} is below the parameter-counting bound {floor} "
            "for this dimension; the search may come up empty",
            file=sys.stderr,
        )
    cfg = SolverConfig(tol=args.tol, seeds=args.seeds, rng_seed=args.rng)
    symmetries = find_wigner_symmetries(bm)
    subspaces = find_invariant_subspaces(bm)

    listed = []  # (ensemble, source) of every route's results, closed forms first
    if args.wigner_reduce == "auto":
        family = solve_wigner_family(bm, k)
        for ens, tag in zip(family.ensembles, family.family_tags):
            if args.graph == "full" or np.all(np.count_nonzero(ens.kappa, axis=0) == 1):
                source = {"route": "wigner-family", "rates_out": list(map(float, tag["rates_out"]))}
                listed.append((ens, source))
    if k == 2:
        analytic = analytic_k2(bm)
        for ens, tag in zip(analytic.ensembles, analytic.family_tags):
            listed.append((ens, {"route": "analytic-k2", "eigenvalue": tag["eigenvalue"]}))

    # (label, subspace) per numeric route; None stands for the full space.
    plan = []
    if args.subspace == "auto":
        for idx, sub in enumerate(sorted(subspaces, key=lambda s: s.n)):
            plan.append((f"subspace[{idx}] dim {sub.n}", sub))
    elif args.subspace != "none":
        idx = int(args.subspace)
        if not 0 <= idx < len(subspaces):
            raise ValueError(
                f"--subspace {idx} out of range: {len(subspaces)} subspaces detected"
            )
        plan.append((f"subspace[{idx}] dim {subspaces[idx].n}", subspaces[idx]))
    if args.subspace in ("auto", "none"):
        plan.append(("full", None))
    searched_subspaces = [_subspace_doc(sub) for _, sub in plan if sub is not None]

    generators = [w.generator for w in symmetries if w.generator is not None]
    routes = []
    reasons = route_skip_reasons(bm, k, [sub for _, sub in plan], args.graph)
    systems = [
        build_full(bm, k, args.graph) if sub is None else build_subspace_reduced(bm, sub, k, args.graph)
        for (_, sub), reason in zip(plan, reasons)
        if reason is None
    ]
    solsets = iter(solve_systems(systems, cfg))
    for (label, sub), reason in zip(plan, reasons):
        if reason is not None:
            routes.append(
                {"route": label, "n_starts": 0, "n_converged": 0, "n_accepted": 0, "rejections": {},
                 "skipped": reason}
            )
            _log.debug("route %s: skipped, %s", label, reason)
            continue
        sols = next(solsets)
        diag = sols.diagnostics
        entry = {"route": label, **{key: diag[key] for key in _ROUTE_KEYS if key in diag}}
        routes.append(entry)
        _log.debug(
            "route %s: %d starts, %d converged, %d accepted; rejections %s",
            label, entry["n_starts"], entry["n_converged"], entry["n_accepted"], entry["rejections"],
        )
        listed += [(ens, {"route": label}) for ens in sols.ensembles]

    found = new_ensembles([ens for ens, _ in listed], generators=generators)
    kept = {id(ens) for ens in found}
    sources = [source for ens, source in listed if id(ens) in kept]

    results = {
        "model": _model_summary(bm),
        "symmetries": [
            {
                "t0": w.t0.tolist(),
                "antiunitary": w.antiunitary,
                "generator_tag": w.generator_tag,
            }
            for w in symmetries
        ],
        "subspaces": [_subspace_doc(s) for s in subspaces],
        "searched_subspaces": searched_subspaces,
        "routes": routes,
        "ensembles": [
            dict(_ensemble_to_doc(e), source=src) for e, src in zip(found, sources)
        ],
    }
    bundle = _bundle(
        "search",
        {
            "spec": args.spec,
            "params": params,
            "k": k,
            "graph": args.graph,
            "subspace": args.subspace,
            "wigner_reduce": args.wigner_reduce,
            "seeds": args.seeds,
            "tol": args.tol,
            "rng_seed": args.rng,
        },
        results,
    )
    _emit(bundle, args.output)
    print(f"found {len(found)} ensembles", file=sys.stderr)
    return EXIT_OK if found else EXIT_FAILED_CHECK


def cmd_verify(args) -> int:
    me = _load_model(args.spec, _parse_params(args.param))
    bm = vectorize(me)
    ens = _load_ensemble(args.ensemble)
    report = verify(bm, ens, tol=args.tol)
    print(report)
    for k, r in enumerate(report.residuals):
        print(f"  member {k}: residual {r:.3e}, occupation {report.occupations[k]:.6f}")
    bundle = _bundle(
        "verify",
        {"spec": args.spec, "params": _parse_params(args.param), "ensemble": args.ensemble, "tol": args.tol},
        {
            "passed": report.passed,
            "max_residual": report.max_residual,
            "residuals": report.residuals.tolist(),
            "occupations": report.occupations.tolist(),
            "strongly_connected": report.strongly_connected,
            "ensemble_average_error": report.ensemble_average_error,
        },
    )
    if args.output:
        _emit(bundle, args.output)
    return EXIT_OK if report.passed else EXIT_FAILED_CHECK


def cmd_scheme(args) -> int:
    me = _load_model(args.spec, _parse_params(args.param))
    ens = _load_ensemble(args.ensemble)
    _check_writable(args.output)
    scheme = synthesize(me, ens)
    doc = {
        "settings": [
            {
                "member": k,
                "beta": [[b.real, b.imag] for b in setting.beta],
                "s": [[[v.real, v.imag] for v in row] for row in setting.s],
                "routing": scheme.jump_map[k].tolist(),
                **scheme.diagnostics[k],
            }
            for k, setting in enumerate(scheme.settings)
        ]
    }
    for entry in doc["settings"]:
        betas = ", ".join(f"{b[0]:+.6f}{b[1]:+.6f}i" for b in entry["beta"])
        print(f"member {entry['member']}: beta = [{betas}], routing = {entry['routing']}")
    bundle = _bundle(
        "scheme",
        {
            "spec": args.spec,
            "params": _parse_params(args.param),
            "ensemble": args.ensemble,
        },
        {"scheme": doc, "ensemble": _ensemble_to_doc(ens)},
    )
    if args.output:
        _emit(bundle, args.output)
    return EXIT_OK


def cmd_simulate(args) -> int:
    me = _load_model(args.spec, _parse_params(args.param))
    ens = _load_ensemble(args.ensemble)
    cfg = TrajectoryConfig(n_jumps=args.jumps, rng_seed=args.rng)
    if args.trajectories < 1:
        raise ValueError(f"trajectory count must be positive, got {args.trajectories}")
    _check_writable(args.events)
    _check_writable(args.output)
    scheme = synthesize(me, ens)
    stats = simulate(me, scheme, ens, cfg)
    print(f"jumps recorded: {stats.n_jumps}, total time {stats.total_time:.4g}")
    print("occupancy:", " ".join(f"{v:.6f}" for v in stats.occupancy))
    print("stationary:", " ".join(f"{v:.6f}" for v in ens.occupations))
    print(f"max state drift: {stats.max_state_drift:.3e}")
    sampled, exact = member_click_rates(stats)
    print("click rates (sampled/exact):", " ".join(f"{s:.6g}/{e:.6g}" for s, e in zip(sampled, exact)))
    results = {
        "occupancy": stats.occupancy.tolist(),
        "stationary": ens.occupations.tolist(),
        "jump_counts": stats.jump_counts.tolist(),
        "self_loop_counts": stats.self_loop_counts.tolist(),
        "max_state_drift": stats.max_state_drift,
        "n_jumps": stats.n_jumps,
        "total_time": stats.total_time,
        "click_rates": {
            "sampled": [None if np.isnan(v) else float(v) for v in sampled],
            "exact": exact.tolist(),
        },
    }
    if args.unconditional:
        rep = unconditional_check(me, scheme, cfg, n_trajectories=args.trajectories)
        results["unconditional"] = {
            "times": rep.times.tolist(),
            "distances": rep.distances.tolist(),
            "sigma": rep.sigma.tolist(),
            "z": rep.z,
            "bounds": rep.bounds.tolist(),
            "passed": rep.passed,
        }
        worst = int(np.argmax(rep.distances - rep.bounds))
        print(
            f"unconditional max distance: {max(rep.distances):.3e} (closest to its bound at "
            f"t={rep.times[worst]:.4g}: {rep.distances[worst]:.3e} vs {rep.bounds[worst]:.3e}, z={rep.z:g})"
        )
    if args.events:
        with open(args.events, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "channel", "from_label", "to_label"])
            writer.writerows(stats.events)
    config = {
        "spec": args.spec,
        "params": _parse_params(args.param),
        "ensemble": args.ensemble,
        "jumps": args.jumps,
        "rng_seed": args.rng,
    }
    if args.unconditional:  # --trajectories has no effect without the check
        config.update(unconditional=True, trajectories=args.trajectories)
    bundle = _bundle("simulate", config, results)
    if args.output:
        _emit(bundle, args.output)
    return EXIT_FAILED_CHECK if args.unconditional and not rep.passed else EXIT_OK


def cmd_scan(args) -> int:
    params = _parse_params(args.param)
    fields = args.values.split(":")
    if len(fields) != 3:
        raise ValueError(f"--values expects START:STOP:STEP, got '{args.values}'")
    start, stop, step = (float(v) for v in fields)
    if not (np.isfinite([start, stop]).all() and 0 < step < np.inf and start <= stop):
        raise ValueError(f"--values '{args.values}' needs finite START <= STOP and a positive STEP")
    values = np.arange(start, stop + 0.5 * step, step)

    span = None
    if args.subspace_span:
        rows = [list(map(float, row.split(","))) for row in args.subspace_span.split(";")]
        span = np.asarray(rows, dtype=float).T
    _check_writable(args.output)

    doc = _model_doc(args.spec)  # read once, bound to each grid value
    models = {v: vectorize(parse_me_spec(doc, {**params, args.scan_param: v})) for v in values.tolist()}

    def cs_builder(bm):
        if span is not None:
            from .symmetry import subspace_from_span

            sub = subspace_from_span(bm, span)
            return build_subspace_reduced(bm, sub, args.k, args.graph)
        return build_full(bm, args.k, args.graph)

    quotient = None
    if args.quotient == "auto":
        gens = [w.generator for w in find_wigner_symmetries(models[values[0]]) if w.generator is not None]
        quotient = gens[0] if gens else None

    cfg = SolverConfig(tol=args.tol, seeds=args.seeds, rng_seed=args.rng)
    table = scan_existence(
        models.__getitem__, values, cs_builder, cfg, parameter=args.scan_param, quotient_generator=quotient
    )
    counts = ("n_starts", "n_converged", "n_accepted")
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow([args.scan_param, "n_ensembles", *counts])
        for (value, count), diag in zip(table.rows(), table.diagnostics):
            writer.writerow([f"{value:.6g}", count, *(diag[key] for key in counts)])
            _log.debug(
                "%s = %.6g: %d starts, %d converged, %d accepted; rejections %s",
                args.scan_param, value, *(diag[key] for key in counts), diag["rejections"],
            )
    finally:
        if args.output:
            out.close()
    for threshold in table.thresholds:
        print(f"count changes near {args.scan_param} = {threshold:.6g}", file=sys.stderr)
    return EXIT_OK


_FIGURES = {
    "fig1a": {"pre_indices": [0]},
    "fig1b": {"pre_indices": [1]},
    "fig1c": {"pre_indices": [2]},
    "fig2": {"pre_indices": None},
    "fig3": {"pre_indices": None, "cycling": True},
    "fig4": {"pre_indices": None},
}


def cmd_plotdata(args) -> int:
    if args.figure_id not in _FIGURES:
        print(
            f"unknown figure id '{args.figure_id}' (known: {', '.join(sorted(_FIGURES))})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    with open(args.bundle, "r", encoding="utf-8") as fh:
        bundle = json.load(fh)
    ensembles = bundle.get("results", {}).get("ensembles", [])
    x_ss = bundle.get("results", {}).get("model", {}).get("x_ss")
    layout = _FIGURES[args.figure_id]
    indices = layout["pre_indices"] or range(len(ensembles))
    with_cycling = layout.get("cycling", False)

    header = [
        "record_type",
        "pre_index",
        "member_index",
        "x",
        "y",
        "z",
        "weight",
        "from_index",
        "to_index",
        "rate",
    ]
    if with_cycling:
        header.append("cycle_direction")
    out = sys.stdout if not args.output else open(args.output, "w", newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    for pre_index in indices:
        if pre_index >= len(ensembles):
            continue
        doc = ensembles[pre_index]
        states = np.asarray(doc["states"], float)
        kappa = np.asarray(doc["kappa"], float)
        weights = np.asarray(doc["occupations"], float)
        direction = ""
        if with_cycling and states.shape[0] >= 3:
            direction = "forward" if kappa[1, 0] > 0 else "backward"
        for m, (x, w) in enumerate(zip(states, weights)):
            row = ["member", pre_index, m, *[f"{v:.12g}" for v in x], f"{w:.12g}", "", "", ""]
            writer.writerow(row + ([direction] if with_cycling else []))
        if x_ss is not None:
            row = ["steady", pre_index, "", *[f"{v:.12g}" for v in x_ss], "", "", "", ""]
            writer.writerow(row + ([""] if with_cycling else []))
        for j, k0 in np.argwhere(kappa > 0):
            row = [
                "arrow",
                pre_index,
                "",
                "",
                "",
                "",
                "",
                int(k0),
                int(j),
                f"{kappa[j, k0]:.12g}",
            ]
            writer.writerow(row + ([""] if with_cycling else []))
    if args.output:
        out.close()
    return EXIT_OK


def cmd_catalog(args) -> int:
    for name in catalog_names():
        print(name)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pre-forge",
        description="Find, verify and physically realize jump ensembles of "
        "Markovian open quantum systems.",
    )
    parser.add_argument("--version", action="version", version=f"pre-forge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("spec", help="model spec file or catalog name")
        p.add_argument("--param", action="append", metavar="NAME=VALUE", help="bind a parameter")
        p.add_argument("-o", "--output", help="write a JSON bundle here")

    p = sub.add_parser("analyze", help="coherence-space reduction and eigenstructure")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("search", help="find ensembles")
    add_common(p)
    p.add_argument("--k", type=int, required=True, help="ensemble size")
    p.add_argument("--graph", choices=["cyclic", "full"], default="cyclic")
    p.add_argument("--subspace", default="auto", help="auto | none | index")
    p.add_argument(
        "--wigner-reduce",
        choices=["auto", "none"],
        default="auto",
        help="switch the closed-form azimuthal-family route on (auto: taken when the model has that symmetry) or off",
    )
    p.add_argument("--seeds", type=int, default=512, help=_SEEDS_HELP)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--rng", type=int, default=0)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="check an ensemble file")
    add_common(p)
    p.add_argument("--ensemble", required=True, help="ensemble JSON file")
    p.add_argument("--tol", type=float, default=VERIFY_TOL, help="largest residual, relative to the model's rate unit")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scheme", help="synthesize an adaptive measurement scheme")
    add_common(p)
    p.add_argument("--ensemble", required=True)
    p.set_defaults(func=cmd_scheme)

    p = sub.add_parser("simulate", help="jump-trajectory statistics for a scheme")
    add_common(p)
    p.add_argument("--ensemble", required=True)
    p.add_argument("--jumps", type=int, default=10000)
    p.add_argument("--rng", type=int, default=0)
    p.add_argument("--events", help="write per-jump CSV here")
    p.add_argument("--unconditional", action="store_true")
    p.add_argument("--trajectories", type=int, default=200)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scan", help="existence counts over a parameter grid")
    add_common(p)
    p.add_argument("--scan-param", required=True, help="parameter to sweep")
    p.add_argument("--values", required=True, metavar="START:STOP:STEP")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--graph", choices=["cyclic", "full"], default="cyclic")
    p.add_argument(
        "--subspace-span",
        help="semicolon-separated coordinate rows spanning the subspace, e.g. '1,0,0;0,0,1'",
    )
    p.add_argument("--quotient", choices=["auto", "none"], default="auto")
    p.add_argument("--seeds", type=int, default=192, help=_SEEDS_HELP)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--rng", type=int, default=0)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("plotdata", help="figure-layout CSV from a search bundle")
    p.add_argument("bundle", help="bundle JSON from a search run")
    p.add_argument("--figure-id", required=True)
    p.add_argument("-o", "--output", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_plotdata)

    p = sub.add_parser("catalog", help="list built-in model specs")
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnboundParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, SteadyStateError, SynthesisError, RealizationError) as exc:
        # Before ValueError: SteadyStateError is one, but a singular
        # generator is a numerical failure, not a usage error.
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (MESpecError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

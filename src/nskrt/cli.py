"""Command-line runner: experiments, sweeps, and the verification suite.

Experiments are described by a flat key = value text file with section
headers ([slab], [profile], [run], ...); command-line --set flags override
file values, and every resolved value (defaults included) is echoed into
the run's summary.json so an experiment is reproducible from its output
directory alone.

Commands
    threshold   capillarity threshold sweep -> summary.json + modes.csv
    growth      growth-rate sweep -> summary.json + modes.csv + eigenfunctions
    simulate    time integration -> series.csv + checkpoint + summary.json
    sweep       one sub-directory per parameter value + aggregate.csv
    escape      escape-time sweep over initial amplitudes -> escape.csv
    verify      acceptance suite; nonzero exit on any failed criterion

Exit codes: 0 success, 1 acceptance failure, 2 configuration error,
3 solver error.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .diagnostics import fit_escape, write_series
from .errors import ConfigError, NskError
from .growth import compute_growth, write_eigenfunction
from .growth import write_modes_csv as write_growth_csv
from .profiles import (DensityProfile, SlabConfig, load_profile,
                       make_boundary_flat_profile, make_linear_profile,
                       make_tanh_profile)
from .simulator import (Init, RunConfig, escape_time, run, solver_iterations,
                        write_checkpoint)
from .threshold import compute_kappa_c
from .threshold import write_modes_csv as write_threshold_csv

__all__ = ["ExperimentSpec", "parse_spec", "run_command", "main"]

# sweep parameter -> the (section, key) each value replaces
SWEEP_PARAMS = {"kappa": ("slab", "kappa"), "mu": ("slab", "mu"), "g": ("slab", "g"),
                "L": ("slab", "l"), "delta": ("run", "delta")}

# schema: section -> key -> (type tag, default); REQUIRED means no default
REQUIRED = object()
_SCHEMA = {
    "slab": {
        "g": ("float", 1.0), "mu": ("float", 0.1), "kappa": ("float", 0.0),
        "l": ("float", 1.0), "h": ("float", 1.0),
    },
    "profile": {
        "kind": ("str", "linear"), "n": ("int", 256),
        "rho0": ("float", 1.0), "slope": ("float", 1.0),
        "base": ("float", 2.0), "amp": ("float", 1.0),
        "steepness": ("float", 10.0), "center": ("float", math.nan),
        "reg_slope": ("float", 0.0), "file": ("str", ""),
    },
    "threshold": {"k_max": ("int", 8)},
    "growth": {"k_max": ("int", 64)},
    "run": {
        "nx": ("int", REQUIRED), "ny": ("int", REQUIRED),
        "t_end": ("float", REQUIRED), "dt": ("float", math.nan),
        "linearized": ("bool", False), "seed": ("int", 0),
        "init": ("str", "eigenfunction"), "delta": ("float", 1e-4),
        "cutoff": ("int", 4),
        "init_file": ("str", ""), "output_every": ("int", 10),
        "checkpoint_every": ("int", 0),
    },
    "sweep": {"param": ("str", REQUIRED), "values": ("str", REQUIRED),
              "command": ("str", "growth")},
    "escape": {"deltas": ("str", "1e-4, 3e-4, 1e-3, 3e-3"),
               "eps": ("float", REQUIRED)},
}


@dataclass
class ExperimentSpec:
    """Fully resolved experiment description."""

    command: str
    values: dict            # section -> key -> resolved value
    outdir: Path
    config_path: str | None = None
    overrides: list = field(default_factory=list)

    def slab(self) -> SlabConfig:
        s = self.values["slab"]
        return SlabConfig(g=s["g"], mu=s["mu"], kappa=s["kappa"], L=s["l"], h=s["h"])

    def profile(self, config: SlabConfig) -> DensityProfile:
        pr = self.values["profile"]
        kind, N = pr["kind"], pr["n"]
        if kind == "linear":
            return make_linear_profile(pr["rho0"], pr["slope"], config, N)
        if kind == "tanh":
            center = None if math.isnan(pr["center"]) else pr["center"]
            return make_tanh_profile(config, N, base=pr["base"], amp=pr["amp"],
                                     steepness=pr["steepness"], center=center,
                                     reg_slope=pr["reg_slope"])
        if kind == "boundary_flat":
            return make_boundary_flat_profile(config, N, rho0=pr["rho0"], amp=pr["amp"])
        if kind == "tabulated":
            if not pr["file"]:
                raise ConfigError("profile.kind = tabulated requires profile.file")
            return load_profile(pr["file"]).resample(N)
        raise ConfigError(
            f"unknown profile.kind {kind!r} (expected linear, tanh, "
            "boundary_flat or tabulated)")

    def run_config(self) -> RunConfig:
        r = self.values["run"]
        init = Init(kind=r["init"], delta=r["delta"], cutoff=r["cutoff"],
                    path=r["init_file"] or None)
        return RunConfig(
            Nx=r["nx"], Ny=r["ny"], t_end=r["t_end"],
            dt=None if math.isnan(r["dt"]) else r["dt"],
            linearized=r["linearized"], seed=r["seed"],
            init=init, output_every=r["output_every"],
            checkpoint_every=r["checkpoint_every"] or None,
            checkpoint_dir=str(self.outdir),
        )


def _parse_value(section: str, key: str, raw: str):
    kind, _ = _SCHEMA[section][key]
    raw = raw.strip()
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            return int(raw)
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "yes", "on", "1"):
                return True
            if low in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(
            f"{section}.{key}: cannot parse {raw!r} as {kind}") from exc


def _unknown_key_error(section: str, key: str) -> ConfigError:
    pool = list(_SCHEMA.get(section, {}))
    hint = difflib.get_close_matches(key, pool, n=1)
    extra = f" (did you mean '{section}.{hint[0]}'?)" if hint else ""
    return ConfigError(f"unknown key {section}.{key}{extra}")


def _read_config_file(path: str) -> dict:
    raw: dict[str, dict[str, str]] = {}
    section = None
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if stripped.startswith("[") and stripped.endswith("]"):
                section = stripped[1:-1].strip().lower()
                if section not in _SCHEMA:
                    hint = difflib.get_close_matches(section, list(_SCHEMA), n=1)
                    extra = f" (did you mean [{hint[0]}]?)" if hint else ""
                    raise ConfigError(f"{path}:{lineno}: unknown section [{section}]{extra}")
                raw.setdefault(section, {})
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
            if section is None:
                raise ConfigError(f"{path}:{lineno}: key outside any [section]")
            key, val = (tok.strip() for tok in stripped.split("=", 1))
            key = key.lower()
            if key not in _SCHEMA[section]:
                raise _unknown_key_error(section, key)
            raw[section][key] = val
    return raw


def parse_spec(command: str, config_path: str | None = None,
               sets: list[str] | None = None, outdir: str | Path = ".") -> ExperimentSpec:
    """Resolve file values, flag overrides and defaults into a full spec.

    Flags override file values; every default is materialized so the spec
    echoed into the summary is complete.  Missing required keys and
    unknown or mistyped keys are reported by name.
    """
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    raw = _read_config_file(config_path) if config_path else {}
    for item in sets or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        dotted, val = item.split("=", 1)
        section, key = (tok.strip().lower() for tok in dotted.split(".", 1))
        if section not in _SCHEMA:
            raise ConfigError(f"--set: unknown section {section!r}")
        if key not in _SCHEMA[section]:
            raise _unknown_key_error(section, key)
        raw.setdefault(section, {})[key] = val

    needed = _COMMANDS[command][1]
    if command == "sweep":
        # the sweep wraps a sub-command; require its sections plus [sweep]
        sub = raw.get("sweep", {}).get("command", "growth").strip()
        swept = [name for name, (_, _, columns) in _COMMANDS.items() if columns]
        if sub not in swept:
            raise ConfigError(f"sweep.command must be one of {', '.join(swept)}, got {sub!r}")
        needed = _COMMANDS[sub][1] + needed
    values: dict[str, dict] = {}
    for section in needed:
        values[section] = {}
        for key, (kind, default) in _SCHEMA[section].items():
            if key in raw.get(section, {}):
                values[section][key] = _parse_value(section, key, raw[section][key])
            elif default is REQUIRED:
                missing = [k for k, (_, d) in _SCHEMA[section].items()
                           if d is REQUIRED and k not in raw.get(section, {})]
                raise ConfigError(
                    f"command {command!r} requires [{section}] keys: "
                    + ", ".join(missing))
            else:
                values[section][key] = default
    # sections the command does not use are allowed (one experiment file can
    # drive several commands); their keys were schema-checked during parsing
    if command == "sweep":
        param = values["sweep"]["param"]
        if param not in SWEEP_PARAMS:
            raise ConfigError(
                f"sweep.param must be one of {', '.join(SWEEP_PARAMS)}, got {param!r}")
        section = SWEEP_PARAMS[param][0]
        if section not in _COMMANDS[sub][1]:
            raise ConfigError(f"sweep.param = {param} sets [{section}], which "
                              f"sweep.command = {sub} does not read")
    return ExperimentSpec(command=command, values=values, outdir=Path(outdir),
                          config_path=config_path, overrides=list(sets or []))


def _float_list(raw: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"{what}: cannot parse {raw!r} as a float list") from exc


def _summary_skeleton(spec: ExperimentSpec) -> dict:
    return {
        "command": spec.command,
        "version": __version__,
        "environment": {"numpy": np.__version__, "scipy": scipy.__version__, **{
            var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}},
        "config_file": spec.config_path,
        "overrides": spec.overrides,
        "resolved": spec.values,
        "results": {},
    }


def _write_summary(summary: dict, outdir: Path) -> None:
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_threshold(spec: ExperimentSpec, summary: dict) -> None:
    config = spec.slab()
    p = spec.profile(config)
    res = compute_kappa_c(p, config, N=spec.values["profile"]["n"],
                          k_max=spec.values["threshold"]["k_max"])
    write_threshold_csv(res, spec.outdir / "modes.csv")
    summary["results"] = {
        "kappa_c": res.kappa_c, "k_star": res.k_star, "grid_N": res.grid_N,
        "per_mode": [[k, xi, v] for k, xi, v in res.per_mode],
    }


def _growth(spec: ExperimentSpec, config: SlabConfig, p: DensityProfile):
    """compute_growth with the [growth] settings of the spec."""
    return compute_growth(p, config, N=spec.values["profile"]["n"],
                          k_max=spec.values["growth"]["k_max"])


def _cmd_growth(spec: ExperimentSpec, summary: dict) -> None:
    config = spec.slab()
    p = spec.profile(config)
    res = _growth(spec, config, p)
    write_growth_csv(res, spec.outdir / "modes.csv")
    if res.Lambda > 0:
        write_eigenfunction(res.nodes, res.w2, spec.outdir / "w2.txt")
        write_eigenfunction(res.nodes, res.w1, spec.outdir / "w1.txt")
        write_eigenfunction(res.nodes, res.beta, spec.outdir / "beta.txt")
    summary["results"] = {
        "Lambda": res.Lambda, "k_star": res.k_star, "residual": res.residual,
        "grid_N": res.grid_N,
        "eigensolves": res.eigensolves,
        "eigensolves_per_mode": res.eigensolves / len(res.per_mode),
        "factorizations_per_eigensolve": {"mean": sum(res.factorizations) / res.eigensolves,
                                          "max": max(res.factorizations)},
        "per_mode": [[k, xi, a0, lam] for k, xi, a0, lam in res.per_mode],
    }


def _cmd_simulate(spec: ExperimentSpec, summary: dict) -> None:
    config = spec.slab()
    p = spec.profile(config)
    rc = spec.run_config()
    gr = _growth(spec, config, p) if spec.values["run"]["init"] == "eigenfunction" else None
    final, series = run(rc, p, config, gr=gr)
    write_series(series, spec.outdir / "series.csv")
    write_checkpoint(final, spec.outdir / "final.bin")
    summary["results"] = {
        "t_final": final.t, "steps": final.step_index,
        "l2_v_first": series[0].l2_v, "l2_v_final": series[-1].l2_v,
        "l2_v_max": max(r.l2_v for r in series),
        "max_div_rel": max(r.div_rel for r in series),
        "mass_drift": abs(series[-1].mass_pert - series[0].mass_pert),
        "Lambda": None if gr is None else gr.Lambda,
        **solver_iterations(rc, p, config),
    }


def _cmd_escape(spec: ExperimentSpec, summary: dict) -> None:
    config = spec.slab()
    p = spec.profile(config)
    rc = spec.run_config()
    deltas = _float_list(spec.values["escape"]["deltas"], "escape.deltas")
    eps = spec.values["escape"]["eps"]
    gr = _growth(spec, config, p)
    pairs = escape_time(rc, p, config, deltas, eps, gr=gr)
    with open(spec.outdir / "escape.csv", "w") as fh:
        fh.write("delta,t_escape,censored\n")
        for d, t in pairs:
            fh.write(f"{d:.17g},{'' if t is None else format(t, '.17g')},{int(t is None)}\n")
    fit = fit_escape(pairs)
    summary["results"] = {
        "eps": eps, "Lambda": gr.Lambda,
        "inverse_Lambda": None if gr.Lambda == 0 else 1.0 / gr.Lambda,
        "pairs": [[d, t] for d, t in pairs],
        "fitted_slope": None if fit is None else fit.rate,
        "r_squared": None if fit is None else fit.r_squared,
        **solver_iterations(rc, p, config),
    }


def _cmd_sweep(spec: ExperimentSpec, summary: dict) -> None:
    param = spec.values["sweep"]["param"]
    section, key = SWEEP_PARAMS[param]
    values = _float_list(spec.values["sweep"]["values"], "sweep.values")
    sub_command = spec.values["sweep"]["command"]
    runner, _, columns = _COMMANDS[sub_command]
    rows = []
    for idx, value in enumerate(values):
        sub = ExperimentSpec(command=sub_command,
                             values={k: dict(v) for k, v in spec.values.items()},
                             outdir=spec.outdir / f"{param}_{idx:03d}",
                             config_path=spec.config_path,
                             overrides=spec.overrides + [f"sweep:{param}={value:g}"])
        sub.values[section][key] = value
        sub.outdir.mkdir(parents=True, exist_ok=True)
        sub_summary = _summary_skeleton(sub)
        runner(sub, sub_summary)
        _write_summary(sub_summary, sub.outdir)
        rows.append((value, sub_summary["results"]))
    with open(spec.outdir / "aggregate.csv", "w") as fh:
        fh.write(param + "," + ",".join(columns) + "\n")
        for value, results in rows:
            cells = [f"{value:.17g}"]
            for column in columns:
                val = results.get(column)
                cells.append("" if val is None else f"{val:.17g}"
                             if isinstance(val, float) else str(val))
            fh.write(",".join(cells) + "\n")
    summary["results"] = {
        "param": param, "values": values, "sub_command": sub_command,
        "rows": [[v, dict(r)] for v, r in rows],
    }


def _cmd_verify(spec: ExperimentSpec, summary: dict, criteria=None) -> int:
    from .acceptance import run_acceptance

    results, failures = [], 0
    for res in run_acceptance(criteria):      # each line as its criterion ends
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] criterion {res.cid}: {res.name} "
              f"({res.runtime_s:.1f} s)", flush=True)
        if not res.passed:
            failures += 1
            print(f"       details: {res.details}", flush=True)
    summary["results"] = {
        "criteria": [{"cid": r.cid, "name": r.name, "passed": r.passed,
                      "runtime_s": r.runtime_s, "details": r.details}
                     for r in results],
        "failures": failures,
    }
    return 1 if failures else 0


# command -> (runner, the sections it reads, its aggregate.csv columns when
# swept, or None if it cannot be swept)
_COMMANDS = {
    "threshold": (_cmd_threshold, ("slab", "profile", "threshold"), ("kappa_c", "k_star")),
    "growth": (_cmd_growth, ("slab", "profile", "growth"), ("Lambda", "k_star", "residual")),
    "simulate": (_cmd_simulate, ("slab", "profile", "run", "growth"),
                 ("l2_v_final", "l2_v_max", "max_div_rel")),
    "sweep": (_cmd_sweep, ("sweep",), None),
    "escape": (_cmd_escape, ("slab", "profile", "run", "growth", "escape"), None),
    "verify": (_cmd_verify, (), None),
}


def run_command(spec: ExperimentSpec, criteria=None) -> int:
    """Execute a resolved spec; writes artifacts into spec.outdir."""
    spec.outdir.mkdir(parents=True, exist_ok=True)
    summary = _summary_skeleton(spec)
    t0 = time.perf_counter()
    extra = (criteria,) if spec.command == "verify" else ()
    status = _COMMANDS[spec.command][0](spec, summary, *extra) or 0
    if spec.command in ("growth", "simulate", "escape"):
        # the solver commands' wall time; a threshold summary stays
        # byte-for-byte reproducible
        summary["wall_s"] = time.perf_counter() - t0
    _write_summary(summary, spec.outdir)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nskrt",
        description="Capillarity thresholds, growth rates and nonlinear "
                    "slab simulations for incompressible NSK flow.")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("-c", "--config", help="experiment file (key = value sections)")
    parser.add_argument("-o", "--out", default="nskrt_out", help="output directory")
    parser.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VAL",
                        help="override a config value (repeatable)")
    parser.add_argument("--criteria", default=None,
                        help="verify: comma-separated criterion ids (default all)")
    args = parser.parse_args(argv)
    try:
        spec = parse_spec(args.command, args.config, args.set, args.out)
        criteria = None
        if args.criteria:
            from .acceptance import CRITERIA

            tokens = args.criteria.replace(",", " ").split()
            if not all(tok.isdigit() and int(tok) in CRITERIA for tok in tokens):
                raise ConfigError(f"--criteria {args.criteria!r}: ids are {sorted(CRITERIA)}")
            criteria = [int(tok) for tok in tokens]
        return run_command(spec, criteria)
    except ConfigError as exc:
        print(f"nskrt: configuration error: {exc}", file=sys.stderr)
        return 2
    except NskError as exc:
        print(f"nskrt: solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

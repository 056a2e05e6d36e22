"""Command-line front end.

Subcommands: ``mesh`` (build/partition/report), ``run`` (bubble
simulation), ``scale`` (worker sweep), ``perfmodel`` (cost tables),
``sweep-order`` (runtime vs polynomial order).  A flat key=value config
file can seed any run option; explicit flags win.  Exit codes: 0 on
success, 2 on configuration or usage errors, 3 on a diverged run.
"""

import argparse
from dataclasses import replace
import os
import sys

from .mesh import (build_box_mesh, compute_metrics, build_cg_numbering,
                   partition_columns, summary_text, MeshError)
from .reference_element import ReferenceElement
from .perf_model import (MachineModel, SimConfig, PRESET_SHEETS,
                         BUBBLE_CONFIG, PLANETARY_CONFIG, BUBBLE_CALIBRATIONS,
                         sheet_table, model_table, emit_table, emit_csv,
                         order_sweep)
from .harness import (BubbleConfig, ConfigError, run_bubble, scale_experiment,
                      scale_table, scale_csv)
from .storage import ENGINE_SCHEMES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

# config-file keys accepted by `run` and `scale` (flat key=value text)
_BUBBLE_KEYS = {
    "lx": ("extents", 0, float), "ly": ("extents", 1, float),
    "lz": ("extents", 2, float),
    "theta0": ("theta0", None, float), "theta_pert": ("theta_pert", None, float),
    "radius": ("radius", None, float),
    "cx": ("center", 0, float), "cy": ("center", 1, float),
    "cz": ("center", 2, float),
    "nx": ("nx", None, int), "ny": ("ny", None, int),
    "layers": ("layers", None, int), "order": ("order", None, int),
    "courant_h": ("courant_h", None, float), "courant_v": ("courant_v", None, float),
    "end_time": ("end_time", None, float), "steps": ("n_steps", None, int),
    "filter_mu": ("filter_mu", None, float), "filter_s": ("filter_s", None, int),
    "filter_cutoff": ("filter_cutoff", None, int),
    "scheme": ("scheme", None, str),
    "snapshot_every": ("snapshot_every", None, int),
    "warmup_steps": ("warmup_steps", None, int),
}


def load_config_file(path) -> dict:
    """Flat key=value text; blank lines and # comments ignored."""
    values = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def bubble_config_from(args, file_values: dict) -> BubbleConfig:
    cfg = BubbleConfig()
    extents = list(cfg.extents)
    center = list(cfg.center)
    for key, raw in file_values.items():
        if key not in _BUBBLE_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        attr, idx, typ = _BUBBLE_KEYS[key]
        val = typ(raw)
        if attr == "extents":
            extents[idx] = val
        elif attr == "center":
            center[idx] = val
        else:
            cfg = replace(cfg, **{attr: val})
    if "end_time" in file_values and "steps" not in file_values:
        cfg = replace(cfg, n_steps=None)  # duration given by model time
    cfg = replace(cfg, extents=tuple(extents), center=tuple(center))
    overrides = {}
    for name in ("nx", "ny", "layers", "order", "scheme", "snapshot_every",
                 "theta0", "theta_pert", "radius", "courant_h", "courant_v",
                 "filter_mu"):
        val = getattr(args, name, None)
        if val is not None:
            overrides[name] = val
    if getattr(args, "steps", None) is not None:
        overrides["n_steps"] = args.steps
    if getattr(args, "end_time", None) is not None:
        overrides["n_steps"] = None
        overrides["end_time"] = args.end_time
    return replace(cfg, **overrides).validate()


def _add_bubble_flags(sub):
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--nx", type=int)
    sub.add_argument("--ny", type=int)
    sub.add_argument("--layers", type=int)
    sub.add_argument("--order", type=int)
    sub.add_argument("--steps", type=int)
    sub.add_argument("--end-time", dest="end_time", type=float)
    sub.add_argument("--scheme", choices=ENGINE_SCHEMES)
    sub.add_argument("--theta0", type=float)
    sub.add_argument("--theta-pert", dest="theta_pert", type=float)
    sub.add_argument("--radius", type=float)
    sub.add_argument("--courant-h", dest="courant_h", type=float)
    sub.add_argument("--courant-v", dest="courant_v", type=float)
    sub.add_argument("--filter-mu", dest="filter_mu", type=float)
    sub.add_argument("--out", help="output directory for CSV/snapshots")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sembox",
        description="spectral-element box engine and roofline performance model")
    sub = ap.add_subparsers(dest="command", required=True)

    m = sub.add_parser("mesh", help="build, partition and report a column mesh")
    m.add_argument("--nx", type=int, default=4)
    m.add_argument("--ny", type=int, default=4)
    m.add_argument("--layers", type=int, default=3)
    m.add_argument("--order", type=int, default=3)
    m.add_argument("--parts", type=int, default=1)
    m.add_argument("--lx", type=float, default=1000.0)
    m.add_argument("--ly", type=float, default=1000.0)
    m.add_argument("--lz", type=float, default=1000.0)

    r = sub.add_parser("run", help="run the rising-bubble simulation")
    _add_bubble_flags(r)
    r.add_argument("--parts", type=int, default=1)
    r.add_argument("--snapshot", action="store_true",
                   help="write binary state snapshots (implies an --out dir)")
    r.add_argument("--snapshot-every", dest="snapshot_every", type=int)

    s = sub.add_parser("scale", help="strong-scaling sweep over worker counts")
    _add_bubble_flags(s)
    s.add_argument("--parts", default="1,2,4,8",
                   help="comma-separated worker counts")

    p = sub.add_parser("perfmodel", help="cost tables under the roofline model")
    p.add_argument("--preset", choices=sorted(PRESET_SHEETS) + ["bubble", "planetary"],
                   help="published cost sheet or model-generated scenario")
    p.add_argument("--scenario", help="key=value file describing the scenario")
    p.add_argument("--elements", help="nx,ny,nz element counts")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--machines", type=int, default=768)
    p.add_argument("--timesteps", type=int, default=690)
    p.add_argument("--penalty", choices=("auto", "on", "off"), default="auto")
    p.add_argument("--bandwidth", type=float, default=28.5e9)
    p.add_argument("--peak", type=float, default=204.8e9)
    p.add_argument("--cache-line", dest="cache_line", type=int, default=128)
    p.add_argument("--l2", type=float, default=32 * 2 ** 20)
    p.add_argument("--out", help="also write CSV here")

    o = sub.add_parser("sweep-order", help="runtime vs polynomial order")
    o.add_argument("--pmin", type=int, default=1)
    o.add_argument("--pmax", type=int, default=7)
    o.add_argument("--penalized", action="store_true")
    o.add_argument("--calibrated", action="store_true",
                   help="apply the fitted bubble calibration per scheme")
    o.add_argument("--out", help="also write CSV here")
    return ap


def cmd_mesh(args) -> int:
    ref = ReferenceElement.create(args.order)
    mesh = build_box_mesh(args.nx, args.ny, args.layers, args.lx, args.ly, args.lz)
    metrics = compute_metrics(mesh, ref)
    numbering = build_cg_numbering(mesh, ref, metrics)
    parts = partition_columns(mesh, args.parts)
    print(summary_text(mesh, numbering, parts))
    return EXIT_OK


def cmd_run(args) -> int:
    file_values = load_config_file(args.config) if args.config else {}
    cfg = bubble_config_from(args, file_values)
    out = args.out
    if args.snapshot and out is None:
        out = "sembox_out"
    report, _ = run_bubble(cfg, n_partitions=args.parts, out_dir=out)
    print(report.summary())
    return EXIT_DIVERGED if report.failed_step is not None else EXIT_OK


def cmd_scale(args) -> int:
    file_values = load_config_file(args.config) if args.config else {}
    cfg = bubble_config_from(args, file_values)
    counts = [int(x) for x in str(args.parts).split(",") if x]
    points = scale_experiment(cfg, counts)
    print(scale_table(points))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "scaling.csv"), "w") as f:
            f.write(scale_csv(points))
    return EXIT_OK


_SCENARIO_KEYS = {"order": int, "nx": float, "ny": float, "nz": float,
                  "machines": int, "timesteps": int, "stages": int,
                  "metric_scheme": str}


def scenario_config(path) -> SimConfig:
    values = load_config_file(path)
    fields = {}
    elements = dict(nx=264.0, ny=264.0, nz=396.0)
    for key, raw in values.items():
        if key not in _SCENARIO_KEYS:
            raise ConfigError(f"unknown scenario key {key!r}")
        val = _SCENARIO_KEYS[key](raw)
        if key in elements:
            elements[key] = val
        else:
            fields[key] = val
    return SimConfig(elements=(elements["nx"], elements["ny"], elements["nz"]),
                     **fields)


def cmd_perfmodel(args) -> int:
    machine = MachineModel(bandwidth=args.bandwidth, peak_flops=args.peak,
                           cache_line=args.cache_line, l2_bytes=int(args.l2))
    if args.preset in PRESET_SHEETS:
        results = sheet_table(PRESET_SHEETS[args.preset], machine)
        title = PRESET_SHEETS[args.preset].description
    else:
        if args.scenario:
            config = scenario_config(args.scenario)
        elif args.preset == "bubble":
            config = BUBBLE_CONFIG
        elif args.preset == "planetary":
            config = PLANETARY_CONFIG
        elif args.elements:
            nx, ny, nz = (float(v) for v in args.elements.split(","))
            config = SimConfig(order=args.order, elements=(nx, ny, nz),
                               machines=args.machines, timesteps=args.timesteps)
        else:
            raise ConfigError("perfmodel needs --preset, --scenario or --elements")
        penal = {"auto": None, "on": True, "off": False}[args.penalty]
        results = model_table(config, machine, penalized=penal)
        title = (f"analytic ledger: p={config.order}, elements={config.elements}, "
                 f"{config.timesteps} steps on {config.machines} machines")
    print(emit_table(results, title))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "perfmodel.csv"), "w") as f:
            f.write(emit_csv(results))
    return EXIT_OK


def cmd_sweep_order(args) -> int:
    cals = BUBBLE_CALIBRATIONS if args.calibrated else None
    sweep = order_sweep(BUBBLE_CONFIG, range(args.pmin, args.pmax + 1),
                        penalized=args.penalized, calibrations=cals)
    lines = ["scheme,order,timesteps,time_per_step,time_to_solution"]
    for scheme, rows in sweep.items():
        for r in rows:
            lines.append(f"{scheme},{r['order']},{r['timesteps']},"
                         f"{r['time_per_step']!r},{r['time_to_solution']!r}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "order_sweep.csv"), "w") as f:
            f.write(text + "\n")
    return EXIT_OK


_COMMANDS = {
    "mesh": cmd_mesh,
    "run": cmd_run,
    "scale": cmd_scale,
    "perfmodel": cmd_perfmodel,
    "sweep-order": cmd_sweep_order,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0,) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, MeshError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

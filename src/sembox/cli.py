"""Command-line front end.

Subcommands: ``mesh`` (build/partition/report), ``run`` (bubble
simulation), ``scale`` (worker sweep), ``perfmodel`` (cost tables),
``sweep-order`` (runtime vs polynomial order).  A flat key=value config
file can seed any run option; explicit flags win.  Exit codes: 0 on
success, 2 on configuration or usage errors (a missing or unreadable
config or scenario file included), 3 on a diverged run, 4 on a fault
inside a worker of the run (an internal error, reported with its
partition and step), 5 when the compiled element kernels cannot be built
(no C compiler, or a failed build; reported with the compiler tried and
the tail of its error output).
"""

import argparse
from dataclasses import replace
import math
import os
import sys

from .mesh import (build_box_mesh, compute_metrics, build_cg_numbering,
                   partition_columns, summary_text, MeshError)
from .reference_element import ReferenceElement
from .perf_model import (MachineModel, SimConfig, PRESET_SHEETS,
                         BUBBLE_CONFIG, PLANETARY_CONFIG, BUBBLE_CALIBRATIONS,
                         ENGINE_SCHEMES, sheet_table, model_table, emit_table,
                         emit_csv, order_sweep)
from .harness import (BubbleConfig, ConfigError, DivergedRunError, run_bubble,
                      scale_experiment, scale_table, scale_csv,
                      worker_fault_note)
from .kernels import KernelBuildError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_FAULT = 4
EXIT_BUILD = 5
_EXIT_HELP = ("exit codes: 0 success; 2 configuration or usage error; "
              "3 diverged run; 4 fault inside a worker; 5 the compiled "
              "element kernels cannot be built (no C compiler, or a failed "
              "build)")

# the one table of `run`/`scale` options: config key -> (BubbleConfig
# field, index into a tuple field or None, type); the keys in
# _BUBBLE_FLAGS also get a flag, spelled with dashes
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
_BUBBLE_FLAGS = ("nx", "ny", "layers", "order", "steps", "end_time", "scheme",
                 "theta0", "theta_pert", "radius", "courant_h", "courant_v",
                 "filter_mu")

# `perfmodel --scenario` keys, in the same form, onto SimConfig
_SCENARIO_KEYS = {
    "order": ("order", None, int), "nx": ("elements", 0, float),
    "ny": ("elements", 1, float), "nz": ("elements", 2, float),
    "machines": ("machines", None, int), "timesteps": ("timesteps", None, int),
    "stages": ("stages", None, int), "metric_scheme": ("metric_scheme", None, str),
}
# float elements, so a scenario prints (100.0, 264.0, 396.0) for nx = 100
_SCENARIO_BASE = SimConfig(elements=(264.0, 264.0, 396.0))
# `perfmodel` flags that shape an --elements scenario only, with the
# SimConfig defaults as their defaults
_ELEMENTS_FLAGS = ("order", "machines", "timesteps")


def load_config_file(path) -> dict:
    """Flat key=value lines, each key once; blanks and # comments ignored."""
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    values = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigError(f"{path}:{lineno}: key {key!r} given twice")
        values[key] = val.strip()
    return values


def config_from(base, keys: dict, values: dict, kind: str = "config"):
    """``base`` with ``values`` (key -> raw value) applied through ``keys``."""
    fields = {}
    for key, raw in values.items():
        if key not in keys:
            raise ConfigError(f"unknown {kind} key {key!r}")
        attr, idx, typ = keys[key]
        try:
            value = typ(raw)
        except ValueError as exc:
            raise ConfigError(f"{kind} key {key!r}: {exc}") from None
        if idx is None:
            fields[attr] = value
        else:
            seq = list(fields.get(attr, getattr(base, attr)))
            seq[idx] = value
            fields[attr] = tuple(seq)
    return replace(base, **fields)


def bubble_config_from(args) -> BubbleConfig:
    """The config file, then the flags, each applied as one source.

    A source that sets end_time without steps runs for model time; one
    that sets both keeps the step count.
    """
    flags = {key: getattr(args, key) for key in _BUBBLE_KEYS
             if getattr(args, key, None) is not None}
    cfg = BubbleConfig()
    for values in (load_config_file(args.config) if args.config else {}, flags):
        cfg = config_from(cfg, _BUBBLE_KEYS, values)
        if "end_time" in values and "steps" not in values:
            cfg = replace(cfg, n_steps=None)
    return cfg.validate()


def _add_key_flags(sub, keys):
    for key in keys:
        kind = ({"choices": ENGINE_SCHEMES, "help": "ledger that prices the "
                 "report; the engine stores and computes CG under each"}
                if key == "scheme" else {"type": _BUBBLE_KEYS[key][2]})
        sub.add_argument("--" + key.replace("_", "-"), dest=key, **kind)


def _write_out(out_dir, name: str, text: str):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as f:
        f.write(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sembox",
        description="spectral-element box engine and roofline performance model",
        epilog=_EXIT_HELP)
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

    r = sub.add_parser("run", help="run the rising-bubble simulation",
                       epilog=_EXIT_HELP)
    s = sub.add_parser("scale", help="strong-scaling sweep over worker counts",
                       epilog=_EXIT_HELP)
    for b in (r, s):
        b.add_argument("--config", help="flat key=value config file")
        _add_key_flags(b, _BUBBLE_FLAGS)
        b.add_argument("--out", help="output directory for CSV/snapshots")
    r.add_argument("--parts", type=int, default=1)
    r.add_argument("--snapshot", action="store_true",
                   help="write binary state snapshots (implies an --out dir)")
    _add_key_flags(r, ("snapshot_every",))
    s.add_argument("--parts", default="1,2,4,8",
                   help="comma-separated worker counts")

    p = sub.add_parser("perfmodel", help="cost tables under the roofline model")
    p.add_argument("--preset", choices=sorted(PRESET_SHEETS) + ["bubble", "planetary"],
                   help="published cost sheet or model-generated scenario")
    p.add_argument("--scenario", help="key=value file describing the scenario")
    p.add_argument("--elements", help="nx,ny,nz element counts")
    for key in _ELEMENTS_FLAGS:
        p.add_argument("--" + key, type=int, default=getattr(SimConfig, key))
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
    cfg = bubble_config_from(args)
    out = args.out
    if args.snapshot and out is None:
        out = "sembox_out"
    if cfg.snapshot_every and out is None:
        raise ConfigError("a snapshot cadence needs an output directory: "
                          "pass --out DIR or --snapshot")
    report, _ = run_bubble(cfg, n_partitions=args.parts, out_dir=out)
    print(report.summary())
    return EXIT_DIVERGED if report.failed_step is not None else EXIT_OK


def cmd_scale(args) -> int:
    cfg = bubble_config_from(args)
    if cfg.snapshot_every:
        raise ConfigError("scale writes no snapshots: remove snapshot_every")
    counts = [int(x) for x in str(args.parts).split(",") if x.strip()]
    if not counts:
        raise ConfigError(f"--parts {args.parts!r} names no worker count")
    try:
        points = scale_experiment(cfg, counts)
    except DivergedRunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    print(scale_table(points))
    if args.out:
        _write_out(args.out, "scaling.csv", scale_csv(points))
    return EXIT_OK


def _check_perfmodel_flags(args):
    given = [f"--{key}" for key in ("preset", "scenario", "elements")
             if getattr(args, key)]
    if len(given) > 1:
        raise ConfigError(f"perfmodel takes one of --preset, --scenario and "
                          f"--elements, got {' and '.join(given)}")
    moved = [f"--{key} {getattr(args, key)}" for key in _ELEMENTS_FLAGS
             if getattr(args, key) != getattr(SimConfig, key)]
    if moved and not args.elements:
        raise ConfigError(f"--order, --machines and --timesteps apply to "
                          f"--elements only, got {', '.join(moved)} without it "
                          "(a flag given at its default value cannot be told "
                          "from no flag)")
    if args.preset in PRESET_SHEETS and args.penalty != "auto":
        raise ConfigError(f"--penalty applies to model scenarios only: the "
                          f"{args.preset} cost sheet is printed as published, "
                          f"got --penalty {args.penalty}")


def _machine_from(args) -> MachineModel:
    """The modeled machine of the perfmodel flags; a value that is not
    finite and positive names its flag."""
    for flag, value in (("--bandwidth", args.bandwidth), ("--peak", args.peak),
                        ("--cache-line", args.cache_line), ("--l2", args.l2)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{flag} {value!r}: machine parameters must be "
                              "finite and positive")
    if int(args.l2) < 1:
        raise ConfigError(f"--l2 {args.l2!r}: machine parameters must be "
                          "finite and positive (whole bytes)")
    return MachineModel(bandwidth=args.bandwidth, peak_flops=args.peak,
                        cache_line=args.cache_line, l2_bytes=int(args.l2))


def _elements_from(text: str) -> tuple:
    """The three element counts of ``--elements nx,ny,nz``."""
    values = text.split(",")
    if len(values) != 3:
        raise ConfigError(f"--elements {text!r}: expected nx,ny,nz, got "
                          f"{len(values)} values")
    try:
        return tuple(float(v) for v in values)
    except ValueError as exc:
        raise ConfigError(f"--elements {text!r}: {exc}") from None


def cmd_perfmodel(args) -> int:
    _check_perfmodel_flags(args)
    machine = _machine_from(args)
    if args.preset in PRESET_SHEETS:
        results = sheet_table(PRESET_SHEETS[args.preset], machine)
        title = PRESET_SHEETS[args.preset].description
    else:
        if args.scenario:
            config = config_from(_SCENARIO_BASE, _SCENARIO_KEYS,
                                 load_config_file(args.scenario), "scenario")
        elif args.preset == "bubble":
            config = BUBBLE_CONFIG
        elif args.preset == "planetary":
            config = PLANETARY_CONFIG
        elif args.elements:
            config = SimConfig(order=args.order,
                               elements=_elements_from(args.elements),
                               machines=args.machines, timesteps=args.timesteps)
        else:
            raise ConfigError("perfmodel needs --preset, --scenario or --elements")
        penal = {"auto": None, "on": True, "off": False}[args.penalty]
        results = model_table(config, machine, penalized=penal)
        title = (f"analytic ledger: p={config.order}, elements={config.elements}, "
                 f"{config.timesteps} steps on {config.machines} machines")
    print(emit_table(results, title))
    if args.out:
        _write_out(args.out, "perfmodel.csv", emit_csv(results))
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
        _write_out(args.out, "order_sweep.csv", text + "\n")
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
    except Exception as exc:
        note = worker_fault_note(exc)
        if note is not None:
            print(f"internal fault in {note}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return EXIT_FAULT
        if isinstance(exc, KernelBuildError):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BUILD
        if not isinstance(exc, (ConfigError, MeshError, ValueError)):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Verbs: field-info, solve, decay, lorentz, lift, verify, dump.
Flags: --config <path>, --preset <name>, --out <dir>, --seed <int>,
--threads <int>.

Configs are flat ``key = value`` text files ('#' starts a comment).  The
``verify`` verb writes a JSON report and exits 0 when every check passed,
1 when a violation was found, and 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__, fields, green, mesh, verify
from .errors import ConfigError, ConvergenceError

CONFIG_KEYS = {
    "dim", "family", "params", "alpha", "bound", "holder_exponent",
    "R", "n", "source", "experiments", "rel_tol", "max_iter",
    "eta", "radii_count", "quantity", "seed",
}


def parse_config(path):
    """Parse a flat key = value file into a dict of strings."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in CONFIG_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                out[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return out


def _field_from_config(cfg):
    dim = int(cfg.get("dim", 2))
    family = cfg.get("family", "identity")
    params = None
    if cfg.get("params"):
        params = [float(p) for p in cfg["params"].split(",")]
    field = fields.make_field(family, dim, params)
    # declared-constant overrides are cross-checked by field-info, not trusted
    overrides = {}
    for key in ("alpha", "bound", "holder_exponent"):
        if cfg.get(key):
            overrides[key] = float(cfg[key])
    if overrides:
        field = dataclasses.replace(field, **overrides)
    return field


def _grid_from_config(cfg, field):
    R = float(cfg.get("R", 2.0 if field.dim == 3 else 4.0))
    n = int(cfg.get("n", 65 if field.dim == 3 else 129))
    return mesh.build_grid(field.dim, R, n)


def _source_index(cfg, grid):
    if cfg.get("source"):
        point = [float(c) for c in cfg["source"].split(",")]
        return grid.node_at(point)
    return grid.center_index


def write_atomic(path, text):
    """Write text through a temp file and rename; report files stay whole."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_field(values, grid, path):
    """CSV dump: header x1,x2[,x3],value, one node per row in index order.

    Floats carry 17 significant digits, so identical inputs produce
    byte-identical files.
    """
    d = grid.dim
    header = ",".join(f"x{k + 1}" for k in range(d)) + ",value"
    lines = [header]
    coords = grid.node_coords
    vals = np.asarray(values).reshape(-1)
    if vals.size != grid.n_nodes:
        raise ConfigError("field length does not match the grid")
    for i in range(grid.n_nodes):
        cells = [f"{coords[i, k]:.17g}" for k in range(d)]
        cells.append(f"{vals[i]:.17g}")
        lines.append(",".join(cells))
    write_atomic(path, "\n".join(lines) + "\n")
    return path


def _json_ready(obj):
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return _json_ready(obj.tolist())
    return obj


def write_report(checks, elapsed, out_dir, preset=None, filename="report.json"):
    report = {
        "artifact": "greenbox",
        "version": __version__,
        "preset": preset,
        "runtime_seconds": elapsed,
        "checks": [_json_ready(dataclasses.asdict(c)) for c in checks],
        "overall_pass": all(c.passed for c in checks),
    }
    path = os.path.join(out_dir, filename)
    write_atomic(path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report, path


def _print_checks(checks):
    for c in checks:
        mark = "PASS" if c.passed else "FAIL"
        print(f"[{mark}] {c.name}  --  {c.anchor}")


def cmd_field_info(cfg, args):
    field = _field_from_config(cfg)
    print(f"family           {field.family}")
    print(f"dimension        {field.dim}")
    print(f"params           {field.params}")
    print(f"declared alpha   {field.alpha}")
    print(f"declared bound   {field.bound}")
    print(f"holder exponent  {field.holder_exponent}")
    alpha_hat = fields.verify_coercivity(field)
    periodic = fields.verify_periodicity(field, seed=args.seed or 0)
    print(f"alpha_hat        {alpha_hat:.12g}")
    print(f"periodic         {periodic}")
    return 0 if periodic else 1


def _solver_kwargs(cfg):
    out = {"rel_tol": float(cfg.get("rel_tol", 1e-10))}
    if cfg.get("max_iter"):
        out["max_iter"] = int(cfg["max_iter"])
    return out


def cmd_solve(cfg, args):
    field = _field_from_config(cfg)
    grid = _grid_from_config(cfg, field)
    y = _source_index(cfg, grid)
    col = green.green_column(field, grid, y, **_solver_kwargs(cfg))
    print(f"nodes            {grid.n_nodes}")
    print(f"iterations       {col.iterations}")
    print(f"residual         {col.residual:.3g}")
    print(f"max value        {col.values.max():.12g}")
    print(f"min value        {col.values.min():.12g}")
    if args.out:
        path = dump_field(col.values, grid, os.path.join(args.out, "green.csv"))
        print(f"wrote            {path}")
    return 0


def cmd_dump(cfg, args):
    if not args.out:
        raise ConfigError("dump requires --out <dir>")
    field = _field_from_config(cfg)
    grid = _grid_from_config(cfg, field)
    y = _source_index(cfg, grid)
    col = green.green_column(field, grid, y, **_solver_kwargs(cfg))
    quantity = cfg.get("quantity", "green")
    if quantity == "green":
        values = col.values
    elif quantity == "gradient_magnitude":
        values = np.linalg.norm(mesh.gradient_field(col.values, grid), axis=1)
    else:
        raise ConfigError(f"unknown dump quantity {quantity!r}")
    path = dump_field(values, grid, os.path.join(args.out, f"{quantity}.csv"))
    print(f"wrote            {path}")
    return 0


def _run_checks(run, out_dir, filename, preset=None):
    """Time ``run()``, print its checks and report them when out_dir is set.

    Returns the exit code: 0 when every check passed, 1 otherwise.
    """
    t0 = time.perf_counter()
    checks = run()
    elapsed = time.perf_counter() - t0
    _print_checks(checks)
    if out_dir:
        _, path = write_report(checks, elapsed, out_dir, preset=preset,
                               filename=filename)
        print(f"report           {path}")
    return 0 if all(c.passed for c in checks) else 1


def cmd_decay(cfg, args):
    dim = int(cfg.get("dim", 3))
    runner = verify.checks_decay3d if dim == 3 else verify.checks_log2d
    kwargs = {"rel_tol": float(cfg.get("rel_tol", 1e-10))}
    if cfg.get("family"):
        kwargs["families"] = tuple(f.strip()
                                   for f in cfg["family"].split(","))
    for key, cast in (("R", float), ("n", int), ("eta", float),
                      ("radii_count", int)):
        if cfg.get(key):
            kwargs[key] = cast(cfg[key])
    return _run_checks(lambda: runner(**kwargs), args.out, "decay.json")


def cmd_lorentz(cfg, args):
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    return _run_checks(lambda: verify.checks_lorentz(seed=seed), args.out,
                       "lorentz.json")


def cmd_lift(cfg, args):
    return _run_checks(lambda: verify.run_preset("lift")[0], args.out,
                       "lift.json", preset="lift")


def cmd_verify(cfg, args):
    name = str(args.preset or (cfg.get("experiments", "all") if cfg else "all"))
    return _run_checks(
        lambda: [c for part in name.split(",")
                 for c in verify.run_preset(part.strip())[0]],
        args.out or ".", "report.json", preset=name)


COMMANDS = {
    "field-info": cmd_field_info,
    "solve": cmd_solve,
    "decay": cmd_decay,
    "lorentz": cmd_lorentz,
    "lift": cmd_lift,
    "verify": cmd_verify,
    "dump": cmd_dump,
}


def make_parser():
    parser = argparse.ArgumentParser(
        prog="greenbox",
        description="Discrete Green functions of periodic divergence-form "
                    "operators: solvers and decay/norm verification.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--preset", help="named experiment preset "
                        f"(one of: {', '.join(sorted(verify.PRESETS))}, all)")
    parser.add_argument("--out", help="output directory for reports/dumps")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility; execution is "
                             "single-threaded and deterministic")
    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = parse_config(args.config) if args.config else {}
        return COMMANDS[args.command](cfg, args)
    except (ValueError, ConvergenceError) as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # exit 1 is reserved for "violation found"
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

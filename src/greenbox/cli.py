"""Command-line front end.

Verbs: field-info, solve, dump, verify, and the check aliases decay, lorentz
and lift.  Flags: --config <path>, --preset <name>, --out <dir>, --seed <int>.

Configs are flat ``key = value`` text files ('#' starts a comment).  The
check verbs write a JSON report and exit 0 when every check passed, 1 when
a violation was found, and 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
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


def _column_from_config(cfg):
    """Green column of the configured field, grid, source and solver."""
    field = _field_from_config(cfg)
    R = float(cfg.get("R", 2.0 if field.dim == 3 else 4.0))
    n = int(cfg.get("n", 65 if field.dim == 3 else 129))
    grid = mesh.build_grid(field.dim, R, n)
    y = grid.center_index
    if cfg.get("source"):
        y = grid.node_at([float(c) for c in cfg["source"].split(",")])
    kwargs = {"rel_tol": float(cfg.get("rel_tol", 1e-10))}
    if cfg.get("max_iter"):
        kwargs["max_iter"] = int(cfg["max_iter"])
    # assembled here, so that an oversized grid stops before the solver
    return green.green_column(field, grid, y,
                              system=mesh.assemble(field, grid), **kwargs)


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
    vals = np.asarray(values).reshape(-1)
    if vals.size != grid.n_nodes:
        raise ConfigError("field length does not match the grid")
    buf = io.StringIO()
    buf.write(",".join(f"x{k + 1}" for k in range(grid.dim)) + ",value\n")
    np.savetxt(buf, np.column_stack([grid.node_coords, vals]), fmt="%.17g",
               delimiter=",")
    write_atomic(path, buf.getvalue())
    return path


def _json_default(obj):
    """numpy arrays and scalars as their Python equivalents."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_report(checks, elapsed, out_dir, preset):
    report = {
        "artifact": "greenbox",
        "version": __version__,
        "preset": preset,
        "runtime_seconds": elapsed,
        "checks": [dataclasses.asdict(c) for c in checks],
        "overall_pass": all(c.passed for c in checks),
    }
    path = os.path.join(out_dir, "report.json")
    write_atomic(path, json.dumps(report, indent=2, sort_keys=True,
                                  default=_json_default) + "\n")
    return report, path


def cmd_field_info(cfg, args):
    field = _field_from_config(cfg)
    print(f"family           {field.family}")
    print(f"dimension        {field.dim}")
    print(f"params           {field.params}")
    print(f"declared alpha   {field.alpha}")
    print(f"declared bound   {field.bound}")
    print(f"holder exponent  {field.holder_exponent}")
    alpha_hat = fields.verify_coercivity(field)
    seed = args.seed if args.seed is not None else int(cfg.get("seed") or 0)
    periodic = fields.verify_periodicity(field, seed=seed)
    print(f"alpha_hat        {alpha_hat:.12g}")
    print(f"periodic         {periodic}")
    return 0 if periodic else 1


def cmd_solve(cfg, args):
    col = _column_from_config(cfg)
    print(f"nodes            {col.grid.n_nodes}")
    print(f"iterations       {col.iterations}")
    print(f"residual         {col.residual:.3g}")
    print(f"max value        {col.values.max():.12g}")
    print(f"min value        {col.values.min():.12g}")
    if args.out:
        path = dump_field(col.values, col.grid,
                          os.path.join(args.out, "green.csv"))
        print(f"wrote            {path}")
    return 0


def cmd_dump(cfg, args):
    if not args.out:
        raise ConfigError("dump requires --out <dir>")
    col = _column_from_config(cfg)
    quantity = cfg.get("quantity", "green")
    if quantity == "green":
        values = col.values
    elif quantity == "gradient_magnitude":
        values = np.linalg.norm(mesh.gradient_field(col.values, col.grid),
                                axis=1)
    else:
        raise ConfigError(f"unknown dump quantity {quantity!r}")
    path = dump_field(values, col.grid,
                      os.path.join(args.out, f"{quantity}.csv"))
    print(f"wrote            {path}")
    return 0


def cmd_verify(cfg, args):
    """Run presets with the config's run keys and write ``report.json``.

    lorentz and lift run their presets; decay runs decay3d, or log2d at dim 2.
    """
    if args.command == "decay":
        dim = int(cfg.get("dim", 3))
        if dim not in (2, 3):
            raise ConfigError(f"decay runs dim = 2 or 3, not {dim}")
        spec = "decay3d" if dim == 3 else "log2d"
    elif args.command == "verify":
        spec = args.preset or cfg.get("experiments", "all")
    else:
        spec = args.command
    overrides = {key: cast(cfg[key]) for key, cast in (
        ("R", float), ("n", int), ("rel_tol", float), ("eta", float),
        ("radii_count", int), ("seed", int)) if cfg.get(key)}
    if cfg.get("family"):
        overrides["families"] = tuple(f.strip()
                                      for f in cfg["family"].split(","))
    if args.seed is not None:
        overrides["seed"] = args.seed
    t0 = time.perf_counter()
    checks = verify.run_preset(spec, **overrides)
    elapsed = time.perf_counter() - t0
    for c in checks:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}  --  {c.anchor}")
    report, path = write_report(checks, elapsed, args.out or ".", spec)
    print(f"report           {path}")
    return 0 if report["overall_pass"] else 1


COMMANDS = {
    "field-info": cmd_field_info,
    "solve": cmd_solve,
    "decay": cmd_verify,
    "lorentz": cmd_verify,
    "lift": cmd_verify,
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
    parser.add_argument("--preset", help="comma-separated presets "
                        f"(of: {', '.join(verify.PRESETS)}, all)")
    parser.add_argument("--out", help="output directory for reports/dumps")
    parser.add_argument("--seed", type=int, default=None)
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

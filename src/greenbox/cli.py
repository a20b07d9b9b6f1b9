"""Command-line front end: one command per job.

field-info checks a coefficient field, solve computes one Green column (with
--out, as CSV) and verify runs check presets into report.json.  Configs are
flat ``key = value`` text files ('#' starts a comment).  A command refuses a
key or flag that ``COMMANDS`` does not list for it, an empty value and a
repeated key, before any work starts.  Exit codes: 0 passed, 1 a violation
found (verify) or a non-periodic field (field-info), 2 a usage or
configuration error.
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
                if not value:
                    raise ConfigError(f"{path}:{lineno}: {key} has no value")
                if key in out:
                    raise ConfigError(f"{path}:{lineno}: {key} is set twice")
                out[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return out


def _field_from_config(cfg):
    dim = int(cfg.get("dim", 2))
    family = cfg.get("family", "identity")
    params = None
    if "params" in cfg:
        params = [float(p) for p in cfg["params"].split(",")]
    return fields.make_field(family, dim, params)


def _column_from_config(cfg):
    """Green column of the configured field, grid, source and solver."""
    field = _field_from_config(cfg)
    R = float(cfg.get("R", 2.0 if field.dim == 3 else 4.0))
    n = int(cfg.get("n", 65 if field.dim == 3 else 129))
    grid = mesh.build_grid(field.dim, R, n)
    y = grid.center_index
    if "source" in cfg:
        y = grid.node_at([float(c) for c in cfg["source"].split(",")])
    kwargs = {"rel_tol": float(cfg.get("rel_tol", 1e-10))}
    if "max_iter" in cfg:
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
    # declared-constant overrides are cross-checked here, not trusted
    field = dataclasses.replace(_field_from_config(cfg), **{
        key: float(cfg[key]) for key in ("alpha", "bound") if key in cfg})
    print(f"family           {field.family}")
    print(f"dimension        {field.dim}")
    print(f"params           {field.params}")
    print(f"declared alpha   {field.alpha}")
    print(f"declared bound   {field.bound}")
    alpha_hat = fields.verify_coercivity(field)
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    periodic = fields.verify_periodicity(field, seed=seed)
    print(f"alpha_hat        {alpha_hat:.12g}")
    print(f"periodic         {periodic}")
    return 0 if periodic else 1


def cmd_solve(cfg, args):
    """One Green column; with --out, its ``quantity`` as ``<quantity>.csv``."""
    quantity = cfg.get("quantity", "green")
    if quantity not in ("green", "gradient_magnitude"):
        raise ConfigError(f"unknown quantity {quantity!r}")
    if "quantity" in cfg and not args.out:
        raise ConfigError("quantity is written only with --out <dir>")
    col = _column_from_config(cfg)
    print(f"nodes            {col.grid.n_nodes}")
    print(f"iterations       {col.iterations}")
    print(f"residual         {col.residual:.3g}")
    print(f"max value        {col.values.max():.12g}")
    print(f"min value        {col.values.min():.12g}")
    if args.out:
        values = col.values
        if quantity == "gradient_magnitude":
            values = np.linalg.norm(mesh.gradient_field(values, col.grid),
                                    axis=1)
        path = dump_field(values, col.grid,
                          os.path.join(args.out, f"{quantity}.csv"))
        print(f"wrote            {path}")
    return 0


RUN_KEYS = {"R": float, "n": int, "rel_tol": float, "eta": float,
            "radii_count": int, "seed": int}


def cmd_verify(cfg, args):
    """Run presets (default all) with the config's run keys and write
    ``report.json``."""
    spec = args.preset or "all"
    overrides = {key: cast(cfg[key]) for key, cast in RUN_KEYS.items()
                 if key in cfg}
    if "family" in cfg:
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


FIELD_KEYS = {"dim", "family", "params"}

# each command, the config keys it reads and its flags besides --config
COMMANDS = {
    "field-info": (cmd_field_info, FIELD_KEYS | {"alpha", "bound", "seed"},
                   {"seed"}),
    "solve": (cmd_solve, FIELD_KEYS | {"R", "n", "source", "rel_tol",
                                       "max_iter", "quantity"}, {"out"}),
    "verify": (cmd_verify, {"family", *RUN_KEYS}, {"preset", "out", "seed"}),
}
CONFIG_KEYS = set().union(*(keys for _, keys, _ in COMMANDS.values()))


def make_parser():
    parser = argparse.ArgumentParser(
        prog="greenbox",
        description="Discrete Green functions of periodic divergence-form "
                    "operators: solvers and decay/norm verification.")
    parser.add_argument("command", choices=COMMANDS)
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
        run, keys, flags = COMMANDS[args.command]
        cfg = parse_config(args.config) if args.config else {}
        unread = sorted(cfg.keys() - keys) + [
            f"--{flag}" for flag in ("preset", "out", "seed")
            if getattr(args, flag) is not None and flag not in flags]
        if unread:
            raise ConfigError(
                f"{args.command} does not read {', '.join(unread)}")
        return run(cfg, args)
    except (ValueError, ConvergenceError) as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # exit 1 is reserved for "violation found"
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

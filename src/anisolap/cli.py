"""Batch command-line front end.

Commands
--------
eigen     solve one fundamental-frequency problem; JSON diagnostics plus an
          eigenfunction CSV
optimize  minimize over rotations at a coercivity level; JSON result plus a
          rotation-profile CSV
sweep     tabulate profile values over user theta/a/p grids as CSV
verify    run the verification suites; JSON report, exit 0 iff all entries pass
bounds    tabulate the closed-form quantitative constants as CSV

Flags mirror the run configuration; a JSON config file passed with --config
overrides flag values.  Numbers are serialized with 17 significant digits and
output files are written atomically.  The JSON envelope carries a timestamp
outside the deterministic ``payload`` section so repeated runs with the same
seed produce byte-identical payloads.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
import tempfile

import numpy as np

from .geometry import domain_from_json, domain_to_json
from .mesh import build_mesh, write_nodal_values_csv
from .optimizer import VERIFY_DEFAULTS, lambda_min, run_verification
from .quadform import QuadForm, quant_lower_constant, quant_upper_bound
from .solver import SolverConvergenceError, SolverOptions, solve_p

SCHEMA_VERSION = 1

_DEFAULTS = {
    "command": None,
    "domain": "square",
    "p": 2.0,
    "a": 0.25,
    "b": None,
    "mesh_level": 5,
    "grid_n": 17,
    "tol": 1e-9,
    "out": "out",
    "seed": 0,
    "n_boundary": 128,
    "form": None,
    "thetas": None,
    "a_values": None,
    "b_values": None,
    "p_values": None,
    "c0": 1.0,
    "lam1p": 1.0,
    "verify": None,
}


class ConfigError(ValueError):
    pass


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ConfigError(f"cannot serialize non-finite number {x}")
    return format(float(x), ".17g")


def dumps_stable(obj, indent: int = 0) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {dumps_stable(v, indent + 2)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad}  {dumps_stable(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise ConfigError(f"cannot serialize value of type {type(obj).__name__}")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_report(path: str, payload: dict) -> None:
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "payload": payload,
    }
    _atomic_write(path, dumps_stable(envelope) + "\n")


def _parse_args(argv) -> dict:
    ap = argparse.ArgumentParser(
        prog="anisolap",
        description="Fundamental frequencies and optimal anisotropies of planar "
        "quadratic-form p-Laplace operators.",
    )
    ap.add_argument("--command", choices=["eigen", "optimize", "sweep", "verify", "bounds"])
    ap.add_argument("--config", help="JSON config file; overrides flags")
    ap.add_argument("--domain", help="domain name or inline JSON object")
    ap.add_argument("--domain-file", help="JSON file holding the domain spec")
    ap.add_argument("--p", type=float)
    ap.add_argument("--a", type=float)
    ap.add_argument("--b", type=float)
    ap.add_argument("--level", type=int, dest="mesh_level")
    ap.add_argument("--grid-n", type=int, dest="grid_n")
    ap.add_argument("--tol", type=float)
    ap.add_argument("--n-boundary", type=int, dest="n_boundary")
    ap.add_argument("--out")
    ap.add_argument("--seed", type=int)
    ns = ap.parse_args(argv)

    cfg = dict(_DEFAULTS)
    for key in ("command", "p", "a", "b", "mesh_level", "grid_n", "tol", "out", "seed", "n_boundary"):
        val = getattr(ns, key)
        if val is not None:
            cfg[key] = val
    if ns.domain_file:
        with open(ns.domain_file, "r", encoding="utf-8") as fh:
            cfg["domain"] = json.load(fh)
    elif ns.domain:
        text = ns.domain.strip()
        cfg["domain"] = json.loads(text) if text.startswith("{") else text
    if ns.config:
        with open(ns.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        cfg.update(file_cfg)
    return cfg


def _number(value, name: str, kind=float):
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc


def _numbers(values, name: str, ok=lambda x: True, what: str = "") -> list[float]:
    """The entries of a non-empty list of numbers, each satisfying ``ok``."""
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{name} must be a non-empty list of numbers, got {values!r}")
    nums = [_number(x, name) for x in values]
    for x in nums:
        if not ok(x):
            raise ConfigError(f"every entry of {name} must {what}, got {x!r}")
    return nums


def _exponents(values, name: str) -> None:
    _numbers(values, name, lambda p: p > 1.0, "exceed 1")


def _verify_config(cfg: dict) -> dict:
    """The config passed to ``run_verification``: the ``verify`` object over
    the flag values."""
    flags = {
        "domain": cfg["domain"],
        "a": float(cfg["a"]),
        "p_list": [float(cfg["p"])],
        "level": int(cfg["mesh_level"]),
        "grid_n": int(cfg["grid_n"]),
        "n_boundary": int(cfg["n_boundary"]),
        "seed": int(cfg["seed"]),
        "tol": float(cfg["tol"]),
    }
    if cfg["b"] is not None:
        flags["b"] = float(cfg["b"])
    return {**flags, **(cfg["verify"] or {})}


def _validate_verify(v: dict) -> None:
    _exponents(v["p_list"], "verify.p_list")
    names = VERIFY_DEFAULTS["suites"]
    suites = v["suites"]
    if not isinstance(suites, list) or not suites or any(s not in names for s in suites):
        raise ConfigError(f"verify.suites must be a non-empty list from {names}, got {suites!r}")
    a, b = _number(v["a"], "verify.a"), _number(v["b"], "verify.b")
    if not 0.0 < a <= b < 1.0:
        raise ConfigError(f"verify needs 0 < a <= b < 1, got a={a}, b={b}")
    seq = _numbers(v["a_sequence"], "verify.a_sequence", lambda x: 0.0 < x < 1.0, "lie in (0, 1)")
    if any(a2 >= a1 for a1, a2 in zip(seq, seq[1:])):
        raise ConfigError(f"verify.a_sequence must be strictly decreasing, got {seq}")
    if _number(v["n_samples"], "verify.n_samples", int) < 1:
        raise ConfigError(f"verify.n_samples must be at least 1, got {v['n_samples']}")


def _validate(cfg: dict) -> dict:
    if cfg["command"] is None:
        raise ConfigError("missing command (use --command or a config file)")
    if cfg["command"] not in ("eigen", "optimize", "sweep", "verify", "bounds"):
        raise ConfigError(f"unknown command {cfg['command']!r}")
    if not _number(cfg["p"], "p") > 1.0:
        raise ConfigError(f"p must exceed 1, got {cfg['p']}")
    if not 0.0 < _number(cfg["a"], "a") <= 1.0:
        raise ConfigError(f"a must lie in (0, 1], got {cfg['a']}")
    if cfg["b"] is not None:
        _number(cfg["b"], "b")
    if not 2 <= _number(cfg["mesh_level"], "mesh_level", int) <= 9:
        raise ConfigError(f"mesh_level must lie in [2, 9], got {cfg['mesh_level']}")
    if _number(cfg["grid_n"], "grid_n", int) < 9:
        raise ConfigError(f"grid_n must be at least 9, got {cfg['grid_n']}")
    if not _number(cfg["tol"], "tol") > 0.0:
        raise ConfigError(f"tol must be positive, got {cfg['tol']}")
    if _number(cfg["n_boundary"], "n_boundary", int) < 16:
        raise ConfigError(f"n_boundary must be at least 16, got {cfg['n_boundary']}")
    _number(cfg["seed"], "seed", int)
    _number(cfg["c0"], "c0")
    _number(cfg["lam1p"], "lam1p")
    if cfg["p_values"] is not None:
        _exponents(cfg["p_values"], "p_values")
    if cfg["thetas"] is not None:
        _numbers(cfg["thetas"], "thetas", lambda t: 0.0 <= t <= 0.5 * math.pi, "lie in [0, pi/2]")
    if cfg["a_values"] is not None:
        _numbers(cfg["a_values"], "a_values", lambda a: 0.0 < a <= 1.0, "lie in (0, 1]")
    if cfg["b_values"] is not None:
        _numbers(cfg["b_values"], "b_values")
    try:
        domain_from_json(cfg["domain"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad domain spec: {exc}") from exc
    if cfg["form"]:
        try:
            QuadForm.from_dict(cfg["form"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"bad form {cfg['form']!r}: {exc}") from exc
    if cfg["verify"] is not None and not isinstance(cfg["verify"], dict):
        raise ConfigError("verify must be a JSON object")
    if cfg["command"] == "verify":
        _validate_verify({**VERIFY_DEFAULTS, **_verify_config(cfg)})
    return cfg


def _out_paths(cfg: dict, suffix: str) -> tuple[str, str]:
    base = str(cfg["out"])
    if base.endswith(".json"):
        base = base[: -len(".json")]
    return base + ".json", base + suffix


def _cmd_eigen(cfg: dict) -> int:
    domain = domain_from_json(cfg["domain"])
    form = QuadForm.from_dict(cfg["form"]) if cfg["form"] else QuadForm.identity()
    opts = SolverOptions(tol=float(cfg["tol"]))
    options = {"tol": opts.tol, "max_iter": opts.max_iter}
    mesh = build_mesh(domain, int(cfg["mesh_level"]), int(cfg["n_boundary"]))
    json_path, csv_path = _out_paths(cfg, "_eigenfunction.csv")
    try:
        res = solve_p(mesh, form, float(cfg["p"]), opts)
    except SolverConvergenceError as exc:
        payload = {
            "command": "eigen",
            "status": "failed",
            "partial": True,
            "error": str(exc),
            "result": exc.best.to_dict(),
            "options": options,
        }
        _write_report(json_path, payload)
        print(f"eigen: solver failed, partial output in {json_path}", file=sys.stderr)
        return 1
    payload = {
        "command": "eigen",
        "status": "ok",
        "domain": domain_to_json(domain),
        "mesh_level": int(cfg["mesh_level"]),
        "result": res.to_dict(),
        "options": options,
    }
    _write_report(json_path, payload)
    write_nodal_values_csv(mesh, res.u, csv_path)
    print(f"lambda = {res.lam:.12g}  ({json_path})")
    return 0


def _cmd_optimize(cfg: dict) -> int:
    domain = domain_from_json(cfg["domain"])
    a = float(cfg["a"])
    if not 0.0 < a < 1.0:
        raise ConfigError(f"optimize needs a in (0, 1), got {a}")
    opts = SolverOptions(tol=float(cfg["tol"]))
    json_path, csv_path = _out_paths(cfg, "_profile.csv")
    try:
        res = lambda_min(
            domain,
            a,
            float(cfg["p"]),
            int(cfg["grid_n"]),
            opts,
            level=int(cfg["mesh_level"]),
            n_boundary=int(cfg["n_boundary"]),
        )
    except SolverConvergenceError as exc:
        payload = {
            "command": "optimize",
            "status": "failed",
            "partial": True,
            "error": str(exc),
        }
        _write_report(json_path, payload)
        print(f"optimize: solver failed, partial output in {json_path}", file=sys.stderr)
        return 1
    payload = {
        "command": "optimize",
        "status": "ok",
        "domain": domain_to_json(domain),
        "result": res.to_dict(),
    }
    _write_report(json_path, payload)
    lines = ["theta,lambda"]
    lines += [f"{_fmt_float(t)},{_fmt_float(v)}" for t, v in res.theta_profile]
    _atomic_write(csv_path, "\n".join(lines) + "\n")
    print(
        f"lambda_min = {res.lambda_min:.12g} at theta = {res.theta_star:.6g}  ({json_path})"
    )
    return 0


def _cmd_sweep(cfg: dict) -> int:
    from .optimizer import profile_value

    domain = domain_from_json(cfg["domain"])
    thetas = cfg["thetas"] or list(np.linspace(0.0, 0.5 * math.pi, int(cfg["grid_n"])))
    a_values = cfg["a_values"] or [float(cfg["a"])]
    p_values = cfg["p_values"] or [float(cfg["p"])]
    opts = SolverOptions(tol=float(cfg["tol"]))
    lines = ["theta,a,p,lambda"]
    for p in p_values:
        for a in a_values:
            for th in thetas:
                val, _ = profile_value(
                    domain, float(th), float(a), float(p), opts,
                    level=int(cfg["mesh_level"]), n_boundary=int(cfg["n_boundary"]),
                )
                lines.append(
                    f"{_fmt_float(th)},{_fmt_float(a)},{_fmt_float(p)},{_fmt_float(val)}"
                )
    csv_path = str(cfg["out"])
    if not csv_path.endswith(".csv"):
        csv_path += ".csv"
    _atomic_write(csv_path, "\n".join(lines) + "\n")
    print(f"sweep written to {csv_path}")
    return 0


def _cmd_verify(cfg: dict) -> int:
    report = run_verification(_verify_config(cfg))
    json_path, _ = _out_paths(cfg, "")
    payload = {"command": "verify", "status": "ok", "report": report}
    _write_report(json_path, payload)
    for e in report["entries"]:
        print(f"{'PASS' if e['passed'] else 'FAIL'}  {e['name']}")
    print(
        f"{report['n_passed']}/{report['n_entries']} entries passed  ({json_path})"
    )
    return 0 if report["all_passed"] else 1


def _cmd_bounds(cfg: dict) -> int:
    a_values = cfg["a_values"] or [float(cfg["a"])]
    b_values = cfg["b_values"] or [float(cfg["b"]) if cfg["b"] is not None else 0.5]
    p_values = cfg["p_values"] or [float(cfg["p"])]
    c0 = float(cfg["c0"])
    lam1p = float(cfg["lam1p"])
    lines = ["a,b,p,upper_ratio_bound,lower_difference_constant"]
    for p in p_values:
        for a in a_values:
            for b in b_values:
                a, b, p = float(a), float(b), float(p)
                if not (0.0 < a <= b < 1.0):
                    continue
                up = quant_upper_bound(a, b, p)
                lo = quant_lower_constant(a, b, p, c0, lam1p)
                lines.append(
                    f"{_fmt_float(a)},{_fmt_float(b)},{_fmt_float(p)},"
                    f"{_fmt_float(up)},{_fmt_float(lo)}"
                )
    csv_path = str(cfg["out"])
    if not csv_path.endswith(".csv"):
        csv_path += ".csv"
    _atomic_write(csv_path, "\n".join(lines) + "\n")
    print(f"bounds table written to {csv_path}")
    return 0


def run(cfg: dict) -> int:
    cfg = _validate(cfg)
    command = cfg["command"]
    if command == "eigen":
        return _cmd_eigen(cfg)
    if command == "optimize":
        return _cmd_optimize(cfg)
    if command == "sweep":
        return _cmd_sweep(cfg)
    if command == "verify":
        return _cmd_verify(cfg)
    return _cmd_bounds(cfg)


def main(argv=None) -> int:
    try:
        cfg = _parse_args(argv if argv is not None else sys.argv[1:])
        return run(cfg)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

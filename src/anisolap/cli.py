"""Batch command-line front end.

Commands
--------
eigen     solve one fundamental-frequency problem; JSON diagnostics plus an
          eigenfunction CSV
optimize  minimize over rotations at a coercivity level; JSON result plus a
          rotation-profile CSV, whose values are on the mesh one level
          below mesh_level when mesh_level >= 4 (the result's profile_level)
verify    run the verification suites; JSON report, exit 0 iff all entries pass

``optimize``'s theta in [0, pi/2] covers beta >= 0 only: exact on domains that
y -> -y maps onto a translate (disks, rectangles), elsewhere an upper bound on
the class minimum.

The library takes typed arguments; this module reads configs and writes
files.  Its runs keep the library's iteration budget and angle tolerance
(``solver.MAX_ITER``, ``lambda_min``'s ``theta_tol``) and read the ``tol``
and ``grid_n`` defaults from it (``solver.DEFAULT_TOL``,
``optimizer.DEFAULT_GRID_N``).  The run configuration is one flat JSON
object: ``_KEYS`` is its one table, giving each key's default, kind and
range.  Flags set some of its keys, and a config file passed with --config
overrides flag values.  Its keys:

  command              one of the commands above
  domain               a name (square, disk, lshape) or a domain JSON object
  p, a                 exponent and coercivity level
  b                    upper level, read by verify only
  mesh_level           refinement level of the domain's mesh (--level), in [2, 9]
  grid_n               angles in the optimize and verify searches
  tol                  eigenvalue tolerance (see --tol)
  out                  output path, without or with its suffix
  seed                 seed of the verify samples
  n_boundary           validated (at least 16) and changes no mesh
  form                 any positive definite eigen form {"alpha", "beta", "gamma"}
  p_values             exponent list of verify (else [p]), no repeats
  n_samples, n_pairs,  read by verify only: rigidity samples and pairs, the
  a_sequence, suites   relaxation levels and the suites to run

Numbers are serialized with 17 significant digits, in the JSON reports and
the CSV files alike, and output files are written atomically.  The JSON
envelope carries a timestamp outside the deterministic ``payload`` section so
repeated runs with the same seed produce byte-identical payloads.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
import tempfile
from typing import Callable, NamedTuple

import numpy as np

from . import solver
from .geometry import DomainSpec, GeometryError, domain_from_json, domain_to_json, read_number
from .mesh import build_mesh
from .optimizer import DEFAULT_GRID_N, lambda_min, run_verification
from .quadform import QuadForm
from .solver import SolverConvergenceError, solve_p

SCHEMA_VERSION = 1
SUITES = ("rigidity", "quantitative", "relaxation", "disk", "rectangle")


class _Key(NamedTuple):
    default: object
    kind: type | None = None  # float, int, str, list (of distinct floats) or None (as given)
    ok: Callable = lambda x: True  # the value's, or each list entry's, condition
    words: str = ""  # that condition, as the error message says it


# An exponent above 20 can overflow Q^(p/2) in a descent's energy (CHANGES.md:
# "The solver takes a tolerance, not an options object", with the overflowing
# exponents in "Contracts in the source").
_P_RANGE = (lambda p: 1.0 < p <= 20.0, "exceed 1 and be at most 20")
# The run configuration's one table: every key, its default, kind and range; a
# key whose default is None may be None.  Below a = 1e-15 extremal_form's rounded
# alpha gamma - beta^2 = a leaves some angles with no positive definite form.
_KEYS = {
    "command": _Key(None),
    "domain": _Key("square"),
    "p": _Key(2.0, float, *_P_RANGE),
    "a": _Key(0.25, float, lambda a: 1e-12 <= a <= 1.0, "lie in (0, 1] and be at least 1e-12"),
    "mesh_level": _Key(5, int, lambda n: 2 <= n <= 9, "lie in [2, 9]"),
    "grid_n": _Key(DEFAULT_GRID_N, int, lambda n: n >= 9, "be at least 9"),
    "tol": _Key(solver.DEFAULT_TOL, float, lambda t: 0.0 < t < math.inf, "be positive and finite"),
    "out": _Key("out", str, lambda s: s != "", "be a non-empty string"),
    "seed": _Key(0, int, lambda n: n >= 0, "be nonnegative"),
    "n_boundary": _Key(128, int, lambda n: n >= 16, "be at least 16"),
    "form": _Key(None),
    "p_values": _Key(None, list, *_P_RANGE),
    "b": _Key(0.5, float),
    "n_samples": _Key(5, int, lambda n: n >= 1, "be at least 1"),
    "n_pairs": _Key(8, int, lambda n: n >= 1, "be at least 1"),
    "a_sequence": _Key(
        [0.5, 0.25], list, lambda a: 1e-12 <= a < 1.0, "lie in (0, 1) and be at least 1e-12"
    ),
    "suites": _Key(list(SUITES)),
}


class ConfigError(ValueError):
    pass


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
        if not math.isfinite(obj):
            raise ConfigError(f"cannot serialize non-finite number {obj}")
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise ConfigError(f"cannot serialize value of type {type(obj).__name__}")


def _atomic_write(path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it onto
    ``path``: readers see the old file or the whole new one, never a part."""
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


def _write_csv(path, header: str, rows) -> None:
    """Write ``rows``, one number per field of ``header``, as CSV lines with
    floats at 17 significant digits."""
    table = np.asarray(rows, dtype=float)
    width = header.count(",") + 1
    if table.ndim != 2 or table.shape[1] != width:
        raise ValueError(f"every row must hold one number per field of {header!r}")
    # one formatting pass; "%.17g" gives the same text as format(x, ".17g")
    line = ",".join(["%.17g"] * width) + "\n"
    _atomic_write(path, header + "\n" + (line * len(table)) % tuple(table.ravel().tolist()))


def _write_report(path: str, payload: dict) -> None:
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "payload": payload,
    }
    _atomic_write(path, dumps_stable(envelope) + "\n")


def _parse_args(argv) -> dict:
    """The keys that flags set, updated by those of the config file."""
    ap = argparse.ArgumentParser(
        prog="anisolap",
        description="Fundamental frequencies and optimal anisotropies of planar "
        "quadratic-form p-Laplace operators.",
    )
    ap.add_argument("--command", choices=list(_COMMANDS))
    ap.add_argument("--config", help="JSON config file; overrides flags")
    ap.add_argument("--domain", help="domain name or inline JSON object")
    ap.add_argument("--domain-file", help="JSON file holding the domain spec")
    ap.add_argument("--p", type=float)
    ap.add_argument("--a", type=float)
    ap.add_argument("--b", type=float)
    ap.add_argument("--level", type=int, dest="mesh_level")
    ap.add_argument("--grid-n", type=int, dest="grid_n")
    ap.add_argument(
        "--tol", type=float,
        help=f"eigenvalue tolerance (default {solver.DEFAULT_TOL:g}): at p = 2 the inverse "
        "iteration stops at this relative change; at other p the p-descent stops at dual-norm "
        f"residual sqrt(tol/{solver.RESIDUAL_SAFETY:g}), from a p = 2 start stopped at the "
        f"change max(tol, {solver.START_TOL:g})",
    )
    ap.add_argument(
        "--n-boundary", type=int, dest="n_boundary",
        help="validated (at least 16) and kept for existing configs; it no longer changes "
        "any mesh, a disk being meshed from its inscribed hexagon",
    )
    ap.add_argument("--out")
    ap.add_argument("--seed", type=int)
    ns = ap.parse_args(argv)

    cfg = {key: value for key, value in vars(ns).items() if key in _KEYS and value is not None}
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
        return read_number(value, name, kind)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _typed(name: str, value):
    """``value`` read as the kind of the key ``name``; it must meet the key's
    condition."""
    key = _KEYS[name]
    if key.kind is None or (value is None and key.default is None):
        return value
    if key.kind is str:
        if not isinstance(value, str) or not key.ok(value):
            raise ConfigError(f"{name} must {key.words}, got {value!r}")
        return value
    if key.kind is list:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{name} must be a non-empty list of numbers, got {value!r}")
        nums = [_number(x, name) for x in value]
        for x in nums:
            if not key.ok(x):
                raise ConfigError(f"every entry of {name} must {key.words}, got {x!r}")
        if len(set(nums)) < len(nums):
            raise ConfigError(f"{name} must not repeat an entry, got {nums}")
        return nums
    x = _number(value, name, key.kind)
    if not key.ok(x):
        raise ConfigError(f"{name} must {key.words}, got {value}")
    return x


def _validate(cfg: dict) -> tuple[dict, DomainSpec]:
    """Check every key of ``cfg``; returns the config with every key of
    ``_KEYS`` as its kind, the form parsed, and the parsed domain."""
    unknown = [str(key) for key in cfg if key not in _KEYS]
    if unknown:
        raise ConfigError("unknown config key " + ", ".join(unknown))
    command = cfg.get("command")
    if command is None:
        raise ConfigError("missing command (use --command or a config file)")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    typed = {name: _typed(name, cfg.get(name, key.default)) for name, key in _KEYS.items()}
    suites = typed["suites"]
    if not isinstance(suites, list) or not suites or any(s not in SUITES for s in suites):
        raise ConfigError(f"suites must be a non-empty list from {list(SUITES)}, got {suites!r}")
    seq = typed["a_sequence"]
    if any(a2 >= a1 for a1, a2 in zip(seq, seq[1:])):
        raise ConfigError(f"a_sequence must be strictly decreasing, got {seq}")
    a, b = typed["a"], typed["b"]
    if command == "verify" and not 0.0 < a <= b < 1.0:
        raise ConfigError(f"verify needs 0 < a <= b < 1, got a={a}, b={b}")
    if command == "optimize" and not a < 1.0:
        raise ConfigError(f"optimize needs a in (0, 1), got {a}")
    form = typed["form"]
    if form is not None:
        try:
            typed["form"] = QuadForm.from_dict(form)
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"bad form {form!r}: {exc}") from exc
    try:
        return typed, domain_from_json(typed["domain"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad domain spec: {exc}") from exc


def _out_paths(cfg: dict, suffix: str) -> tuple[str, str]:
    base = str(cfg["out"])
    if base.endswith(".json"):
        base = base[: -len(".json")]
    return base + ".json", base + suffix


def _report_failure(command: str, json_path: str, exc: SolverConvergenceError, **extra) -> int:
    """Write the failed-run payload of ``command`` and return exit code 1."""
    payload = {"command": command, "status": "failed", "partial": True, "error": str(exc), **extra}
    _write_report(json_path, payload)
    print(f"{command}: solver failed, partial output in {json_path}", file=sys.stderr)
    return 1


def _cmd_eigen(cfg: dict, domain: DomainSpec) -> int:
    form = cfg["form"] if cfg["form"] is not None else QuadForm.identity()
    options = {"tol": cfg["tol"], "max_iter": solver.MAX_ITER}
    mesh = build_mesh(domain, cfg["mesh_level"])
    json_path, csv_path = _out_paths(cfg, "_eigenfunction.csv")
    try:
        res = solve_p(mesh, form, cfg["p"], cfg["tol"])
    except SolverConvergenceError as exc:
        # a solve that broke off can leave a pair that is not finite: null
        result = {k: v if not isinstance(v, float) or math.isfinite(v) else None
                  for k, v in exc.best.to_dict().items()}
        return _report_failure("eigen", json_path, exc, result=result, options=options)
    payload = {
        "command": "eigen",
        "status": "ok",
        "domain": domain_to_json(domain),
        "mesh_level": cfg["mesh_level"],
        "result": res.to_dict(),
        "options": options,
    }
    _write_report(json_path, payload)
    _write_csv(csv_path, "x,y,u", np.column_stack([mesh.nodes, res.u]))
    print(f"lambda = {res.lam:.12g}  ({json_path})")
    return 0


def _cmd_optimize(cfg: dict, domain: DomainSpec) -> int:
    json_path, csv_path = _out_paths(cfg, "_profile.csv")
    try:
        res = lambda_min(
            domain, cfg["a"], cfg["p"], cfg["grid_n"], cfg["tol"], level=cfg["mesh_level"]
        )
    except SolverConvergenceError as exc:
        profile = [[t, v] for t, v in exc.theta_profile]
        return _report_failure(
            "optimize", json_path, exc, theta_profile=profile, mirrored=exc.mirrored
        )
    payload = {
        "command": "optimize",
        "status": "ok",
        "domain": domain_to_json(domain),
        "result": res.to_dict(),
    }
    _write_report(json_path, payload)
    _write_csv(csv_path, "theta,lambda", res.theta_profile)
    print(
        f"lambda_min = {res.lambda_min:.12g} at theta = {res.theta_star:.6g}  ({json_path})"
    )
    return 0


def _cmd_verify(cfg: dict, domain: DomainSpec) -> int:
    json_path, _ = _out_paths(cfg, "")
    config = {
        **{key: cfg[key] for key in ("domain", "a", "b")},
        "p_list": cfg["p_values"] or [cfg["p"]],
        "level": cfg["mesh_level"],
        **{key: cfg[key] for key in ("grid_n", "n_samples", "n_pairs", "a_sequence")},
        **{key: cfg[key] for key in ("seed", "tol", "suites")},
    }
    args = {key: value for key, value in config.items() if key != "domain"}
    try:
        report = {"config": config, **run_verification(domain, **args)}
    except SolverConvergenceError as exc:
        return _report_failure("verify", json_path, exc)
    payload = {"command": "verify", "status": "ok", "report": report}
    _write_report(json_path, payload)
    for e in report["entries"]:
        print(f"{'PASS' if e['passed'] else 'FAIL'}  {e['name']}")
    print(
        f"{report['n_passed']}/{report['n_entries']} entries passed  ({json_path})"
    )
    return 0 if report["all_passed"] else 1


_COMMANDS = {
    "eigen": _cmd_eigen,
    "optimize": _cmd_optimize,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    """Read and validate the config, parse its domain and form once, and run
    its command."""
    try:
        cfg, domain = _validate(_parse_args(argv if argv is not None else sys.argv[1:]))
        return _COMMANDS[cfg["command"]](cfg, domain)
    # exit 2 on bad input, an input file that cannot be read or an output not written
    except (ConfigError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # and on a domain admitted by its sizes that is too small to mesh
    except GeometryError as exc:
        print(f"error: cannot mesh the domain: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

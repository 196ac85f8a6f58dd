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
range.  The flags --command, --domain, --p, --a, --b, --level, --grid-n,
--tol, --out, --seed and --n-boundary set the keys of the same name, with
dashes for underscores, except --level, which sets mesh_level; a flag's
value is the next argument or follows "=", and its last use wins.
--domain-file names a JSON file holding the domain, in place of --domain,
and --config a JSON file holding keys, which override flag values.  -h or
--help prints this text.  Its keys:

  command              one of the commands above
  domain               a name (square, disk, lshape) or a domain JSON object
  p, a                 exponent and coercivity level
  b                    upper level, read by verify only
  mesh_level           refinement level of the domain's mesh, in [2, 9]
  grid_n               angles in the optimize and verify searches
  tol                  eigenvalue tolerance (its stopping rule ends --help)
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

import datetime
import json
import math
import os
import sys
import tempfile
from pathlib import Path
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
# The key that each flag sets, None for the two that name JSON files.
_FLAGS = {
    "--command": "command", "--domain": "domain", "--p": "p", "--a": "a", "--b": "b",
    "--level": "mesh_level", "--grid-n": "grid_n", "--tol": "tol", "--out": "out",
    "--seed": "seed", "--n-boundary": "n_boundary", "--config": None, "--domain-file": None,
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
        if not obj:
            return "[]"
        items = [f"{pad}  {dumps_stable(v, indent + 2)}" for v in obj]
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


def _json(text: str, source: str):
    """``text`` read as JSON; ``source`` names it if it nests too deep to read."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ConfigError(f"{source} nests its JSON too deeply") from None


def _parse_args(argv) -> dict:
    """The keys that flags set, updated by those of the config file."""
    cfg, files, rest = {}, {}, list(argv)
    while rest:
        arg = rest.pop(0)
        flag, eq, text = arg.partition("=")
        if flag not in _FLAGS:
            raise ConfigError(f"unknown flag {arg!r}")
        if not eq and (not rest or rest[0].startswith("--")):
            raise ConfigError(f"{flag} needs a value")
        name, text = _FLAGS[flag], text if eq else rest.pop(0)
        kind = name and _KEYS[name].kind
        if name is None:
            files[flag] = text
        elif kind in (float, int):
            try:
                cfg[name] = kind(text)
            except ValueError:
                words = "an integer" if kind is int else "a number"
                raise ConfigError(f"{flag} must be {words}, got {text!r}") from None
        elif name == "domain":
            cfg[name] = _json(text, flag) if text.strip().startswith("{") else text.strip()
        else:
            cfg[name] = text
    if "domain" in cfg and "--domain-file" in files:
        raise ConfigError("--domain and --domain-file both give the domain; give one of them")
    files = {flag: _json(Path(path).read_text("utf-8"), path) for flag, path in files.items()}
    if "--domain-file" in files:
        cfg["domain"] = files["--domain-file"]
    if not isinstance(files.get("--config", {}), dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg | files.get("--config", {})


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
    base = cfg["out"].removesuffix(".json")
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
    its command; with -h or --help, print the module docstring and what tol
    stops."""
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(f"{__doc__}\ntol (default {solver.DEFAULT_TOL:g}): at p = 2 the inverse iteration "
              "stops at this relative change;\nat other p the p-descent stops at dual-norm "
              f"residual sqrt(tol/{solver.RESIDUAL_SAFETY:g}),\nfrom a p = 2 start stopped at "
              f"the change max(tol, {solver.START_TOL:g}).")
        return 0
    try:
        cfg, domain = _validate(_parse_args(argv))
        return _COMMANDS[cfg["command"]](cfg, domain)
    # exit 2 on bad input, an input file that cannot be read, an output not
    # written, or a domain admitted by its sizes that is too small to mesh
    except (ConfigError, OSError, UnicodeDecodeError, json.JSONDecodeError, GeometryError) as exc:
        mesh = "cannot mesh the domain: " if isinstance(exc, GeometryError) else ""
        print(f"error: {mesh}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

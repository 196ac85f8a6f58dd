import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from anisolap import (
    Polygon,
    Rectangle,
    SolverConvergenceError,
    build_mesh,
    cli,
    lshape,
    optimizer,
    solver,
)


def run_config(tmp_path, config: dict) -> tuple[int, str]:
    tmp_path.mkdir(exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = str(tmp_path / "run")
    return cli.main(["--config", str(path), "--out", out]), out


def payload_text(path: str) -> str:
    """The report without its timestamp line, which lies outside the payload."""
    with open(path, encoding="utf-8") as fh:
        return "".join(line for line in fh if not line.startswith('  "generated_at"'))


# Each bad config exits 2 with a message naming the field at fault.
@pytest.mark.parametrize(
    "config, field",
    [
        pytest.param(
            {"command": "eigen", "form": {"alpha": 1.0, "beta": 1.0, "gamma": 1.0}},
            "form",
            id="singular-form",
        ),
        pytest.param(
            {"command": "eigen", "form": {"alpha": 1.0, "gamma": 1.0}},
            "form",
            id="missing-key",
        ),
        pytest.param({"command": "eigen", "form": {}}, "form", id="empty-form"),
        pytest.param({"command": "eigen", "form": 0}, "form", id="zero-form"),
        pytest.param({"command": "eigen", "p": "abc"}, "p must", id="non-numeric-p"),
        # a numeric string is not a number either
        pytest.param(
            {"command": "eigen", "mesh_level": "3"}, "mesh_level must be a number", id="string-level"
        ),
        pytest.param({"command": "eigen", "p": "2.0"}, "p must be a number", id="string-p"),
        pytest.param(
            {"command": "verify", "a_sequence": [0.5, "0.25"]},
            "a_sequence must be a number",
            id="string-a-sequence-entry",
        ),
        pytest.param({"command": "verify", "seed": True}, "seed must be a number", id="bool-seed"),
        pytest.param({"command": "verify", "p_values": [0.5]}, "p_values must", id="verify-p-list"),
        pytest.param({"command": "verify", "p_values": [2.0, 1.0]}, "p_values", id="sweep-p-values"),
        pytest.param({"command": "eigen", "level": 2}, "key level", id="unknown-key"),
        pytest.param({"command": "verify", "c0": 1.0}, "key c0", id="c0-unknown-key"),
        pytest.param({}, "missing command", id="no-command"),
        pytest.param({"command": "plot"}, "unknown command", id="unknown-command"),
        pytest.param({"command": "bounds"}, "unknown command", id="bounds-unknown-command"),
        pytest.param({"command": "sweep"}, "unknown command", id="sweep-unknown-command"),
        pytest.param({"command": "eigen", "p": 1.0}, "p must exceed 1", id="p-one"),
        pytest.param({"command": "eigen", "a": 1.5}, "a must lie in (0, 1]", id="a-above-one"),
        pytest.param({"command": "optimize", "a": 1.0}, "optimize needs a", id="optimize-a-one"),
        pytest.param(
            {"command": "verify", "verify": {"suites": ["disk"]}},
            "unknown config key verify",
            id="verify-unknown-key",
        ),
        pytest.param(
            {"command": "verify", "suites": ["nonsense"]}, "suites must", id="verify-unknown-suite"
        ),
        pytest.param({"command": "verify", "suites": []}, "suites must", id="verify-no-suites"),
        pytest.param(
            {"command": "verify", "a_sequence": [0.25, 0.5]},
            "a_sequence must",
            id="verify-a-sequence-increasing",
        ),
        pytest.param(
            {"command": "verify", "a_sequence": [1.5, 0.5]},
            "a_sequence must",
            id="verify-a-sequence-range",
        ),
        pytest.param({"command": "verify", "a": 0.75, "b": 0.5}, "a <= b", id="verify-a-above-b"),
        pytest.param({"command": "verify", "b": 1.0}, "a <= b", id="verify-b-one"),
        pytest.param({"command": "verify", "b": None}, "b must be a number", id="verify-b-null"),
        pytest.param(
            {"command": "verify", "n_samples": 0}, "n_samples must", id="verify-n-samples"
        ),
        pytest.param(
            {"command": "verify", "mesh_level": "abc"}, "mesh_level must", id="verify-level-string"
        ),
        pytest.param(
            {"command": "verify", "mesh_level": 1}, "mesh_level must", id="verify-level-range"
        ),
        pytest.param(
            {"command": "verify", "mesh_level": math.inf},
            "mesh_level must",
            id="verify-level-infinite",
        ),
        pytest.param({"command": "verify", "grid_n": 3}, "grid_n must", id="verify-grid-n"),
        pytest.param(
            {"command": "verify", "n_boundary": 4}, "n_boundary must", id="verify-n-boundary"
        ),
        pytest.param({"command": "verify", "n_pairs": 0}, "n_pairs must", id="verify-n-pairs"),
        pytest.param({"command": "verify", "seed": -1}, "seed must", id="verify-seed"),
        pytest.param({"command": "verify", "tol": 0.0}, "tol must", id="verify-tol"),
        # an integer field holding a non-integral number is not truncated
        pytest.param(
            {"command": "eigen", "mesh_level": 2.7}, "mesh_level must", id="level-fraction"
        ),
        pytest.param({"command": "optimize", "grid_n": 9.5}, "grid_n must", id="grid-n-fraction"),
        pytest.param({"command": "verify", "seed": 1.5}, "seed must", id="seed-fraction"),
        pytest.param(
            {"command": "verify", "n_samples": 2.5}, "n_samples must", id="n-samples-fraction"
        ),
        pytest.param({"command": "verify", "n_pairs": 2.5}, "n_pairs must", id="n-pairs-fraction"),
        pytest.param(
            {"command": "eigen", "n_boundary": 16.5}, "n_boundary must", id="n-boundary-fraction"
        ),
        pytest.param(
            {"command": "verify", "domain": "nonsense"}, "bad domain spec", id="verify-domain"
        ),
        pytest.param({"command": ["eigen"]}, "unknown command", id="list-command"),
        # a JSON size that overflows to infinity, or a NaN, is not a domain
        pytest.param(
            {"command": "eigen", "domain": {"type": "disk", "radius": math.inf}},
            "bad domain spec",
            id="disk-infinite-radius",
        ),
        pytest.param(
            {"command": "eigen", "domain": {"type": "disk", "radius": 1, "center": [math.nan, 0]}},
            "bad domain spec",
            id="disk-nan-center",
        ),
        pytest.param(
            {"command": "eigen", "domain": {"type": "rectangle", "hw": math.inf, "hh": 1}},
            "bad domain spec",
            id="rectangle-infinite-hw",
        ),
        pytest.param(
            {"command": "eigen", "domain": {"type": "rectangle", "hw": 1, "hh": math.inf}},
            "bad domain spec",
            id="rectangle-infinite-hh",
        ),
        # numbers inside the form and the domain object are typed like the others
        pytest.param(
            {"command": "eigen", "form": {"alpha": "1", "beta": 0, "gamma": 2}},
            "bad form",
            id="string-form-coefficient",
        ),
        pytest.param(
            {"command": "eigen", "form": {"alpha": True, "beta": 0, "gamma": 2}},
            "bad form",
            id="bool-form-coefficient",
        ),
        pytest.param(
            {"command": "eigen", "domain": {"type": "disk", "radius": "2"}},
            "bad domain spec",
            id="string-disk-radius",
        ),
        # a JSON integer too large for a float is mistyped too, not a crash
        pytest.param(
            {"command": "eigen", "form": {"alpha": 10**400, "beta": 0, "gamma": 2}},
            "bad form",
            id="huge-form-coefficient",
        ),
        pytest.param(
            {"command": "eigen", "domain": {"type": "disk", "radius": 10**400}},
            "bad domain spec",
            id="huge-disk-radius",
        ),
        # a finite size whose square overflows is too large to mesh
        pytest.param(
            {"command": "eigen", "domain": {"type": "rectangle", "hw": 1e200, "hh": 1e200}},
            "rectangle halfwidth hw",
            id="rectangle-square-overflows",
        ),
        pytest.param(
            {"command": "eigen", "domain": {"type": "disk", "radius": 1e200}},
            "disk radius",
            id="disk-square-overflows",
        ),
        # a size whose square is finite, but not the sums of products that
        # the polygon checks and the mesher form: too large, not an overflow
        pytest.param(
            {"command": "eigen", "mesh_level": 2, "domain": {"type": "rectangle", "hw": 1e154, "hh": 1e154}},
            "too large",
            id="rectangle-products-overflow",
        ),
        pytest.param(
            {
                "command": "eigen",
                "domain": {"type": "polygon", "vertices": [[0, 0], [1e155, 0], [0, 1]]},
            },
            "polygon vertex",
            id="polygon-square-overflows",
        ),
        # a center is two numbers, neither truncated nor an index error
        pytest.param(
            {"command": "eigen", "domain": {"type": "disk", "radius": 1, "center": [0]}},
            "disk center must be two",
            id="disk-short-center",
        ),
        pytest.param(
            {"command": "eigen", "domain": {"type": "disk", "radius": 1, "center": [0, 0, 7]}},
            "disk center must be two",
            id="disk-long-center",
        ),
        # a misspelt key inside the domain or the form is not ignored
        pytest.param(
            {"command": "eigen", "domain": {"type": "disk", "radius": 1, "radus": 2}},
            "unknown disk key radus",
            id="disk-unknown-key",
        ),
        pytest.param(
            {"command": "eigen", "form": {"alpha": 1, "beta": 0, "gamma": 2, "gama": 3}},
            "unknown form key gama",
            id="form-unknown-key",
        ),
        # an infinite exponent or tolerance is caught before any solve
        pytest.param({"command": "eigen", "p": math.inf}, "p must", id="infinite-p"),
        pytest.param(
            {"command": "verify", "p_values": [2.0, math.inf]}, "p_values must", id="infinite-p-values"
        ),
        pytest.param({"command": "eigen", "tol": math.inf}, "tol must", id="infinite-tol"),
        # an exponent whose energy can overflow, or a level too small for its
        # forms to be built, is caught before any solve
        pytest.param({"command": "eigen", "p": 1e6}, "p must", id="huge-p"),
        pytest.param({"command": "eigen", "p": 21.0}, "at most 20", id="p-above-20"),
        pytest.param(
            {"command": "verify", "p_values": [2.0, 21.0]}, "p_values must", id="p-values-above-20"
        ),
        pytest.param({"command": "optimize", "a": 1e-17}, "at least 1e-12", id="tiny-a"),
        pytest.param(
            {"command": "verify", "a_sequence": [0.5, 1e-17]}, "a_sequence must", id="tiny-a-sequence"
        ),
        # a repeated entry would run its suites twice
        pytest.param(
            {"command": "verify", "p_values": [2, 2.0]}, "p_values must not repeat", id="repeated-p-values"
        ),
        # a pentagram turns left at every vertex but winds twice: a bad domain,
        # not a traceback from the mesher
        pytest.param(
            {
                "command": "eigen",
                "domain": {
                    "type": "polygon",
                    "vertices": [
                        [math.cos(t), math.sin(t)] for t in math.pi / 2 + 4 * math.pi * np.arange(5) / 5
                    ],
                },
            },
            "bad domain spec",
            id="pentagram-domain",
        ),
    ],
)
def test_bad_config_exits_2(tmp_path, capsys, config, field):
    rc, _ = run_config(tmp_path, config)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not (tmp_path / "run.json").exists()
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize(
    "config",
    [
        {"command": "eigen", "p": 20.0},
        {"command": "optimize", "p": 20.0, "a": 1e-12, "grid_n": 9},
    ],
    ids=["eigen-p20", "optimize-a1e-12"],
)
def test_config_bounds_are_inclusive(tmp_path, config):
    rc, _ = run_config(tmp_path, {**config, "mesh_level": 2})
    assert rc == 0


@pytest.mark.parametrize("out", [None, 5, ["run"], ""])
def test_out_that_is_not_a_path_exits_2(tmp_path, capsys, monkeypatch, out):
    # a config's "out" overrides the flag; null once wrote None.json
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(
        json.dumps({"command": "eigen", "mesh_level": 2, "out": out}), encoding="utf-8"
    )
    assert cli.main(["--config", "config.json"]) == 2
    assert capsys.readouterr().err.startswith("error: out must be a non-empty string")
    assert [f.name for f in tmp_path.iterdir()] == ["config.json"]


def test_import_loads_no_unused_scipy_subpackage():
    # importing the CLI is part of every run's start-up time; these
    # subpackages are heavy and no command needs them
    code = (
        "import sys, anisolap.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
        "[['scipy', s] for s in ('integrate', 'optimize', 'special', 'interpolate')]))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_inline_domain_overflowing_to_infinity_exits_2(tmp_path, capsys):
    argv = ["--command", "eigen", "--domain", '{"type":"disk","radius":1e400}']
    assert cli.main([*argv, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("error: bad domain spec")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("domain", ["", " "], ids=["empty", "blank"])
def test_empty_domain_flag_exits_2(tmp_path, capsys, domain):
    # an empty --domain is a bad domain spec, not the default square
    argv = ["--command", "eigen", "--domain", domain, "--level", "2"]
    assert cli.main([*argv, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("error: bad domain spec: unknown domain name: ''")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "domain, level, message",
    [
        ('{"type":"rectangle","hw":1e-100,"hh":1e-100}', 2, "polygon must be simple"),
        ('{"type":"disk","radius":1e-200}', 5, "counterclockwise with positive area"),
        ('{"type":"rectangle","hw":1e-6,"hh":1e-6}', 5, "all triangles must be counterclockwise"),
    ],
    ids=["rectangle-1e-100", "disk-1e-200", "rectangle-1e-6-L5"],
)
def test_domain_too_small_to_mesh_exits_2(tmp_path, capsys, domain, level, message):
    # sizes the config admits, but whose polygon or mesh fails a geometric
    # check whose tolerance scales with the largest coordinate: one error
    # line, no traceback and no output
    argv = ["--command", "eigen", "--domain", domain, "--level", str(level)]
    assert cli.main([*argv, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot mesh the domain: ") and message in err
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


# Each input file that cannot be read, and each output that cannot be
# written, exits 2 with a message instead of a traceback.
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(lambda d: ["--config", str(d)], id="config-directory"),
        pytest.param(lambda d: ["--config", str(d / "latin1.json")], id="config-not-utf8"),
        pytest.param(
            lambda d: ["--command", "eigen", "--domain-file", str(d)], id="domain-file-directory"
        ),
        pytest.param(
            lambda d: ["--command", "eigen", "--level", "2", "--out", str(d / "file" / "run")],
            id="out-under-a-file",
        ),
    ],
)
def test_file_errors_exit_2(tmp_path, capsys, argv):
    latin1 = '{"command": "eigen", "out": "caf\u00e9"}'.encode("latin-1")
    (tmp_path / "latin1.json").write_bytes(latin1)
    (tmp_path / "file").write_text("", encoding="utf-8")
    assert cli.main(argv(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(f.name for f in tmp_path.iterdir()) == ["file", "latin1.json"]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_validate_reads_each_default_as_its_kind(command):
    cfg, domain = cli._validate(cli._parse_args(["--command", command]))
    assert domain == Rectangle(1.0, 1.0)
    assert list(cfg) == list(cli._KEYS)
    for name, key in cli._KEYS.items():
        value = cfg[name]
        assert value == (command if name == "command" else key.default)
        if key.kind is list and value is not None:
            assert all(type(x) is float for x in value)
        elif key.kind in (float, int, str):
            assert type(value) is key.kind, name


def test_validate_converts_to_each_kind():
    config = {"command": "verify", "p": 3, "tol": 1, "mesh_level": 3.0, "p_values": [2, 3]}
    cfg, _ = cli._validate(config)
    assert (cfg["p"], cfg["tol"], cfg["mesh_level"], cfg["p_values"]) == (3.0, 1.0, 3, [2.0, 3.0])
    assert [type(cfg[k]) for k in ("p", "tol", "mesh_level")] == [float, float, int]
    assert all(type(p) is float for p in cfg["p_values"])


# Every default, spelled out, as a config file would hold it.
SPELLED_OUT_DEFAULTS = {
    "domain": "square",
    "p": 2.0,
    "a": 0.25,
    "mesh_level": 5,
    "grid_n": 17,
    "tol": 1e-9,
    "out": "out",
    "seed": 0,
    "n_boundary": 128,
    "form": None,
    "p_values": None,
    "b": 0.5,
    "n_samples": 5,
    "n_pairs": 8,
    "a_sequence": [0.5, 0.25],
    "suites": ["rigidity", "quantitative", "relaxation", "disk", "rectangle"],
}


@pytest.mark.parametrize("command, rc", [("eigen", 0), ("verify", 1)])
def test_config_spelling_out_every_default_changes_nothing(tmp_path, monkeypatch, command, rc):
    assert set(SPELLED_OUT_DEFAULTS) | {"command"} == set(cli._KEYS)
    (tmp_path / "flags").mkdir()
    monkeypatch.chdir(tmp_path / "flags")
    assert cli.main(["--command", command]) == rc
    (tmp_path / "config").mkdir()
    monkeypatch.chdir(tmp_path / "config")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"command": command, **SPELLED_OUT_DEFAULTS}), encoding="utf-8")
    assert cli.main(["--config", str(config)]) == rc
    assert payload_text(str(tmp_path / "config" / "out.json")) == payload_text(
        str(tmp_path / "flags" / "out.json")
    )


def test_docstring_names_every_key():
    key_list = cli.__doc__.split("Its keys:\n\n")[1].split("\n\n")[0]
    named = set()
    for line in key_list.splitlines():
        named.update(re.findall(r"\w+", re.split(r"\s{2,}", line.strip(), maxsplit=1)[0]))
    assert named == set(cli._KEYS)


def test_eigen_exits_0_with_deterministic_payload(tmp_path):
    rc1, _ = run_config(tmp_path / "a", {"command": "eigen", "mesh_level": 2})
    rc2, _ = run_config(tmp_path / "b", {"command": "eigen", "mesh_level": 2})
    assert rc1 == rc2 == 0
    first = payload_text(str(tmp_path / "a" / "run.json"))
    assert first == payload_text(str(tmp_path / "b" / "run.json"))
    payload = json.loads(first)["payload"]
    assert payload["status"] == "ok"
    assert sorted(payload["options"]) == ["max_iter", "tol"]
    assert (tmp_path / "a" / "run_eigenfunction.csv").exists()


def test_negative_beta_form_is_the_mirrored_domains(tmp_path):
    # (alpha, -beta, gamma) on the L-shape is (alpha, beta, gamma) on its
    # mirror image in y, by the change of variables y -> -y
    mirrored = {"type": "polygon", "vertices": (lshape().vertices[::-1] * [1.0, -1.0]).tolist()}
    lams = []
    for name, domain, beta in (("lshape", "lshape", -0.3), ("mirrored", mirrored, 0.3)):
        form = {"alpha": 0.5, "beta": beta, "gamma": 1.0}
        config = {"command": "eigen", "domain": domain, "form": form, "mesh_level": 3}
        rc, out = run_config(tmp_path / name, config)
        assert rc == 0
        lams.append(json.loads(payload_text(out + ".json"))["payload"]["result"]["lambda"])
    assert lams[0] == pytest.approx(lams[1], rel=2 * solver.DEFAULT_TOL)


def test_integral_float_fields_are_accepted(tmp_path):
    # a JSON number with no fractional part is read as the integer it equals
    rc, out = run_config(tmp_path, {"command": "eigen", "mesh_level": 2.0, "seed": 3.0})
    assert rc == 0
    assert json.loads(payload_text(out + ".json"))["payload"]["mesh_level"] == 2


def test_eigen_failure_keeps_options_block(tmp_path, monkeypatch):
    monkeypatch.setattr(solver, "MAX_ITER", 2)
    rc, out = run_config(tmp_path, {"command": "eigen", "mesh_level": 2})
    assert rc == 1
    payload = json.loads(payload_text(out + ".json"))["payload"]
    assert payload["status"] == "failed" and payload["partial"]
    assert payload["options"] == {"tol": 1e-9, "max_iter": 2}


def test_verify_rectangle_suite_exits_1(tmp_path):
    rc, out = run_config(
        tmp_path, {"command": "verify", "mesh_level": 2, "suites": ["rectangle"]}
    )
    assert rc == 1
    report = json.loads(payload_text(out + ".json"))["payload"]["report"]
    failed = {e["name"] for e in report["entries"] if not e["passed"]}
    assert "rectangle_axis_argmin_set" in failed


def test_eigen_failure_after_one_iteration_is_reported(tmp_path, monkeypatch):
    # one inverse iteration has no relative change to test, but the partial
    # result still carries a finite residual, so the report can be written
    monkeypatch.setattr(solver, "MAX_ITER", 1)
    rc, out = run_config(tmp_path, {"command": "eigen", "mesh_level": 2, "p": 2.0})
    assert rc == 1
    payload = json.loads(payload_text(out + ".json"))["payload"]
    assert payload["status"] == "failed" and payload["partial"]
    assert math.isfinite(payload["result"]["residual"])


def test_vanishing_mass_norm_is_a_solver_failure(tmp_path, capsys):
    # a form near the largest float: K^-1 M u is so small that w.Mw
    # underflows to 0 on the first step, which once divided by zero.  Above
    # p = 2 the last iterate's quotient overflows, which once warned and then
    # failed to serialize: the failed result writes it as null (warnings are
    # errors here).  On a square of half-width 1e90 or 1e150, and on the
    # 1e90 x 2e90 rectangle that optimize searches, w.Mw overflows on the
    # first step and the start's quotient underflows to 0, whose residual
    # once divided by zero: it is written as null
    form = {"alpha": 1e300, "beta": 0, "gamma": 1}
    configs = [
        {"command": "eigen", "domain": "square", "p": p, "mesh_level": 3, "form": form}
        for p in (1.5, 2, 3)
    ] + [
        {"command": "eigen", "domain": {"type": "rectangle", "hw": h, "hh": h}, "p": p,
         "mesh_level": 3}
        for h in (1e90, 1e150)
        for p in (2, 3)
    ] + [
        {"command": "optimize", "domain": {"type": "rectangle", "hw": 1e90, "hh": 2e90}, "p": 2,
         "mesh_level": 3}
    ]
    for i, config in enumerate(configs):
        p = config["p"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out = run_config(tmp_path / str(i), config)
        assert rc == 1
        payload = json.loads(payload_text(out + ".json"))["payload"]
        assert payload["status"] == "failed" and payload["partial"]
        assert "w.Mw" in payload["error"]
        err = capsys.readouterr().err
        assert "solver failed" in err and "Traceback" not in err
        if config["command"] == "optimize":
            assert payload["theta_profile"] == []
            continue
        result = payload["result"]
        assert result["p"] == p and result["iterations"] == 0
        if "form" in config:
            assert (result["lambda"] is None) == (p == 3)
        else:
            assert result["lambda"] == 0 and result["residual"] is None


@pytest.mark.parametrize(
    "config",
    [{"command": "verify", "suites": ["rectangle"]}, {"command": "optimize"}],
    ids=["verify", "optimize"],
)
def test_solver_failure_is_reported(tmp_path, monkeypatch, capsys, config):
    # a p-descent cut off after two iterations misses its residual bound
    monkeypatch.setattr(solver, "MAX_ITER", 2)
    rc, out = run_config(tmp_path, {**config, "mesh_level": 2, "p": 3.0})
    assert rc == 1
    payload = json.loads(payload_text(out + ".json"))["payload"]
    assert payload["command"] == config["command"]
    assert payload["status"] == "failed" and payload["partial"]
    assert "residual" in payload["error"]
    assert "solver failed" in capsys.readouterr().err


def test_optimize_failure_keeps_profile_so_far(tmp_path, monkeypatch):
    # the third grid angle fails: the payload keeps the two values before it
    real = optimizer.profile_value
    seen = []

    def failing_at_third(mesh, theta, a, p, tol, start=None):
        res, dlam = real(mesh, theta, a, p, tol, start=start)
        seen.append((float(theta), res.lam))
        if len(seen) == 3:
            best = optimizer.solve_p(mesh, optimizer.QuadForm.identity(), p, tol)
            raise SolverConvergenceError("descent stopped", best)
        return res, dlam

    monkeypatch.setattr(optimizer, "profile_value", failing_at_third)
    rc, out = run_config(tmp_path, {"command": "optimize", "mesh_level": 2, "grid_n": 9})
    assert rc == 1
    payload = json.loads(payload_text(out + ".json"))["payload"]
    assert payload["status"] == "failed" and payload["partial"]
    assert payload["theta_profile"] == [list(row) for row in seen[:2]]
    assert payload["mirrored"] is True  # the square's profile above pi/4 is read from its mirror


@pytest.mark.parametrize(
    "domain, mirrored", [("square", True), ("lshape", True), ("disk", False)]
)
def test_optimize_payload_says_whether_the_profile_is_mirrored(tmp_path, domain, mirrored):
    config = {"command": "optimize", "domain": domain, "mesh_level": 2, "grid_n": 9}
    rc, out = run_config(tmp_path, config)
    assert rc == 0
    result = json.loads(payload_text(out + ".json"))["payload"]["result"]
    assert result["mirrored"] is mirrored
    assert len(result["theta_profile"]) == 9


def test_verify_equal_levels_reports_finite_c0(tmp_path):
    # a = b makes the difference bound trivial, but its entry still carries
    # the closed-form constant, a finite number the report can hold
    config = {"command": "verify", "mesh_level": 2, "a": 0.25, "b": 0.25, "suites": ["quantitative"]}
    rc, out = run_config(tmp_path, config)
    assert rc == 0
    entries = json.loads(payload_text(out + ".json"))["payload"]["report"]["entries"]
    measured = entries[1]["measured"]
    assert measured["c0"] == pytest.approx(math.pi**2 / 8.0)
    assert measured["chord"] == pytest.approx(2.0 * math.sqrt(2.0))


def test_verify_accepts_n_boundary_and_reports_none(tmp_path):
    # n_boundary is kept for existing command lines: it is validated, changes
    # no mesh and stays out of the verify report
    config = {"command": "verify", "mesh_level": 2, "n_boundary": 32, "suites": ["rigidity"]}
    rc, out = run_config(tmp_path, config)
    assert rc == 0
    report = json.loads(payload_text(out + ".json"))["payload"]["report"]
    assert "n_boundary" not in report["config"]


def test_csv_exports(tmp_path):
    m = build_mesh(Rectangle(1.0, 1.0), 1)
    cli._write_csv(tmp_path / "u.csv", "x,y,u", np.column_stack([m.nodes, np.ones(m.n_nodes)]))
    lines = (tmp_path / "u.csv").read_text().strip().splitlines()
    assert lines[0] == "x,y,u" and len(lines) == m.n_nodes + 1
    with pytest.raises(ValueError):
        cli._write_csv(tmp_path / "bad.csv", "x,y,u", m.nodes)  # a field short
    assert not (tmp_path / "bad.csv").exists()


def test_csv_writer_keeps_old_file_on_failure(tmp_path):
    # a write that fails part way (a header the encoder rejects) leaves the
    # previous file whole and no temporary file behind
    m = build_mesh(Rectangle(1.0, 1.0), 1)
    table = np.column_stack([m.nodes, np.ones(m.n_nodes)])
    path = tmp_path / "u.csv"
    cli._write_csv(path, "x,y,u", table)
    before = path.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        cli._write_csv(path, "x,y,\ud800", table)
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["u.csv"]


def test_csv_exports_match_per_row_formatting(tmp_path):
    # the writer formats whole columns at once; the bytes must equal those of
    # formatting every float on its own with ".17g"
    c, s = math.cos(0.4), math.sin(0.4)
    m = build_mesh(Polygon(lshape().vertices @ np.array([[c, -s], [s, c]]).T), 2)
    rng = np.random.default_rng(3)
    values = rng.normal(size=m.n_nodes) * 10.0 ** rng.integers(-30, 30, size=m.n_nodes)
    values[:3] = [0.0, -0.0, 1.0 / 3.0]
    cli._write_csv(tmp_path / "u.csv", "x,y,w", np.column_stack([m.nodes, values]))

    def fmt(x):
        return format(float(x), ".17g")

    expected = "x,y,w\n" + "".join(
        f"{fmt(x)},{fmt(y)},{fmt(v)}\n" for (x, y), v in zip(m.nodes, values)
    )
    assert (tmp_path / "u.csv").read_bytes() == expected.encode("utf-8")

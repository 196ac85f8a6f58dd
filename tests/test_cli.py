import json

import pytest

from anisolap import SolverOptions, cli


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


@pytest.mark.parametrize(
    "config",
    [
        {"command": "eigen", "form": {"alpha": 1.0, "beta": -0.1, "gamma": 1.0}},
        {"command": "eigen", "form": {"alpha": 1.0, "gamma": 1.0}},
        {"command": "eigen", "p": "abc"},
        {"command": "verify", "verify": {"p_list": [0.5]}},
        {"command": "sweep", "p_values": [2.0, 1.0]},
    ],
    ids=["negative-beta", "missing-key", "non-numeric-p", "verify-p-list", "sweep-p-values"],
)
def test_bad_config_exits_2(tmp_path, capsys, config):
    rc, _ = run_config(tmp_path, config)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "run.json").exists()


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


def test_eigen_failure_keeps_options_block(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "SolverOptions", lambda tol: SolverOptions(tol=tol, max_iter=2))
    rc, out = run_config(tmp_path, {"command": "eigen", "mesh_level": 2})
    assert rc == 1
    payload = json.loads(payload_text(out + ".json"))["payload"]
    assert payload["status"] == "failed" and payload["partial"]
    assert payload["options"] == {"tol": 1e-9, "max_iter": 2}


def test_verify_rectangle_suite_exits_1(tmp_path):
    rc, out = run_config(
        tmp_path, {"command": "verify", "mesh_level": 2, "verify": {"suites": ["rectangle"]}}
    )
    assert rc == 1
    report = json.loads(payload_text(out + ".json"))["payload"]["report"]
    failed = {e["name"] for e in report["entries"] if not e["passed"]}
    assert "rectangle_axis_argmin_set" in failed

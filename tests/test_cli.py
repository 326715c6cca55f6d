import json
import os
import subprocess
import sys
from pathlib import Path

from aat.parsing import parse_poly
from aat.rings import VarRing

REPO = Path(__file__).resolve().parent.parent


def _run(args, cwd=REPO):
    # the child imports aat from this checkout, however pytest itself found it
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "aat", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_exp_all_exit_zero_and_relation(tmp_path):
    out = tmp_path / "exp.json"
    result = _run(["all", "problems/exp.aat", "-o", str(out)])
    assert result.returncode == 0, result.stderr
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert payload["problem"]["relations"]["1_1"]["poly"] == "z1_1 - x1"


def test_derive_missing_file_exit_two(tmp_path):
    out = tmp_path / "missing.json"
    result = _run(["derive", "does-not-exist.aat", "-o", str(out)])
    assert result.returncode == 2
    assert "not found" in result.stderr
    payload = json.loads(out.read_text())
    assert payload["ok"] is False
    assert payload["failure"]["error"] == "FileNotFoundError"


def test_bad_problem_exit_two(tmp_path):
    bad = tmp_path / "bad.aat"
    bad.write_text("[mapping]\nn = 2\nfamily = exp\n[aat]\nG1 = L1 - x1*y1\n")
    out = tmp_path / "bad.json"
    result = _run(["derive", str(bad), "-o", str(out)])
    assert result.returncode == 2
    payload = json.loads(out.read_text())
    assert payload["failure"]["error"] == "ProblemError"


def test_reports_byte_identical(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert _run(["derive", "problems/exp.aat", "-o", str(out1)]).returncode == 0
    assert _run(["derive", "problems/exp.aat", "-o", str(out2)]).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_override_changes_report(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert _run(["derive", "problems/exp.aat", "-o", str(out1), "--seed", "1"]).returncode == 0
    assert _run(["derive", "problems/exp.aat", "-o", str(out2), "--seed", "2"]).returncode == 0
    assert json.loads(out1.read_text())["seed"] == 1
    assert json.loads(out2.read_text())["seed"] == 2


def _walk_poly_entries(node):
    if isinstance(node, dict):
        if set(node) >= {"vars", "poly"}:
            yield node
        for value in node.values():
            yield from _walk_poly_entries(value)
    elif isinstance(node, list):
        for value in node:
            yield from _walk_poly_entries(value)


def test_report_polynomials_reparse(tmp_path):
    out = tmp_path / "lem.json"
    result = _run(["variety", "problems/lemniscatic.aat", "-o", str(out)])
    assert result.returncode == 0, result.stderr
    payload = json.loads(out.read_text())
    assert payload["problem"]["variety"]["V"]["poly"] == "theta^2 - 4*x1^3 + 4*x1"
    entries = list(_walk_poly_entries(payload))
    assert entries
    for entry in entries:
        ring = VarRing(tuple(entry["vars"]), tuple(entry.get("params", ())))
        text = entry["poly"] if "poly" in entry else None
        if text is None:
            continue
        assert str(parse_poly(text, ring)) == text


def test_verdict_failure_gives_exit_one(tmp_path):
    bad = tmp_path / "bad-family.aat"
    # declare the additive polynomial but drive it with the exp backend:
    # residual vetting must fail and the exit status must reflect it
    bad.write_text(
        "[mapping]\nn = 1\nfamily = exp\n[aat]\nG1 = L1 - x1 - y1\n[options]\nseed = 3\n"
    )
    out = tmp_path / "bad.json"
    result = _run(["derive", str(bad), "-o", str(out)])
    assert result.returncode == 1
    payload = json.loads(out.read_text())
    assert payload["ok"] is False

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aat.cli
from aat import naming
from aat.cli import run
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


def test_all_imports_no_process_pool(tmp_path):
    # only `aat catalog` starts worker processes; every other command would
    # pay for importing the pool modules at start-up
    out = tmp_path / "exp.json"
    check = (
        "import sys, aat.cli\n"
        f"assert aat.cli.run(['all', 'problems/exp.aat', '-o', {str(out)!r}]) == 0\n"
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", check], capture_output=True, text=True, cwd=REPO, env={**os.environ, "PYTHONPATH": path}
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def _fresh(check: str, **env) -> str:
    """The last line a fresh interpreter prints running `check` on this
    checkout; `env` sets variables, or unsets those given as None."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    full = {**os.environ, "PYTHONPATH": path}
    for key, value in env.items():
        if value is None:
            full.pop(key, None)
        else:
            full[key] = value
    result = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, cwd=REPO, env=full)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


def test_all_never_loads_openssl(tmp_path):
    # the stage seeds take sha256 from the interpreter's builtin module
    out = tmp_path / "exp.json"
    check = (
        "import sys, aat.cli\n"
        f"assert aat.cli.run(['all', 'problems/exp.aat', '-o', {str(out)!r}]) == 0\n"
        "print(sorted({'_hashlib', 'hashlib', 'ssl'} & set(sys.modules)))\n"
    )
    assert _fresh(check) == "[]"


@pytest.mark.parametrize("seed,label", [(0, ""), (42, "spec-numeric-vet"), (7, "catalog:3"), (-5, "périodes")])
def test_stage_seed_is_the_sha256_prefix(seed, label):
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    assert naming.stage_seed(seed, label) == int.from_bytes(digest[:8], "big")


def test_import_sets_one_openblas_thread_unless_set():
    check = "import aat, os; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh(check, OPENBLAS_NUM_THREADS=None) == "1"
    assert _fresh(check, OPENBLAS_NUM_THREADS="2") == "2"


def test_exponent_past_the_field_limit_exits_two(tmp_path):
    bad = tmp_path / "huge.aat"
    bad.write_text("[mapping]\nn = 1\nfamily = exp\n[aat]\nG1 = L1 - x1*y1 + x1^40000 - x1^40000\n")
    out = tmp_path / "huge.json"
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert run(["all", str(bad), "-o", str(out)]) == 2
    failure = json.loads(out.read_text())["failure"]
    assert failure["stage"] == "load" and failure["error"] == "ProblemError"
    assert "G1" in failure["message"] and "x1 reaches the limit 32768" in failure["message"]
    assert "32768" in err.getvalue()


def test_equianharmonic_all_exit_zero(tmp_path):
    # g2 = 0 leaves only every third Laurent coefficient nonzero
    out = tmp_path / "equianharmonic.json"
    result = _run(["all", "problems/equianharmonic.aat", "-o", str(out)])
    assert result.returncode == 0, result.stderr
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert len(payload["problem"]["periods"]["generators"]) == 2


def test_derive_missing_file_exit_two(tmp_path):
    out = tmp_path / "missing.json"
    result = _run(["derive", "does-not-exist.aat", "-o", str(out)])
    assert result.returncode == 2
    assert "not found" in result.stderr
    payload = json.loads(out.read_text())
    assert payload["ok"] is False
    assert payload["failure"]["error"] == "FileNotFoundError"


@pytest.mark.parametrize(
    "make,error",
    [
        (lambda path: path.mkdir(), "IsADirectoryError"),
        (lambda path: path.write_bytes(b"\xff\xfe[mapping]\n"), "ProblemError"),
    ],
    ids=["directory", "not-utf8"],
)
def test_unreadable_problem_exit_two(tmp_path, make, error):
    problem = tmp_path / "unreadable.aat"
    make(problem)
    out = tmp_path / "unreadable.json"
    assert run(["all", str(problem), "-o", str(out)]) == 2
    failure = json.loads(out.read_text())["failure"]
    assert failure["stage"] == "load" and failure["error"] == error


def test_bad_problem_exit_two(tmp_path):
    bad = tmp_path / "bad.aat"
    bad.write_text("[mapping]\nn = 2\nfamily = exp\n[aat]\nG1 = L1 - x1*y1\n")
    out = tmp_path / "bad.json"
    result = _run(["derive", str(bad), "-o", str(out)])
    assert result.returncode == 2
    payload = json.loads(out.read_text())
    assert payload["failure"]["error"] == "ProblemError"


@pytest.mark.parametrize("family,n,family_n", [("singular2-case2", 1, 2), ("exp", 2, 1)])
def test_family_dimension_mismatch_exit_two(tmp_path, family, n, family_n):
    bad = tmp_path / "dimension.aat"
    aat = "".join(f"G{k} = L{k} - x{k} - y{k}\n" for k in range(1, n + 1))
    bad.write_text(f"[mapping]\nn = {n}\nfamily = {family}\n[aat]\n{aat}")
    out = tmp_path / "dimension.json"
    result = _run(["all", str(bad), "-o", str(out)])
    assert result.returncode == 2, result.stderr
    assert f"family {family} has n = {family_n}, not {n}" in result.stderr
    payload = json.loads(out.read_text())
    assert payload["failure"]["error"] == "ProblemError"


@pytest.mark.parametrize(
    "mapping,aat,message",
    [
        ("n = 1\nfamily = weierstrass\n", "G1 = L1 - x1 - y1\n", "needs params g2 and g3"),
        # g2^3 = 27 g3^2 exactly, decided on the rational invariants
        ("n = 1\nfamily = weierstrass\nparam g2 = 3\nparam g3 = 1\n", "G1 = L1 - x1 - y1\n", "degenerate lattice: g2^3 = 27*g3^2"),
        (
            "n = 2\nfamily = singular2-case4\nparam g2 = 3\nparam g3 = 1\nparam epsilon = 1\n",
            "G1 = auto\nG2 = auto\n",
            "degenerate lattice: g2^3 = 27*g3^2",
        ),
        (
            "n = 2\nfamily = singular2-case4\nparam g2 = 4\nparam g3 = 0\nparam epsilon = 2\n",
            "G1 = L1 - x1 - y1\nG2 = L2 - x2 - y2\n",
            "epsilon must be 0 or 1",
        ),
        # exp with c = 0 is the constant map f = 1
        ("n = 1\nfamily = exp\nparam c = 0\n", "G1 = L1 - x1*y1\n", "c = 0 is the constant map"),
        # case 5 has no closed addition polynomials
        ("n = 2\nfamily = singular2-case5\nparam g2 = 4\nparam g3 = 0\n", "G1 = auto\nG2 = auto\n", "singular2-case5"),
        # the backends evaluate in floats, where 1e400 overflows
        ("n = 1\nfamily = exp\nparam c = 1e400\n", "G1 = auto\n", "1e400 is outside the float range"),
        ("n = 1\nfamily = weierstrass\nparam g2 = 1e400\nparam g3 = 0\n", "G1 = auto\n", "1e400 is outside the float range"),
    ],
)
def test_bad_family_params_exit_two_at_load(tmp_path, mapping, aat, message):
    # the backend is built while the problem loads, so explicit G fails there too
    bad = tmp_path / "params.aat"
    bad.write_text(f"[mapping]\n{mapping}[aat]\n{aat}")
    out = tmp_path / "params.json"
    result = _run(["all", str(bad), "-o", str(out)])
    assert result.returncode == 2, result.stderr
    assert message in result.stderr
    payload = json.loads(out.read_text())
    assert payload["ok"] is False
    assert payload["failure"]["stage"] == "load"
    assert message in payload["failure"]["message"]


def test_lemniscatic_wide_box_writes_a_report(tmp_path):
    # dozens of periods out sigma overflows; those samples are skipped
    problem = tmp_path / "wide.aat"
    problem.write_text((REPO / "problems/lemniscatic.aat").read_text() + "box = 30\n")
    out = tmp_path / "wide.json"
    result = _run(["all", str(problem), "-o", str(out)])
    assert result.returncode == 0, result.stderr
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert payload["problem"]["spec_echo"]["options"]["box"] == 30


def test_mode_option_is_rejected(tmp_path):
    bad = tmp_path / "mode.aat"
    bad.write_text(
        "[mapping]\nn = 1\nfamily = exp\n[aat]\nG1 = L1 - x1*y1\n[options]\nmode = numeric-reconstruct\n"
    )
    result = _run(["derive", str(bad), "-o", str(tmp_path / "mode.json")])
    assert result.returncode == 2
    assert "unknown option 'mode'" in result.stderr
    result = _run(["derive", "problems/exp.aat", "-o", str(tmp_path / "exp.json"), "--mode", "exact-point"])
    assert result.returncode == 2
    assert "unrecognized arguments: --mode" in result.stderr


@pytest.mark.parametrize(
    "problem,option,args",
    [
        ("lemniscatic", "samples = 0", []),
        ("exp", "samples = -3", []),
        ("exp", None, ["--samples", "0"]),
        ("exp", "tol = 0", []),
        ("lemniscatic", None, ["--tol", "0"]),
        # non-finite values used to reach the JSON writer, and a zero or
        # negative box used to fail in a later stage
        ("exp", "tol = inf", []),
        ("exp", None, ["--tol", "inf"]),
        ("lemniscatic", None, ["--tol", "nan"]),
        ("exp", "box = nan", []),
        ("lemniscatic", "box = 1e400", []),
        ("exp", "box = 0", []),
        ("exp", "box = -1", []),
    ],
)
def test_out_of_range_option_exit_two(tmp_path, capsys, problem, option, args):
    # checked at load, before any stage can fail on it with a misleading reason
    name = (option or args[0]).split()[0].lstrip("-")
    lines = (REPO / f"problems/{problem}.aat").read_text().splitlines()
    if option:
        # a key may appear once, so the option replaces the file's own line
        lines = [line for line in lines if line.split("=")[0].strip() != name] + [option]
    path = tmp_path / f"{problem}.aat"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "range.json"
    assert run(["all", str(path), "-o", str(out), *args]) == 2
    failure = json.loads(out.read_text())["failure"]
    assert failure["stage"] == "load" and failure["error"] == "ProblemError"
    assert f"option {name} must be" in failure["message"]
    assert f"option {name} must be" in capsys.readouterr().err


EXP_PROBLEM = "[mapping]\nn = 1\nfamily = exp\nparam c = 1\n[aat]\nG1 = L1 - x1*y1\n[options]\nseed = 42\n"


@pytest.mark.parametrize(
    "text,message",
    [
        (EXP_PROBLEM.replace("family = exp\n", ""), "missing 'family' in [mapping]"),
        (EXP_PROBLEM.replace("family = exp", "family = none"), "unknown family 'none'"),
        # the options that were removed from the format
        (EXP_PROBLEM + "grid = 5\n", "unknown option 'grid'"),
        (EXP_PROBLEM + "period_box = 3\n", "unknown option 'period_box'"),
        (EXP_PROBLEM + "retries = 4\n", "unknown option 'retries'"),
        # a repeated key used to override the earlier one silently
        (EXP_PROBLEM + "seed = 7\n", ":9: seed given twice (first at line 8)"),
        (EXP_PROBLEM.replace("c = 1", "c = 1\nparam c = 0"), ":5: param c given twice (first at line 4)"),
        (EXP_PROBLEM.replace("= exp", "= exp\nfamily = rational"), ":4: family given twice (first at line 3)"),
        (EXP_PROBLEM.replace("n = 1", "n = 1\nn = 1"), ":3: n given twice (first at line 2)"),
        (EXP_PROBLEM.replace("x1*y1", "x1*y1\nG1 = L1 - x1 - y1"), ":7: G1 given twice (first at line 6)"),
        (EXP_PROBLEM.replace("G1 = L1 - x1*y1", "G1 = L1 - x1*y1 + z1_1"), "found 'z1_1'"),
    ],
)
def test_unusable_problem_exit_two_at_load(tmp_path, capsys, text, message):
    path = tmp_path / "p.aat"
    path.write_text(text)
    out = tmp_path / "p.json"
    assert run(["all", str(path), "-o", str(out)]) == 2
    failure = json.loads(out.read_text())["failure"]
    assert failure["stage"] == "load" and failure["error"] == "ProblemError"
    assert message in failure["message"]
    assert message in capsys.readouterr().err


def test_catalog_rejects_problem_options(tmp_path, capsys):
    # the catalog runs fixed problems, so --samples and --tol would be ignored
    out = tmp_path / "catalog.json"
    with pytest.raises(SystemExit) as exit_info:
        run(["catalog", "-o", str(out), "--samples", "5", "--tol", "1e-3"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --samples 5 --tol 1e-3" in capsys.readouterr().err
    assert not out.exists()


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


def test_seed_override_reaches_the_auto_build(tmp_path, monkeypatch):
    # G = auto is built, and vetted, on the command line's seed: no bank of
    # the file's seed 42 is made and left unread
    specs, run_problem = [], aat.cli.run_problem

    def recorded(spec, *args, **kw):
        specs.append(spec)
        return run_problem(spec, *args, **kw)

    monkeypatch.setattr(aat.cli, "run_problem", recorded)
    assert run(["all", str(REPO / "problems/lemniscatic.aat"), "-o", str(tmp_path / "lem.json"), "--seed", "7"]) == 0
    [spec] = specs
    assert spec.options.seed == 7 and spec.backend.banks
    assert {seed for _, seed, _ in spec.backend.banks} == {7}


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

import re
from fractions import Fraction
from pathlib import Path

import pytest

from aat import problem
from aat.backends import FAMILIES
from aat.problem import ProblemError, load_problem, parse_problem

README = Path(__file__).resolve().parent.parent / "README.md"

EXP_TEXT = """\
[mapping]
n = 1
family = exp
[aat]
G1 = L1 - x1*y1
[options]
tol = 1e-9
samples = 100
seed = 42
"""


def test_minimal_exp_problem():
    spec = parse_problem(EXP_TEXT)
    assert spec.n == 1
    assert spec.family == "exp"
    assert str(spec.aat_polys[0]) == "L1 - x1*y1"
    assert spec.options.tol == 1e-9
    assert spec.options.samples == 100
    assert spec.options.seed == 42


def test_weierstrass_problem_with_params_and_auto():
    text = """\
[mapping]
n = 1
family = weierstrass
param g2 = 4
param g3 = 0
[aat]
G1 = auto
[options]
seed = 7
"""
    spec = parse_problem(text)
    assert spec.params == {"g2": Fraction(4), "g3": Fraction(0)}
    g = spec.aat_polys[0]
    assert g.degree_in("L1") == 2
    # parameter values are substituted: the stored polynomial is numeric
    assert g.degree_in("g2") == 0


def test_rational_param_values():
    text = EXP_TEXT.replace("family = exp", "family = exp\nparam c = 1/2")
    spec = parse_problem(text)
    assert spec.params["c"] == Fraction(1, 2)


@pytest.mark.parametrize("value", ["1e400", "-1e400", "1e-400"])
def test_param_outside_float_range_rejected(value):
    # 1e400 overflows a float and 1e-400 rounds to 0; neither can be evaluated
    text = EXP_TEXT.replace("family = exp", f"family = exp\nparam c = {value}")
    with pytest.raises(ProblemError, match="outside the float range"):
        parse_problem(text)


def test_arity_mismatch_rejected():
    text = """\
[mapping]
n = 2
family = singular2-case3
[aat]
G1 = L1 - x1*y1
"""
    with pytest.raises(ProblemError) as err:
        parse_problem(text)
    assert "expected 2 addition polynomials" in str(err.value)


def test_degree_zero_in_value_slot_rejected():
    text = """\
[mapping]
n = 1
family = exp
[aat]
G1 = x1 - y1
"""
    with pytest.raises(ProblemError) as err:
        parse_problem(text)
    assert "positive degree in L1" in str(err.value)


def test_malformed_sections_rejected():
    with pytest.raises(ProblemError):
        parse_problem("n = 1\n")  # content before any section
    with pytest.raises(ProblemError):
        parse_problem("[bogus]\n")
    with pytest.raises(ProblemError):
        parse_problem("[mapping]\nn = 1\nfamily = martian\n[aat]\nG1 = L1 - x1*y1\n")
    with pytest.raises(ProblemError):
        parse_problem("[mapping]\nn = 1\n[aat]\nG1 = L1 - x1*y1\n[options]\nbogus = 3\n")
    with pytest.raises(ProblemError):
        parse_problem(EXP_TEXT.replace("G1 = L1 - x1*y1", "G1 = L1 - (x1"))


def test_comments_and_missing_file(tmp_path):
    spec = parse_problem("# leading comment\n" + EXP_TEXT + "# trailing\n")
    assert spec.n == 1
    with pytest.raises(FileNotFoundError):
        load_problem(tmp_path / "missing.aat")


def test_bundled_problem_files_load():
    for name in ("exp", "lemniscatic", "equianharmonic", "additive", "zeta-drift"):
        spec = load_problem(f"problems/{name}.aat")
        assert spec.n in (1, 2)


def test_readme_lists_the_problem_options():
    text = README.read_text(encoding="utf-8")
    taken = re.search(r"`\[options\]` takes (.*?), each optional", text, re.S).group(1)
    assert re.findall(r"`(\w+)`", taken) == list(problem._OPTION_TYPES)
    ranges = re.search(r"Options out of range \((.*?)\)", text, re.S).group(1)
    assert re.findall(r"`(\w+)", ranges) == list(problem._OPTION_RANGES)
    # the family comment of the format block; "a-case1..case5" stands for a range
    comment = re.search(r"^family = \S+ +# (.*)$", text, re.M).group(1)
    families = []
    for item in comment.split(", "):
        spread = re.fullmatch(r"(.*case)(\d+)\.\.case(\d+)", item)
        if spread:
            prefix, lo, hi = spread.groups()
            families += [f"{prefix}{i}" for i in range(int(lo), int(hi) + 1)]
        else:
            families.append(item)
    assert families == list(FAMILIES)

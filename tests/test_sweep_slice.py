"""The tier-1 slice of `tests/sweep.py`: its first draws and the inputs that
CHANGES.md names, each run through `aat all` in process.

Every input ends ok, or fails exactly the verdicts of its row in `FOUND`, a
table of known faults that each quote the CHANGES.md line naming them.  A
fix shows up as a row that no longer fails; the fixing change deletes the
row (and turns its CHANGES.md line into MENDED).  A row is never added to
get an input to pass.
"""

from pathlib import Path

import pytest

from sweep import draw_inputs, run_input

CHANGES = (Path(__file__).resolve().parent.parent / "CHANGES.md").read_text(encoding="utf-8")

SLICE = 40  # the first draws of the sweep; every one of them ends ok

# (family, params, seed, failing verdict ids, text of the CHANGES.md line
# that names the input)
FOUND = [
    ("weierstrass", {"g2": "7", "g3": "-3"}, 532381, ["period lattice recovered"], "`--seed 532381`"),
    ("weierstrass", {"g2": "7", "g3": "-3"}, 529829, ["period lattice recovered"], "`--seed 529829`"),
    ("exp", {"c": "100000"}, 42, ["period lattice recovered"], "reports false periods for exp at |c| >= 1e5"),
    ("exp", {"c": "1000"}, 623016, ["period lattice recovered"], "exp c = 1000 at `--seed 623016`"),
    ("singular2-case4", {"g2": "7/7473045", "g3": "0"}, 620704, ["period lattice recovered"],
     "singular2-case4 (7/7473045, 0) at `--seed 620704`"),
    ("weierstrass", {"g2": "2", "g3": "-1/2"}, 714601, ["period lattice recovered"],
     "weierstrass (2, −1/2) `--seed 714601`"),
    ("weierstrass", {"g2": "16", "g3": "-8/3"}, 530520, ["period lattice recovered"],
     "weierstrass (16, −8/3) `--seed 530520`"),
    ("singular2-case4", {"g2": "7/2", "g3": "2"}, 286203, ["period lattice recovered"],
     "singular2-case4 (7/2, 2) `--seed 286203`"),
    ("exp", {"c": "-25"}, 486671, ["period lattice recovered"], "exp c = −25 `--seed 486671`"),
    ("weierstrass", {"g2": "8/3", "g3": "-4"}, 133366, ["period lattice recovered"],
     "weierstrass (8/3, −4) `--seed 133366`"),
    ("singular2-case4", {"g2": "-3/2", "g3": "11/2"}, 792901, ["period lattice recovered"],
     "singular2-case4 (−3/2, 11/2) `--seed 792901`"),
]

# inputs that a CHANGES.md line names as mended, and the text of that line
MENDED = [
    ("exp", {"c": "-30"}, 279652, "exp c = −30 at `--seed 279652`"),
    ("weierstrass", {"g2": "831556356/30545515", "g3": "-804246552/30545515"}, 421639,
     "(831556356/30545515, −804246552/30545515) seed 421639"),
    ("singular2-case4", {"g2": "20", "g3": "-7/2"}, 256942, "case 4 (20, −7/2) seed 256942"),
    ("weierstrass", {"g2": "11603921581/322346116", "g3": "-1615785/322346116"}, 42,
     '"derivative recursion order 3" on this lattice, worst 1.343e-06, stays open'),
    ("exp", {"c": "5/7"}, 111485, '{"c": "5/7"}, seed=111485'),
    ("exp", {"c": "-6/7"}, 967507, "exp c = −6/7 at seed 967507"),
]

INPUTS = (
    [(family, params, seed, []) for family, params, seed, _ in draw_inputs(SLICE)]
    + [(family, params, seed, failing) for family, params, seed, failing, _ in FOUND]
    + [(family, params, seed, []) for family, params, seed, _ in MENDED]
)


@pytest.mark.parametrize(
    "family,params,seed,failing", INPUTS,
    ids=[f"{family}({', '.join(params.values())})-s{seed}" for family, params, seed, _ in INPUTS],
)
def test_input_ends_ok_or_as_its_found_row_states(family, params, seed, failing):
    entry = run_input((family, params, seed, {}))
    assert "error" not in entry, entry["error"]
    assert [vid for vid, ok in entry["verdicts"] if not ok] == failing
    assert entry["ok"] == (not failing)


@pytest.mark.parametrize("quote", [row[-1] for row in FOUND + MENDED])
def test_each_row_is_named_in_changes(quote):
    assert quote in CHANGES

"""Residual checks: evaluate symbolic relations on backend samples.

Every symbolic claim the pipeline makes is vetted here: a relation's
variables are bound to backend quantities by name (x_k -> f_k(u),
z{k}_{p} -> df_k/du_p(u), y_k -> f_k(v) or f_k(-u), L_k -> f_k(u+v),
theta -> sum of alpha-weighted derivatives) and the scaled residual
|relation| / (1 + largest monomial magnitude) is collected over seeded
samples drawn from a box in C^n.

The draws live in banks on the backend (`DrawBank`): one seeded stream of
(u, v) rows per (label, seed, box), each row evaluated at u, v, u+v and -u
in one `value_jacobian` call, and extended in draw order only when a check
finds too few usable rows.  `DrawBank.scan` keeps the first usable results
of a check over the bank's rows in draw order; `DrawBank.first_usable`
reads residuals through it, and the first N usable rows count, with 10*N
skips before them ending the check.  Vetting a candidate factor (`vanishes`,
N = 24) and the choice of the group law's root branch read the vetting bank
of the run seed; a reported residual (`residual_check`), the group-law
checks, the derivative checks (around each row's u), period verification
(at each row's u + p) and the uniqueness witness read the report bank of the
run seed and box.  Two banks feed what the checks test: the Newton base
point of period detection is the first usable u of the "period-base" bank
(box 0.8), and the sample nullspace search fits its monomial rows to the u of
the "nullspace" bank.  The relations, formulas and period candidates thus
come from exact algebra or from banks of their own, and the vetting and
report banks' draws do not depend on them, so one shared draw set is as
sound as fresh draws per check (Schwartz, J. ACM 27, 1980; Zippel, EUROSAM
1979).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from . import naming
from .rings import MPoly, StructuralError


@dataclass
class ResidualReport:
    relation_id: str
    samples: int
    max: float
    mean: float
    p95: float
    skipped: int
    tol: float
    ok: bool

    def to_json(self) -> dict:
        return {
            "relation": self.relation_id,
            "samples": self.samples,
            "max": self.max,
            "mean": self.mean,
            "p95": self.p95,
            "pole_skipped": self.skipped,
            "tol": self.tol,
            "verdict": "pass" if self.ok else "fail",
        }


class SamplingError(StructuralError):
    """Sampling could not produce enough pole-free points."""


def draw_points(rng: random.Random, count: int, n: int, box: float) -> np.ndarray:
    """`count` points of the square box in C^n as a (count, n) complex array.

    Each coordinate takes two draws, real part first; the arithmetic is that
    of rng.uniform(-box, box), a + (b - a) * rng.random().
    """
    parts = -box + (box - -box) * np.array([rng.random() for _ in range(2 * n * count)])
    return (parts[0::2] + 1j * parts[1::2]).reshape(count, n)


VALUE_CAP = 1e8  # treat enormous values as pole-adjacent and skip the sample
DEFAULT_BOX = 1.2  # half-width of the sampling box when a problem sets no `box`


def residual_check(
    relation: MPoly,
    backend,
    *,
    relation_id: str,
    samples: int,
    seed: int,
    tol: float,
    box: float = DEFAULT_BOX,
    alpha=None,
    y_mode: str = "v",
) -> ResidualReport:
    """Scaled residual statistics of one relation over the first `samples`
    usable draws of the backend's report bank for (seed, box).

    y/w names are fed from v when y_mode == 'v', and from -u when
    y_mode == 'neg'; L names need u+v, so y_mode 'v'.  SamplingError ends a
    check that skips 10*samples draws before its samples.
    """
    found = draw_bank(backend, "residual", seed, box).first_usable(relation, samples, alpha, y_mode)
    if found is None:
        raise SamplingError(
            f"pole-dominated sampling region for {relation_id}: "
            f"{10 * samples} skips before {samples} samples"
        )
    residuals, skipped = found
    p95 = _p95(residuals)
    return ResidualReport(relation_id, samples, residuals[-1], sum(residuals) / samples, p95, skipped, tol, p95 < tol)


def _p95(residuals):
    """The ceil(0.95 * count)-th of `count` sorted residuals."""
    count = len(residuals)
    return residuals[min(count - 1, max(0, -(-95 * count // 100) - 1))]


def _needs(relation, alpha, y_mode) -> tuple:
    """(names to bind, points a draw reads: u; u and -u; or u, v and u+v) of
    a relation; StructuralError when a name has no binding in this mode (L
    names need v: at -u, u+v would be the constant 0)."""
    names = relation.names_present()
    kinds = set()
    for name in names:
        cls = naming.classify(name)
        if cls is None:
            raise StructuralError(f"no binding for {name!r}")
        kinds.add(cls[0])
    if "theta" in kinds and alpha is None:
        raise StructuralError("relation uses theta but no alpha weights were given")
    pair = bool(kinds & {"y", "w", "L"})
    if pair and y_mode not in ("v", "neg") or "L" in kinds and y_mode != "v":
        raise StructuralError("relation needs a second sample point v")
    return names, 3 if pair and y_mode == "v" else 2 if y_mode == "neg" else 1


def _residuals(relation, names, alpha, val, jac, bad):
    """(scaled residual, usable) at every row: x, z and theta names read u's
    val[0], jac[0], y and w names the second point's val[1], jac[1], and L
    names u+v's val[2]; a row is unusable where `bad` marks one of its
    points or a bound value exceeds VALUE_CAP."""
    usable = ~bad.any(axis=0)
    values = {}
    with np.errstate(all="ignore"):  # rows with non-finite entries are already unusable
        for name in names:
            cls = naming.classify(name)
            kind = cls[0]
            if kind == "theta":
                n = len(alpha)
                col = sum(complex(alpha[k][p]) * jac[0][:, k, p] for k in range(n) for p in range(n))
            elif kind in ("x", "y", "L"):
                col = val["xyL".index(kind)][:, cls[1] - 1]
            else:
                col = jac["zw".index(kind)][:, cls[1] - 1, cls[2] - 1]
            usable &= np.abs(col) <= VALUE_CAP
            values[name] = col
        total, biggest = relation.eval_terms(values)
        res = np.broadcast_to(np.abs(total) / (1.0 + biggest), usable.shape)
    return res, usable


PROBE_SAMPLES = 24  # usable draws a vetting probe reads


class DrawBank:
    """One seeded stream of (u, v) rows drawn from a box, each row evaluated
    at u, v, u+v and -u, and extended in draw order only when a check finds
    too few usable rows.  `u` holds each row's u, and `val`, `jac` and `bad`
    the evaluations at the four points.  The vetting bank also keeps the
    verdicts given, keyed by (relation, tol, y_mode, alpha)."""

    def __init__(self, backend, label: str, seed: int, box: float):
        n, self.backend, self.box, self.verdicts = backend.n, backend, box, {}
        self.rng = random.Random(naming.stage_seed(seed, label))
        self.u = np.empty((0, n), complex)
        self.val, self.jac = np.empty((4, 0, n), complex), np.empty((4, 0, n, n), complex)
        self.bad = np.empty((4, 0), bool)

    def extend(self, count: int) -> None:
        """Draw `count` more rows and evaluate them in one `value_jacobian` call."""
        us, vs = np.split(draw_points(self.rng, count, 2 * self.backend.n, self.box), 2, axis=1)
        new = self.backend.value_jacobian(np.concatenate([us, vs, us + vs, -us]))
        self.u = np.concatenate([self.u, us])
        self.val, self.jac, self.bad = (
            np.concatenate([old, a.reshape(4, count, *a.shape[1:])], axis=1)
            for old, a in zip((self.val, self.jac, self.bad), new)
        )

    def scan(self, want: int, limit: int, evaluate) -> list:
        """The first `want` results that are not None of `evaluate(rows)`,
        which yields results for the bank rows in the slice `rows`, lazily, in
        row order, over the bank's first `limit` rows.  The bank is extended by
        twice the missing results only when its rows run out first."""
        kept, done = [], 0
        while len(kept) < want and done < limit:
            if done == self.bad.shape[1]:
                self.extend(min(2 * (want - len(kept)), limit - done))
            size = min(self.bad.shape[1], limit)
            kept += itertools.islice((r for r in evaluate(slice(done, size)) if r is not None), want - len(kept))
            done = size
        return kept

    def first_usable(self, relation, samples: int, alpha, y_mode: str):
        """(sorted scaled residuals of the first `samples` usable rows, rows
        skipped before them), or None when the first 11*samples - 1 rows,
        that is 10*samples skips, hold fewer.  A row is unusable when u, v,
        u+v or -u (as the relation needs them) is on the pole set, or when a
        bound value exceeds VALUE_CAP.  A first read of the bank draws
        `samples` rows."""
        names, reads = _needs(relation, alpha, y_mode)
        slots = [0, 1 if y_mode == "v" else 3, 2]  # u, the second point, u+v
        read = 0  # rows the scan has checked

        def residuals(rows):
            nonlocal read
            val, jac, bad = self.val[:, rows], self.jac[:, rows], self.bad[:, rows]
            res, ok = _residuals(relation, names, alpha, val[slots], jac[slots], bad[slots[:reads]])
            for r, usable in zip(res.tolist(), ok.tolist()):
                read += 1
                yield r if usable else None

        if not self.bad.shape[1]:
            self.extend(samples)
        found = self.scan(samples, 11 * samples - 1, residuals)
        return (sorted(found), read - samples) if len(found) == samples else None


def draw_bank(backend, *key) -> DrawBank:
    """The backend's bank for key = (label, seed, box), made on first use."""
    if key not in backend.banks:
        backend.banks[key] = DrawBank(backend, *key)
    return backend.banks[key]


def vanishes(relation, backend, *, seed=0, tol=1e-7, alpha=None, y_mode="v") -> bool:
    """Quick boolean residual test used during factor selection: the first
    PROBE_SAMPLES usable rows of the backend's vetting bank for `seed` have
    p95 below tol.  Made once per relation."""
    bank = draw_bank(backend, "probe-bank", seed, DEFAULT_BOX)
    key = (relation, tol, y_mode, alpha if alpha is None else tuple(map(tuple, alpha)))
    if key not in bank.verdicts:
        found = bank.first_usable(relation, PROBE_SAMPLES, alpha, y_mode)
        bank.verdicts[key] = found is not None and _p95(found[0]) < tol
    return bank.verdicts[key]

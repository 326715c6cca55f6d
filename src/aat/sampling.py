"""Residual checks: evaluate symbolic relations on backend samples.

Every symbolic claim the pipeline makes is vetted here: a relation's
variables are bound to backend quantities by name (x_k -> f_k(u),
z{k}_{p} -> df_k/du_p(u), y_k -> f_k(v) or f_k(-u), L_k -> f_k(u+v),
theta -> sum of alpha-weighted derivatives) and the scaled residual
|relation| / (1 + largest monomial magnitude) is collected over seeded
samples drawn from a box in C^n.

A check draws its samples in chunks from one seeded stream.  Each chunk's
points (u, and v, -u or u+v as the relation needs them) go through one
`value_jacobian` call and the relation through one array evaluation
(`MPoly.eval_terms`); the sequential accept rule is then replayed on the
rows: the first `samples` usable draws in draw order count, and the unusable
ones before them are the skips.  Counts and verdicts are those of a loop
that draws and tests one sample at a time.

Vetting a candidate factor (`vanishes`) applies that rule to one bank per
run instead: the backend's `ProbeBank` for the run seed.  The candidates
come from exact algebra and the draws do not depend on them, so one shared
draw set is as sound as fresh draws per candidate (Schwartz, J. ACM 27,
1980; Zippel, EUROSAM 1979).  Both bind names to columns in `_residuals`.

`sequential_draws` gives every other sampled check (formula
agreement, specialization, uniqueness) the same shape: chunks of draws, one
batched evaluation per chunk, and a replay of the loop's stopping rule that
leaves a shared rng exactly where the one-at-a-time loop would.
"""

from __future__ import annotations

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


def sequential_draws(rng: random.Random, want: int, limit: int, width: int, box: float, evaluate) -> list:
    """The results a loop that draws one row of `width` coordinates at a time
    keeps, when it stops after `want` usable rows or `limit` rows.

    Rows are drawn in chunks; `evaluate(rows)` yields one result per row of a
    chunk, in order, with None for an unusable row, and may evaluate the
    whole chunk at once before yielding.  The usable results come back in
    draw order, and `rng` is left where that loop would leave it.
    """
    kept = []
    drawn = 0
    while len(kept) < want and drawn < limit:
        state = rng.getstate()
        count = min(2 * (want - len(kept)), limit - drawn)
        used = 0
        for result in evaluate(draw_points(rng, count, width, box)):
            used += 1
            if result is not None:
                kept.append(result)
                if len(kept) == want:
                    break
        drawn += used
        if used < count:  # give back the draws past the last row used
            rng.setstate(state)
            draw_points(rng, used, width, box)
    return kept


_VALUE_CAP = 1e8  # treat enormous values as pole-adjacent and skip the sample
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
    """Scaled residual statistics of one relation over seeded backend samples.

    y/w names are fed from v when y_mode == 'v', and from -u when
    y_mode == 'neg'; L names need u+v, so y_mode 'v'.  A draw is skipped
    when u, v, u+v or -u (as the mode needs them) is on the pole set, or
    when a bound value exceeds _VALUE_CAP.  The first `samples` usable draws
    count; SamplingError ends a check that skips 10*samples draws before
    that.
    """
    rng = random.Random(naming.stage_seed(seed, f"residual:{relation_id}"))
    names, reads = _needs(relation, alpha, y_mode)
    n = backend.n
    cap = 10 * samples
    residuals = []
    good = []
    chunk = samples
    while True:
        rows = draw_points(rng, chunk, 2 * n if reads == 3 else n, box)
        us = rows[:, :n]
        points = [us, rows[:, n:], us + rows[:, n:]] if reads == 3 else [us, -us][:reads]
        val, jac, bad = backend.value_jacobian(np.concatenate(points))
        shape = (reads, chunk)
        res, ok = _residuals(
            relation, names, alpha, val.reshape(*shape, n), jac.reshape(*shape, n, n), bad.reshape(shape)
        )
        residuals.extend(res.tolist())
        good.extend(ok.tolist())
        counted = np.cumsum(good)
        if counted[-1] >= samples:
            last = int(np.searchsorted(counted, samples))
            skipped = last + 1 - samples
            break
        skipped = len(good) - int(counted[-1])
        if skipped >= cap:
            break
        chunk = 2 * (samples - int(counted[-1]))
    if skipped >= cap:
        raise SamplingError(
            f"pole-dominated sampling region for {relation_id}: "
            f"{cap} skips before {samples} samples"
        )
    residuals = sorted(r for r, g in zip(residuals[: last + 1], good) if g)
    count = len(residuals)
    p95 = _p95(residuals)
    return ResidualReport(
        relation_id=relation_id,
        samples=count,
        max=residuals[-1],
        mean=sum(residuals) / count,
        p95=p95,
        skipped=skipped,
        tol=tol,
        ok=p95 < tol,
    )


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
    points or a bound value exceeds _VALUE_CAP."""
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
            usable &= np.abs(col) <= _VALUE_CAP
            values[name] = col
        total, biggest = relation.eval_terms(values)
        res = np.broadcast_to(np.abs(total) / (1.0 + biggest), usable.shape)
    return res, usable


PROBE_SAMPLES = 24  # usable draws a probe reads; 10 times as many skips mean False


class ProbeBank:
    """The draws of every `vanishes` probe with one (backend, seed): one
    seeded stream of (u, v) rows, each evaluated at u, v, u+v and -u, and
    the verdicts given, keyed by (relation, tol, y_mode, alpha)."""

    def __init__(self, backend, seed: int):
        n, self.backend, self.verdicts = backend.n, backend, {}
        self.rng = random.Random(naming.stage_seed(seed, "probe-bank"))
        self.val, self.jac = np.empty((4, 0, n), complex), np.empty((4, 0, n, n), complex)
        self.bad = np.empty((4, 0), bool)
        self.extend(PROBE_SAMPLES)

    def extend(self, count: int) -> None:
        """Draw `count` more rows and evaluate them in one `value_jacobian` call."""
        us, vs = np.split(draw_points(self.rng, count, 2 * self.backend.n, DEFAULT_BOX), 2, axis=1)
        new = self.backend.value_jacobian(np.concatenate([us, vs, us + vs, -us]))
        self.val, self.jac, self.bad = (
            np.concatenate([old, a.reshape(4, count, *a.shape[1:])], axis=1)
            for old, a in zip((self.val, self.jac, self.bad), new)
        )

    def probe(self, relation, tol, alpha, y_mode) -> bool:
        """The accept rule of a PROBE_SAMPLES-sample `residual_check`, on rows
        added in draw order until it decides."""
        names, reads = _needs(relation, alpha, y_mode)
        slots = [0, 1 if y_mode == "v" else 3, 2]  # u, the second point, u+v
        limit = 11 * PROBE_SAMPLES - 1
        while True:
            res, ok = _residuals(relation, names, alpha, self.val[slots], self.jac[slots], self.bad[slots[:reads]])
            found = int(ok.sum())
            if found >= PROBE_SAMPLES:
                return bool(_p95(np.sort(res[ok][:PROBE_SAMPLES])) < tol)
            if len(ok) >= limit:
                return False
            self.extend(min(2 * (PROBE_SAMPLES - found), limit - len(ok)))


def vanishes(relation, backend, *, seed=0, tol=1e-7, alpha=None, y_mode="v") -> bool:
    """Quick boolean residual test used during factor selection: a probe of
    the backend's bank for `seed`, made once per relation."""
    bank = backend.probe_banks.get(seed)
    if bank is None:
        bank = backend.probe_banks[seed] = ProbeBank(backend, seed)
    key = (relation, tol, y_mode, alpha if alpha is None else tuple(map(tuple, alpha)))
    if key not in bank.verdicts:
        bank.verdicts[key] = bank.probe(relation, tol, alpha, y_mode)
    return bank.verdicts[key]

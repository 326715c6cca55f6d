"""Residual checks: evaluate symbolic relations on backend samples.

Every symbolic claim the pipeline makes is vetted here: a relation's
variables are bound to backend quantities by name (x_k -> f_k(u),
z{k}_{p} -> df_k/du_p(u), y_k -> f_k(v) or f_k(-u), L_k -> f_k(u+v),
theta -> sum of alpha-weighted derivatives) and the scaled residual
|relation| / (1 + largest monomial magnitude) is collected over seeded
samples drawn from a box in C^n.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import naming
from .rings import MPoly, PoleError, StructuralError


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


def draw_point(rng: random.Random, n: int, box: float) -> tuple:
    return tuple(complex(rng.uniform(-box, box), rng.uniform(-box, box)) for _ in range(n))


def draw_points(rng: random.Random, count: int, n: int, box: float) -> np.ndarray:
    """`count` successive `draw_point` results as a (count, n) complex array."""
    # rng.uniform(a, b) is a + (b - a) * rng.random(); the same arithmetic here
    # keeps every point equal to its draw_point twin
    parts = -box + (box - -box) * np.array([rng.random() for _ in range(2 * n * count)])
    return (parts[0::2] + 1j * parts[1::2]).reshape(count, n)


def _needs(relation: MPoly):
    kinds = set()
    for name in relation.names_present():
        cls = naming.classify(name)
        if cls is not None:
            kinds.add(cls[0])
    return kinds


_VALUE_CAP = 1e8  # treat enormous values as pole-adjacent and skip the sample


def bind_relation(relation: MPoly, backend, u, v=None, alpha=None, y_mode="v", param_values=None):
    """Numeric bindings for every alphabet name the relation mentions.

    y/w names are fed from v when y_mode == 'v', and from -u when
    y_mode == 'neg'; L names always need u+v (y_mode 'v' only).
    """
    values = dict(param_values or {})
    val_u = None
    jac_u = None
    val_v = None
    jac_v = None
    val_sum = None

    def values_u():
        nonlocal val_u
        if val_u is None:
            val_u = backend.value(u)
        return val_u

    def jacobian_u():
        nonlocal jac_u
        if jac_u is None:
            jac_u = backend.jacobian(u)
        return jac_u

    def point_v():
        if y_mode == "neg":
            return tuple(-c for c in u)
        if v is None:
            raise StructuralError("relation needs a second sample point v")
        return v

    def values_v():
        nonlocal val_v
        if val_v is None:
            val_v = backend.value(point_v())
        return val_v

    def jacobian_v():
        nonlocal jac_v
        if jac_v is None:
            jac_v = backend.jacobian(point_v())
        return jac_v

    def values_sum():
        nonlocal val_sum
        if val_sum is None:
            pv = point_v()
            val_sum = backend.value(tuple(a + b for a, b in zip(u, pv)))
        return val_sum

    for name in relation.names_present():
        cls = naming.classify(name)
        if cls is None:
            if name not in values:
                raise StructuralError(f"no binding for {name!r}")
            continue
        kind = cls[0]
        if kind == "x":
            values[name] = values_u()[cls[1] - 1]
        elif kind == "y":
            values[name] = values_v()[cls[1] - 1]
        elif kind == "L":
            values[name] = values_sum()[cls[1] - 1]
        elif kind == "z":
            values[name] = jacobian_u()[cls[1] - 1][cls[2] - 1]
        elif kind == "w":
            values[name] = jacobian_v()[cls[1] - 1][cls[2] - 1]
        elif kind == "theta":
            if alpha is None:
                raise StructuralError("relation uses theta but no alpha weights were given")
            jac = jacobian_u()
            values[name] = sum(
                complex(alpha[k][p]) * jac[k][p] for k in range(backend.n) for p in range(backend.n)
            )
    return values


def residual_check(
    relation: MPoly,
    backend,
    *,
    relation_id: str,
    samples: int,
    seed: int,
    tol: float,
    box: float | None = None,
    alpha=None,
    y_mode: str = "v",
    param_values=None,
) -> ResidualReport:
    """Scaled residual statistics of one relation over seeded backend samples."""
    rng = random.Random(naming.stage_seed(seed, f"residual:{relation_id}"))
    box = box if box is not None else backend.default_box()
    kinds = _needs(relation)
    needs_v = bool(kinds & {"y", "w", "L"}) and y_mode == "v"
    residuals = []
    skipped = 0
    cap = 10 * samples
    while len(residuals) < samples:
        if skipped >= cap:
            raise SamplingError(
                f"pole-dominated sampling region for {relation_id}: "
                f"{skipped} skips before {samples} samples"
            )
        u = draw_point(rng, backend.n, box)
        v = draw_point(rng, backend.n, box) if needs_v else None
        try:
            if backend.is_pole(u):
                raise PoleError("u on pole set")
            if needs_v:
                if backend.is_pole(v):
                    raise PoleError("v on pole set")
                uv = tuple(a + b for a, b in zip(u, v))
                if backend.is_pole(uv):
                    raise PoleError("u+v on pole set")
            if y_mode == "neg" and backend.is_pole(tuple(-c for c in u)):
                raise PoleError("-u on pole set")
            values = bind_relation(
                relation, backend, u, v, alpha=alpha, y_mode=y_mode, param_values=param_values
            )
            if any(abs(c) > _VALUE_CAP for c in values.values()):
                raise PoleError("value overflow near pole")
            total, biggest = relation.eval_terms(values)
        except PoleError:
            skipped += 1
            continue
        residuals.append(abs(total) / (1.0 + biggest))
    residuals.sort()
    count = len(residuals)
    idx95 = min(count - 1, max(0, -(-95 * count // 100) - 1))
    p95 = residuals[idx95]
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


def vanishes(relation, backend, *, samples=24, seed=0, tol=1e-7, box=None, alpha=None, y_mode="v", param_values=None) -> bool:
    """Quick boolean residual test used during factor selection."""
    try:
        rep = residual_check(
            relation,
            backend,
            relation_id="probe",
            samples=samples,
            seed=seed,
            tol=tol,
            box=box,
            alpha=alpha,
            y_mode=y_mode,
            param_values=param_values,
        )
    except SamplingError:
        return False
    return rep.ok

"""Period detection: find p with F(u + p) = F(u) from value/derivative collisions.

Two distinct points with equal mapping values and equal first-derivative
matrices force a period (their whole Taylor expansions coincide).  The
detector seeds Newton iterations on F(b) = F(a) over a grid of offsets,
keeps solutions whose derivative matrices also match, verifies each candidate
difference on the run's report bank, and reduces the verified candidates to
a small generator set by integer-combination sweeps.  Each generator is then
divided by the primes up to 31 while the quotient verifies: the grid may find
only multiples of a short period (exp at large |c|).

All seeds share one array Newton over the backend's `value_jacobian`.  The
candidates are verified together, and then the generators: every period
reads the same rows u of the report bank in draw order, only as many as its
accept rule needs.  F(u) is the bank's, so each round evaluates u + p alone
for the rows of every open period, in a few calls.  The Newton base point is
the first usable u of a bank of its own ("period-base"), so the candidates
do not come from the report bank's rows, and one shared draw set is as sound
as fresh draws per candidate (see `sampling`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import DEFAULT_BOX, draw_bank


@dataclass
class PeriodCandidate:
    p: tuple
    residual: float
    note: str = ""

    def to_json(self):
        return {
            "period": [[c.real, c.imag] for c in self.p],
            "residual": self.residual,
            "note": self.note,
        }


def _norm(p) -> float:
    return max(abs(c) for c in p)


def _solve(jac, rhs):
    """Row-wise solution of jac @ x = rhs in closed form (n = 1 or 2), and where it exists."""
    if jac.shape[-1] == 1:
        det = jac[:, 0, 0]
        ok = det != 0
        return rhs / np.where(ok, det, 1)[:, None], ok
    a, b, c, d = jac[:, 0, 0], jac[:, 0, 1], jac[:, 1, 0], jac[:, 1, 1]
    det = a * d - b * c
    ok = det != 0
    det = np.where(ok, det, 1)
    x = np.stack([d * rhs[:, 0] - b * rhs[:, 1], a * rhs[:, 1] - c * rhs[:, 0]], axis=1)
    return x / det[:, None], ok


def _newton(backend, target, seeds, *, iters=40, tol=1e-12, max_step=8.0):
    """Solve F(b) = target by damped Newton from every seed at once.

    Returns (b[N, n], jac[N, n, n], converged[N]).  Each row follows the
    rules of a single solve: it stops at a pole, at a singular derivative
    matrix or a step longer than `max_step`; a step is halved at most 5 times
    and is taken only if it lowers the largest mismatch.
    """
    b = np.array(seeds, dtype=complex)
    val, jac, bad = backend.value_jacobian(b)
    err = val - target
    live = ~bad
    converged = np.zeros(len(b), dtype=bool)
    for _ in range(iters):
        size = np.max(np.abs(err), axis=1)
        done = live & (size < tol)
        converged |= done
        live &= ~done
        rows = np.flatnonzero(live)
        if not len(rows):
            break
        step, ok = _solve(jac[rows], err[rows])
        ok &= np.max(np.abs(step), axis=1) <= max_step
        live[rows[~ok]] = False
        rows, step = rows[ok], step[ok]
        # backtracking keeps wildly overshooting steps inside the basin
        for _ in range(5):
            if not len(rows):
                break
            trial = b[rows] - step
            val, tjac, tbad = backend.value_jacobian(trial)
            terr = val - target
            better = ~tbad & (np.max(np.abs(terr), axis=1) < size[rows])
            took = rows[better]
            b[took], err[took], jac[took] = trial[better], terr[better], tjac[better]
            rows, step = rows[~better], step[~better] / 2
        live[rows] = False
    return b, jac, converged


_MIN_PERIOD = 1e-6  # a shorter difference or quotient is no period candidate
_VERIFY_ROWS = 600  # points per evaluator call when verifying; bounds its temporaries


def _row_gaps(bank, rows, periods):
    """(worst relative gap, counted), one row per period and one column per
    bank row u of the slice `rows`, from F at u (the bank's) and at u + p,
    evaluated in calls of at most _VERIFY_ROWS points.

    A row near a pole (at u or u + p) contributes nothing and is not
    counted; a component above 1e6 ends the row's comparison, and the row
    is not counted.
    """
    n = bank.u.shape[1]
    us = (bank.u[rows][None] + np.array(periods, dtype=complex)[:, None]).reshape(-1, n)
    shifted = [bank.backend.value_jacobian(us[k : k + _VERIFY_ROWS]) for k in range(0, len(us), _VERIFY_ROWS)]
    v0, v1 = bank.val[0, rows], np.concatenate([val for val, _, _ in shifted]).reshape(len(periods), -1, n)
    usable = ~(bank.bad[0, rows] | np.concatenate([bad for _, _, bad in shifted]).reshape(len(periods), -1))
    big = np.abs(v0) > 1e6
    with np.errstate(invalid="ignore"):
        rel = np.abs(v0 - v1) / (1 + np.abs(v0))
    # components before a row's first big one enter the worst
    seen = usable[..., None] & (np.cumsum(big, axis=1) == 0)
    return np.where(seen, rel, 0.0).max(axis=2), usable & ~big.any(axis=1)


def _verify_periods(bank, periods, *, samples, tol):
    """Worst relative |F(u + p) - F(u)| of each period p over the first
    `samples` usable rows u of a draw bank, or None for a p that fails.

    The open periods read the bank's rows in draw order, together, in
    chunks: `samples` rows first, then twice the most usable rows that an
    open period still misses, up to 12*samples in all.  F(u) is the bank's; each round
    evaluates u + p alone (`_row_gaps`), and extends the bank only when the
    chunk runs past its rows.  The accept rule replays the rows in order: a
    p fails once a counted row sees the running worst above tol.  Since the
    running worst only grows, a p fails as soon as it passes tol.
    """
    limit = 12 * samples
    good, worst, result = [0] * len(periods), [0.0] * len(periods), [None] * len(periods)
    open_, read = list(range(len(periods))), 0
    while open_:
        count = min(max(2 * (samples - good[i]) for i in open_) if read else samples, limit - read)
        if read + count > len(bank.u):
            bank.extend(read + count - len(bank.u))
        row_worst, counted = _row_gaps(bank, slice(read, read + count), [periods[i] for i in open_])
        read += count
        still = []
        for i, gaps, kept in zip(open_, row_worst, counted):
            run = np.maximum.accumulate(np.maximum(gaps, worst[i]))
            total = good[i] + np.cumsum(kept)
            if total[-1] >= samples:
                last = float(run[np.searchsorted(total, samples)])
                result[i] = None if last > tol else last
            elif run[-1] <= tol and read < limit:
                good[i], worst[i] = int(total[-1]), float(run[-1])
                still.append(i)
        open_ = still
    return result


def _coefficients(points, basis):
    """The rounded least-squares coefficients of the rows of the complex
    array `points` in the basis, one column per row, from one solve."""
    vecs = np.array(basis, dtype=complex)
    A = np.stack([vecs.real, vecs.imag], axis=-1).reshape(len(vecs), -1).T
    rhs = np.stack([points.real, points.imag], axis=-1).reshape(len(points), -1).T
    coeffs, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    return np.round(coeffs)


def _reduce_rows(points, basis):
    """Each row of `points` minus its best integer combination of the basis."""
    for m, b in zip(_coefficients(points, basis), np.array(basis, dtype=complex)):
        points = points - m[:, None] * b
    return points


def lattice_index(points, basis) -> int:
    """The index of the lattice of as many `points` as basis vectors, each an
    integer combination of them, in the basis's: |det| of the coefficients."""
    return abs(round(np.linalg.det(_coefficients(np.array(points, dtype=complex), basis))))


def _reduce_against(p, basis):
    """Subtract the best integer combination of the basis from p."""
    if not basis:
        return p
    return tuple(_reduce_rows(np.array([p], dtype=complex), basis)[0])


def reduce_candidates(cands, *, tol=1e-7, max_rank=None):
    """Greedy integer-lattice reduction of verified period candidates."""
    basis: list = []
    for p in sorted(cands, key=_norm):
        r = _reduce_against(p, basis)
        for _ in range(4):
            r2 = _reduce_against(r, basis)
            if r2 == r:
                break
            r = r2
        if _norm(r) <= tol * (1 + _norm(p)):
            continue
        if max_rank is not None and len(basis) >= max_rank:
            continue
        basis.append(r)
        basis.sort(key=_norm)
        changed = True
        while changed:
            changed = False
            for i in range(len(basis)):
                others = basis[:i] + basis[i + 1 :]
                r = _reduce_against(basis[i], others)
                if _norm(r) <= tol * (1 + _norm(basis[i])):
                    basis.pop(i)
                    changed = True
                    break
                if _norm(r) < _norm(basis[i]) - 1e-12:
                    basis[i] = r
                    changed = True
            basis.sort(key=_norm)
    return basis


def integer_combinations(points, basis, tol=1e-7) -> list:
    """For each point, whether it is an integer combination of the basis:
    what is left after five reductions against it is within tol of zero,
    relative to the point.  Each reduction treats every point at once."""
    if not points:
        return []
    start = np.array(points, dtype=complex)
    left = start
    if basis:
        for _ in range(5):
            left = _reduce_rows(left, basis)
    size = np.max(np.abs(start), axis=1)
    return (np.max(np.abs(left), axis=1) <= tol * (1 + size)).tolist()


def _saturate(bank, generators, base, target, *, samples, tol) -> tuple:
    """(generators, residual of each or None): every generator g verified
    together with its quotients g/m by the primes m <= 31, and divided by the
    first m that passes, round by round while one does.  A g/m that failed
    fails for good, so a round tries only the primes that passed before.  A
    g/m shorter than _MIN_PERIOD or with F(base + g/m) not near F(base) =
    target fails unverified."""
    gens, result = list(generators), [None] * len(generators)
    trials = [(i, m) for i in range(len(gens)) for m in (1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)]
    while trials:
        quotients = [tuple(c / m for c in gens[i]) for i, m in trials]
        # a loose screen at one point: a g/m that is no period fails it at
        # once, without a chunk of verification rows
        val, _, bad = bank.backend.value_jacobian(np.add(base, quotients))
        near = ~bad & (np.max(np.abs(val - target), axis=1) <= 1e-6 * (1 + np.max(np.abs(target))))
        keep = [k for k, (_, m) in enumerate(trials) if m == 1 or near[k] and _norm(quotients[k]) >= _MIN_PERIOD]
        verified = _verify_periods(bank, [quotients[k] for k in keep], samples=samples, tol=tol)
        checked = dict(zip(keep, verified))
        passed: dict = {}
        for k, (i, m) in enumerate(trials):
            if m == 1:
                result[i] = checked[k]
            elif checked.get(k) is not None:
                passed.setdefault(i, []).append((m, checked[k]))
        for i, hits in passed.items():
            m, result[i] = hits[0]
            gens[i] = tuple(c / m for c in gens[i])
        trials = [(i, m) for i, hits in passed.items() for m, _ in hits]
    return gens, result


def detect_period(
    backend,
    *,
    tol: float = 1e-9,
    seed: int = 0,
    box: float = DEFAULT_BOX,
    samples: int = 50,
    jac_tol: float = 1e-8,
) -> list:
    """Period candidates of the mapping, reduced to lattice generators, each
    verified on the report bank of (seed, box).

    The Newton seeds span offsets of half-width `backend.period_box()` from
    one base point: the first u among the first 200 rows of the
    "period-base" bank (box 0.8) that is off the pole set with every
    |f_k(u)| <= 1e4.  An empty result is a valid outcome: rational mappings
    have no period.
    """
    n = backend.n
    span = backend.period_box()
    grid = 13 if n == 1 else 9  # Newton seeds per axis of the offset grid
    bases = draw_bank(backend, "period-base", seed, 0.8)

    def usable(rows):
        ok = ~bases.bad[0, rows] & (np.max(np.abs(bases.val[0, rows]), axis=1) <= 1e4)
        return (i if good else None for i, good in zip(range(rows.start, rows.stop), ok.tolist()))

    found = bases.scan(1, 200, usable)
    if not found:
        return []
    first = found[0]
    base, target, jac_a = tuple(complex(c) for c in bases.u[first]), bases.val[0, first], bases.jac[0, first]
    steps = [(-span + (2 * span) * i / (grid - 1)) for i in range(grid)]
    offsets_1d = [complex(re, im) for re in steps for im in steps]
    if n == 1:
        seeds = [(base[0] + off,) for off in offsets_1d]
    else:
        # dense grid in the first coordinate, coarse in the second; the
        # damped Newton pulls in the rest
        coarse = steps[:: max(1, (len(steps) - 1) // 2)] or steps
        offs = [complex(re, im) for re in coarse for im in coarse]
        seeds = [
            (base[0] + o1, base[1] + o2)
            for o1 in offsets_1d
            for o2 in offs
        ]
    # a period box wider than 8 has seeds farther than 8 from the nearest period
    solved, jacs, converged = _newton(backend, target, seeds, max_step=max(8.0, span))
    rows = np.flatnonzero(converged)
    diffs = solved[rows] - np.array(base)
    far = np.max(np.abs(diffs), axis=1) >= _MIN_PERIOD
    jac_bound = jac_tol * (1 + np.max(np.abs(jac_a)))
    match = np.max(np.abs(jacs[rows] - jac_a), axis=(1, 2)) <= jac_bound
    # dedupe keys: the real and imaginary parts of p rounded to 6 places
    keys = np.round(np.stack([diffs.real, diffs.imag], axis=-1), 6).reshape(len(rows), -1).tolist()
    firsts = {}  # key -> the first far row with it
    for i in np.flatnonzero(far):
        firsts.setdefault(tuple(keys[i]), i)
    pending = [tuple(diffs[i]) for i in firsts.values() if match[i]]
    bank = draw_bank(backend, "residual", seed, box)
    checked = _verify_periods(bank, pending, samples=samples, tol=tol)
    raw = [PeriodCandidate(p=p, residual=r) for p, r in zip(pending, checked) if r is not None]
    generators = reduce_candidates([c.p for c in raw], tol=1e-6, max_rank=2 * n)
    generators, checked = _saturate(bank, generators, base, target, samples=samples, tol=tol)
    out = [PeriodCandidate(p=g, residual=r) for g, r in zip(generators, checked) if r is not None]
    out.sort(key=lambda c: _norm(c.p))
    raw.sort(key=lambda c: _norm(c.p))
    inside = integer_combinations([c.p for c in raw], [c.p for c in out], tol=1e-6)
    for cand, absorbed in zip(raw, inside):
        # anything the rank-capped reduction could not absorb is reported raw
        if not absorbed:
            cand.note = "raw candidate beyond the reduction rank cap"
            out.append(cand)
    return out

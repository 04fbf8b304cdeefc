"""Norms, lacunarity functionals, and empirical constant estimation.

Function norms are taken against normalized Haar measure,
``||f||_q = ((1/|G|) sum |f|^q)^(1/q)`` with ``||f||_inf = max |f|``;
coefficient norms are plain ``l_p`` sums.  The two functionals under study:

* Khinchin ratio   ``||Q||_q / ||A||_2``   (q > 2), and
* Sidon ratio      ``||A||_p / ||Q||_inf`` with p = 2d/(d+1) by default.

Both are scale-invariant in the coefficients, so the estimators search the
unit sphere: projected gradient ascent on ``||Q||_q^q`` for every finite
q, and a coordinate-wise phase search that minimizes ``||Q||_inf`` at
pinned modulus, stopping once every coefficient in turn has been scored
against an unchanged state without improvement.  The phase search scores
each candidate on the current peak points first: a candidate whose
modulus there already reaches the current peak cannot be accepted, so
only the survivors are scored on the whole group, and the pick is the
same as scoring all of them.  Trials are independent,
seeded per ``(seed, trial)``, and every accepted step improves the
objective, so trajectories are monotone and results reproduce bit-for-bit.
The Khinchin trials step together: their coefficients form one block, and
each step takes every product row by row inside one batched call, so each
trial's result is bit-for-bit what it would be alone.  The Sidon trials run
one after another.

Theoretical ceilings accompany the estimates when their model constants
are supplied: ``sqrt(d) (2d)^d C kappa_model`` for the Khinchin kind and
``(2d)^d C / c * d^((d+1)/(2d))`` for the Sidon kind, where C is the
largest variation bound of the extraction measures for this d.  The model
constants are configuration inputs, not derived quantities, so only
one-sided (boundedness) claims are ever asserted against the ceilings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chaos import (
    ChaosPolynomial,
    FullIndex,
    compress,
    enumerate_polynomial,
    enumerate_tetrahedral,
    term_values,
)
from .dissociation import CharacterSystem, require_dissociated
from .errors import InvalidP, InvalidQ, SizeLimitExceeded, ZeroPolynomial
from .groups import TABLE_CELL_LIMIT
from .parallel import map_indexed, trial_rng
from .riesz import extraction_coefficients

_ASCENT_STEP = 0.1
_ASCENT_TOL = 1e-9
_ASCENT_MAX_STEPS = 500
# Sidon phase search: candidate phases per coefficient, sweeps per trial, and
# the largest-modulus points every candidate is scored on before the whole group
_PHASE_GRID = 16
_MAX_SWEEPS = 40
_PEAK_POINTS = 16


def lq_norm(values, q) -> float:
    """Normalized-Haar L_q norm of a value table; q = inf gives max |f|."""
    q = float(q)
    if not 1 <= q <= math.inf:
        raise InvalidQ(f"q must be >= 1 or infinity, got {q}")
    vals = np.abs(np.asarray(values, dtype=np.complex128))
    if q == math.inf:
        return float(vals.max())
    return float(np.mean(vals**q) ** (1.0 / q))


def lp_coeff_norm(coefficients, p) -> float:
    """(sum |A_i|^p)^(1/p) over a coefficient vector."""
    p = float(p)
    if not 1 <= p <= math.inf:
        raise InvalidP(f"p must be >= 1, got {p}")
    mags = np.abs(np.asarray(coefficients, dtype=np.complex128))
    if math.isinf(p):
        return float(mags.max())
    return float(np.sum(mags**p) ** (1.0 / p))


def _nonzero_coefficients(polynomial: ChaosPolynomial) -> np.ndarray:
    coeffs = polynomial.coefficient_vector()
    if coeffs.size == 0 or not np.abs(coeffs).max():
        raise ZeroPolynomial("ratio undefined for the zero polynomial")
    return coeffs


def khinchin_ratio(polynomial: ChaosPolynomial, q) -> float:
    """||Q||_q / ||A||_2 for q > 2."""
    if not 2 < float(q) <= math.inf:
        raise InvalidQ(f"the L_2-L_q comparison needs q > 2, got {q}")
    coeffs = _nonzero_coefficients(polynomial)
    return lq_norm(polynomial.values(), q) / lp_coeff_norm(coeffs, 2)


def sidon_ratio(polynomial: ChaosPolynomial, p: float | None = None) -> float:
    """||A||_p / ||Q||_inf with p defaulting to 2d/(d+1)."""
    coeffs = _nonzero_coefficients(polynomial)
    if p is None:
        d = polynomial.degree
        p = 2 * d / (d + 1)
    return lp_coeff_norm(coeffs, p) / lq_norm(polynomial.values(), math.inf)


def _require_table_cells(terms: int, group_size: int):
    """SizeLimitExceeded if a terms x |G| value table would pass ``TABLE_CELL_LIMIT``."""
    cells = terms * group_size
    if cells > TABLE_CELL_LIMIT:
        raise SizeLimitExceeded(
            f"a value table needs {cells} cells ({terms} terms x |G| = "
            f"{group_size}), over the limit {TABLE_CELL_LIMIT}"
        )


def chaos_indices(
    system: CharacterSystem, d: int, tetrahedral: bool = False
) -> list[FullIndex]:
    """Index tuples of the degree-d chaos (polynomial, or tetrahedral).

    The term count, ``C(m+d-1, d)`` or ``C(m, d)``, is checked against
    ``TABLE_CELL_LIMIT`` before any tuple is listed.
    """
    m = len(system)
    terms = math.comb(m, d) if tetrahedral else math.comb(m + d - 1, d)
    _require_table_cells(terms, system.group.size)
    return (enumerate_tetrahedral if tetrahedral else enumerate_polynomial)(m, d)


def values_matrix(system: CharacterSystem, indices: Sequence) -> np.ndarray:
    """Column t holds the value table of the t-th index's character product.

    A table of more than ``TABLE_CELL_LIMIT`` cells raises SizeLimitExceeded
    before any column is built.  Columns are written into the preallocated
    table, so it is held in memory once.
    """
    _require_table_cells(len(indices), system.group.size)
    matrix = np.empty((system.group.size, len(indices)), dtype=np.complex128)
    for t, idx in enumerate(indices):
        matrix[:, t] = term_values(system, compress(idx))
    return matrix


def _grad_lq_q_matrix(adjoint: np.ndarray, values: np.ndarray, q: float) -> np.ndarray:
    """Complex gradient ``q |f|^(q-2) f`` of ||Q||_q^q in the coefficients.

    ``adjoint`` is ``matrix.conj().T`` and ``values`` is ``matrix @ coeffs``,
    or a block with one such row per trial, giving one gradient row each.
    Entry t is d/dRe(A_t) + i * d/dIm(A_t).
    """
    weight = np.abs(values) ** (q - 2) * values
    # one matrix-vector product per row, each rounded as ``adjoint @ row``
    return q * np.matmul(adjoint, weight[..., None])[..., 0] / adjoint.shape[1]


def grad_lq_q(polynomial: ChaosPolynomial, q: float) -> np.ndarray:
    """Gradient of ||Q||_q^q over (re, im) of each coefficient, for finite q > 2.

    Returned as one complex number per term in canonical term order: the
    real part is the derivative in Re(A_t), the imaginary part in Im(A_t).
    """
    if not (math.isfinite(q) and q > 2):
        raise InvalidQ(f"the gradient needs a finite q > 2, got {q}")
    indices = [idx for idx, _ in polynomial.terms()]
    matrix = values_matrix(polynomial.system, indices)
    return _grad_lq_q_matrix(matrix.conj().T, matrix @ polynomial.coefficient_vector(), q)


def _max_variation_bound(d: int) -> float:
    """C = max_s of the extraction measures' variation bounds for this d."""
    return max(extraction_coefficients(d, s).variation_bound for s in range(1, d + 1))


def khinchin_ceiling(d: int, kappa_model: float) -> float:
    """sqrt(d) (2d)^d C kappa_model with C = max_s variation bound."""
    # C first: it refuses a d past the float range before (2d)^d overflows
    c = _max_variation_bound(d)
    return math.sqrt(d) * (2 * d) ** d * c * float(kappa_model)


def sidon_ceiling(d: int, c_model: float) -> float:
    """(2d)^d C / c * d^((d+1)/(2d)) with C = max_s variation bound."""
    c = _max_variation_bound(d)
    return (2 * d) ** d * c / float(c_model) * d ** ((d + 1) / (2 * d))


@dataclass(eq=False)
class ConstantEstimate:
    """Empirical lacunarity constant plus the run that produced it.

    ``histories`` holds each trial's ratio after every accepted step; it is
    not part of the JSON form.
    """

    kind: str
    d: int
    exponent: float
    system_size: int
    trials: int
    seed: int
    constant: float
    coefficients: np.ndarray
    ceiling: float | None
    histories: list[list[float]]

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "d": self.d,
            "exponent": self.exponent,
            "system_size": self.system_size,
            "trials": self.trials,
            "seed": self.seed,
            "constant": self.constant,
            "ceiling": self.ceiling,
            "coefficients": [[float(c.real), float(c.imag)] for c in self.coefficients],
        }


# one trial's result: (ratio, coefficients, ratio history)
_Result = tuple[float, np.ndarray, list[float]]
# every trial of one estimate: their rngs -> their results, in trial order
_Trials = Callable[[list[np.random.Generator]], list[_Result]]


def _best_of_trials(
    kind: str,
    exponent: float,
    make_trials: Callable[[np.ndarray], _Trials],
    system: CharacterSystem,
    d: int,
    trials: int,
    seed: int,
    indices: Sequence | None,
    ceiling: float | None,
) -> ConstantEstimate:
    """The body both estimators share: checks, value matrix, trials, best ratio.

    ``make_trials`` receives the value matrix once per estimate and returns
    the runner of its trials, which gets trial t's rng ``trial_rng(seed, t)``
    for every t.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    require_dissociated(system, d)
    idx = list(indices) if indices is not None else chaos_indices(system, d)
    run_trials = make_trials(values_matrix(system, idx))
    results = run_trials([trial_rng(seed, t) for t in range(trials)])
    best = max(range(trials), key=lambda t: results[t][0])
    return ConstantEstimate(
        kind=kind,
        d=d,
        exponent=exponent,
        system_size=len(system),
        trials=trials,
        seed=seed,
        constant=results[best][0],
        coefficients=results[best][1],
        ceiling=ceiling,
        histories=[r[2] for r in results],
    )


def _random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return vec / np.linalg.norm(vec)


def _row_products(matrix: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``matrix @ row`` for every row of a block, each rounded as on its own."""
    return np.matmul(matrix, block[:, :, None])[..., 0]


def _row_norms(block: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of every row of a complex block, bit-for-bit.

    That norm is ``sqrt(re . re + im . im)`` with two real dot products,
    and a batched matmul makes the same dot product per row.
    """

    def dots(part):
        return np.matmul(part[:, None, :], part[:, :, None])[:, 0, 0]

    return np.sqrt(dots(block.real) + dots(block.imag))


def _row_lq_norms(values: np.ndarray, q) -> np.ndarray:
    """``lq_norm`` of every row of a value block, bit-for-bit."""
    q = float(q)
    moduli = np.abs(values)
    if q == math.inf:
        return moduli.max(axis=1)
    # the means along contiguous rows are lq_norm's; the root is a scalar
    # power per row, as there, since an array power may round differently
    return np.array([mean ** (1.0 / q) for mean in (moduli**q).mean(axis=1)])


def _ascend(
    matrix: np.ndarray, q, rngs: list[np.random.Generator]
) -> list[_Result]:
    """Every trial's projected gradient ascent, stepped together.

    Row r of each block belongs to trial ``live[r]``.  A step takes every
    product one row at a time inside a single call, so each live trial
    follows, bit for bit, the path it would follow alone: its own step
    size, accept rule and stop.  A trial that stops leaves the blocks.
    """
    coeffs = np.stack([_random_unit(rng, matrix.shape[1]) for rng in rngs])
    values = _row_products(matrix, coeffs)
    ratios = _row_lq_norms(values, q)
    histories = [[float(ratio)] for ratio in ratios]
    results: list = [None] * len(rngs)
    live = np.arange(len(rngs))

    def retire(rows):
        for r in rows:
            results[live[r]] = (float(ratios[r]), coeffs[r].copy(), histories[live[r]])

    if math.isfinite(q):
        adjoint = matrix.conj().T
        steps = np.full(live.size, _ASCENT_STEP)
        for _ in range(_ASCENT_MAX_STEPS):
            grad = _grad_lq_q_matrix(adjoint, values, q)
            candidates = coeffs + steps[:, None] * grad
            candidates /= _row_norms(candidates)[:, None]
            candidate_values = _row_products(matrix, candidates)
            new_ratios = _row_lq_norms(candidate_values, q)
            accepted = new_ratios > ratios
            stalled = np.zeros(live.size, dtype=bool)
            stalled[accepted] = new_ratios[accepted] - ratios[accepted] < _ASCENT_TOL
            coeffs[accepted] = candidates[accepted]
            values[accepted] = candidate_values[accepted]
            ratios[accepted] = new_ratios[accepted]
            for r in accepted.nonzero()[0]:
                histories[live[r]].append(float(ratios[r]))
            steps[~accepted] /= 2
            # a live trial's step is at least 1e-14, so only one just halved
            # can fall below it
            stopped = stalled | (steps < 1e-14)
            if stopped.any():
                retire(stopped.nonzero()[0])
                kept = ~stopped
                live, coeffs, values = live[kept], coeffs[kept], values[kept]
                ratios, steps = ratios[kept], steps[kept]
                if not live.size:
                    break
    # the trials still live at the step cap, or at q = inf, which takes no step
    retire(range(live.size))
    return results


def estimate_khinchin_constant(
    system: CharacterSystem,
    d: int,
    q,
    trials: int,
    seed: int,
    indices: Sequence | None = None,
    kappa_model: float | None = None,
) -> ConstantEstimate:
    """Maximize ||Q||_q / ||A||_2 over unit coefficient vectors.

    The system must be d-dissociated (NotDissociated otherwise).  Each
    trial starts from a random unit vector; for every finite q it then runs
    projected gradient ascent (step 0.1, halved on non-improvement, stop at
    relative stall 1e-9 or 500 steps).  The trials step together, one
    batched product per step, and each trial's result is bit-for-bit the
    one it would reach alone.  The result's ``histories`` holds each
    trial's ratio after every accepted step.
    """
    if not q > 2:
        raise InvalidQ(f"q must exceed 2, got {q}")

    def make_trials(matrix: np.ndarray) -> _Trials:
        return lambda rngs: _ascend(matrix, q, rngs)

    ceiling = khinchin_ceiling(d, kappa_model) if kappa_model is not None else None
    return _best_of_trials(
        "khinchin", float(q), make_trials, system, d, trials, seed, indices, ceiling
    )


def estimate_sidon_constant(
    system: CharacterSystem,
    d: int,
    trials: int,
    seed: int,
    p: float | None = None,
    indices: Sequence | None = None,
    c_model: float | None = None,
) -> ConstantEstimate:
    """Maximize ||A||_p / ||Q||_inf over unimodular coefficient patterns.

    The system must be d-dissociated (NotDissociated otherwise).  The
    modulus of every coefficient is pinned to one (the sharpness question
    lives in the phases), so maximizing the ratio means driving ||Q||_inf
    down: random phase starts followed by coordinate-wise steps, cycling
    over the coefficients, that each score the ``_PHASE_GRID`` (16) roots of
    unity for one coefficient and accept only a strict improvement.  Each
    step first computes the candidates' moduli on the ``_PEAK_POINTS``
    (16) points where ``|Q|`` is largest, with the same operations as on
    the whole group, so they are entries of the full candidate table.  A
    candidate whose maximum there is already within 1e-13 of the current
    peak scores above every acceptable one, so only the others are scored
    on the whole group, and the first argmin among them is the first
    argmin overall: the coefficients and histories are those of scoring
    every candidate.  A trial ends once n steps in a row (one per
    coefficient) are rejected, since every later step would rescore an
    unchanged state, or after ``_MAX_SWEEPS`` (40) sweeps of n steps.  The
    result's ``histories`` holds each trial's ratio after every accepted
    change.  A p below 1, or NaN, raises InvalidP.
    """
    default_p = 2 * d / (d + 1)
    p_eff = default_p if p is None else float(p)
    if not p_eff >= 1:
        raise InvalidP(f"p must be >= 1, got {p_eff}")
    candidates = np.exp(2j * np.pi * np.arange(_PHASE_GRID) / _PHASE_GRID)

    def make_trials(matrix: np.ndarray) -> _Trials:
        n = matrix.shape[1]
        # row t is column t of the matrix, contiguous
        columns = np.ascontiguousarray(matrix.T)
        n_top = min(_PEAK_POINTS, matrix.shape[0])

        def trial(rng: np.random.Generator) -> _Result:
            coeffs = np.exp(2j * np.pi * rng.uniform(size=n))
            values = matrix @ coeffs
            start_moduli = np.abs(values)
            peak = float(start_moduli.max())
            top = np.argpartition(start_moduli, -n_top)[-n_top:]
            coeff_norm = lp_coeff_norm(coeffs, p_eff)
            history = [coeff_norm / peak]
            # one candidate table per trial; its first rows are written in place
            # for the candidates that survive the peak points
            shifted = np.empty((_PHASE_GRID, matrix.shape[0]), dtype=np.complex128)
            moduli = np.empty(shifted.shape)
            rejected = 0
            for step in range(_MAX_SWEEPS * n):
                t_idx = step % n
                col = columns[t_idx]
                delta = (candidates - coeffs[t_idx])[:, None]
                # row k is values + col * delta[k]; the column stays the left
                # operand so the products round as they always have, and the
                # moduli on the peak points are entries of the full table
                partial = np.abs(col[top] * delta + values[top]).max(axis=1)
                limit = peak - 1e-13
                alive = (partial < limit).nonzero()[0]
                accepted = False
                if alive.size:
                    rows = shifted[: alive.size]
                    np.multiply(col, delta[alive], out=rows)
                    rows += values
                    peaks = np.abs(rows, out=moduli[: alive.size]).max(axis=1)
                    row = int(np.argmin(peaks))
                    accepted = peaks[row] < limit
                if accepted:
                    values[:] = rows[row]
                    coeffs[t_idx] = candidates[alive[row]]
                    peak = float(peaks[row])
                    top = np.argpartition(moduli[row], -n_top)[-n_top:]
                    history.append(coeff_norm / peak)
                    rejected = 0
                else:
                    rejected += 1
                    # n rejections in a row: every further step would rescore
                    # a state already scored
                    if rejected == n:
                        break
            return coeff_norm / peak, coeffs, history

        # the survivor sets are ragged, so the trials run one after another
        return lambda rngs: map_indexed(lambda t: trial(rngs[t]), len(rngs))

    ceiling = None
    if c_model is not None and abs(p_eff - default_p) < 1e-12:
        ceiling = sidon_ceiling(d, c_model)
    return _best_of_trials(
        "sidon", p_eff, make_trials, system, d, trials, seed, indices, ceiling
    )

"""Norms, lacunarity functionals, and empirical constant estimation.

Function norms are taken against normalized Haar measure,
``||f||_q = ((1/|G|) sum |f|^q)^(1/q)`` with ``||f||_inf = max |f|``.
The two functionals under study:

* Khinchin ratio   ``||Q||_q / ||A||_2``   (q > 2), and
* Sidon ratio      ``||A||_p / ||Q||_inf`` with p = 2d/(d+1) by default.

Both are scale-invariant in the coefficients, so the estimators search the
unit sphere: projected gradient ascent on ``||Q||_q^q`` for every finite
q, and a coordinate-wise phase search that minimizes ``||Q||_inf`` at
pinned modulus, where ``||A||_p = n^(1/p)`` for n terms, stopping once
every coefficient in turn has been scored against an unchanged state
without improvement.  The phase search scores each candidate on the
current peak points first: a candidate whose modulus there already
reaches the current peak cannot be accepted, so only the survivors are
scored on the whole group, and the pick is the same as scoring all of
them.  Trials are independent, seeded per ``(seed, trial)``, and every
accepted step improves the objective, so trajectories are monotone and
results reproduce bit-for-bit.
The Khinchin trials step together: their coefficients form one block, and
each step takes every product row by row inside one batched call, so each
trial's result is bit-for-bit what it would be alone.  The Sidon trials run
one after another.

The value matrix is one block from the builder of every value table.  When
every term's character is real, as on every base-2 host, it is float64 and
+-1, and ``_product`` multiplies a complex operand through its float64
view: one real BLAS product, at half the arithmetic of a complex one, whose
artifacts keep their bytes under one and two OpenBLAS threads (a test pins
this).  The Sidon search keeps complex products, whatever the matrix's type.

Both estimators evaluate Q once per class of points the terms cannot tell
apart.  Q is a function on G/H, for H the joint kernel of the terms'
characters, so equal rows of a real +-1 value matrix are the cosets of H,
each of |H| points: ``_distinct_rows`` keeps one row per coset, and means
over the kept rows are means over G, and maxima the same floats.  On
base-2 hosts at even d every term is constant on {x, complement of x}, so
the |G| work at least halves.  A complex matrix, or one whose rows all
differ, is used whole.  Points whose values differ by a common phase are
not folded: that covers odd d on base 2, where Q(complement of x) =
-Q(x), and complex matrices, whose rows on one coset can differ in their
last bits.

Theoretical ceilings accompany the estimates when their model constants
are supplied: ``sqrt(d) (2d)^d C kappa_model`` for the Khinchin kind and
``(2d)^d C / c * d^((d+1)/(2d))`` for the Sidon kind, where C is the
largest variation bound of the extraction measures for this d.  The model
constants are configuration inputs, not derived quantities, so only
one-sided (boundedness) claims are ever asserted against the ceilings.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .chaos import (
    FullIndex,
    enumerate_polynomial,
    enumerate_tetrahedral,
    require_indices,
    term_exponents,
)
from .dissociation import CharacterSystem, require_dissociated
from .errors import InvalidP, InvalidQ, SizeLimitExceeded
from .groups import _character_tables, _require_cells
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
    """Normalized-Haar L_q norm of a value table; q = inf gives max |f|.  Raises InvalidQ."""
    q = float(q)
    if not 1 <= q <= math.inf:
        raise InvalidQ(f"q must be >= 1 or infinity, got {q}")
    return float(_row_lq_norms(np.asarray(values, dtype=np.complex128).reshape(1, -1), q)[0])


def _require_chaos_cells(system: CharacterSystem, d: int, tetrahedral: bool = False):
    """SizeLimitExceeded if the degree-d chaos passes ``TABLE_CELL_LIMIT``.

    Its term count, ``C(m+d-1, d)`` or ``C(m, d)``, taken without listing a
    tuple, is checked times |G| for the term value tables, and times d x
    rank for the tuples and the exponent rows ``term_positions`` gathers.
    """
    m = len(system)
    terms = math.comb(m, d) if tetrahedral else math.comb(m + d - 1, d)
    _require_cells(terms, system.group.size, "terms x |G|")
    _require_cells(terms, d * system.group.rank, "terms x (d x rank)")


def chaos_indices(
    system: CharacterSystem, d: int, tetrahedral: bool = False
) -> list[FullIndex]:
    """Index tuples of the degree-d chaos (polynomial, or tetrahedral), sized before listed."""
    _require_chaos_cells(system, d, tetrahedral)
    return (enumerate_tetrahedral if tetrahedral else enumerate_polynomial)(len(system), d)


def values_matrix(system: CharacterSystem, indices: Sequence) -> np.ndarray:
    """Column t holds the value table of the t-th index's character product.

    One ``groups._character_tables`` block of the terms' exponent rows:
    float64 and +-1 when every term is real, as on every base-2 host,
    complex128 otherwise.  Past ``TABLE_CELL_LIMIT`` cells it raises
    SizeLimitExceeded before any column is built.
    """
    _require_cells(len(indices), system.group.size, "terms x |G|")
    return _character_tables(system.group, term_exponents(system, indices))


def _distinct_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, classes): one row per class of byte-equal rows, and each row's class.

    A real +-1 block is keyed row by row by its packed sign bits.  Its
    equal rows are the cosets of H, the joint kernel of the terms'
    characters, so every class has |H| members, and a mean over the kept
    rows is a mean over G.  Each class keeps its first row in element
    order, the classes ordered by their first rows, and ``classes[x]`` is
    element x's class.  A complex block, or one whose rows all differ, is
    returned as it is, with ``classes`` the identity.
    """
    classes = np.arange(len(matrix))
    if np.iscomplexobj(matrix):
        return matrix, classes
    signs = np.packbits(matrix < 0, axis=1)
    keys = signs.view(np.dtype((np.void, signs.shape[1])))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if len(first) == len(matrix):
        return matrix, classes
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return matrix[first[order]], rank[inverse.reshape(-1)]


def _grad_lq_q_matrix(adjoint: np.ndarray, values: np.ndarray, q: float) -> np.ndarray:
    """Complex gradient ``q |f|^(q-2) f`` of ||Q||_q^q in the coefficients.

    ``adjoint`` is ``matrix.conj().T`` and ``values`` is ``matrix @ coeffs``,
    or a block with one such row per trial, giving one gradient row each.
    Entry t is d/dRe(A_t) + i * d/dIm(A_t).
    """
    weight = np.abs(values) ** (q - 2) * values
    # one matrix-vector product per row, each rounded as on its own
    return q * _product(adjoint, weight[..., None])[..., 0] / adjoint.shape[1]


def _max_variation_bound(d: int) -> float:
    """C = max_s of the extraction measures' variation bounds for this d."""
    return max(extraction_coefficients(d, s).variation_bound for s in range(1, d + 1))


def _finite_ceiling(kind: str, d: int, ceiling: float) -> float:
    """The ceiling, or SizeLimitExceeded when it has left the float range."""
    if not math.isfinite(ceiling):
        raise SizeLimitExceeded(
            f"the {kind} ceiling at d = {d} is {ceiling}, past the float range"
        )
    return ceiling


def khinchin_ceiling(d: int, kappa_model: float) -> float:
    """sqrt(d) (2d)^d C kappa_model with C = max_s variation bound.

    SizeLimitExceeded when it is not finite: at d = 19 with kappa_model = 10.
    """
    # C first: it refuses a d past the float range before (2d)^d overflows
    c = _max_variation_bound(d)
    ceiling = math.sqrt(d) * (2 * d) ** d * c * float(kappa_model)
    return _finite_ceiling("Khinchin", d, ceiling)


def sidon_ceiling(d: int, c_model: float) -> float:
    """(2d)^d C / c * d^((d+1)/(2d)) with C = max_s variation bound.

    SizeLimitExceeded when it is not finite: at d = 19 with c_model = 1.
    """
    c = _max_variation_bound(d)
    ceiling = (2 * d) ** d * c / float(c_model) * d ** ((d + 1) / (2 * d))
    return _finite_ceiling("Sidon", d, ceiling)


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


def _best_of_trials(
    kind: str,
    exponent: float,
    run_trials: Callable[[np.ndarray, int, Callable[[int], np.random.Generator]], list[_Result]],
    system: CharacterSystem,
    d: int,
    trials: int,
    seed: int,
    indices: Sequence | None,
    ceiling: float | None,
    held: Callable[[int], tuple[int, int, str]],
    history: Callable[[int], int],
) -> ConstantEstimate:
    """The body both estimators share: checks, value matrix, trials, best ratio.

    ``run_trials`` receives the value matrix, one row per class of points
    (``_distinct_rows``), the trial count and a function making trial t's
    rng ``trial_rng(seed, t)``, and returns the results in trial order.  It
    makes each rng when that trial draws its start, so no list of
    generators is held.  The indices must pass
    ``require_indices`` at degree d; ``held(n)``, the ``(rows, columns,
    shape)`` of what the trials hold for n terms, and their kept results, n
    coefficients and ``history(n)`` ratios a trial, must fit
    ``TABLE_CELL_LIMIT``.  All of it is checked first.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    require_dissociated(system, d)
    idx = list(indices) if indices is not None else chaos_indices(system, d)
    require_indices(len(system), idx, d)
    _require_cells(*held(len(idx)))
    _require_cells(trials, len(idx) + history(len(idx)), "trials x (terms + history)")
    # passed, not held here, so that run_trials may replace it by a copy
    results = run_trials(
        _distinct_rows(values_matrix(system, idx))[0], trials, functools.partial(trial_rng, seed)
    )
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


def _product(matrix: np.ndarray, operand: np.ndarray) -> np.ndarray:
    """``matrix @ operand`` for a complex operand, as the estimators take it.

    A complex matrix multiplies the operand as it is.  A real one
    multiplies the operand's float64 view, in which each complex column is
    a pair of real columns (a vector of n entries reads as an (n, 2) real
    block), and the result is read back as complex: a real product, where
    ``@`` would copy the matrix to complex first.
    """
    if np.iscomplexobj(matrix):
        return np.matmul(matrix, operand)
    pairs = np.ascontiguousarray(operand).view(np.float64)
    return np.matmul(matrix, pairs).view(np.complex128)


def _row_products(matrix: np.ndarray, block: np.ndarray) -> np.ndarray:
    """``matrix @ row`` for every row of a block, each rounded as on its own."""
    return _product(matrix, block[:, :, None])[..., 0]


def _row_norms(block: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of every row of a complex block, bit-for-bit.

    That norm is ``sqrt(re . re + im . im)`` with two real dot products,
    and a batched matmul makes the same dot product per row.
    """

    def dots(part):
        return np.matmul(part[:, None, :], part[:, :, None])[:, 0, 0]

    return np.sqrt(dots(block.real) + dots(block.imag))


def _row_lq_norms(values: np.ndarray, q) -> np.ndarray:
    """The normalized-Haar L_q norm of every row of a value block.

    InvalidQ if some ``|f|^q`` takes a row's norm out of the float range.
    """
    q = float(q)
    moduli = np.abs(values)
    if q == math.inf:
        return moduli.max(axis=1)
    # a scalar root per row, as the scan takes its true norms: an array power may round differently
    with np.errstate(over="ignore"):
        powered = moduli**q
    norms = np.array([mean ** (1.0 / q) for mean in powered.mean(axis=1)])
    if not np.isfinite(norms).all():
        raise InvalidQ(
            f"q = {q} takes |f|^q out of the float range, so the L_q norms are not finite"
        )
    return norms


# numpy's overflow warnings stay quiet: at large q an overflow shows as a
# nonfinite norm, which the step scales away or _row_lq_norms refuses
@np.errstate(over="ignore", invalid="ignore")
def _ascend(
    matrix: np.ndarray, trials: int, rng: Callable[[int], np.random.Generator], q
) -> list[_Result]:
    """Every trial's projected gradient ascent, stepped together.

    Row r of each block belongs to trial ``live[r]``.  A step takes every
    product one row at a time inside a single call, so each live trial
    follows, bit for bit, the path it would follow alone: its own step
    size, accept rule and stop.  A trial that stops leaves the blocks.
    """
    coeffs = np.empty((trials, matrix.shape[1]), dtype=np.complex128)
    for t in range(trials):
        coeffs[t] = _random_unit(rng(t), matrix.shape[1])
    values = _row_products(matrix, coeffs)
    ratios = _row_lq_norms(values, q)
    histories = [[float(ratio)] for ratio in ratios]
    results: list = [None] * trials
    live = np.arange(trials)

    def retire(rows):
        for r in rows:
            results[live[r]] = (float(ratios[r]), coeffs[r].copy(), histories[live[r]])

    if math.isfinite(q):
        adjoint = matrix.conj().T
        steps = np.full(live.size, _ASCENT_STEP)
        for _ in range(_ASCENT_MAX_STEPS):
            grad = _grad_lq_q_matrix(adjoint, values, q)
            candidates = coeffs + steps[:, None] * grad
            norms = _row_norms(candidates)
            # at large q the squares in a row's norm can overflow: scale that
            # row by its largest modulus first
            huge = ~np.isfinite(norms)
            if huge.any():
                candidates[huge] /= np.abs(candidates[huge]).max(axis=1)[:, None]
                norms[huge] = _row_norms(candidates[huge])
            candidates /= norms[:, None]
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
    one it would reach alone.  Their ``(trials, |G|)`` and ``(trials, n)``
    blocks, and the results they keep (n coefficients and at most 501
    ratios a trial), are sized against ``TABLE_CELL_LIMIT`` before the
    value matrix is built.  The result's ``histories`` holds each trial's
    ratio after every accepted step.
    """
    if not q > 2:
        raise InvalidQ(f"q must exceed 2, got {q}")

    ceiling = khinchin_ceiling(d, kappa_model) if kappa_model is not None else None
    run_trials = functools.partial(_ascend, q=q)
    return _best_of_trials(
        "khinchin", float(q), run_trials, system, d, trials, seed, indices, ceiling,
        lambda n: (trials, max(system.group.size, n), "trials x max(|G|, terms)"),
        lambda n: _ASCENT_MAX_STEPS + 1,
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
    unchanged state, or after ``_MAX_SWEEPS`` (40) sweeps of n steps.
    The search never reads p: every ratio is ``n ** (1 / p)``, the
    ``||A||_p`` of every pattern, over a peak of ``|Q|``.  The result's
    ``histories`` holds each trial's ratio after every accepted change.  A
    p below 1, or NaN, raises InvalidP.  The trials hold the matrix and its
    transpose, 2 n |G| cells, and keep n coefficients and at most 40 n + 1
    ratios each; both are sized before the matrix is built.
    """
    default_p = 2 * d / (d + 1)
    p_eff = default_p if p is None else float(p)
    if not p_eff >= 1:
        raise InvalidP(f"p must be >= 1, got {p_eff}")
    candidates = np.exp(2j * np.pi * np.arange(_PHASE_GRID) / _PHASE_GRID)

    def run_trials(matrix: np.ndarray, trials: int, rng) -> list[_Result]:
        # every step multiplies a column by complex deltas: a real matrix is
        # made complex once rather than cast again in each product, and the
        # products keep the bits they have on the complex table
        matrix = matrix.astype(np.complex128, copy=False)
        n = matrix.shape[1]
        # row t is column t of the matrix, contiguous
        columns = np.ascontiguousarray(matrix.T)
        n_top = min(_PEAK_POINTS, matrix.shape[0])

        def trial(rng: np.random.Generator) -> tuple[np.ndarray, list[float]]:
            """(coefficients, the peak after the start and every accepted change)."""
            coeffs = np.exp(2j * np.pi * rng.uniform(size=n))
            values = matrix @ coeffs
            start_moduli = np.abs(values)
            peak = float(start_moduli.max())
            top = np.argpartition(start_moduli, -n_top)[-n_top:]
            history = [peak]
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
                    history.append(peak)
                    rejected = 0
                else:
                    rejected += 1
                    # n rejections in a row: every further step would rescore
                    # a state already scored
                    if rejected == n:
                        break
            return coeffs, history

        # the survivor sets are ragged, so the trials run one after another
        results = map_indexed(lambda t: trial(rng(t)), trials)
        # ||A||_p of every unimodular pattern: at most n, so finite at every p >= 1
        coeff_norm = n ** (1.0 / p_eff)
        ratios = [[coeff_norm / peak for peak in peaks] for _, peaks in results]
        return [(r[-1], coeffs, r) for r, (coeffs, _) in zip(ratios, results)]

    ceiling = None
    if c_model is not None and abs(p_eff - default_p) < 1e-12:
        ceiling = sidon_ceiling(d, c_model)
    return _best_of_trials(
        "sidon", p_eff, run_trials, system, d, trials, seed, indices, ceiling,
        lambda n: (2 * n, system.group.size, "2 x terms x |G|"),
        lambda n: _MAX_SWEEPS * n + 1,
    )

"""Weighted point sets that discretize L_q norms on chaos subspaces.

A scheme is a point multiset {xi_1 .. xi_m} with nonnegative weights
{lambda_1 .. lambda_m}; it sandwiches the true norm when

    C_1 ||f||_q <= ( sum_i lambda_i |f(xi_i)|^q )^(1/q) <= C_2 ||f||_q

for every f in the span of the basis.  The constants reported here are
probe estimates: the minimum and maximum of the discrete-to-true norm
ratio over random coefficient vectors.  Probe sampling can only shrink the
gap from the inside, so the reported C_1 is an upper bound and C_2 a lower
bound on the extreme ratios over the whole subspace; the estimation gap is
inherent to probing and is documented with the output rather than closed.

``scan_point_counts`` draws nested random point sequences per trial (a
uniform permutation extended by uniform resampling once every group
element is used) and evaluates each requested scheme size on the same
probe set, so growing a scheme within a trial changes nothing but the
added points.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analysis import values_matrix
from .dissociation import CharacterSystem
from .errors import InvalidQ, SizeLimitExceeded
from .groups import TABLE_CELL_LIMIT, FiniteAbelianGroup
from .parallel import map_indexed, trial_rng


@dataclass(eq=False)
class DiscretizationScheme:
    """Points (by element index), nonnegative weights, and the norm exponent."""

    group: FiniteAbelianGroup
    point_indices: np.ndarray
    weights: np.ndarray
    q: float

    def __post_init__(self):
        idx = np.asarray(self.point_indices, dtype=np.int64)
        w = np.asarray(self.weights, dtype=np.float64)
        if idx.ndim != 1 or w.shape != idx.shape:
            raise ValueError("point indices and weights must be matching vectors")
        if idx.size and (idx.min() < 0 or idx.max() >= self.group.size):
            raise ValueError("point index out of range")
        if w.size and w.min() < 0:
            raise ValueError("weights must be nonnegative")
        if not 1 <= float(self.q) < math.inf:
            raise InvalidQ(f"q must be finite and >= 1, got {self.q}")
        self.point_indices = idx
        self.weights = w

    @classmethod
    def uniform(
        cls, group: FiniteAbelianGroup, point_indices: Sequence[int], q: float
    ) -> "DiscretizationScheme":
        idx = np.asarray(point_indices, dtype=np.int64)
        return cls(group, idx, np.full(idx.size, 1.0 / max(idx.size, 1)), q)


def _evaluate_with_probes(
    scheme: DiscretizationScheme,
    powered: np.ndarray,
    true_norms: np.ndarray,
    weighted: np.ndarray | None = None,
) -> tuple[float, float]:
    """(C_1, C_2) from |f(xi_i)|^q (row i for point i, one column per probe).

    ``weighted``, if given, is a buffer of ``powered``'s shape that takes
    the weighted rows in place of a fresh table.
    """
    weighted = np.multiply(scheme.weights[:, None], powered, out=weighted)
    discrete = np.sum(weighted, axis=0) ** (1.0 / scheme.q)
    ratios = discrete / true_norms
    return float(ratios.min()), float(ratios.max())


def _nested_point_sequence(
    rng: np.random.Generator, group_size: int, length: int
) -> np.ndarray:
    """Uniform permutation first, then iid uniform once the group is exhausted.

    Prefixes of size m <= |G| are uniform m-subsets; longer prefixes continue
    with replacement, which is the only way to request m > |G| points.
    """
    head = rng.permutation(group_size)
    if length <= group_size:
        return head[:length]
    tail = rng.integers(0, group_size, size=length - group_size)
    return np.concatenate([head, tail])


def scan_point_counts(
    system: CharacterSystem,
    indices: Sequence,
    q: float,
    m_grid: Sequence[int],
    trials: int,
    seed: int,
    probes: int = 64,
) -> list[dict]:
    """Probe C_1/C_2 of uniformly weighted random schemes across sizes.

    The basis is the value table of the chaos terms ``indices`` of
    ``system``, built once.  One record per (m, trial):
    {"m", "trial", "c1", "c2", "q", "n_basis", "seed"}.  Within a trial all
    sizes share one nested point sequence and one probe set, so medians
    across the grid reflect pure size growth.  A trial raises ``|f|^q``
    once per group element into an |G| x probes table, and gathers the
    scheme rows from it into an m x probes table, so either one above
    ``TABLE_CELL_LIMIT`` cells raises SizeLimitExceeded before the basis
    is built.  ``q`` must be finite and >= 1 (InvalidQ) and ``probes`` >= 1.

    The scan allocates its work buffers once and every trial overwrites
    them: the complex |G| x probes product, its ``|f|^q`` table, the
    gathered max(m) x probes scheme rows and their weighted copy.  They
    take the same operations in the same order as fresh arrays would, so
    the records do not depend on them.  A q at which some probe's true
    norm is not finite and positive (``|f|^q`` past the float range)
    raises InvalidQ.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if probes < 1:
        raise ValueError(f"probes must be >= 1, got {probes}")
    if not 1 <= q < math.inf:
        raise InvalidQ(f"q must be finite and >= 1, got {q}")
    sizes = sorted(set(int(m) for m in m_grid))
    if not sizes or sizes[0] < 1:
        raise ValueError("m_grid must contain positive point counts")
    group = system.group
    cells = max(sizes[-1], group.size) * probes
    if cells > TABLE_CELL_LIMIT:
        raise SizeLimitExceeded(
            f"a scan trial needs {cells} cells (max(m, |G|) * probes), "
            f"over the limit {TABLE_CELL_LIMIT}"
        )
    matrix = values_matrix(system, indices)
    n = matrix.shape[1]
    # one set of work buffers per scan, overwritten by every trial
    product = np.empty((group.size, probes), dtype=np.complex128)
    table = np.empty((group.size, probes))
    gathered = np.empty((sizes[-1], probes))
    weighted = np.empty_like(gathered)

    def run_trial(t: int) -> list[dict]:
        rng = trial_rng(seed, t)
        sequence = _nested_point_sequence(rng, group.size, sizes[-1])
        coeffs = rng.standard_normal((probes, n)) + 1j * rng.standard_normal((probes, n))
        # |f|^q once per group element, one column per probe; the in-place
        # ``**=`` takes the path of ``np.abs(...) ** q`` (np.square at q = 2)
        np.abs(np.matmul(matrix, coeffs.T, out=product), out=table)
        with np.errstate(over="ignore"):
            operator.ipow(table, q)
            means = np.ascontiguousarray(table.T).mean(axis=1)
        # the root per probe is a scalar power, as in lq_norm
        true_norms = np.array([mean ** (1.0 / q) for mean in means])
        if not (np.isfinite(true_norms) & (true_norms > 0)).all():
            raise InvalidQ(
                f"q = {q} takes the probes' |f|^q out of the float range, so "
                "their true norms are not finite and positive"
            )
        # the scheme of size m is the first m rows; every index is in range,
        # and "clip" writes straight into the buffer where "raise" copies
        powered = np.take(table, sequence, axis=0, out=gathered, mode="clip")
        rows = []
        for m in sizes:
            scheme = DiscretizationScheme.uniform(group, sequence[:m], q)
            c1, c2 = _evaluate_with_probes(scheme, powered[:m], true_norms, weighted[:m])
            rows.append(
                {
                    "m": m,
                    "trial": t,
                    "c1": c1,
                    "c2": c2,
                    "q": float(q),
                    "n_basis": n,
                    "seed": seed,
                }
            )
        return rows

    nested = map_indexed(run_trial, trials)
    records = [row for rows in nested for row in rows]
    records.sort(key=lambda r: (r["m"], r["trial"]))
    return records


def summarize_scan(records: Sequence[dict]) -> list[dict]:
    """Per-size medians and worst cases, ordered by m."""
    sizes = sorted(set(r["m"] for r in records))
    summary = []
    for m in sizes:
        c1s = np.array([r["c1"] for r in records if r["m"] == m])
        c2s = np.array([r["c2"] for r in records if r["m"] == m])
        summary.append(
            {
                "m": m,
                "median_c1": float(np.median(c1s)),
                "worst_c1": float(c1s.min()),
                "median_c2": float(np.median(c2s)),
                "worst_c2": float(c2s.max()),
                "trials": int(c1s.size),
            }
        )
    return summary


def render_scan_svg(
    summary: Sequence[dict], n_basis: int, q: float, marker_m: int | None = None
) -> str:
    """Minimal SVG line plot of median C_1 against scheme size.

    Hand-rolled so the output is deterministic byte-for-byte; a vertical
    marker is drawn at ``marker_m`` (typically N^(q/2)).
    """
    width, height, pad = 480, 320, 48
    ms = [row["m"] for row in summary]
    ys = [row["median_c1"] for row in summary]
    x_lo, x_hi = min(ms), max(ms)
    span = max(x_hi - x_lo, 1)
    y_hi = max(max(ys), 1.0)

    def sx(m):
        return pad + (width - 2 * pad) * (m - x_lo) / span

    def sy(v):
        return height - pad - (height - 2 * pad) * (v / y_hi)

    points = " ".join(f"{sx(m):.2f},{sy(v):.2f}" for m, v in zip(ms, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<polyline points="{points}" fill="none" stroke="steelblue" stroke-width="2"/>',
    ]
    for m, v in zip(ms, ys):
        parts.append(
            f'<circle cx="{sx(m):.2f}" cy="{sy(v):.2f}" r="3" fill="steelblue"/>'
        )
    if marker_m is not None and x_lo <= marker_m <= x_hi:
        parts.append(
            f'<line x1="{sx(marker_m):.2f}" y1="{pad}" x2="{sx(marker_m):.2f}" '
            f'y2="{height - pad}" stroke="firebrick" stroke-dasharray="4 3"/>'
        )
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12">points m (N={n_basis}, q={q:g})</text>'
    )
    parts.append(
        f'<text x="14" y="{height / 2:.0f}" font-size="12" '
        f'transform="rotate(-90 14 {height / 2:.0f})" text-anchor="middle">median C1</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

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
element is used), weights every point of an m-point scheme 1/m, and
evaluates each requested scheme size on the same probe set, so growing a
scheme within a trial changes nothing but the added points.  Like the
estimators, the scan evaluates f once per class of points the terms cannot
tell apart (``analysis._distinct_rows``: the cosets of the terms' joint
kernel, found on a real +-1 basis and never by a common phase), so a
scheme's sum of ``|f|^q`` is its point counts, summed per class, times the
``|f|^q`` table of the classes, and every size of a trial is summed in one
product of the (sizes, classes) counts with that table.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

from .analysis import _distinct_rows, _product, values_matrix
from .chaos import require_indices
from .dissociation import CharacterSystem
from .errors import InvalidQ
from .groups import _require_cells
from .parallel import map_indexed, trial_rng


def _evaluate_with_probes(
    sums: np.ndarray, m: int, q: float, true_norms: np.ndarray
) -> tuple[float, float]:
    """(C_1, C_2) of the uniformly weighted m-point scheme whose ``|f|^q`` sums to ``sums``.

    ``sums`` holds, one entry per probe, the sum of |f(xi_i)|^q over the
    scheme's points, each counted as often as it occurs; every point takes
    the weight 1/m.
    """
    ratios = (sums / m) ** (1.0 / q) / true_norms
    return float(ratios.min()), float(ratios.max())


def _nested_point_sequence(
    rng: np.random.Generator, group_size: int, length: int
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform permutation first, then iid uniform once the group is exhausted.

    Returned as (head, tail), each held once: the tail is empty unless
    ``length`` passes |G|.  Prefixes of size m <= |G| are uniform m-subsets;
    longer prefixes continue with replacement, which is the only way to
    request m > |G| points.
    """
    head = rng.permutation(group_size)
    if length <= group_size:
        return head[:length], head[:0]
    return head, rng.integers(0, group_size, size=length - group_size)


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
    once per class of points into a classes x probes table, counts the
    points of every size per class into a sizes x classes table, and sums
    every scheme in one product of the two.  An |G| x probes table, |G|
    counts per size, or a point sequence of max(m) above
    ``TABLE_CELL_LIMIT`` cells raises SizeLimitExceeded before the basis
    is built.  ``q`` must be finite and >= 1 (InvalidQ), ``probes`` >= 1,
    and ``indices`` must pass ``require_indices`` (ValueError).

    The scan allocates the ``|f|^q`` table and the counts once, and every
    trial overwrites them.  On a real basis (every base-2 host) the probe
    product is one real BLAS product of the coefficients' float64 view
    (``analysis._product``).  A q at which some probe's true norm is not
    finite and positive (``|f|^q`` past the float range) raises InvalidQ.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if probes < 1:
        raise ValueError(f"probes must be >= 1, got {probes}")
    require_indices(len(system), indices)
    if not 1 <= q < math.inf:
        raise InvalidQ(f"q must be finite and >= 1, got {q}")
    sizes = sorted(set(int(m) for m in m_grid))
    if not sizes or sizes[0] < 1:
        raise ValueError("m_grid must contain positive point counts")
    group = system.group
    _require_cells(group.size, probes, "|G| x probes")
    _require_cells(len(sizes), group.size, "sizes x |G|")
    _require_cells(sizes[-1], 1, "max(m) points x 1")
    matrix, classes = _distinct_rows(values_matrix(system, indices))
    n = matrix.shape[1]
    # one set of work buffers per scan, overwritten by every trial
    table = np.empty((len(matrix), probes))
    counts = np.empty((len(sizes), len(matrix)))
    starts = [0, *sizes[:-1]]

    def run_trial(t: int) -> list[dict]:
        rng = trial_rng(seed, t)
        head, tail = _nested_point_sequence(rng, group.size, sizes[-1])
        coeffs = rng.standard_normal((probes, n)) + 1j * rng.standard_normal((probes, n))
        # |f|^q once per class of points, one column per probe; the in-place
        # ``**=`` takes the path of ``np.abs(...) ** q`` (np.square at q = 2)
        np.abs(_product(matrix, coeffs.T), out=table)
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
        # row s counts each class's points among the first sizes[s]: the
        # points each size adds, from the head and from the tail past it,
        # counted per group element and added up per class, then a running
        # sum down the rows
        for s, (lo, hi) in enumerate(zip(starts, sizes)):
            past = slice(max(lo - group.size, 0), max(hi - group.size, 0))
            added = np.bincount(head[lo:hi], minlength=group.size)
            added += np.bincount(tail[past], minlength=group.size)
            counts[s] = np.bincount(classes, weights=added, minlength=len(matrix))
        np.cumsum(counts, axis=0, out=counts)
        rows = []
        for m, sums in zip(sizes, counts @ table):
            c1, c2 = _evaluate_with_probes(sums, m, q, true_norms)
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

"""Dissociation testing for finite character sets, plus example generators.

A finite set {gamma_1 .. gamma_m} of distinct nontrivial characters is
``d``-dissociated when the only exponent tuples (k_1 .. k_m), |k_j| <= d,
whose product gamma_1^{k_1} ... gamma_m^{k_m} is the trivial character are
the ones where every single factor gamma_j^{k_j} is already trivial.

Verdicts apply to the finite set that was handed in; nothing is inferred
about supersets.  The checker reports the lexicographically first
violating tuple (coordinate order -d < ... < d) as a witness, so its
output is deterministic.

Residue rule: gamma_j^k depends only on k mod ord(gamma_j), so the checker
walks one representative per residue class, the least one in -d..d.  On
coordinate j that is -d .. -d + r_j - 1 with radix r_j = min(2d+1,
ord(gamma_j)), and the walk covers prod r_j tuples in mixed-radix
lexicographic order.  This changes no verdict and no witness: replacing
every k_j of a violating tuple by the least representative of its class
keeps the product character and the triviality of every factor power, and
gives a tuple coordinatewise <= the original.  So the lexicographically
first violating tuple of the full (2d+1)^m scan is already made of least
representatives, and the reduced walk meets it first.  The same argument
makes the join's "first right tuple per residue" and its first matching
left tuple those of the full scan.  When every order exceeds 2d the
radices are all 2d+1 and the walk is the full scan.

The check is a meet-in-the-middle join (Horowitz and Sahni, J. ACM 21,
1974) split at a left half of ceil(m/2) coordinates.  The right half's
tuples are indexed by residue sum, keeping the first tuple per residue;
the left half's tuples are walked in order, each looking up the residue
that cancels its own.  A left tuple whose factor powers are all trivial
has the trivial product, so it violates only with a right tuple of
residue 0 that has a nontrivial factor: the first such right tuple is one
row, shared by all of them.  Each half is walked once, so the budget
bounds the larger half's tuple count, not prod r_j.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    DuplicateCharacter,
    GroupMismatch,
    ModulusTooSmall,
    NotDissociated,
    PositionOutOfRange,
    StaircaseViolated,
    TrivialCharacterPresent,
)
from .groups import Character, FiniteAbelianGroup, _require_size, make_group

# tuples walked on the larger half of the join
DEFAULT_ENUM_BUDGET = 10**8

# rows materialized per numpy chunk during enumeration; the left walk's
# first block is shorter, so an early witness returns before a whole chunk
_CHUNK = 1 << 16
_FIRST_BLOCK = 1 << 10


@dataclass(frozen=True)
class CharacterSystem:
    """Ordered list of distinct nontrivial characters on one group."""

    group: FiniteAbelianGroup
    characters: tuple[Character, ...]

    def __post_init__(self):
        seen = set()
        for chi in self.characters:
            if chi.group != self.group:
                raise GroupMismatch("system characters must share the system group")
            if chi.is_trivial:
                raise TrivialCharacterPresent(
                    "character systems must not contain the trivial character"
                )
            if chi.exponents in seen:
                raise DuplicateCharacter(f"character {chi.exponents} appears twice")
            seen.add(chi.exponents)

    @classmethod
    def from_exponents(
        cls, group: FiniteAbelianGroup, exponents: Iterable[Sequence[int]]
    ) -> "CharacterSystem":
        chars = tuple(group.character(a) for a in exponents)
        return cls(group, chars)

    def __len__(self) -> int:
        return len(self.characters)

    @cached_property
    def exponent_matrix(self) -> np.ndarray:
        """Shape (m, rank): row j holds the exponent vector of gamma_j."""
        mat = np.array([chi.exponents for chi in self.characters], dtype=np.int64)
        mat = mat.reshape(len(self.characters), self.group.rank)
        mat.flags.writeable = False
        return mat

    def to_json_obj(self) -> dict:
        return {
            "orders": list(self.group.orders),
            "characters": [list(chi.exponents) for chi in self.characters],
        }


@dataclass(frozen=True)
class DissociationReport:
    """Outcome of a dissociation check.

    When ``dissociated`` is false, ``witness`` is an exponent tuple whose
    character product is trivial while at least one factor power is not.
    """

    d: int
    dissociated: bool
    witness: tuple[int, ...] | None = None

    def to_json_obj(self) -> dict:
        return {
            "d": self.d,
            "dissociated": self.dissociated,
            "witness": list(self.witness) if self.witness is not None else None,
        }


def _radices(system: CharacterSystem, d: int) -> tuple[int, ...]:
    """Residue classes of each exponent range -d..d: min(2d+1, ord(gamma_j))."""
    return tuple(min(2 * d + 1, chi.order) for chi in system.characters)


def _offset_rows(shape: tuple[int, ...], start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the lexicographic tuples with entry j in 0..shape[j]-1."""
    if not shape:
        return np.zeros((stop - start, 0), dtype=np.int64)
    return np.stack(np.unravel_index(np.arange(start, stop), shape), axis=1).astype(np.int64)


def _shift(orders: Sequence[int], d: int) -> int:
    """A stand-in for d in the walk's exponent sums, congruent to d mod lcm(orders).

    The walk's offset o stands for the exponent o - d, and every character
    power depends only on the exponent modulo the group exponent lcm(orders),
    so ``d mod lcm + lcm`` keeps the int64 sums exact for any d.  Exact, that
    is, under the group size limit: a sum has at most m < 2^20 terms,
    each below 2 * lcm(orders) * max(order) <= 2^41, so it stays under 2^61.
    Lifting the limit needs its own bound first; on a cyclic modulus past
    about 2^30 the sums wrap and the check answers wrongly.  The lcm is
    added back rather than dropped because numpy's integer remainder ran
    about 40% slower on the nonnegative sums a zero shift gives
    (``rademacher(20)`` at d = 2: 100 ms against 72 ms).
    """
    exponent = math.lcm(*orders)
    return d % exponent + exponent


def _nontrivial_power_table(
    exponents: np.ndarray, orders: np.ndarray, radices: Sequence[int], shift: int
) -> np.ndarray:
    """Shape (m, max radix): entry [j, o] says whether gamma_j^(o - d) is nontrivial.

    Only the residue columns the walk reads are built; ``shift`` is
    ``_shift(orders, d)``.
    """
    ks = np.arange(max(radices), dtype=np.int64) - shift
    powers = (ks[None, :, None] * exponents[:, None, :]) % orders[None, None, :]
    return powers.any(axis=2)


def _first_violation(
    system: CharacterSystem, d: int, left_len: int
) -> tuple[int, ...] | None:
    """The first violating tuple, joining the first ``left_len`` coordinates to the rest.

    Both sides are walked in ``_CHUNK``-row blocks, the left side after a
    first block of ``min(_FIRST_BLOCK, _CHUNK)`` rows.  The right table holds
    the sorted mixed-radix codes of the residue sums and the first row per
    code, merged block by block.  Left rows look up their cancelling code
    with ``searchsorted``; ``left_len`` is at least 1.  Returns the true
    exponents, or None.
    """
    radices = _radices(system, d)
    left_shape, right_shape = radices[:left_len], radices[left_len:]
    exponents = system.exponent_matrix
    orders = system.group.orders_array
    shift = _shift(system.group.orders, d)
    nontrivial = _nontrivial_power_table(exponents, orders, radices, shift)
    # code of a residue vector: its mixed-radix number over the orders, < |G|
    place = np.cumprod((system.group.orders[1:] + (1,))[::-1])[::-1]

    def walk(side: slice, start: int, stop: int):
        """Offset rows, residue sums and "some factor is nontrivial" of one block."""
        shape = radices[side]
        offsets = _offset_rows(shape, start, min(stop, math.prod(shape)))
        # exact in int64 only because |G| <= 2^20 bounds lcm(orders) and m (see _shift)
        residues = ((offsets - shift) @ exponents[side]) % orders
        cols = np.arange(len(shape))
        return offsets, residues, nontrivial[side][cols[None, :], offsets].any(axis=1)

    right, left = slice(left_len, None), slice(None, left_len)
    first_zero = None  # the first right row with residue 0 and a nontrivial factor
    keys = rows = np.empty(0, dtype=np.int64)
    for start in range(0, math.prod(right_shape), _CHUNK):
        _, residues, has_nontrivial = walk(right, start, start + _CHUNK)
        if first_zero is None:
            hits = np.flatnonzero(has_nontrivial & ~residues.any(axis=1))
            first_zero = start + int(hits[0]) if hits.size else None
        codes = np.concatenate([keys, residues @ place])
        rows = np.concatenate([rows, np.arange(start, start + len(residues))])
        # the least row of each run of equal codes; np.unique's stable sort was
        # half of a check whose witness lies in the first left block
        order = np.argsort(codes)
        codes, rows = codes[order], rows[order]
        runs = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
        keys, rows = codes[runs], np.minimum.reduceat(rows, runs)

    def witness(left_offsets: np.ndarray, row: int) -> tuple[int, ...]:
        """The true exponents o - d of a left row and right row ``row``, as Python ints."""
        offsets = np.concatenate([left_offsets, _offset_rows(right_shape, row, row + 1)[0]])
        return tuple(int(o) - d for o in offsets)

    total = math.prod(left_shape)
    bounds = [0, *range(min(_FIRST_BLOCK, _CHUNK), total, _CHUNK), total]
    for start, stop in zip(bounds, bounds[1:]):
        offsets, residues, has_nontrivial = walk(left, start, stop)
        targets = ((-residues) % orders) @ place
        pos = np.minimum(np.searchsorted(keys, targets), keys.size - 1)
        matched = np.where(has_nontrivial, keys[pos] == targets, first_zero is not None)
        hits = np.flatnonzero(matched)
        if hits.size:
            i = hits[0]
            return witness(offsets[i], rows[pos[i]] if has_nontrivial[i] else first_zero)
    return None


def is_d_dissociated(system: CharacterSystem, d: int) -> DissociationReport:
    """Check d-dissociation by a meet-in-the-middle join over one exponent per residue class.

    Coordinate j walks -d .. -d + r_j - 1 with r_j = min(2d+1, ord(gamma_j)).
    The join splits at a left half of ceil(m/2) coordinates and walks each
    half once; the larger half's tuple count must not pass
    ``DEFAULT_ENUM_BUDGET``, or BudgetExceeded is raised.
    Returns the lexicographically first witness of the full (2d+1)^m scan
    (coordinates ordered -d < ... < d) when the system is not d-dissociated.
    """
    # CharacterSystem already refuses the trivial character
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    m = len(system)
    if m == 0:
        return DissociationReport(d=d, dissociated=True)
    radices = _radices(system, d)
    left_len = (m + 1) // 2
    per_side = max(math.prod(radices[:left_len]), math.prod(radices[left_len:]))
    if per_side > DEFAULT_ENUM_BUDGET:
        raise BudgetExceeded(
            f"the meet-in-the-middle (mitm) join walks {per_side} tuples per side "
            f"(> budget {DEFAULT_ENUM_BUDGET})"
        )
    witness = _first_violation(system, d, left_len)
    return DissociationReport(d=d, dissociated=witness is None, witness=witness)


def require_dissociated(system: CharacterSystem, d: int) -> None:
    """Raise NotDissociated, carrying the report, unless the system is d-dissociated."""
    report = is_d_dissociated(system, d)
    if not report.dissociated:
        raise NotDissociated(
            f"system is not {d}-dissociated; witness {report.witness}",
            report=report,
        )


def hadamard_trig_system(
    ratio: int,
    count: int,
    modulus: int,
    d: int = 1,
    include_negatives: bool = False,
) -> CharacterSystem:
    """Characters of Z_modulus at the lacunary frequencies ratio^k, k = 1..count.

    The modulus must exceed ``2 * d * ratio**count`` so that exponent
    combinations bounded by ``d`` cannot wrap around; ``d`` here is the
    dissociation level the caller intends to test.  For ``ratio >= d + 1``
    the resulting system is d-dissociated.

    ``include_negatives`` additionally appends the mirrored frequencies
    ``-ratio^k``.  Note that the mirrored set is never d-dissociated in the
    exponent-tuple sense: chi_n * chi_{-n} is trivial with nontrivial
    factors, so the default leaves the mirrors out.
    """
    if ratio < 2:
        raise ValueError(f"ratio must be >= 2, got {ratio}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    # the bound grows one factor at a time and stops once it reaches the
    # modulus, so a huge count never forms ratio**count
    bound = 2 * d
    for _ in range(count):
        bound *= ratio
        if bound >= modulus:
            raise ModulusTooSmall(
                f"modulus {modulus} must exceed 2*d*ratio^count = 2*{d}*{ratio}^{count}"
            )
    group = make_group([modulus])
    exps: list[tuple[int, ...]] = []
    for k in range(1, count + 1):
        n = ratio**k
        exps.append((n % modulus,))
        if include_negatives:
            exps.append(((-n) % modulus,))
    return CharacterSystem.from_exponents(group, exps)


def _normalize_digit_values(position_sets, digit_values):
    if digit_values is None:
        return [[1] * len(s) for s in position_sets]
    if isinstance(digit_values, int):
        return [[digit_values] * len(s) for s in position_sets]
    values = [list(v) for v in digit_values]
    if len(values) != len(position_sets) or any(
        len(v) != len(s) for v, s in zip(values, position_sets)
    ):
        raise ValueError("digit_values must mirror the shape of digit_position_sets")
    return values


def vc_system_from_digit_sets(
    base: int,
    digit_position_sets: Sequence[Sequence[int]],
    digit_values=None,
    width: int | None = None,
) -> CharacterSystem:
    """Vilenkin-Chrestenson characters supported on staircase position sets.

    Each set must contain a digit position absent from all preceding sets
    (the staircase condition); for a prime base the resulting system is
    then d-dissociated for every d.  ``digit_values`` assigns the
    exponent at each position: ``None`` means all ones, an int broadcasts,
    and a nested list gives per-position values in {1 .. base-1}.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    sets = [sorted(set(int(p) for p in s)) for s in digit_position_sets]
    if not sets:
        raise ValueError("at least one digit-position set is required")
    values = _normalize_digit_values(sets, digit_values)
    for row in values:
        for v in row:
            if not 1 <= v <= base - 1:
                raise ValueError(f"digit value {v} outside {{1..{base - 1}}}")
    seen: set[int] = set()
    for i, positions in enumerate(sets):
        if not any(p not in seen for p in positions):
            raise StaircaseViolated(
                f"set #{i} adds no digit position unseen in the preceding sets"
            )
        seen.update(positions)
    max_pos = max(max(s) for s in sets)
    min_pos = min(min(s) for s in sets)
    if min_pos < 0:
        raise PositionOutOfRange(f"digit positions must be >= 0, got {min_pos}")
    if width is None:
        width = max_pos + 1
    elif max_pos >= width:
        raise PositionOutOfRange(
            f"position {max_pos} does not fit in an ambient group of width {width}"
        )
    _require_size(itertools.repeat(base, width))  # before any list of width entries
    group = make_group([base] * width)
    exps = []
    for positions, row in zip(sets, values):
        vec = [0] * width
        for p, v in zip(positions, row):
            vec[p] = v
        exps.append(tuple(vec))
    return CharacterSystem.from_exponents(group, exps)


def rademacher_system(count: int, base: int = 2, value: int = 1) -> CharacterSystem:
    """The first ``count`` generalized Rademacher characters on Z_base^count."""
    # base and group size are checked before count position sets are listed
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    _require_size(itertools.repeat(base, count))
    return vc_system_from_digit_sets(base, [[i] for i in range(count)], value)

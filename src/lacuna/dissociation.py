"""Dissociation testing for finite character sets, plus example generators.

A finite set {gamma_1 .. gamma_m} of distinct nontrivial characters is
``d``-dissociated when the only exponent tuples (k_1 .. k_m), |k_j| <= d,
whose product gamma_1^{k_1} ... gamma_m^{k_m} is the trivial character are
the ones where every single factor gamma_j^{k_j} is already trivial.

Verdicts apply to the finite set that was handed in; nothing is inferred
about supersets.  Both checkers report the lexicographically first
violating tuple (coordinate order -d < ... < d) as a witness, so their
output is deterministic.

Residue rule: gamma_j^k depends only on k mod ord(gamma_j), so the checkers
walk one representative per residue class, the least one in -d..d.  On
coordinate j that is -d .. -d + r_j - 1 with radix r_j = min(2d+1,
ord(gamma_j)), and the walk covers prod r_j tuples in mixed-radix
lexicographic order.  This changes no verdict and no witness: replacing
every k_j of a violating tuple by the least representative of its class
keeps the product character and the triviality of every factor power, and
gives a tuple coordinatewise <= the original.  So the lexicographically
first violating tuple of the full (2d+1)^m scan is already made of least
representatives, and the reduced walk meets it first.  The same argument
makes the meet-in-the-middle table's "first right tuple per residue" and
its first matching left tuple those of the full scan.  When every order
exceeds 2d the radices are all 2d+1 and the walk is the full scan.

The direct checker walks prod r_j tuples; the meet-in-the-middle variant
walks each half once (the larger half's count is its budget), trading
memory for time, and returns the identical verdict and witness.
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
from .groups import Character, FiniteAbelianGroup, make_group

DEFAULT_ENUM_BUDGET = 10**8

# rows materialized per numpy chunk during enumeration
_CHUNK = 1 << 16

_offset_cache: dict[tuple[int, ...], np.ndarray] = {}


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


def _offset_rows(shape: tuple[int, ...], start: int = 0, stop: int | None = None) -> np.ndarray:
    """Rows start..stop-1 of the lexicographic tuples with entry j in 0..shape[j]-1.

    A whole table of at most _CHUNK rows is cached by shape (read-only).
    """
    total = math.prod(shape)
    stop = total if stop is None else stop
    whole = start == 0 and stop == total and total <= _CHUNK
    if whole and shape in _offset_cache:
        return _offset_cache[shape]
    if shape:
        rows = np.stack(np.unravel_index(np.arange(start, stop), shape), axis=1)
        rows = rows.astype(np.int64)
    else:
        rows = np.zeros((stop - start, 0), dtype=np.int64)
    if whole:
        rows.flags.writeable = False
        if len(_offset_cache) > 64:
            _offset_cache.clear()
        _offset_cache[shape] = rows
    return rows


def _shift(orders: Sequence[int], d: int) -> int:
    """A stand-in for d in the walk's exponent sums, congruent to d mod lcm(orders).

    The walk's offset o stands for the exponent o - d, and every character
    power depends only on the exponent modulo the group exponent lcm(orders),
    so ``d mod lcm + lcm`` keeps the int64 sums exact for any d.  The lcm is
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


def _exponents(offsets: np.ndarray, d: int) -> tuple[int, ...]:
    """The true exponents o - d of a walked offset row, as Python ints."""
    return tuple(int(o) - d for o in offsets)


def _validate_check_args(d: int):
    # CharacterSystem already refuses the trivial character
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")


def is_d_dissociated(
    system: CharacterSystem, d: int, budget: int = DEFAULT_ENUM_BUDGET
) -> DissociationReport:
    """Direct enumeration, one exponent per residue class on each coordinate.

    Coordinate j walks -d .. -d + r_j - 1 with r_j = min(2d+1, ord(gamma_j)),
    so prod r_j tuples are walked and compared against ``budget``.  Returns
    the lexicographically first witness of the full (2d+1)^m scan
    (coordinates ordered -d < ... < d) when the system is not d-dissociated.
    """
    _validate_check_args(d)
    m = len(system)
    if m == 0:
        return DissociationReport(d=d, dissociated=True)
    radices = _radices(system, d)
    total = math.prod(radices)
    if total > budget:
        raise BudgetExceeded(
            f"direct enumeration needs {total} tuples (> budget {budget}); "
            "try is_d_dissociated_mitm"
        )
    exponents = system.exponent_matrix
    orders = np.asarray(system.group.orders, dtype=np.int64)
    shift = _shift(system.group.orders, d)
    nontrivial = _nontrivial_power_table(exponents, orders, radices, shift)

    suffix_len = m
    while math.prod(radices[m - suffix_len :]) > _CHUNK and suffix_len > 1:
        suffix_len -= 1
    prefix_len = m - suffix_len
    suffix_offsets = _offset_rows(radices[prefix_len:])
    suffix_sum = (suffix_offsets - shift) @ exponents[prefix_len:]
    cols = np.arange(suffix_len)
    suffix_nontrivial = nontrivial[prefix_len:][cols[None, :], suffix_offsets].any(axis=1)

    for prefix in itertools.product(*(range(r) for r in radices[:prefix_len])):
        if prefix_len:
            prefix_sum = (np.asarray(prefix, dtype=np.int64) - shift) @ exponents[:prefix_len]
            prefix_nontrivial = bool(any(nontrivial[j, o] for j, o in enumerate(prefix)))
        else:
            prefix_sum = np.zeros(system.group.rank, dtype=np.int64)
            prefix_nontrivial = False
        total = (prefix_sum[None, :] + suffix_sum) % orders
        trivial_product = ~total.any(axis=1)
        if prefix_nontrivial:
            violations = trivial_product
        else:
            violations = trivial_product & suffix_nontrivial
        hits = np.flatnonzero(violations)
        if hits.size:
            witness = tuple(o - d for o in prefix) + _exponents(suffix_offsets[hits[0]], d)
            return DissociationReport(d=d, dissociated=False, witness=witness)
    return DissociationReport(d=d, dissociated=True)


def require_dissociated(system: CharacterSystem, d: int) -> None:
    """Raise NotDissociated, carrying the report, unless the system is d-dissociated."""
    report = is_d_dissociated(system, d)
    if not report.dissociated:
        raise NotDissociated(
            f"system is not {d}-dissociated; witness {report.witness}",
            report=report,
        )


def is_d_dissociated_mitm(
    system: CharacterSystem, d: int, budget: int = DEFAULT_ENUM_BUDGET
) -> DissociationReport:
    """Meet-in-the-middle check; same verdict and witness as the direct scan.

    Splits the system into a left half of ceil(m/2) characters and a right
    half, indexes the right partial products by residue, then walks the left
    tuples in lexicographic order.  Storing the first matching right tuple
    per residue (and the first with a nontrivial factor) reproduces the
    direct scan's lexicographically minimal witness.
    """
    _validate_check_args(d)
    m = len(system)
    if m == 0:
        return DissociationReport(d=d, dissociated=True)
    radices = _radices(system, d)
    left_len = (m + 1) // 2
    left_shape, right_shape = radices[:left_len], radices[left_len:]
    left_total, right_total = math.prod(left_shape), math.prod(right_shape)
    per_side = max(left_total, right_total)
    if per_side > budget:
        raise BudgetExceeded(
            f"meet-in-the-middle needs {per_side} tuples per side (> budget {budget})"
        )
    exponents = system.exponent_matrix
    orders = np.asarray(system.group.orders, dtype=np.int64)
    shift = _shift(system.group.orders, d)
    nontrivial = _nontrivial_power_table(exponents, orders, radices, shift)
    right_len = m - left_len

    # residue -> (first right tuple, first right tuple with a nontrivial factor)
    table: dict[bytes, tuple[tuple[int, ...], tuple[int, ...] | None]] = {}
    right_cols = np.arange(right_len)
    for start in range(0, right_total, _CHUNK):
        stop = min(start + _CHUNK, right_total)
        offsets = _offset_rows(right_shape, start, stop)
        residues = ((offsets - shift) @ exponents[left_len:]) % orders
        has_nontrivial = (
            nontrivial[left_len:][right_cols[None, :], offsets].any(axis=1)
            if right_len
            else np.zeros(stop - start, dtype=bool)
        )
        for i in range(stop - start):
            key = residues[i].tobytes()
            ks = _exponents(offsets[i], d)
            first, first_nt = table.get(key, (None, None))
            if first is None:
                first = ks
            if first_nt is None and has_nontrivial[i]:
                first_nt = ks
            table[key] = (first, first_nt)

    left_cols = np.arange(left_len)
    for start in range(0, left_total, _CHUNK):
        stop = min(start + _CHUNK, left_total)
        offsets = _offset_rows(left_shape, start, stop)
        targets = (-((offsets - shift) @ exponents[:left_len])) % orders
        left_nontrivial = nontrivial[:left_len][left_cols[None, :], offsets].any(axis=1)
        for i in range(stop - start):
            entry = table.get(targets[i].tobytes())
            if entry is None:
                continue
            first, first_nt = entry
            right = first if left_nontrivial[i] else first_nt
            if right is None:
                continue
            witness = _exponents(offsets[i], d) + right
            return DissociationReport(d=d, dissociated=False, witness=witness)
    return DissociationReport(d=d, dissociated=True)


def verify_witness(system: CharacterSystem, witness: Sequence[int]) -> bool:
    """True when the witness product is trivial with a nontrivial factor."""
    if len(witness) != len(system):
        return False
    exponents = system.exponent_matrix
    orders = np.asarray(system.group.orders, dtype=np.int64)
    # powers depend on each exponent modulo the group exponent only
    exponent = math.lcm(*system.group.orders)
    ks = np.asarray([k % exponent for k in witness], dtype=np.int64)
    product_trivial = not ((ks @ exponents) % orders).any()
    factor_nontrivial = bool(((ks[:, None] * exponents) % orders).any())
    return product_trivial and factor_nontrivial


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
    top = ratio**count
    if modulus <= 2 * d * top:
        raise ModulusTooSmall(
            f"modulus {modulus} must exceed 2*d*ratio^count = {2 * d * top}"
        )
    group = make_group([modulus])
    exps: list[tuple[int, ...]] = []
    for k in range(1, count + 1):
        n = ratio**k
        exps.append((n % modulus,))
        if include_negatives:
            exps.append(((-n) % modulus,))
    return CharacterSystem.from_exponents(group, exps)


def _normalize_digit_values(position_sets, digit_values, base):
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
    (the staircase condition); the resulting system is then d-dissociated
    for every d within the enumeration budget.  ``digit_values`` assigns the
    exponent at each position: ``None`` means all ones, an int broadcasts,
    and a nested list gives per-position values in {1 .. base-1}.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    sets = [sorted(set(int(p) for p in s)) for s in digit_position_sets]
    if not sets:
        raise ValueError("at least one digit-position set is required")
    values = _normalize_digit_values(sets, digit_values, base)
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
    return vc_system_from_digit_sets(base, [[i] for i in range(count)], value)

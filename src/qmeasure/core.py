"""Finite histories theories with exact arithmetic.

A histories theory is a triple of a finite sample space of histories, the
event algebra, and a generalized measure.  The event algebra is the full
power set of the sample space viewed as a ring over Z2: symmetric difference
is addition and intersection is multiplication.  Events are stored as
bitmasks over the canonical history order, so ring operations are single
integer operations and all outputs can be sorted by ascending mask for
determinism.

The measure is stored in one of two forms:

* ``table``: an explicit map from every event to a rational, held as
  integers over one common denominator.  A theory file whose keys are
  ``hex(mask)`` in mask order, as ``theory_to_json`` writes them, is read
  without a per-key parse; other spellings take it and load the same table;
* ``pair``: a Hermitian matrix ``D`` over history pairs with exact
  complex-rational entries, the measure of an event being the (real) sum of
  the matrix block over the event.  Its diagonal and its nonzero
  off-diagonal entries are held as integers over one common denominator.
  A decoherence functional fills it from a matrix; per-history weights fill
  only the real diagonal, an additive (classical, level-one) measure held
  in O(n), so that repeated trial spaces of thousands of histories need no
  table of 2**n entries.

Every form parses each distinct spelling of a rational once.

Interference is measured by the inclusion-exclusion hierarchy ``I_k``; a
theory is of level ``k`` when ``I_{k+1}`` vanishes on all disjoint tuples,
which also forces all higher terms to vanish.  Classical probability theory
is level one; measures arising from unitary quantum theories are level two.

Scans of the whole event lattice run on integers: the measure of every
event is held as integers over one common denominator and transformed by
``qmeasure.lattice``.  The pair form gives the Moebius transform of its
measure directly (singletons and pairs), so its table is one zeta
transform; point queries and validation sum its entries.  Every query reads
the stored data, not the form the theory came from.  ``Fraction`` and
``ComplexRational`` appear only where values leave.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product, repeat
from operator import eq, itemgetter

from . import lattice
from .exact import ComplexRational, format_rational, parse_rational, rational_parts

#: Brute-force scans over all 2**n events are refused above this size unless
#: the caller passes ``override_cap=True``.
ENUM_CAP = 16

#: Hard ceiling for any operation that materializes the full event lattice.
STORAGE_CAP = 24

ZERO = Fraction(0)


class SizeCapError(RuntimeError):
    """Raised when an operation would enumerate or store too large a lattice."""


def _check_enum_cap(n: int, override_cap: bool) -> None:
    if n > STORAGE_CAP:
        raise SizeCapError(
            f"{n} histories means 2**{n} events; beyond the hard cap of {STORAGE_CAP}"
        )
    if n > ENUM_CAP and not override_cap:
        raise SizeCapError(
            f"{n} histories exceeds the enumeration cap of {ENUM_CAP}; "
            "pass override_cap=True (CLI: --override-cap) to force the scan"
        )


def _check_table_cap(n: int) -> None:
    if n > STORAGE_CAP:
        raise SizeCapError(f"table measure over {n} histories exceeds cap {STORAGE_CAP}")


def _parse_eps(eps) -> Fraction:
    """An approximate-preclusion level as a Fraction, refused when negative."""
    eps = parse_rational(eps)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return eps


def format_mask(mask: int) -> str:
    """Canonical hex spelling of an event bitmask, e.g. ``0x5``."""
    return hex(mask)


def parse_mask(text: str) -> int:
    """Parse a bitmask from its hex spelling."""
    try:
        mask = int(text, 16)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"not a hex bitmask: {text!r}") from exc
    if mask < 0:
        raise ValueError(f"bitmask must be nonnegative: {text!r}")
    return mask


def _parse_masks(texts) -> list[int]:
    """``parse_mask`` of each text, in one C-level pass when every text is
    a valid nonnegative hex spelling; otherwise ``parse_mask`` names the
    first bad one."""
    try:
        masks = list(map(int, texts, repeat(16)))
        if not masks or min(masks) >= 0:
            return masks
    except (TypeError, ValueError):
        pass
    return list(map(parse_mask, texts))


def _mask_ordered(n: int, masks: list[int], values) -> list:
    """Table values keyed by their event masks, in mask order, refused
    unless each of the 2**n events is listed exactly once."""
    table = dict(zip(masks, values))
    if len(table) < len(masks):
        twice = Counter(masks).most_common(1)[0][0]
        raise ValueError(f"table lists event {format_mask(twice)} more than once")
    size = 1 << n
    if len(table) != size or min(table) < 0 or max(table) >= size:
        missing = sorted(set(range(size)) - set(table))[:3]
        extra = sorted(set(table) - set(range(size)))[:3]
        raise ValueError(
            f"table must cover every event exactly once "
            f"(missing {[hex(m) for m in missing]}, extra {[hex(m) for m in extra]})"
        )
    return list(map(table.__getitem__, range(size)))


def _parse_once(values: list) -> tuple[list[int], int]:
    """Rationals as integers over one common denominator, ``(t, L)``, each
    distinct value parsed once.  Strings are keyed by themselves; any other
    value with its type, so that True, 1.0 and 1 stay apart to be refused
    or read on their own.  Distinct values are parsed in order of first
    appearance, so the first bad value is the one named."""
    keys = values if set(map(type, values)) <= {str} else list(zip(map(type, values), values))
    try:
        distinct = dict.fromkeys(keys)
    except TypeError:  # an unhashable value, such as a JSON list or object
        for value in values:
            rational_parts(value)
        raise
    parsed = distinct if keys is values else map(itemgetter(1), distinct)
    t, denom = lattice.over_common_denominator(list(map(rational_parts, parsed)))
    scaled = dict(zip(distinct, t))
    return list(map(scaled.__getitem__, keys)), denom


@dataclass(frozen=True)
class SampleSpace:
    """An ordered finite set of history names.

    The index order is fixed at construction and used for every canonical
    encoding: bit ``i`` of an event mask records membership of label ``i``.
    """

    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.labels:
            raise ValueError("sample space needs at least one history")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("history labels must be distinct")

    @classmethod
    def of(cls, *labels: str) -> "SampleSpace":
        return cls(tuple(labels))

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown history {label!r}") from None

    def event_from_mask(self, mask: int) -> "Event":
        if not 0 <= mask < (1 << self.n):
            raise ValueError(f"mask {hex(mask)} out of range for {self.n} histories")
        return Event(self, mask)

    def event(self, *labels: str) -> "Event":
        mask = 0
        for label in labels:
            mask |= 1 << self.index(label)
        return Event(self, mask)

    @property
    def empty(self) -> "Event":
        return Event(self, 0)

    @property
    def omega(self) -> "Event":
        return Event(self, (1 << self.n) - 1)

    def singletons(self) -> tuple["Event", ...]:
        return tuple(Event(self, 1 << i) for i in range(self.n))

    def parse_event(self, text: str) -> "Event":
        return self.event_from_mask(parse_mask(text))


@dataclass(frozen=True)
class Event:
    """A subset of the sample space; an element of the Z2 event ring."""

    space: SampleSpace
    mask: int

    def _same_space(self, other: "Event") -> None:
        if self.space != other.space:
            raise ValueError("events belong to different sample spaces")

    def __add__(self, other: "Event") -> "Event":
        """Ring addition: symmetric difference."""
        self._same_space(other)
        return Event(self.space, self.mask ^ other.mask)

    def __mul__(self, other: "Event") -> "Event":
        """Ring multiplication: intersection."""
        self._same_space(other)
        return Event(self.space, self.mask & other.mask)

    def __or__(self, other: "Event") -> "Event":
        self._same_space(other)
        return Event(self.space, self.mask | other.mask)

    def complement(self) -> "Event":
        return Event(self.space, self.mask ^ ((1 << self.space.n) - 1))

    def issubset(self, other: "Event") -> bool:
        self._same_space(other)
        return self.mask | other.mask == other.mask

    def ispropersubset(self, other: "Event") -> bool:
        return self.issubset(other) and self.mask != other.mask

    def isdisjoint(self, other: "Event") -> bool:
        self._same_space(other)
        return self.mask & other.mask == 0

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    def members(self) -> tuple[str, ...]:
        return tuple(
            label for i, label in enumerate(self.space.labels) if self.mask >> i & 1
        )

    @property
    def hex_mask(self) -> str:
        return format_mask(self.mask)

    def label(self) -> str:
        return "{" + ",".join(self.members()) + "}"

    def __repr__(self) -> str:
        return f"Event({self.label()})"


def event_add(a: Event, b: Event) -> Event:
    """Symmetric difference, the ring addition of the event algebra."""
    return a + b


def event_mul(a: Event, b: Event) -> Event:
    """Intersection, the ring multiplication of the event algebra."""
    return a * b


# ---------------------------------------------------------------------------
# Measure sources
# ---------------------------------------------------------------------------


class TableMeasure:
    """Explicit measure over all 2**n events, given as entries in mask
    order (the values of a canonical table document as they stand), each
    distinct value parsed once and held as ``ints = (t, L)``:
    mu(A) = t[A] / L over one common denominator."""

    kind = "table"
    additive = False

    def __init__(self, n: int, entries: list):
        _check_table_cap(n)
        if len(entries) != 1 << n:
            raise ValueError(f"table must cover every event exactly once ({len(entries)} of {1 << n})")
        self.ints = _parse_once(entries)


class PairMeasure:
    """A decoherence matrix D held as integers over one common denominator
    L: the diagonal ``diag = (re, im)`` with D_ii = (re[i] + i im[i]) / L,
    and the nonzero off-diagonal entries ``pairs = (re, im)``, each a dict
    from a row i to its nonzero columns {j: value}, so that
    D_ij = (re[i][j] + i im[i][j]) / L.  A weights measure is the diagonal
    case with no pairs, O(n) in memory.  ``kind`` only labels the source
    form ("decoherence" or "weights"); the queries read the data."""

    def __init__(self, kind: str, diag, pairs, denom: int):
        self.kind, self.diag, self.pairs, self.denom = kind, diag, pairs, denom
        # the imaginary parts cancel in every block X x X, so every measure
        # is real, when Im D_ii = 0 and Im D_ji = -Im D_ij
        self.real_blocks = not any(diag[1]) and all(
            pairs[1].get(j, {}).get(i) == -v for i, row in pairs[1].items() for j, v in row.items())
        # no pairs and a real nonnegative diagonal: mu is additive and monotone
        self.additive = self.real_blocks and not any(pairs) and min(diag[0]) >= 0

    def entry(self, i: int, j: int) -> tuple[int, int]:
        """D_ij as integers ``(re, im)`` over L."""
        if i == j:
            return self.diag[0][i], self.diag[1][i]
        re, im = self.pairs
        return re.get(i, {}).get(j, 0), im.get(i, {}).get(j, 0)

    def block_sum(self, x: int, y: int, part: int) -> int:
        """The real (part 0) or imaginary (part 1) part of D(X, Y), the sum
        of D_ij over i in event X and j in event Y (given as masks), as an
        integer over L."""
        diag, rows = self.diag[part], self.pairs[part]
        xs = lattice.members(x)
        ys, both = (xs, xs) if x == y else (lattice.members(y), lattice.members(x & y))
        zeros = [0] * len(ys)
        return sum(map(diag.__getitem__, both)) + sum(
            sum(map(row.get, ys, zeros)) for row in filter(None, map(rows.get, xs)))


# ---------------------------------------------------------------------------
# Validation report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    witness: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[AxiomViolation, ...]
    warnings: tuple[str, ...]
    null_events: tuple[int, ...] | None  # masks of measure-zero events, when enumerable

    def summary(self) -> str:
        if self.valid:
            lines = ["valid"]
        else:
            lines = ["invalid"]
            for v in self.violations:
                lines.append(f"  {v.axiom} violated at {v.witness}: {v.detail}")
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Histories theory
# ---------------------------------------------------------------------------


class HistoriesTheory:
    """A sample space together with an exact generalized measure."""

    def __init__(self, space: SampleSpace, measure):
        if not isinstance(measure, (TableMeasure, PairMeasure)):
            raise TypeError("measure must be a TableMeasure or a PairMeasure")
        self.space = space
        self.measure = measure
        self._ints = measure.ints if isinstance(measure, TableMeasure) else None
        self._families_slot: tuple = (None, None)  # (eps, families) of the last eps

    # -- constructors --------------------------------------------------

    @classmethod
    def from_table(cls, space: SampleSpace, values) -> "HistoriesTheory":
        """Build from a mapping of Event/mask to rational over all 2**n events,
        each event listed once and every Event over ``space``."""
        masks = []
        for key in values:
            if isinstance(key, Event):
                if key.space != space:
                    raise ValueError(f"table event {key.hex_mask} belongs to a different sample space")
                masks.append(key.mask)
            else:
                masks.append(int(key))
        return cls(space, TableMeasure(space.n, _mask_ordered(space.n, masks, values.values())))

    @classmethod
    def from_decoherence(cls, space: SampleSpace, matrix) -> "HistoriesTheory":
        """Build from an n x n matrix of ``ComplexRational``s or ``[re, im]``
        pairs of rationals, each distinct part parsed once, in row-major
        order, so the first bad part is named before the shape."""
        n = space.n
        parts, widths = [], []
        for row in matrix:
            start = len(parts)
            for entry in row:
                if isinstance(entry, ComplexRational):
                    entry = entry.real, entry.imag
                elif not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                    _parse_once(parts)  # a bad part before the entry is named first
                    raise ValueError("matrix entries must be [re, im] pairs")
                parts += entry
            widths.append(len(parts) - start)
        t, denom = _parse_once(parts)
        if widths != [2 * n] * n:
            raise ValueError(f"decoherence matrix must be {n}x{n}")
        diag, pairs = [], []
        for part in (t[0::2], t[1::2]):  # the real, then the imaginary parts, row-major
            rows = ({j: v for j, v in enumerate(part[i * n:(i + 1) * n]) if v and j != i} for i in range(n))
            diag.append(part[::n + 1])
            pairs.append({i: row for i, row in enumerate(rows) if row})
        return cls(space, PairMeasure("decoherence", tuple(diag), tuple(pairs), denom))

    @classmethod
    def from_weights(cls, space: SampleSpace, weights) -> "HistoriesTheory":
        """Build the additive measure of per-history weights: the pair form
        with a real diagonal and no pairs."""
        ws = tuple(weights)
        if len(ws) != space.n:
            raise ValueError("one weight per history required")
        t, denom = _parse_once(ws)
        return cls(space, PairMeasure("weights", (t, [0] * len(t)), ({}, {}), denom))

    @property
    def kind(self) -> str:
        return self.measure.kind

    # -- the measure ----------------------------------------------------

    def _check_event(self, event: Event) -> None:
        if event.space != self.space:
            raise ValueError("event belongs to a different sample space")

    def mu_mask(self, mask: int) -> Fraction:
        if mask < 0 or mask >> self.space.n:
            raise ValueError(f"mask {hex(mask)} out of range for {self.space.n} histories")
        if self._ints is not None:
            table, denom = self._ints
            return Fraction(table[mask], denom)
        # the block sum over the event, which must come out real
        m = self.measure
        if not m.real_blocks and m.block_sum(mask, mask, 1):
            raise ValueError(
                "decoherence block sum has nonzero imaginary part; "
                "the matrix is not Hermitian (run validate)"
            )
        return Fraction(m.block_sum(mask, mask, 0), m.denom)

    def mu(self, event: Event) -> Fraction:
        """The exact measure of an event."""
        self._check_event(event)
        return self.mu_mask(event.mask)

    def decoherence_value(self, x: Event, y: Event) -> ComplexRational:
        """The matrix block sum D(X, Y); a weights theory has no off-diagonal
        part, and a table theory no matrix."""
        self._check_event(x)
        self._check_event(y)
        m = self.measure
        if not isinstance(m, PairMeasure):
            raise ValueError("off-diagonal values need a decoherence or weights theory")
        return ComplexRational(*(Fraction(m.block_sum(x.mask, y.mask, part), m.denom) for part in (0, 1)))

    def _lattice(self, override_cap: bool = False) -> tuple[list[int], int]:
        """The measure of every event as ``(t, L)`` with mu(A) = t[A] / L over
        one common denominator L (stored for the table form; built once and
        capped for the pair form, as the zeta transform of ``_moebius``)."""
        if self._ints is None:
            n = self.space.n
            _check_enum_cap(n, override_cap)
            coeffs, denom = self._moebius()
            self._ints = (lattice.zeta(lattice.dense(coeffs, n), n), denom)
        return self._ints

    def _moebius(self) -> tuple[dict[int, int], int]:
        """The nonzero coefficients of the Moebius transform of the measure,
        over the common denominator, as ``({mask: m}, L)``.  A table takes
        one ``lattice.moebius`` pass of its stored ints; a pair form reads
        them off its data at any n: D_ii on {i} and Re(D_ij + D_ji) on {i, j}.
        """
        m = self.measure
        if isinstance(m, TableMeasure):
            table, denom = m.ints
            coeffs = lattice.moebius(list(table), self.space.n)
            return {mask: v for mask, v in enumerate(coeffs) if v}, denom

        def transform(part: int) -> dict[int, int]:
            out = {1 << i: v for i, v in enumerate(m.diag[part]) if v}
            for i, row in m.pairs[part].items():  # D_ij and D_ji land on {i, j}
                for j, v in row.items():
                    mask = 1 << i | 1 << j
                    out[mask] = out.get(mask, 0) + v
            return {mask: v for mask, v in out.items() if v}

        if not m.real_blocks:
            # every event below the lowest imaginary coefficient has a real
            # measure, and that event's measure is the coefficient
            raise ValueError(
                f"measure of event {hex(min(transform(1)))} is not real; "
                "the decoherence matrix is not Hermitian (run validate)"
            )
        return transform(0), m.denom

    def full_table(self, override_cap: bool = False) -> list[Fraction]:
        """The measure of every event, indexed by mask, as a new list (capped)."""
        table, denom = self._lattice(override_cap)
        return [Fraction(v, denom) for v in table]

    # -- null and negligible families ------------------------------------

    def _families(self, eps: Fraction, override_cap: bool) -> tuple[int, int, int]:
        """The families of (eps-)null events (of measure 0 at eps == 0,
        below eps at eps > 0), of (eps-)negligible events (their down
        closure) and of primitive duals (the minimal nonempty events outside
        that closure), built once per parsed eps (capped).  Only the last
        eps is kept: each family of a lattice over n histories is a 2**n-bit
        int, and callers ask for one eps at a time."""
        kept, families = self._families_slot
        if kept != eps:
            n = self.space.n
            _check_enum_cap(n, override_cap)
            table, denom = self._lattice(override_cap)
            if eps:
                bound = eps.numerator * denom  # t / L < p / q  <=>  t * q < p * L
                nulls = lattice.family_of(v * eps.denominator < bound for v in table)
            else:
                nulls = lattice.family_of(not v for v in table)
            negligible = lattice.down_closure(nulls, n)
            # the empty event is never a dual, so it leaves before the
            # minimal members are taken
            outside = ((1 << (1 << n)) - 1) ^ (negligible | 1)
            families = nulls, negligible, lattice.minimal(outside, n)
            self._families_slot = eps, families
        return families

    def is_null(self, event: Event, eps: Fraction = ZERO) -> bool:
        """measure == 0 at eps == 0; measure < eps at eps > 0."""
        self._check_event(event)
        eps = _parse_eps(eps)
        value = self.mu(event)
        return value == 0 if eps == 0 else value < eps

    def is_negligible(self, event: Event, eps: Fraction = ZERO, override_cap: bool = False) -> bool:
        """Is the event a subset of an (eps-)null event?

        For an additive and monotone measure this reduces to the event's own
        measure being (eps-)null, since supersets can only grow.
        """
        self._check_event(event)
        eps = _parse_eps(eps)
        if self.measure.additive:
            return self.is_null(event, eps)
        return bool(self._families(eps, override_cap)[1] >> event.mask & 1)

    def minimal_nonnegligible(self, eps: Fraction = ZERO, override_cap: bool = False) -> tuple[int, ...]:
        """Masks that are minimal under inclusion among nonempty
        non-(eps-)negligible events, in ascending mask order.  These are the
        duals of the primitive preclusive multiplicative co-events."""
        return tuple(lattice.members(self._families(_parse_eps(eps), override_cap)[2]))

    # -- interference hierarchy ------------------------------------------

    def interference(self, *events: Event) -> Fraction:
        """The order-k interference term of k pairwise-disjoint events.

        Computed by inclusion-exclusion: the alternating sum over nonempty
        subfamilies of the measure of their disjoint union.  Order one is the
        measure itself; order two measures the failure of additivity.  The
        term is the sum of the measure's Moebius transform over the events
        meeting every argument, each of at least k histories; a pair form
        with real block sums has no transform above pairs, so its terms of
        order three and up are zero without the 2**k sum.
        """
        k = len(events)
        if k < 1:
            raise ValueError("interference needs at least one event")
        for event in events:
            self._check_event(event)
        for a, b in combinations(events, 2):
            if not a.isdisjoint(b):
                raise ValueError("interference arguments must be pairwise disjoint")
        if k >= 3 and isinstance(self.measure, PairMeasure) and self.measure.real_blocks:
            return ZERO
        total = ZERO
        for subset in range(1, 1 << k):
            mask = 0
            for i in range(k):
                if subset >> i & 1:
                    mask |= events[i].mask
            sign = -1 if (k - subset.bit_count()) % 2 else 1
            total += sign * self.mu_mask(mask)
        return total

    def level(self, override_cap: bool = False) -> int:
        """The smallest k such that all interference terms of order k+1 vanish.

        Uses the subset Moebius transform: the order-|S| interference of the
        singletons of S is the alternating subset sum of the measure over S,
        and every higher-order term on disjoint tuples is a signed sum of
        such singleton terms.  The level is therefore the largest |S| whose
        transform is nonzero (at least one).  A pair form reads its
        coefficients off its data, with no lattice and no cap.  Interference
        terms read nonempty events only, so a table's mu(0) is taken as zero
        even where it breaks the empty-set axiom.
        """
        if isinstance(self.measure, TableMeasure):
            n = self.space.n
            _check_enum_cap(n, override_cap)
            values = list(self._ints[0])
            values[0] = 0
            support = (mask for mask, v in enumerate(lattice.moebius(values, n)) if v)
        else:
            support = self._moebius()[0]
        return max(map(int.bit_count, support), default=1)

    # -- coarse graining ---------------------------------------------------

    def coarse_grain(self, blocks) -> "HistoriesTheory":
        """The theory induced on a partition: histories are the blocks and the
        measure of a union of blocks is the measure of the corresponding
        fine-grained event.  Delivered in table form."""
        blocks = tuple(getattr(blocks, "blocks", blocks))
        _validate_partition_blocks(self.space, blocks)
        k = len(blocks)
        if k > STORAGE_CAP:
            raise SizeCapError(f"coarse graining to {k} blocks exceeds cap {STORAGE_CAP}")
        labels = tuple(block.label() for block in blocks)
        new_space = SampleSpace(labels)
        # the fine event of coarse mask A, in mask order: each block doubles
        # the list with its history added
        unions = [0]
        for block in blocks:
            unions += [u | block.mask for u in unions]
        return HistoriesTheory(new_space, TableMeasure(k, list(map(self.mu_mask, unions))))

    # -- validation ---------------------------------------------------------

    def validate(self, strict_normalization: bool = True, override_cap: bool = False) -> ValidationReport:
        """Check the measure axioms and list the null events, by one scan
        of the event lattice whenever it can be built (uncapped for tables).

        Table form: zero on the empty event, positivity everywhere, unit
        total.  Decoherence form: Hermiticity, positivity of every block sum,
        unit normalization (downgradable to a warning).  Weights form:
        nonnegative weights summing to one.  The kind picks the axioms and
        their wording; both pair forms read the same data.
        """
        violations: list[AxiomViolation] = []
        warnings: list[str] = []
        n = self.space.n
        m = self.measure
        kind = self.kind

        if kind == "decoherence":
            for i, j in product(range(n), repeat=2):
                (a, b), (c, d) = m.entry(i, j), m.entry(j, i)
                if a != c or b != -d:
                    violations.append(AxiomViolation(
                        "hermiticity", f"({i},{j})",
                        "entry is not the conjugate of its transpose",
                    ))
            total = self.decoherence_value(self.space.omega, self.space.omega)
            if total.imag or total.real != 1:
                message = f"D(Omega,Omega) = {total!r}, expected 1"
                if strict_normalization:
                    violations.append(AxiomViolation("normalization", "Omega", message))
                else:
                    warnings.append(message)

        if kind == "weights":
            for i, w in enumerate(m.diag[0]):
                if w < 0:
                    violations.append(AxiomViolation(
                        "positivity", format_mask(1 << i), f"weight {format_rational(Fraction(w, m.denom))} < 0"
                    ))
            total = self.decoherence_value(self.space.omega, self.space.omega).real
            if total != 1:
                violations.append(AxiomViolation(
                    "unitality", "Omega", f"weights sum to {format_rational(total)}"
                ))

        null_events: tuple[int, ...] | None = None
        hermitian_broken = any(v.axiom == "hermiticity" for v in violations)
        lattice_table = None
        if not hermitian_broken:  # else the block sums are not even real
            try:
                lattice_table = self._lattice(override_cap)
            except SizeCapError:
                warnings.append(
                    "event lattice beyond enumeration cap; positivity checked per query only"
                )
        if lattice_table is not None:
            table, denom = lattice_table
            if table[0]:
                violations.append(AxiomViolation(
                    "empty-set", "0x0",
                    f"measure of the empty event is {format_rational(Fraction(table[0], denom))}"
                ))
            full = (1 << n) - 1
            if kind == "table" and table[full] != denom:
                violations.append(AxiomViolation(
                    "unitality", format_mask(full),
                    f"measure of Omega is {format_rational(Fraction(table[full], denom))}"
                ))
            if kind != "weights":
                # nonnegative weights already force nonnegative sums
                for mask, value in enumerate(table):
                    if value < 0:
                        violations.append(AxiomViolation(
                            "positivity", format_mask(mask),
                            f"measure {format_rational(Fraction(value, denom))} < 0"
                        ))
            null_events = tuple(mask for mask, value in enumerate(table) if not value)

        valid = not violations
        return ValidationReport(valid, tuple(violations), tuple(warnings), null_events)


def _validate_partition_blocks(space: SampleSpace, blocks) -> None:
    if not blocks:
        raise ValueError("a partition needs at least one block")
    seen = 0
    for block in blocks:
        if block.space != space:
            raise ValueError("partition block from a different sample space")
        if block.mask == 0:
            raise ValueError("partition blocks must be nonempty")
        if block.mask & seen:
            raise ValueError("partition blocks must be pairwise disjoint")
        seen |= block.mask
    if seen != (1 << space.n) - 1:
        raise ValueError("partition blocks must cover the sample space")


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def theory_to_json(theory: HistoriesTheory) -> dict:
    """Serialize a theory in the form it was built from."""
    doc: dict = {"histories": list(theory.space.labels)}
    kind, m, n = theory.kind, theory.measure, theory.space.n
    if kind == "table":
        values = {format_mask(mask): format_rational(v) for mask, v in enumerate(theory.full_table())}
        doc["measure"] = {"type": "table", "values": values}
    elif kind == "weights":
        doc["measure"] = {"type": "weights",
                          "weights": [format_rational(Fraction(w, m.denom)) for w in m.diag[0]]}
    else:
        matrix = [[[format_rational(Fraction(v, m.denom)) for v in m.entry(i, j)] for j in range(n)]
                  for i in range(n)]
        doc["measure"] = {"type": "decoherence", "matrix": matrix}
    return doc


def theory_from_json(doc: dict) -> HistoriesTheory:
    """Parse a theory document: {"histories": [...], "measure": {...}}."""
    if not isinstance(doc, dict):
        raise ValueError("theory document must be a JSON object")
    histories = doc.get("histories")
    if not isinstance(histories, list) or not all(isinstance(h, str) for h in histories):
        raise ValueError("'histories' must be an array of strings")
    space = SampleSpace(tuple(histories))
    measure = doc.get("measure")
    if not isinstance(measure, dict):
        raise ValueError("'measure' must be an object")
    mtype = measure.get("type")
    if mtype == "table":
        raw = measure.get("values")
        if not isinstance(raw, dict):
            raise ValueError("table measure needs a 'values' object")
        # keys spelled hex(mask) in mask order, as theory_to_json writes
        # them, are compared lazily and skip the per-key parse
        n = space.n
        _check_table_cap(n)
        if len(raw) == 1 << n and all(map(eq, raw, map(hex, range(1 << n)))):
            entries = list(raw.values())
        else:
            entries = _mask_ordered(n, _parse_masks(raw), raw.values())
        return HistoriesTheory(space, TableMeasure(n, entries))
    if mtype == "decoherence":
        raw = measure.get("matrix")
        if not isinstance(raw, list):
            raise ValueError("decoherence measure needs a 'matrix' array")
        return HistoriesTheory.from_decoherence(space, raw)
    if mtype == "weights":
        raw = measure.get("weights")
        if not isinstance(raw, list):
            raise ValueError("weights measure needs a 'weights' array")
        return HistoriesTheory.from_weights(space, raw)
    raise ValueError(f"unknown measure type: {mtype!r}")


def load_theory(path) -> HistoriesTheory:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in {path}: {exc}") from exc
    return theory_from_json(doc)

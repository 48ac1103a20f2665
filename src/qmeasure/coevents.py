"""Co-events: Z2-valued truth valuations on the event algebra.

A co-event answers every proposition about the system at once: it maps each
event to 0 or 1, sending the empty event to 0.  The multiplicative scheme
keeps the co-events that respect intersection, ``phi(AB) = phi(A) phi(B)``.
Over a finite sample space the events a multiplicative co-event affirms form
a principal filter, so the co-event is determined by the filter's unique
minimal element: its *dual* event.  Dualization is an involution between
nonempty events and multiplicative co-events; the co-event dual to a
singleton is a ring homomorphism and answers exactly like "that single
history happened".

Preclusion ties co-events to the dynamics: events of measure zero must be
answered 0, and approximate preclusion at level eps extends this to events of
measure below eps.  A preclusive multiplicative co-event is *primitive* when
no other preclusive multiplicative co-event strictly dominates it; dominance
is strict refinement of duals, so primitivity picks out the finest-grained
answers compatible with preclusion.  Primitive duals are exactly the minimal
nonempty events without an (eps-)null superset.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import and_

from .core import Event, HistoriesTheory, SampleSpace, _parse_eps, format_mask, parse_mask

ZERO = Fraction(0)


@dataclass(frozen=True)
class CoEvent:
    """A truth valuation on the event algebra.

    Exactly one representation is set: ``dual_mask`` for a multiplicative
    co-event (the principal element of its filter of affirmed events), or
    ``true_masks`` for a general co-event stored as the set of events it
    affirms.  The zero map is not a co-event and the empty event is always
    answered 0.
    """

    space: SampleSpace
    dual_mask: int | None = None
    true_masks: frozenset[int] | None = None

    def __post_init__(self):
        if (self.dual_mask is None) == (self.true_masks is None):
            raise ValueError("exactly one of dual_mask/true_masks must be given")
        if self.dual_mask is not None:
            if not 0 < self.dual_mask < (1 << self.space.n):
                raise ValueError("dual of a multiplicative co-event must be a nonempty event")
        else:
            if not self.true_masks:
                raise ValueError("the zero map is not a co-event")
            if 0 in self.true_masks:
                raise ValueError("a co-event answers the empty event with 0")
            top = 1 << self.space.n
            if any(not 0 <= m < top for m in self.true_masks):
                raise ValueError("true set contains an out-of-range event mask")

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_dual(cls, event: Event) -> "CoEvent":
        if event.is_empty:
            raise ValueError("the empty event has no dual co-event (it would be the zero map)")
        return cls(event.space, dual_mask=event.mask)

    @classmethod
    def from_table(cls, space: SampleSpace, true_masks) -> "CoEvent":
        return cls(space, true_masks=frozenset(int(m) for m in true_masks))

    # -- evaluation -------------------------------------------------------

    @property
    def is_multiplicative_form(self) -> bool:
        return self.dual_mask is not None

    def value_mask(self, mask: int) -> int:
        if self.dual_mask is not None:
            return 1 if self.dual_mask & ~mask == 0 else 0
        return 1 if mask in self.true_masks else 0

    def __call__(self, event: Event) -> int:
        """Answer an event: 1 for true, 0 for false.

        A multiplicative co-event affirms exactly the supersets of its dual;
        a table co-event returns its stored bit.
        """
        if event.space != self.space:
            raise ValueError("event belongs to a different sample space")
        return self.value_mask(event.mask)

    # -- structure ----------------------------------------------------------

    def dual_event(self) -> Event:
        if self.dual_mask is None:
            raise ValueError("only multiplicative-form co-events have a dual event")
        return Event(self.space, self.dual_mask)

    def is_multiplicative(self) -> bool:
        """Does the co-event respect intersection?

        Multiplicative-form co-events do by construction.  A table co-event
        is multiplicative exactly when its true set is the filter of
        supersets of the intersection of its members; it lies in that
        filter, so it is the filter exactly when the sizes agree.
        """
        if self.dual_mask is not None:
            return True
        meet = reduce(and_, self.true_masks)
        return len(self.true_masks) == 1 << (self.space.n - meet.bit_count())

    def to_multiplicative(self) -> "CoEvent":
        """Convert a multiplicative table co-event to dual form."""
        if self.dual_mask is not None:
            return self
        if not self.is_multiplicative():
            raise ValueError("co-event is not multiplicative")
        return CoEvent(self.space, dual_mask=reduce(and_, self.true_masks))

    def __repr__(self) -> str:
        if self.dual_mask is not None:
            return f"CoEvent(dual={Event(self.space, self.dual_mask).label()})"
        return f"CoEvent(table, {len(self.true_masks)} events true)"


@dataclass(frozen=True)
class CoEventClass:
    """Classification flags for one co-event against one theory."""

    eps: Fraction
    multiplicative: bool
    classical: bool
    preclusive: bool
    primitive: bool


def dual(x):
    """The duality between nonempty events and multiplicative co-events.

    An event maps to the co-event true exactly on its supersets; a
    multiplicative co-event maps back to the minimal event it affirms.
    Applying dual twice returns the argument.
    """
    if isinstance(x, Event):
        return CoEvent.from_dual(x)
    if isinstance(x, CoEvent):
        return x.dual_event()
    raise TypeError(f"dual expects an Event or CoEvent, got {type(x).__name__}")


def _require_multiplicative(phi: CoEvent) -> Event:
    if not phi.is_multiplicative_form:
        raise ValueError("operation requires a multiplicative-form co-event")
    return phi.dual_event()


def is_preclusive(phi: CoEvent, theory: HistoriesTheory, eps=ZERO, override_cap: bool = False) -> bool:
    """Does the co-event answer 0 on every event of measure (less than eps /
    exactly zero)?

    For a multiplicative co-event this holds exactly when its dual has no
    (eps-)null superset, i.e. the dual is not (eps-)negligible.
    """
    base = _require_multiplicative(phi)
    return not theory.is_negligible(base, eps, override_cap)


def dominates(psi: CoEvent, phi: CoEvent) -> bool:
    """Strict domination: psi affirms everything phi affirms, and more.

    Equivalently the dual of psi is a proper subset of the dual of phi.
    Nothing dominates itself.
    """
    a = _require_multiplicative(psi)
    b = _require_multiplicative(phi)
    return a.ispropersubset(b)


def primitives(theory: HistoriesTheory, eps=ZERO, override_cap: bool = False) -> tuple[CoEvent, ...]:
    """All primitive (eps-)preclusive multiplicative co-events.

    Their duals are the minimal nonempty events with no (eps-)null superset,
    returned in ascending dual-mask order.  Nonempty whenever the whole
    sample space is not itself (eps-)null.
    """
    masks = theory.minimal_nonnegligible(eps, override_cap)
    return tuple(CoEvent(theory.space, dual_mask=mask) for mask in masks)


def classical_coevents(theory: HistoriesTheory, override_cap: bool = False) -> tuple[CoEvent, ...]:
    """The preclusive homomorphisms: duals of single histories that do not
    sit inside any null event."""
    out = []
    for singleton in theory.space.singletons():
        if not theory.is_negligible(singleton, ZERO, override_cap):
            out.append(CoEvent(theory.space, dual_mask=singleton.mask))
    return tuple(out)


def is_classical_on(phi: CoEvent, partition) -> bool:
    """Is the co-event a homomorphism on the subalgebra generated by the
    partition?  For a multiplicative co-event this holds exactly when its
    dual fits inside a single block."""
    base = _require_multiplicative(phi)
    return any(base.issubset(block) for block in partition.blocks)


def classify(phi: CoEvent, theory: HistoriesTheory, eps=ZERO, override_cap: bool = False) -> CoEventClass:
    """Flags for one co-event: multiplicativity, classicality (homomorphism),
    (eps-)preclusion and (eps-)primitivity."""
    eps = _parse_eps(eps)
    multiplicative = phi.is_multiplicative()
    classical = False
    preclusive = False
    primitive = False
    if multiplicative:
        base = phi.to_multiplicative().dual_event()
        classical = base.cardinality == 1
        preclusive = not theory.is_negligible(base, eps, override_cap)
        primitive = preclusive and bool(theory._families(eps, override_cap)[2] >> base.mask & 1)
    else:
        # general co-event: preclusion scans the events it affirms
        preclusive = all(
            not theory.is_null(Event(theory.space, mask), eps)
            for mask in phi.true_masks
        )
    return CoEventClass(eps, multiplicative, classical, preclusive, primitive)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def coevent_to_json(phi: CoEvent) -> dict:
    if phi.is_multiplicative_form:
        return {"dual": format_mask(phi.dual_mask)}
    return {"table": {format_mask(m): 1 for m in sorted(phi.true_masks)}}


def coevent_from_json(space: SampleSpace, doc: dict) -> CoEvent:
    if not isinstance(doc, dict):
        raise ValueError("co-event document must be a JSON object")
    if "dual" in doc:
        return CoEvent(space, dual_mask=parse_mask(doc["dual"]))
    if "table" in doc:
        table = doc["table"]
        if not isinstance(table, dict):
            raise ValueError("'table' must be an object of mask -> bit")
        bits: dict[int, int] = {}
        for key, bit in table.items():
            if type(bit) is not int or bit not in (0, 1):
                raise ValueError(f"table bits must be the integers 0 or 1, got {bit!r}")
            mask = parse_mask(key)
            if mask in bits:
                raise ValueError(f"table lists event {format_mask(mask)} more than once")
            bits[mask] = bit
        return CoEvent.from_table(space, (mask for mask, bit in bits.items() if bit))
    raise ValueError("co-event document needs a 'dual' or 'table' field")

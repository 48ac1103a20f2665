"""Probability measures on spaces of co-events.

Moving the dynamics from the event algebra onto the co-events means finding a
probability assignment over a set S of multiplicative co-events such that,
for every event A, the total probability of the co-events affirming A equals
the measure of A.  The constraint set is linear with 0/1 coefficients and
exact rational right-hand sides; no floating point is involved, which
matters because the headline conclusion is an exact zero.

That conclusion: any co-event carrying positive probability in such an
assignment must satisfy the three-event symmetric-difference identity

    phi(A+B+C) = phi(A+B) + phi(B+C) + phi(C+A) + phi(A) + phi(B) + phi(C)

for all events A, B, C: a third-order finite difference, so it holds exactly
when phi's algebraic normal form has degree at most two.  The first failing
disjoint triple is then ({i}, {j}, C), i and j the lowest histories of a
member of degree three or more (see ``is_quadratic``).  On a disjoint triple
the integer-lifted defect is 0 or 1 for multiplicative co-events, and the Z2
defect is the integer defect mod 2.

The rows are the whole event algebra, so they are the zeta transform of the
assignment (extended by zero off S) and the system has at most one solution:
the Moebius transform m of the measure.  It is feasible exactly when m
vanishes off S and is nonnegative on S, and the signed Moebius row of the
first event breaking that is a Farkas certificate.  Systems on only some of
the rows are refused: they do not carry the positive-probability conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lattice
from .core import Event, HistoriesTheory, _check_enum_cap, format_mask, format_rational
from .coevents import CoEvent

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# The quadratic identity
# ---------------------------------------------------------------------------


def _checked_values(phi: CoEvent, a: Event, b: Event, c: Event) -> tuple[int, ...]:
    if a.space != b.space or a.space != c.space:
        raise ValueError("events belong to different sample spaces")
    if a.mask & b.mask or b.mask & c.mask or a.mask & c.mask:
        raise ValueError("the three events must be pairwise disjoint")
    if phi.space != a.space:
        raise ValueError("co-event over a different sample space")
    return _seven_values(phi, a.mask, b.mask, c.mask)


def _seven_values(phi: CoEvent, a: int, b: int, c: int) -> tuple[int, ...]:
    v = phi.value_mask
    return (v(a | b | c), v(a | b), v(b | c), v(c | a), v(a), v(b), v(c))


def quadratic_defect(phi: CoEvent, a: Event, b: Event, c: Event) -> int:
    """The Z2 defect of the three-event identity on a disjoint triple.

    Zero for every triple exactly when the co-event satisfies the identity on
    arbitrary (not necessarily disjoint) triples.
    """
    return sum(_checked_values(phi, a, b, c)) % 2


def real_defect(phi: CoEvent, a: Event, b: Event, c: Event) -> int:
    """The integer-lifted defect: top term minus the three pair terms plus
    the three single terms, with 0/1 values read as integers.

    For multiplicative co-events the result is always 0 or 1; general
    co-events can produce other integers.  Reducing mod 2 recovers the Z2
    defect.
    """
    top, ab, bc, ca, va, vb, vc = _checked_values(phi, a, b, c)
    return top - ab - bc - ca + va + vb + vc


@dataclass(frozen=True)
class QuadraticReport:
    quadratic: bool
    witness: tuple[Event, Event, Event] | None  # first failing disjoint triple

    def __post_init__(self):
        if self.quadratic == (self.witness is not None):
            raise ValueError("witness present exactly when the identity fails")


def is_quadratic(phi: CoEvent, override_cap: bool = False) -> QuadraticReport:
    """Decide the identity from phi's algebraic normal form f (the Z2 Moebius
    transform of its table, or {dual}).  The Z2 defect of a disjoint triple
    (A, B, C) is the parity of the members of f inside A+B+C meeting all
    three, so phi is quadratic exactly when f has no member of three or more
    histories.  The witness is then the first failing triple in ascending
    (A, B, C) mask order: A = {i} for the lowest history i of such a member,
    B = {j} for the lowest other history j of one containing i, and C the
    first submask of the rest with odd defect, found by a direct scan.
    """
    n = phi.space.n
    _check_enum_cap(n, override_cap)
    if phi.dual_mask is not None:
        form = [phi.dual_mask]
    else:
        table = lattice.family_of(m in phi.true_masks for m in range(1 << n))
        form = lattice.members(lattice.z2_moebius(table, n))
    high = [t for t in form if t.bit_count() >= 3]
    if not high:
        return QuadraticReport(True, None)
    a = min(t & -t for t in high)
    b = min((t ^ a) & -(t ^ a) for t in high if t & a)
    rest = lattice.submasks(((1 << n) - 1) ^ a ^ b)
    c = next((c for c in rest if sum(_seven_values(phi, a, b, c)) % 2), None)
    assert c is not None, "a member of degree three or more has a failing triple"
    return QuadraticReport(False, tuple(Event(phi.space, mask) for mask in (a, b, c)))


# ---------------------------------------------------------------------------
# Feasibility systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibilityRow:
    event_mask: int
    coefficients: tuple[int, ...]  # 1 where the co-event affirms the event
    rhs: Fraction


@dataclass(frozen=True)
class FeasibilitySystem:
    """One equality row per event: the probabilities of the co-events
    affirming the event must sum to its measure; probabilities nonnegative."""

    coevents: tuple[CoEvent, ...]
    rows: tuple[FeasibilityRow, ...]

    def index_of(self, phi: CoEvent) -> int:
        target = phi.to_multiplicative().dual_mask
        for i, psi in enumerate(self.coevents):
            if psi.dual_mask == target:
                return i
        raise ValueError("co-event is not a column of this system")


def build_feasibility(theory: HistoriesTheory, coevents, *,
                      override_cap: bool = False) -> FeasibilitySystem:
    """Build the constraint system for a set of multiplicative co-events.

    One row per event of the full algebra, in ascending mask order; the
    full-space row forces the probabilities to sum to one.  These are the
    only systems :func:`solve_feasibility` accepts.
    """
    cos = [phi.to_multiplicative() for phi in coevents]
    if not cos:
        raise ValueError("need at least one co-event")
    for phi in cos:
        if phi.space != theory.space:
            raise ValueError("co-event over a different sample space")
    cos.sort(key=lambda phi: phi.dual_mask)
    duals = [phi.dual_mask for phi in cos]
    if len(set(duals)) != len(duals):
        raise ValueError("duplicate co-events in the candidate set")

    n = theory.space.n
    _check_enum_cap(n, override_cap)
    rows = []
    for mask in range(1 << n):
        coeffs = tuple(1 if d & ~mask == 0 else 0 for d in duals)
        rows.append(FeasibilityRow(mask, coeffs, theory.mu_mask(mask)))
    return FeasibilitySystem(tuple(cos), tuple(rows))


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    assignment: tuple[Fraction, ...] | None
    inconsistent_row: int | None  # index into system.rows
    farkas: tuple[Fraction, ...] | None  # row multipliers certifying infeasibility


def _verify_assignment(system: FeasibilitySystem, x) -> None:
    for row in system.rows:
        total = sum((xi for xi, c in zip(x, row.coefficients) if c), ZERO)
        assert total == row.rhs, "assignment violates an equality row"
    assert all(xi >= 0 for xi in x), "assignment violates nonnegativity"


def _verify_farkas(system: FeasibilitySystem, y) -> None:
    k = len(system.coevents)
    for j in range(k):
        col = sum(
            (yi for yi, row in zip(y, system.rows) if row.coefficients[j]), ZERO
        )
        assert col <= 0, "certificate fails on a column"
    rhs = sum((yi * row.rhs for yi, row in zip(y, system.rows)), ZERO)
    assert rhs > 0, "certificate fails on the right-hand side"


def solve_feasibility(system: FeasibilitySystem) -> FeasibilityResult:
    """Decide whether a probability assignment exists.

    Returns an exact witness assignment, or an infeasibility certificate:
    either a single contradictory row (no co-event affirms the event but its
    measure is nonzero) or exact Farkas multipliers over the rows.

    Row A reads sum(x_d for d contained in A) = mu(A), so the unique
    candidate is x_d = m(d) with m the Moebius transform of mu.  If m breaks
    at B (m(B) != 0 off the columns, or m(B) < 0 on one), then
    y_A = sign(m(B)) * (-1)**|B - A| for A contained in B has column sums
    -1 at a column B with m(B) < 0 and 0 at every other column, and
    y.mu = |m(B)| > 0.  Systems on only some of the rows raise ValueError.
    """
    n = system.coevents[0].space.n
    rows = system.rows
    if len(rows) != 1 << n or any(row.event_mask != mask for mask, row in enumerate(rows)):
        raise ValueError("the rows must be every event in ascending mask order "
                         "(as built by build_feasibility)")
    for idx, row in enumerate(rows):
        if not any(row.coefficients) and row.rhs != 0:
            return FeasibilityResult(False, None, idx, None)
    scaled, denom = lattice.over_common_denominator([row.rhs for row in rows])
    m = lattice.moebius(scaled, n)
    columns = {phi.dual_mask for phi in system.coevents}
    bad = next((b for b, v in enumerate(m) if v < 0 or (v and b not in columns)), None)
    if bad is None:
        x = tuple(Fraction(m[phi.dual_mask], denom) for phi in system.coevents)
        _verify_assignment(system, x)
        return FeasibilityResult(True, x, None, None)
    sign = ONE if m[bad] > 0 else -ONE
    y = [ZERO] * len(m)
    for a in lattice.submasks(bad):
        y[a] = -sign if (bad ^ a).bit_count() % 2 else sign
    _verify_farkas(system, y)
    return FeasibilityResult(False, None, None, tuple(y))


def max_probability(system: FeasibilitySystem, phi: CoEvent) -> Fraction:
    """The largest probability the co-event can carry over the feasible
    region.  When the underlying measure obeys the two-site sum rule (level
    at most two), zero is forced for any co-event failing the three-event
    identity; the converse does not hold.  The feasible region is the single
    Moebius assignment, so this is that assignment's value at the co-event;
    infeasible and partial-row systems raise ValueError."""
    j = system.index_of(phi)
    result = solve_feasibility(system)
    if not result.feasible:
        raise ValueError("system is infeasible")
    return result.assignment[j]


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def feasibility_result_to_json(system: FeasibilitySystem, result: FeasibilityResult) -> dict:
    if result.feasible:
        return {
            "status": "feasible",
            "assignment": {
                format_mask(phi.dual_mask): format_rational(x)
                for phi, x in zip(system.coevents, result.assignment)
            },
        }
    doc: dict = {"status": "infeasible"}
    if result.inconsistent_row is not None:
        row = system.rows[result.inconsistent_row]
        doc["certificate"] = {
            "row": result.inconsistent_row,
            "event": format_mask(row.event_mask),
        }
    else:
        doc["certificate"] = {
            "farkas": [format_rational(v) for v in result.farkas],
        }
    return doc

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
vanishes off S and is nonnegative on S, that is, when mu is a Dempster-Shafer
belief function whose focal elements are duals of S (Shafer, 1976).  A system
is therefore the theory and its columns; no row is stored, and m comes from
``HistoriesTheory._moebius``, read off a pair form's data with no transform.
The one kind of certificate is a Farkas vector spelled over its support,
``{event mask: multiplier}``: the single event {A: sign mu(A)} when the
lowest event of m's support contains no column, else the signed Moebius row
of the first event breaking m.  With mu as integers t over one denominator L,
each check is one ``lattice.zeta`` pass: of the duals' 0/1 indicator (the
events containing a column), of L times the assignment on the duals (it must
give t), and of the reversed Farkas multipliers (read reversed, the column
sums over supersets).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lattice
from .core import Event, HistoriesTheory, _check_enum_cap, format_mask, format_rational
from .coevents import CoEvent

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
class FeasibilitySystem:
    """One row per event of the theory, none stored: the nonnegative
    probabilities of the co-events affirming it sum to its measure."""

    theory: HistoriesTheory
    coevents: tuple[CoEvent, ...]  # multiplicative and distinct, in ascending dual order

    def __post_init__(self):
        cos = sorted((phi.to_multiplicative() for phi in self.coevents),
                     key=lambda phi: phi.dual_mask)
        if not cos:
            raise ValueError("need at least one co-event")
        if any(phi.space != self.theory.space for phi in cos):
            raise ValueError("co-event over a different sample space")
        if len({phi.dual_mask for phi in cos}) != len(cos):
            raise ValueError("duplicate co-events in the candidate set")
        object.__setattr__(self, "coevents", tuple(cos))

    @property
    def rows(self) -> range:
        """The row event masks: every event, ascending."""
        return range(1 << self.theory.space.n)


def build_feasibility(theory: HistoriesTheory, coevents, *,
                      override_cap: bool = False) -> FeasibilitySystem:
    """Build the constraint system for a set of multiplicative co-events.

    One row per event of the full algebra, 2**n in all; the full-space row
    forces the probabilities to sum to one.
    """
    system = FeasibilitySystem(theory, tuple(coevents))
    _check_enum_cap(theory.space.n, override_cap)
    theory._lattice(override_cap)  # every right-hand side, built once
    return system


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    assignment: tuple[Fraction, ...] | None
    farkas: dict[int, Fraction] | None  # nonzero row multipliers by event mask


def _verify_assignment(system: FeasibilitySystem, x) -> None:
    t, denom = system.theory._lattice()
    # the rows force x * L to be the integer Moebius transform of t
    assert all(denom % xi.denominator == 0 for xi in x), "assignment violates an equality row"
    scaled = [xi.numerator * (denom // xi.denominator) for xi in x]
    n = system.theory.space.n
    on_duals = lattice.dense({phi.dual_mask: v for phi, v in zip(system.coevents, scaled)}, n)
    assert lattice.zeta(on_duals, n) == t, "assignment violates an equality row"
    assert min(scaled) >= 0, "assignment violates nonnegativity"


def _verify_farkas(system: FeasibilitySystem, y: dict[int, Fraction]) -> None:
    t, _ = system.theory._lattice()
    n = system.theory.space.n
    scaled, _ = lattice.over_common_denominator([v.as_integer_ratio() for v in y.values()])
    multipliers = dict(zip(y, scaled))
    # column d sums y over the supersets of d; A -> Omega - A reverses the order
    columns = lattice.zeta(lattice.dense(multipliers, n)[::-1], n)[::-1]
    assert all(columns[phi.dual_mask] <= 0 for phi in system.coevents), \
        "certificate fails on a column"
    assert sum(v * t[a] for a, v in multipliers.items()) > 0, \
        "certificate fails on the right-hand side"


def solve_feasibility(system: FeasibilitySystem) -> FeasibilityResult:
    """Decide whether a probability assignment exists.

    Returns an exact witness assignment, or exact Farkas multipliers
    ``{event mask: y}`` over the rows, nonzero entries only.

    Row A reads sum(x_d for d contained in A) = mu(A), so the unique
    candidate is x_d = m(d) with m the Moebius transform of mu.  If the
    lowest event A of m's support contains no column, no event below it
    does either, so mu(A) = m(A) != 0 and {A: sign mu(A)} is a certificate:
    every column sum is 0.  Otherwise, if m breaks at B (m(B) != 0 off the
    columns, or m(B) < 0 on one), then y_A = sign(m(B)) * (-1)**|B - A| for
    A contained in B has column sums -1 at a column B with m(B) < 0 and 0 at
    every other column, and y.mu = |m(B)| > 0.
    """
    n = system.theory.space.n
    m, denom = system.theory._moebius()
    columns = {phi.dual_mask: 1 for phi in system.coevents}
    covered = lattice.zeta(lattice.dense(columns, n), n)
    support = sorted(m)
    uncovered = next((a for a in support if not covered[a]), None)
    if uncovered is not None:
        y = {uncovered: ONE if m[uncovered] > 0 else -ONE}
    else:
        bad = next((b for b in support if m[b] < 0 or b not in columns), None)
        if bad is None:
            x = tuple(Fraction(m.get(d, 0), denom) for d in columns)
            _verify_assignment(system, x)
            return FeasibilityResult(True, x, None)
        sign = ONE if m[bad] > 0 else -ONE
        y = {a: -sign if (bad ^ a).bit_count() % 2 else sign for a in lattice.submasks(bad)}
    _verify_farkas(system, y)
    return FeasibilityResult(False, None, y)


def max_probability(system: FeasibilitySystem, phi: CoEvent) -> Fraction:
    """The largest probability the co-event can carry over the feasible
    region.  When the underlying measure obeys the two-site sum rule (level
    at most two), zero is forced for any co-event failing the three-event
    identity; the converse does not hold.  The feasible region is the single
    Moebius assignment, so this is that assignment's value at the co-event;
    infeasible systems raise ValueError."""
    target = phi.to_multiplicative().dual_mask
    duals = [psi.dual_mask for psi in system.coevents]
    if target not in duals:
        raise ValueError("co-event is not a column of this system")
    result = solve_feasibility(system)
    if not result.feasible:
        raise ValueError("system is infeasible")
    return result.assignment[duals.index(target)]


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
    return {
        "status": "infeasible",
        "certificate": {"farkas": {format_mask(a): format_rational(v) for a, v in result.farkas.items()}},
    }

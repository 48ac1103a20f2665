import random
from fractions import Fraction

import pytest

from qmeasure import coevents as cv
from qmeasure import dynamics as dy
from qmeasure.checks import coin_theory, three_path_theory
from qmeasure.core import HistoriesTheory, SampleSpace

from helpers import dense_rows, dense_verify_farkas, quadratic_scan, submasks

ZERO = Fraction(0)


def _events(space, *masks):
    return tuple(space.event_from_mask(m) for m in masks)


# ---------------------------------------------------------------------------
# Defects of the three-event identity
# ---------------------------------------------------------------------------


def test_quadratic_defect_examples():
    space = SampleSpace.of("a", "b", "c")
    omega_star = cv.dual(space.omega)
    a, b, c = _events(space, 0b001, 0b010, 0b100)
    assert dy.quadratic_defect(omega_star, a, b, c) == 1
    coin = SampleSpace.of("h", "t")
    coin_omega = cv.dual(coin.omega)
    h, t, empty = _events(coin, 0b01, 0b10, 0b00)
    assert dy.quadratic_defect(coin_omega, h, t, empty) == 0


def test_homomorphisms_have_zero_defect_everywhere():
    for n in (3, 4):
        space = SampleSpace(tuple(f"g{i}" for i in range(n)))
        full = (1 << n) - 1
        for i in range(n):
            gamma_star = cv.dual(space.event_from_mask(1 << i))
            for a in range(1 << n):
                for b in submasks(full ^ a):
                    for c in submasks(full ^ a ^ b):
                        ea, eb, ec = _events(space, a, b, c)
                        assert dy.quadratic_defect(gamma_star, ea, eb, ec) == 0
                        assert dy.real_defect(gamma_star, ea, eb, ec) == 0


def test_real_defect_examples():
    space = SampleSpace.of("a", "b", "c")
    omega_star = cv.dual(space.omega)
    a, b, c = _events(space, 0b001, 0b010, 0b100)
    assert dy.real_defect(omega_star, a, b, c) == 1
    # a non-multiplicative table co-event can push the lifted defect to 2
    phi = cv.CoEvent.from_table(space, {0b111, 0b001})
    assert dy.real_defect(phi, a, b, c) == 2


def test_defects_reject_overlapping_events():
    space = SampleSpace.of("a", "b", "c")
    omega_star = cv.dual(space.omega)
    with pytest.raises(ValueError):
        dy.quadratic_defect(omega_star, *_events(space, 0b011, 0b010, 0b100))
    with pytest.raises(ValueError):
        dy.real_defect(omega_star, *_events(space, 0b001, 0b001, 0b100))


def test_real_defect_of_multiplicative_is_binary_and_reduces_mod_two():
    for n in range(1, 5):
        space = SampleSpace(tuple(f"g{i}" for i in range(n)))
        full = (1 << n) - 1
        for dual_mask in range(1, 1 << n):
            phi = cv.CoEvent(space, dual_mask=dual_mask)
            for a in range(1 << n):
                for b in submasks(full ^ a):
                    for c in submasks(full ^ a ^ b):
                        ea, eb, ec = _events(space, a, b, c)
                        r = dy.real_defect(phi, ea, eb, ec)
                        q = dy.quadratic_defect(phi, ea, eb, ec)
                        assert r in (0, 1)
                        assert q == r % 2
                        if r == 0:
                            assert q == 0


def test_disjoint_restriction_equivalent_to_full_identity():
    # over every truth table on 3 histories, including non-multiplicative ones
    space = SampleSpace.of("a", "b", "c")
    full = 0b111
    for bits in range(1, 1 << 7):
        table = bits << 1

        def val(mask):
            return table >> mask & 1

        disjoint_ok = True
        for a in range(8):
            for b in submasks(full ^ a):
                for c in submasks(full ^ a ^ b):
                    if (val(a | b | c) + val(a | b) + val(b | c) + val(c | a)
                            + val(a) + val(b) + val(c)) % 2:
                        disjoint_ok = False
        everywhere_ok = all(
            (val(a ^ b ^ c) ^ val(a ^ b) ^ val(b ^ c) ^ val(c ^ a)
             ^ val(a) ^ val(b) ^ val(c)) == 0
            for a in range(8) for b in range(8) for c in range(8)
        )
        assert disjoint_ok == everywhere_ok
        phi = cv.CoEvent.from_table(space, {m for m in range(1, 8) if val(m)})
        assert dy.is_quadratic(phi).quadratic == disjoint_ok
        assert dy.is_quadratic(phi) == quadratic_scan(phi)


def test_is_quadratic_reports():
    space = SampleSpace.of("a", "b", "c")
    gamma_star = cv.dual(space.event("b"))
    report = dy.is_quadratic(gamma_star)
    assert report.quadratic and report.witness is None
    omega_report = dy.is_quadratic(cv.dual(space.omega))
    assert not omega_report.quadratic
    assert tuple(e.mask for e in omega_report.witness) == (0b001, 0b010, 0b100)
    coin = SampleSpace.of("h", "t")
    assert dy.is_quadratic(cv.dual(coin.omega)).quadratic
    with pytest.raises(ValueError):
        dy.QuadraticReport(True, (space.empty, space.empty, space.empty))


# ---------------------------------------------------------------------------
# Feasibility systems
# ---------------------------------------------------------------------------


def test_build_feasibility_coin_rows():
    theory = coin_theory(Fraction(1, 3))
    space = theory.space
    candidates = [cv.dual(space.event("t")), cv.dual(space.event("h"))]
    system = dy.build_feasibility(theory, candidates)
    assert [phi.dual_mask for phi in system.coevents] == [0b01, 0b10]
    assert system.rows == range(4)
    rows = dense_rows(theory, system.coevents)
    assert [(row.coefficients, row.rhs) for row in rows] == [
        ((0, 0), 0), ((1, 0), Fraction(1, 3)), ((0, 1), Fraction(2, 3)), ((1, 1), 1)]


def test_full_space_row_forces_total_probability_one():
    theory = coin_theory(Fraction(1, 3))
    space = theory.space
    system = dy.build_feasibility(
        theory,
        [cv.dual(space.event("h")), cv.dual(space.event("t")), cv.dual(space.omega)],
    )
    full = dense_rows(theory, system.coevents)[0b11]
    assert (full.coefficients, full.rhs) == ((1, 1, 1), 1)
    # without the full space as a column, a total of 2 breaks only that row
    over = HistoriesTheory.from_table(space, {0: 0, 1: Fraction(1, 3), 2: Fraction(2, 3), 3: 2})
    result = dy.solve_feasibility(dy.build_feasibility(over, system.coevents[:2]))
    assert result.farkas == {0b00: 1, 0b01: -1, 0b10: -1, 0b11: 1}


def test_build_feasibility_rejects_bad_candidate_sets():
    theory = coin_theory(Fraction(1, 3))
    with pytest.raises(ValueError):
        dy.build_feasibility(theory, [])
    h_star = cv.dual(theory.space.event("h"))
    with pytest.raises(ValueError):
        dy.build_feasibility(theory, [h_star, h_star])


def test_feasibility_system_validates_its_candidates():
    theory = coin_theory(Fraction(1, 3))
    space = theory.space
    h_star = cv.dual(space.event("h"))
    not_multiplicative = cv.CoEvent.from_table(space, {0b01, 0b10, 0b11})
    other_space = cv.dual(SampleSpace.of("x", "y").event("x"))
    for candidates in ([not_multiplicative], [h_star, other_space], [h_star, h_star], []):
        with pytest.raises(ValueError):
            dy.FeasibilitySystem(theory, tuple(candidates))
    # a multiplicative table-form co-event is held in dual form, in dual order
    t_star = cv.CoEvent.from_table(space, {0b10, 0b11})
    system = dy.FeasibilitySystem(theory, (t_star, h_star))
    assert [phi.dual_mask for phi in system.coevents] == [0b01, 0b10]
    assert dy.solve_feasibility(system).assignment == (Fraction(1, 3), Fraction(2, 3))


def test_solve_coin_system():
    theory = coin_theory(Fraction(1, 3))
    space = theory.space
    system = dy.build_feasibility(
        theory, [cv.dual(space.event("h")), cv.dual(space.event("t"))]
    )
    result = dy.solve_feasibility(system)
    assert result.feasible
    assert result.assignment == (Fraction(1, 3), Fraction(2, 3))


def test_three_path_single_candidate_contradiction():
    theory = three_path_theory()
    space = theory.space
    system = dy.build_feasibility(theory, [cv.dual(space.event("a", "c"))])
    result = dy.solve_feasibility(system)
    assert not result.feasible
    # the first event with a nonzero measure and no column: {a} alone
    assert result.farkas == {0b001: 1}
    row = dense_rows(theory, system.coevents)[0b001]
    assert row.coefficients == (0,)
    assert row.rhs != 0


def test_infeasible_without_contradictory_row_yields_farkas():
    space = SampleSpace.of("h", "t")
    theory = HistoriesTheory.from_table(
        space, {0: 0, 1: Fraction(1, 3), 2: Fraction(1, 3), 3: 1}
    )
    system = dy.build_feasibility(
        theory, [cv.dual(space.event("h")), cv.dual(space.event("t"))]
    )
    result = dy.solve_feasibility(system)
    assert not result.feasible
    assert result.farkas == {0b00: 1, 0b01: -1, 0b10: -1, 0b11: 1}
    # re-verify the certificate externally
    dense_verify_farkas(dense_rows(theory, system.coevents), result.farkas)


def test_uniform_three_history_full_candidate_set():
    space = SampleSpace.of("a", "b", "c")
    theory = HistoriesTheory.from_weights(space, [Fraction(1, 3)] * 3)
    candidates = [cv.CoEvent(space, dual_mask=m) for m in range(1, 8)]
    system = dy.build_feasibility(theory, candidates)
    result = dy.solve_feasibility(system)
    assert result.feasible
    by_dual = {phi.dual_mask: x for phi, x in zip(system.coevents, result.assignment)}
    assert by_dual[0b001] == by_dual[0b010] == by_dual[0b100] == Fraction(1, 3)
    assert all(by_dual[m] == 0 for m in (0b011, 0b101, 0b110, 0b111))


def test_assignment_satisfies_rows_on_resubstitution():
    theory = coin_theory(Fraction(2, 7))
    space = theory.space
    system = dy.build_feasibility(
        theory,
        [cv.dual(space.event("h")), cv.dual(space.event("t")), cv.dual(space.omega)],
    )
    result = dy.solve_feasibility(system)
    assert result.feasible
    for row in dense_rows(theory, system.coevents):
        total = sum(x for x, c in zip(result.assignment, row.coefficients) if c)
        assert total == row.rhs
    assert all(x >= 0 for x in result.assignment)


# ---------------------------------------------------------------------------
# Extremal probabilities
# ---------------------------------------------------------------------------


def test_max_probability_coin():
    theory = coin_theory(Fraction(1, 3))
    space = theory.space
    h_star = cv.dual(space.event("h"))
    t_star = cv.dual(space.event("t"))
    omega_star = cv.dual(space.omega)
    system = dy.build_feasibility(theory, [h_star, t_star, omega_star])
    assert dy.max_probability(system, omega_star) == 0
    assert dy.max_probability(system, h_star) == Fraction(1, 3)
    assert dy.max_probability(system, t_star) == Fraction(2, 3)


def test_max_probability_uniform_three_history():
    space = SampleSpace.of("a", "b", "c")
    theory = HistoriesTheory.from_weights(space, [Fraction(1, 3)] * 3)
    candidates = [cv.CoEvent(space, dual_mask=m) for m in range(1, 8)]
    system = dy.build_feasibility(theory, candidates)
    assert dy.max_probability(system, cv.dual(space.omega)) == 0
    assert dy.max_probability(system, cv.dual(space.event("a"))) == Fraction(1, 3)


def test_max_probability_requires_feasible_system():
    theory = three_path_theory()
    phi = cv.dual(theory.space.event("a", "c"))
    system = dy.build_feasibility(theory, [phi])
    with pytest.raises(ValueError):
        dy.max_probability(system, phi)
    coin = coin_theory(Fraction(1, 3))
    coin_system = dy.build_feasibility(coin, [cv.dual(coin.space.event("h")),
                                              cv.dual(coin.space.event("t"))])
    with pytest.raises(ValueError):
        dy.max_probability(coin_system, cv.dual(coin.space.omega))


def test_positive_probability_implies_quadratic_on_random_systems():
    # probability mass on duals of at most two histories induces a measure
    # obeying the two-site sum rule, under which positive probability forces
    # the three-event identity; the system is
    # then feasible, and any candidate that can carry positive probability,
    # including extra larger duals thrown into the candidate set, must
    # satisfy the three-event identity
    rng = random.Random(67)
    for _ in range(20):
        n = rng.randint(2, 4)
        space = SampleSpace(tuple(f"g{i}" for i in range(n)))
        small = [m for m in range(1, 1 << n) if m.bit_count() <= 2]
        carriers = rng.sample(small, rng.randint(1, min(4, len(small))))
        raw = [rng.randint(1, 4) for _ in carriers]
        total = sum(raw)
        masses = [Fraction(r, total) for r in raw]
        values = {}
        for mask in range(1 << n):
            values[mask] = sum(
                (mass for d, mass in zip(carriers, masses) if d & ~mask == 0),
                Fraction(0),
            )
        theory = HistoriesTheory.from_table(space, values)
        assert theory.level() <= 2
        extras = [m for m in range(1, 1 << n) if m not in carriers]
        dual_masks = carriers + rng.sample(extras, min(3, len(extras)))
        candidates = [cv.CoEvent(space, dual_mask=d) for d in dual_masks]
        system = dy.build_feasibility(theory, candidates)
        result = dy.solve_feasibility(system)
        assert result.feasible
        for phi in system.coevents:
            if dy.max_probability(system, phi) > 0:
                assert dy.is_quadratic(phi).quadratic
            if phi.dual_event().cardinality >= 3:
                assert dy.max_probability(system, phi) == 0


def test_solver_agrees_with_floating_lp():
    # independent cross-check of the closed form against a float LP solver;
    # instances are scaled so float verdicts are unambiguous
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(71)
    for _ in range(20):
        n = rng.randint(2, 3)
        space = SampleSpace(tuple(f"g{i}" for i in range(n)))
        count = rng.randint(1, min(5, (1 << n) - 1))
        dual_masks = rng.sample(range(1, 1 << n), count)
        values = {}
        for mask in range(1 << n):
            values[mask] = Fraction(rng.randint(0, 8), 8)
        values[0] = Fraction(0)
        theory = HistoriesTheory.from_table(space, values)
        candidates = [cv.CoEvent(space, dual_mask=d) for d in dual_masks]
        system = dy.build_feasibility(theory, candidates)
        rows = dense_rows(theory, system.coevents)
        matrix = [list(row.coefficients) for row in rows]
        rhs = [float(row.rhs) for row in rows]
        lp = scipy_opt.linprog(
            c=[0.0] * count, A_eq=matrix, b_eq=rhs,
            bounds=[(0, None)] * count, method="highs",
        )
        result = dy.solve_feasibility(system)
        assert result.feasible == lp.success
        if result.feasible:
            for j, phi in enumerate(system.coevents):
                exact = dy.max_probability(system, phi)
                goal = [0.0] * count
                goal[j] = -1.0
                best = scipy_opt.linprog(
                    c=goal, A_eq=matrix, b_eq=rhs,
                    bounds=[(0, None)] * count, method="highs",
                )
                assert abs(float(exact) + best.fun) < 1e-9


def test_feasibility_json():
    theory = coin_theory(Fraction(1, 3))
    space = theory.space
    system = dy.build_feasibility(
        theory, [cv.dual(space.event("h")), cv.dual(space.event("t"))]
    )
    doc = dy.feasibility_result_to_json(system, dy.solve_feasibility(system))
    assert doc == {"status": "feasible", "assignment": {"0x1": "1/3", "0x2": "2/3"}}
    t3 = three_path_theory()
    bad = dy.build_feasibility(t3, [cv.dual(t3.space.event("a", "c"))])
    doc2 = dy.feasibility_result_to_json(bad, dy.solve_feasibility(bad))
    assert doc2 == {"status": "infeasible", "certificate": {"farkas": {"0x1": "1"}}}

"""The integer lattice kernel and the paths built on it, against direct
definitions and the independent oracles in ``helpers``."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmeasure import coevents as cv
from qmeasure import dynamics as dy
from qmeasure import lattice
from qmeasure.checks import random_classical_theory
from qmeasure.core import ENUM_CAP, HistoriesTheory, SampleSpace, SizeCapError
from qmeasure.exact import ComplexRational

from helpers import (
    ExactSimplex,
    amplitude_mu_oracle,
    amplitude_theory,
    block_sum_reference,
    brute_minimal_nonnegligible,
    brute_negligible,
    dense_rows,
    dense_solve,
    dense_verify_assignment,
    dense_verify_farkas,
    level_oracle,
    quadratic_scan,
    submasks,
)

SMALL = settings(max_examples=40, deadline=None)


def _space(n):
    return SampleSpace(tuple(f"h{i}" for i in range(n)))


def _supermasks(mask, n):
    full = (1 << n) - 1
    return [mask | extra for extra in submasks(full ^ mask)]


@st.composite
def int_functions(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    values = draw(st.lists(st.integers(-50, 50), min_size=1 << n, max_size=1 << n))
    return n, values


@st.composite
def families(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    return n, draw(st.integers(0, (1 << (1 << n)) - 1))


# ---------------------------------------------------------------------------
# The transforms
# ---------------------------------------------------------------------------


@SMALL
@given(int_functions())
def test_zeta_is_subset_sums_and_moebius_inverts_it(case):
    n, values = case
    sums = lattice.zeta(list(values), n)
    for mask in range(1 << n):
        assert sums[mask] == sum(values[b] for b in submasks(mask))
    signed = lattice.moebius(list(values), n)
    for mask in range(1 << n):
        assert signed[mask] == sum(
            (-1) ** (mask ^ b).bit_count() * values[b] for b in submasks(mask)
        )
    assert lattice.moebius(sums, n) == values
    assert lattice.zeta(signed, n) == values


@SMALL
@given(families())
def test_down_closure_and_minimal_members(case):
    n, family = case
    member = [bool(family >> mask & 1) for mask in range(1 << n)]
    closed = lattice.down_closure(family, n)
    low = lattice.minimal(family, n)
    for mask in range(1 << n):
        assert bool(closed >> mask & 1) == any(member[s] for s in _supermasks(mask, n))
        children = [mask ^ (1 << i) for i in range(n) if mask >> i & 1]
        assert bool(low >> mask & 1) == (member[mask] and not any(member[c] for c in children))
    assert lattice.members(family) == [m for m in range(1 << n) if member[m]]
    assert lattice.family_of(member) == family


@SMALL
@given(families(), st.data())
def test_inside_matches_a_direct_scan(case, data):
    n, _ = case
    mask = data.draw(st.integers(0, (1 << n) - 1))
    assert lattice.members(lattice.inside(mask)) == list(submasks(mask))


@SMALL
@given(families())
def test_z2_moebius_is_subset_parity_and_an_involution(case):
    n, family = case
    form = lattice.z2_moebius(family, n)
    for mask in range(1 << n):
        assert form >> mask & 1 == sum(family >> b & 1 for b in submasks(mask)) % 2
    assert lattice.z2_moebius(form, n) == family


@SMALL
@given(st.integers(0, (1 << 7) - 1))
def test_submasks_ascending(mask):
    assert list(lattice.submasks(mask)) == [s for s in range(mask + 1) if s & ~mask == 0]


@SMALL
@given(st.lists(st.tuples(st.integers(-60, 60), st.integers(1, 30)), min_size=1, max_size=20))
def test_over_common_denominator(pairs):
    # unreduced pairs such as (2, 4) still give the least common denominator
    values = [Fraction(p, q) for p, q in pairs]
    scaled, denom = lattice.over_common_denominator(pairs)
    assert [Fraction(v, denom) for v in scaled] == values
    assert denom == math.lcm(*(v.denominator for v in values))


def test_transform_rejects_wrong_length():
    with pytest.raises(ValueError):
        lattice.zeta([1, 2, 3], 2)


# ---------------------------------------------------------------------------
# Measure tables, level and negligible families in all three forms
# ---------------------------------------------------------------------------

amplitudes = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda p: ComplexRational.of(*p)),
    min_size=1, max_size=5,
)
eps_values = st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1), Fraction(9, 2)])


def _check_against_oracles(theory, eps, level=True):
    n = theory.space.n
    if level:
        assert theory.level() == level_oracle(theory)
    table = theory.full_table()
    for mask in range(1 << n):
        event = theory.space.event_from_mask(mask)
        assert theory.is_negligible(event, eps) == brute_negligible(table, mask, eps)
    assert theory.minimal_nonnegligible(eps) == brute_minimal_nonnegligible(theory, eps)


@SMALL
@given(amplitudes, eps_values)
def test_decoherence_form_against_oracles(amps, eps):
    theory = amplitude_theory(amps)
    table = theory.full_table()
    assert table == [amplitude_mu_oracle(amps, mask) for mask in range(1 << len(amps))]
    _check_against_oracles(theory, eps)


@SMALL
@given(st.lists(st.integers(0, 4), min_size=1, max_size=7),
       st.sampled_from([1, 2, 3, 7]), eps_values)
def test_weights_form_against_oracles(raw, scale, eps):
    weights = [Fraction(r, scale) for r in raw]
    theory = HistoriesTheory.from_weights(_space(len(raw)), weights)
    table = theory.full_table()
    for mask in range(1 << len(raw)):
        assert table[mask] == sum((w for i, w in enumerate(weights) if mask >> i & 1), Fraction(0))
    _check_against_oracles(theory, eps, level=len(raw) <= 5)


@SMALL
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.fractions(min_value=0, max_value=3, max_denominator=6),
    min_size=1 << n, max_size=1 << n)), eps_values)
@example([Fraction(1), Fraction(0), Fraction(0), Fraction(0)], Fraction(0))  # mu(0) = 1: level 1
@example([Fraction(1), Fraction(1)], Fraction(0))  # no event null: the singleton is a dual
def test_table_form_against_oracles(values, eps):
    n = len(values).bit_length() - 1
    theory = HistoriesTheory.from_table(_space(n), dict(enumerate(values)))
    assert theory.full_table() == values
    _check_against_oracles(theory, eps)


def test_asymmetric_real_parts_with_real_block_sums():
    # not Hermitian, but every D_ij + D_ji is real, so every block sum is
    c = ComplexRational.of
    matrix = [
        [c(1, 0), c(2, 1), c(Fraction(1, 3), -2)],
        [c(-1, -1), c(2, 0), c(0, 5)],
        [c(Fraction(1, 6), 2), c(1, -5), c(3, 0)],
    ]
    theory = HistoriesTheory.from_decoherence(_space(3), matrix)
    table = theory.full_table()
    for mask in range(8):
        acc = block_sum_reference(matrix, mask, mask)
        assert acc.imag == 0 and table[mask] == acc.real
    assert theory.level() == level_oracle(theory) == 2
    report = theory.validate()
    assert any(v.axiom == "hermiticity" for v in report.violations)


@pytest.mark.parametrize("entries, first", [
    ({(1, 1): (2, 1)}, "0x2"),          # imaginary diagonal of history 1
    ({(0, 2): (0, 1)}, "0x5"),          # D_02 + D_20 not real
    ({(2, 1): (1, 3), (2, 2): (1, -3)}, "0x4"),  # cancels only on {1, 2}
])
def test_non_real_block_sums_name_the_first_event(entries, first):
    c = ComplexRational.of
    matrix = [[c(1 if i == j else 0, 0) for j in range(3)] for i in range(3)]
    for (i, j), (re, im) in entries.items():
        matrix[i][j] = c(re, im)
    expected = next(hex(m) for m in range(8) if block_sum_reference(matrix, m, m).imag != 0)
    assert expected == first
    theory = HistoriesTheory.from_decoherence(_space(3), matrix)
    message = f"measure of event {first} is not real"
    with pytest.raises(ValueError, match=message):
        theory.full_table()
    with pytest.raises(ValueError, match=message):
        theory.level()
    with pytest.raises(ValueError, match=message):
        theory.minimal_nonnegligible()


@st.composite
def pair_matrices(draw, max_n=7):
    """Small-integer matrices of up to seven histories.  Below the
    diagonal each real part equals, negates or is free of its mirror, so
    some real pairs cancel; in about half of the matrices the imaginary
    parts cancel in every block, and in the rest they are free (not
    Hermitian)."""
    n = draw(st.integers(1, max_n))
    small = st.integers(-2, 2)
    re = [[draw(small) for _ in range(n)] for _ in range(n)]
    im = [[draw(small) for _ in range(n)] for _ in range(n)]
    hermitian = draw(st.booleans())
    for i in range(n):
        for j in range(i):
            re[i][j] = draw(st.sampled_from((re[j][i], -re[j][i], re[i][j])))
            if hermitian:
                im[i][j] = -im[j][i]
        if hermitian:
            im[i][i] = 0
    return [[ComplexRational.of(re[i][j], im[i][j]) for j in range(n)] for i in range(n)]


@SMALL
@given(pair_matrices())
@example([[ComplexRational.of(0, 0), ComplexRational.of(1, 2)],  # D_01 = -D_10, zero diagonal
          [ComplexRational.of(-1, -2), ComplexRational.of(0, 0)]])
@example([[ComplexRational.of(1, 0), ComplexRational.of(1, 1)],  # not real on {0, 1} only
          [ComplexRational.of(1, 1), ComplexRational.of(0, 0)]])
def test_pair_form_moebius_matches_the_dense_transform(matrix):
    n = len(matrix)
    blocks = [block_sum_reference(matrix, m, m) for m in range(1 << n)]
    theory = HistoriesTheory.from_decoherence(_space(n), matrix)
    first = next((m for m, b in enumerate(blocks) if b.imag), None)
    if first is not None:
        with pytest.raises(ValueError, match=f"measure of event {hex(first)} is not real"):
            theory._moebius()
        return
    dense = lattice.moebius([b.real for b in blocks], n)
    coeffs, denom = theory._moebius()
    assert {m: Fraction(v, denom) for m, v in coeffs.items()} == {m: v for m, v in enumerate(dense) if v}


# ---------------------------------------------------------------------------
# The quadratic identity against the disjoint-triple scan
# ---------------------------------------------------------------------------


def _anf_table(space, monomials):
    """The table co-event whose value on S is the parity of the monomials
    contained in S."""
    return cv.CoEvent.from_table(space, {
        s for s in range(1 << space.n) if sum(m & ~s == 0 for m in monomials) % 2})


@st.composite
def small_coevents(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    space = _space(n)
    top = (1 << n) - 1
    kind = draw(st.sampled_from(["dual", "table", "anf"]))
    if kind == "dual":
        return cv.CoEvent(space, dual_mask=draw(st.integers(1, top)))
    if kind == "table":
        bits = draw(st.integers(1, (1 << top) - 1))
        return cv.CoEvent.from_table(space, {m for m in range(1, top + 1) if bits >> (m - 1) & 1})
    # few monomials: both verdicts, and witnesses whose C spans several histories
    return _anf_table(space, draw(st.sets(st.integers(1, top), min_size=1, max_size=4)))


def _report_masks(report):
    return report.quadratic, [e.mask for e in report.witness or ()]


@settings(max_examples=300, deadline=None)
@given(small_coevents())
@example(cv.CoEvent(_space(6), dual_mask=0b111111))
def test_is_quadratic_matches_the_triple_scan(phi):
    assert _report_masks(dy.is_quadratic(phi)) == _report_masks(quadratic_scan(phi))


def test_quadratic_witness_can_span_several_histories():
    # f = x0 x1 x3 x4 + x0 x2: A = {h0}, B = {h1}, and the first odd defect
    # with them is at C = {h3, h4}
    space = _space(5)
    for phi in (_anf_table(space, {0b11011, 0b00101}), cv.CoEvent(space, dual_mask=0b11011)):
        assert _report_masks(dy.is_quadratic(phi)) == (False, [0b1, 0b10, 0b11000])


# ---------------------------------------------------------------------------
# Full-algebra feasibility against the simplex
# ---------------------------------------------------------------------------


@st.composite
def full_row_systems(draw):
    n = draw(st.integers(1, 4))
    space = _space(n)
    if draw(st.booleans()):
        # a measure with a nonnegative Moebius transform, so that the
        # system is feasible whenever the candidates cover its support
        m = [0] + draw(st.lists(st.integers(0, 2), min_size=(1 << n) - 1,
                                max_size=(1 << n) - 1))
        values = [Fraction(v, 3) for v in lattice.zeta(m, n)]
    else:
        values = [Fraction(0)] + draw(st.lists(
            st.fractions(min_value=0, max_value=2, max_denominator=4),
            min_size=(1 << n) - 1, max_size=(1 << n) - 1))
    theory = HistoriesTheory.from_table(space, dict(enumerate(values)))
    duals = draw(st.sets(st.integers(1, (1 << n) - 1), min_size=1))
    return dy.build_feasibility(theory, [cv.CoEvent(space, dual_mask=d) for d in duals])


def _simplex(system):
    rows = dense_rows(system.theory, system.coevents)
    return ExactSimplex(
        [row.coefficients for row in rows],
        [row.rhs for row in rows],
        len(system.coevents),
    )


@settings(max_examples=120, deadline=None)
@given(full_row_systems())
def test_closed_form_feasibility_matches_simplex(system):
    result = dy.solve_feasibility(system)
    simplex = _simplex(system)
    feasible, _ = simplex.phase_one()
    assert result.feasible == feasible
    if not feasible:
        dense_verify_farkas(dense_rows(system.theory, system.coevents), result.farkas)
        for phi in system.coevents:
            with pytest.raises(ValueError):
                dy.max_probability(system, phi)
        return
    # the full-algebra system has exactly one solution
    assert list(result.assignment) == simplex.solution()
    for j, phi in enumerate(system.coevents):
        reference = _simplex(system)
        reference.phase_one()
        costs = [Fraction(0)] * len(system.coevents)
        costs[j] = Fraction(-1)
        assert dy.max_probability(system, phi) == -reference.phase_two_min(costs)


@st.composite
def feasibility_systems(draw):
    # masses on the candidates (feasible); the same with one more unit of
    # either sign on an event containing a candidate (mostly a Farkas
    # certificate); or an arbitrary signed table (mostly a one-row certificate)
    n = draw(st.integers(1, 6))
    space = _space(n)
    full = (1 << n) - 1
    duals = draw(st.sets(st.integers(1, full), min_size=1))
    kind = draw(st.sampled_from(("masses", "perturbed", "arbitrary")))
    if kind == "arbitrary":
        values = draw(st.lists(st.fractions(min_value=-1, max_value=2, max_denominator=4),
                               min_size=full + 1, max_size=full + 1))
    else:
        m = [0] * (full + 1)
        for d in duals:
            m[d] = draw(st.integers(0, 2))
        if kind == "perturbed":
            event = draw(st.sampled_from(sorted(duals))) | draw(st.integers(0, full))
            m[event] += draw(st.sampled_from((-1, 1)))
        values = [Fraction(v, 3) for v in lattice.zeta(m, n)]
    theory = HistoriesTheory.from_table(space, dict(enumerate(values)))
    return dy.build_feasibility(theory, [cv.CoEvent(space, dual_mask=d) for d in duals])


@settings(max_examples=200, deadline=None)
@given(feasibility_systems(), st.data())
def test_lattice_pass_checks_match_the_dense_reference(system, data):
    rows = dense_rows(system.theory, system.coevents)
    assert [row.event_mask for row in rows] == list(system.rows)
    result = dy.solve_feasibility(system)
    assert result == dense_solve(rows, [phi.dual_mask for phi in system.coevents])
    # a changed witness fails both the passes and the matrix sums
    if result.feasible:
        x = list(result.assignment)
        x[data.draw(st.integers(0, len(x) - 1))] += data.draw(
            st.sampled_from((Fraction(1), Fraction(1, 2), Fraction(-1, 7))))
        broken = [x]
        checks = (dy._verify_assignment, lambda _, v: dense_verify_assignment(rows, v))
    else:
        # one multiplier raised on an event containing a dual lifts that
        # column to >= 1; no multipliers fail on the right-hand side alone
        phi = data.draw(st.sampled_from(system.coevents))
        y = dict(result.farkas)
        event = phi.dual_mask | data.draw(st.integers(0, len(rows) - 1))
        y[event] = y.get(event, 0) + 2
        broken = [y, {}]
        checks = (dy._verify_farkas, lambda _, v: dense_verify_farkas(rows, v))
    for witness in broken:
        for check in checks:
            with pytest.raises(AssertionError):
                check(system, witness)


def test_closed_form_certificate_is_the_signed_moebius_row():
    # mu({a, b}) = 1/2 < mu(a) + mu(b): m({a, b}) = -1/2 and {a, b} is not
    # a candidate, so y_A = -(-1)**|{a, b} - A|
    space = _space(2)
    theory = HistoriesTheory.from_table(
        space, {0: 0, 1: Fraction(1, 2), 2: Fraction(1, 2), 3: Fraction(1, 2)})
    system = dy.build_feasibility(theory, [cv.dual(e) for e in space.singletons()])
    result = dy.solve_feasibility(system)
    assert not result.feasible
    assert result.farkas == {0b00: -1, 0b01: 1, 0b10: 1, 0b11: -1}
    assert dy.feasibility_result_to_json(system, result)["certificate"] == {
        "farkas": {"0x0": "-1", "0x1": "1", "0x2": "1", "0x3": "-1"}}


# ---------------------------------------------------------------------------
# Operations at the enumeration cap
# ---------------------------------------------------------------------------


def test_operations_finish_at_the_cap():
    # rank-one decoherence at n = 16: amplitudes -1, 1, 3, ..., 3 over 42,
    # whose only null events are the empty event and {h0, h1}
    n = 16
    amps = [Fraction(-1, 42), Fraction(1, 42)] + [Fraction(3, 42)] * (n - 2)
    theory = amplitude_theory(amps)
    report = theory.validate()
    assert report.valid
    assert report.null_events == (0, 0b11)
    assert theory.level() == 2
    assert [phi.dual_mask for phi in cv.primitives(theory)] == [1 << i for i in range(2, n)]
    eps = Fraction(1, 100)
    for phi in cv.primitives(theory, eps)[:20]:
        dual = phi.dual_event()
        assert not theory.is_negligible(dual, eps)
        assert all(theory.is_negligible(dual + single, eps)
                   for single in theory.space.singletons() if single.issubset(dual))

    # every dual of a classical table at n = 16: the unique assignment is
    # the weights on the singletons
    weights = random_classical_theory(random.Random(16), n, table_form=False)
    space = weights.space
    classical = HistoriesTheory.from_table(space, dict(enumerate(weights.full_table())))
    system = dy.build_feasibility(
        classical, [cv.CoEvent(space, dual_mask=m) for m in range(1, 1 << n)])
    result = dy.solve_feasibility(system)
    assert result.feasible
    for phi, x in zip(system.coevents, result.assignment):
        expected = classical.mu_mask(phi.dual_mask) if phi.dual_mask.bit_count() == 1 else 0
        assert x == expected
    assert dy.max_probability(system, cv.CoEvent(space, dual_mask=0b100)) == classical.mu_mask(0b100)
    assert dy.max_probability(system, cv.CoEvent(space, dual_mask=0b110)) == 0
    # the duals containing the last history leave the first nonnull
    # singleton with no dual inside it: a one-row certificate
    top = 1 << (n - 1)
    system = dy.build_feasibility(
        classical, [cv.CoEvent(space, dual_mask=m) for m in range(top, 1 << n)])
    result = dy.solve_feasibility(system)
    first = next(1 << i for i in range(n) if classical.mu_mask(1 << i))
    assert (result.feasible, result.farkas) == (False, {first: 1})


def test_is_quadratic_finishes_at_the_cap():
    space = _space(ENUM_CAP)
    quadratic = _anf_table(space, {0b11, 0b100, 0b1000100000})
    assert _report_masks(dy.is_quadratic(quadratic)) == (True, [])
    full = cv.dual(space.omega)
    assert _report_masks(dy.is_quadratic(full)) == (False, [0b1, 0b10, (1 << ENUM_CAP) - 4])
    above = cv.dual(_space(ENUM_CAP + 1).omega)
    with pytest.raises(SizeCapError):
        dy.is_quadratic(above)
    assert _report_masks(dy.is_quadratic(above, override_cap=True)) == (
        False, [0b1, 0b10, (1 << (ENUM_CAP + 1)) - 4])

"""Solver tests: exact feasible sets, pairwise gcd reduction, DFS,
heuristics, the facade's escalation and certificates."""

import math

import pytest

from conftest import swept_overlap

from repro.core.arcs import ArcSet
from repro.core.circle import JobCircle
from repro.core.optimize import (
    annealing_search,
    backtracking_search,
    exact_pair_feasible_rotations,
    exhaustive_search,
    feasible_against,
    greedy_search,
    pair_compatible,
    solve,
    solve_fractional,
)
from repro.core.unified import UnifiedCircle
from repro.errors import CompatibilityError


def _verify_rotations(circles, rotations):
    """Ground-truth check: rotations must yield zero overlap."""
    assert swept_overlap(circles, rotations) == 0


def _brute_force_feasible(circle, fixed):
    """Rotations of ``circle`` at which it collides with no job of
    ``fixed`` (``(circle, rotation)`` pairs), on the LCM circle."""
    perimeter = math.lcm(circle.perimeter, *(c.perimeter for c, _ in fixed))
    placed = ArcSet(perimeter)
    for other, rotation in fixed:
        placed = placed.union(other.rotate(rotation).tiled_comm(perimeter))
    return [
        not placed.intersects(circle.rotate(delta).tiled_comm(perimeter))
        for delta in range(circle.perimeter)
    ]


def _multi_arc_circle(rng, job_id):
    """A seeded circle of one to three comm arcs on a small period."""
    period = int(rng.choice([6, 8, 10, 12, 15, 20, 24, 30]))
    arcs = [
        (int(rng.integers(period)), int(rng.integers(1, period // 3 + 1)))
        for _ in range(int(rng.integers(1, 4)))
    ]
    return JobCircle.from_arcs(job_id, period, arcs)


class TestFeasibleRotations:
    """:func:`feasible_against` equals brute force over every rotation."""

    def test_matches_brute_force_same_period(self):
        placed = JobCircle.from_arcs("p", 100, [(20, 30)])
        circle = JobCircle.from_phases("j", 80, 20)
        feasible = feasible_against(circle, [(placed, 0)])
        expected = _brute_force_feasible(circle, [(placed, 0)])
        for delta in range(100):
            assert feasible.contains(delta) == expected[delta], delta

    def test_matches_brute_force_tiled(self):
        placed = JobCircle.from_arcs("p", 120, [(10, 25), (70, 10)])
        circle = JobCircle.from_phases("j", 30, 10)  # period 40, tiles x3
        feasible = feasible_against(circle, [(placed, 0)])
        expected = _brute_force_feasible(circle, [(placed, 0)])
        for delta in range(40):
            assert feasible.contains(delta) == expected[delta], delta

    def test_empty_placed_means_all_feasible(self):
        circle = JobCircle.from_phases("j", 30, 10)
        assert feasible_against(circle, []).is_full

    def test_matches_brute_force_multi_arc_seeded(self):
        # 1-4 fixed jobs of one to three arcs each, at random rotations,
        # on periods that need not divide one another.
        import numpy as np

        rng = np.random.default_rng(26)
        for case in range(300):
            circle = _multi_arc_circle(rng, "j")
            fixed = [
                (
                    _multi_arc_circle(rng, f"f{k}"),
                    int(rng.integers(-60, 60)),
                )
                for k in range(1 + case % 4)
            ]
            feasible = feasible_against(circle, fixed)
            assert feasible.perimeter == circle.perimeter
            expected = _brute_force_feasible(circle, fixed)
            for delta in range(circle.perimeter):
                assert feasible.contains(delta) == expected[delta], (
                    case, delta,
                )


class TestExactPair:
    def test_matches_brute_force(self):
        first = JobCircle.from_phases("a", 30, 10)   # period 40
        second = JobCircle.from_phases("b", 45, 15)  # period 60
        feasible = exact_pair_feasible_rotations(first, second)
        pair = [first, second]
        g = 20  # gcd(40, 60)
        for residue in range(g):
            brute = any(
                swept_overlap(pair, {"b": delta}) == 0
                for delta in range(residue, 60, g)
            )
            # All lifts of a residue are equivalent, so check one.
            one_lift = swept_overlap(pair, {"b": residue}) == 0
            assert feasible.contains(residue) == one_lift
            assert brute == one_lift

    def test_equal_periods(self):
        first = JobCircle.from_phases("a", 60, 40)
        second = JobCircle.from_phases("b", 55, 45)
        feasible = exact_pair_feasible_rotations(first, second)
        assert not feasible.is_empty
        delta = pair_compatible(first, second)
        _verify_rotations([first, second], {"a": 0, "b": delta})

    def test_infeasible_pair(self):
        first = JobCircle.from_phases("a", 40, 60)
        second = JobCircle.from_phases("b", 40, 60)
        assert exact_pair_feasible_rotations(first, second).is_empty
        assert pair_compatible(first, second) is None

    def test_gcd_reduction_proves_infeasibility(self):
        # Arcs of 10 and 15 cannot mesh when gcd of the periods is 20:
        # 10 + 15 - 1 = 24 > 20 forbids every residue.
        first = JobCircle.from_phases("a", 30, 10)   # period 40
        second = JobCircle.from_phases("b", 45, 15)  # period 60
        assert exact_pair_feasible_rotations(first, second).is_empty

    def test_huge_lcm_is_cheap(self):
        # Nearly coprime periods: LCM is ~6e4 ticks but the gcd circle is
        # tiny, so this must return instantly.
        first = JobCircle.from_phases("a", 211, 42)   # period 253
        second = JobCircle.from_phases("b", 205, 46)  # period 251
        feasible = exact_pair_feasible_rotations(first, second)
        # gcd(253, 251) = 1: a single residue, necessarily infeasible
        # since any overlap anywhere kills it.
        assert feasible.perimeter == 1
        assert feasible.is_empty


class TestBacktracking:
    def test_finds_equal_period_packing(self):
        circles = [
            JobCircle.from_phases("a", 60, 40),
            JobCircle.from_phases("b", 70, 30),
            JobCircle.from_phases("c", 75, 25),
        ]
        outcome = backtracking_search(circles)
        assert outcome.found
        _verify_rotations(circles, outcome.rotations)

    def test_reports_infeasible_overload(self):
        circles = [
            JobCircle.from_phases("a", 40, 60),
            JobCircle.from_phases("b", 40, 60),
        ]
        outcome = backtracking_search(circles, candidate_mode="complete")
        assert not outcome.found
        assert outcome.complete

    def test_group5_instance(self):
        # Table 1 group 5: periods 330/330/165, arcs 50/50/8.
        circles = [
            JobCircle.from_phases("v19", 280, 50),
            JobCircle.from_phases("v16", 280, 50),
            JobCircle.from_phases("r50", 157, 8),
        ]
        outcome = backtracking_search(circles)
        assert outcome.found
        _verify_rotations(circles, outcome.rotations)

    def test_bad_candidate_mode_rejected(self):
        with pytest.raises(CompatibilityError):
            backtracking_search(
                [JobCircle.from_phases("a", 10, 10)],
                candidate_mode="psychic",
            )

    def test_single_job_trivial(self):
        outcome = backtracking_search([JobCircle.from_phases("a", 10, 10)])
        assert outcome.found


class TestGreedy:
    def test_finds_easy_packing(self):
        circles = [
            JobCircle.from_phases("a", 80, 20),
            JobCircle.from_phases("b", 80, 20),
            JobCircle.from_phases("c", 80, 20),
        ]
        outcome = greedy_search(circles)
        assert outcome.found
        _verify_rotations(circles, outcome.rotations)

    def test_reports_best_effort_on_overload(self):
        circles = [
            JobCircle.from_phases("a", 40, 60),
            JobCircle.from_phases("b", 40, 60),
        ]
        outcome = greedy_search(circles)
        assert not outcome.found
        # Best effort: the unavoidable overlap is 2*60 - 100 = 20.
        assert outcome.overlap == 20


class TestAnnealing:
    def test_finds_feasible_packing(self):
        circles = [
            JobCircle.from_phases("a", 70, 30),
            JobCircle.from_phases("b", 70, 30),
        ]
        outcome = annealing_search(circles, seed=0)
        assert outcome.found
        _verify_rotations(circles, outcome.rotations)

    def test_deterministic_given_seed(self):
        circles = [
            JobCircle.from_phases("a", 70, 30),
            JobCircle.from_phases("b", 70, 30),
        ]
        a = annealing_search(circles, seed=5)
        b = annealing_search(circles, seed=5)
        assert a.rotations == b.rotations


class TestExhaustive:
    def test_fine_grid_finds_packing(self):
        circles = [
            JobCircle.from_phases("a", 60, 40),
            JobCircle.from_phases("b", 55, 45),
        ]
        outcome = exhaustive_search(circles, steps_per_job=50)
        assert outcome.found
        _verify_rotations(circles, outcome.rotations)

    def test_coarse_grid_can_miss(self):
        # The tight triple leaves only a 5-tick window; 4 sectors miss it.
        circles = [
            JobCircle.from_phases("a", 60, 40),
            JobCircle.from_phases("b", 70, 30),
            JobCircle.from_phases("c", 75, 25),
        ]
        outcome = exhaustive_search(circles, steps_per_job=4)
        assert not outcome.found

    def test_budget_guard(self):
        circles = [
            JobCircle.from_phases(f"j{i}", 60, 40) for i in range(6)
        ]
        with pytest.raises(CompatibilityError):
            exhaustive_search(circles, steps_per_job=36, max_evaluations=10)


class TestSolveFacade:
    def test_single_job_trivial(self):
        outcome = solve([JobCircle.from_phases("a", 10, 10)])
        assert outcome.found and outcome.complete

    def test_utilization_bound_certificate(self):
        circles = [
            JobCircle.from_phases("a", 40, 60),
            JobCircle.from_phases("b", 40, 60),
        ]
        outcome = solve(circles)
        assert not outcome.found
        assert outcome.complete
        assert outcome.method == "utilization-bound"

    def test_pairwise_certificate(self):
        # BERT/VGG19 shape: VGG19's 145-tick arc exceeds BERT's 95-tick gap.
        circles = [
            JobCircle.from_phases("bert", 95, 55),    # period 150
            JobCircle.from_phases("vgg19", 105, 145),  # period 250
        ]
        outcome = solve(circles)
        assert not outcome.found
        assert outcome.complete
        assert outcome.method.startswith("pairwise")

    def test_exact_pair_path(self):
        circles = [
            JobCircle.from_phases("a", 701, 300),
            JobCircle.from_phases("b", 701, 300),
        ]
        outcome = solve(circles)
        assert outcome.found
        assert outcome.method == "exact-pair"
        _verify_rotations(circles, outcome.rotations)

    def test_three_jobs_exact(self):
        circles = [
            JobCircle.from_phases("a", 280, 50),
            JobCircle.from_phases("b", 280, 50),
            JobCircle.from_phases("c", 157, 8),
        ]
        outcome = solve(circles)
        assert outcome.found
        _verify_rotations(circles, outcome.rotations)

    def test_explicit_methods(self):
        circles = [
            JobCircle.from_phases("a", 70, 30),
            JobCircle.from_phases("b", 70, 30),
        ]
        for solver in (
            greedy_search,
            annealing_search,
            exhaustive_search,
            backtracking_search,
        ):
            outcome = solver(circles)
            assert outcome.found, solver.__name__

    def test_empty_rejected(self):
        with pytest.raises(CompatibilityError):
            solve([])

    def test_solutions_always_verified(self):
        # Fuzz a few random-ish instances: whenever solve() claims
        # feasibility, the rotations must truly have zero overlap.
        import numpy as np

        rng = np.random.default_rng(12)
        for _ in range(20):
            circles = []
            for index in range(int(rng.integers(2, 4))):
                period = int(rng.integers(20, 120))
                comm = int(rng.integers(1, max(period // 2, 2)))
                circles.append(
                    JobCircle.from_phases(f"j{index}", period - comm, comm)
                )
            outcome = solve(circles, seed=1)
            if outcome.found:
                _verify_rotations(circles, outcome.rotations)


# The two annealing bodies as they stood before they were folded into
# one loop: the reference the shared loop must reproduce exactly. Both
# score with the coverage sweeps, not with the solvers' scorer.

def _reference_annealing_search(
    circles, iterations=None, restarts=4, seed=0
):
    import numpy as np

    from repro.core.optimize import SolverOutcome

    unified = UnifiedCircle(circles)
    if iterations is None:
        total_arcs = sum(
            len(circle.comm.intervals)
            * (unified.perimeter // circle.perimeter)
            for circle in circles
        )
        iterations = max(600, min(4000, 1_000_000 // max(total_arcs, 1)))
    rng = np.random.default_rng(seed)
    job_ids = [circle.job_id for circle in circles]
    periods = {circle.job_id: circle.perimeter for circle in circles}

    def cost(rotations):
        return swept_overlap(circles, rotations)

    best_rotations = {job_id: 0 for job_id in job_ids}
    best_cost = cost(best_rotations)
    nodes = 1
    for restart in range(restarts):
        if best_cost == 0:
            break
        current = {
            job_id: int(rng.integers(periods[job_id]))
            for job_id in job_ids
        }
        current_cost = cost(current)
        temperature_scale = max(unified.perimeter // 10, 1)
        for step in range(iterations):
            nodes += 1
            temperature = temperature_scale * (1.0 - step / iterations) + 1e-9
            job_id = job_ids[int(rng.integers(len(job_ids)))]
            period = periods[job_id]
            if rng.random() < 0.5:
                shift = int(rng.integers(1, max(period // 20, 2)))
            else:
                shift = int(rng.integers(period))
            candidate = dict(current)
            candidate[job_id] = (current[job_id] + shift) % period
            candidate_cost = cost(candidate)
            accept = candidate_cost <= current_cost or (
                rng.random()
                < np.exp((current_cost - candidate_cost) / temperature)
            )
            if accept:
                current, current_cost = candidate, candidate_cost
                if current_cost < best_cost:
                    best_rotations, best_cost = dict(current), current_cost
                    if best_cost == 0:
                        break
    return SolverOutcome(
        found=best_cost == 0,
        rotations=best_rotations,
        overlap=best_cost,
        complete=False,
        method="annealing",
        nodes=nodes,
    )


def _reference_solve_fractional(
    circles, capacity=1.0, iterations=5000, restarts=4, seed=0
):
    import numpy as np

    from repro.core.optimize import SolverOutcome

    unified = UnifiedCircle(circles)
    rng = np.random.default_rng(seed)
    job_ids = [circle.job_id for circle in circles]
    periods = {circle.job_id: circle.perimeter for circle in circles}

    def cost(rotations):
        return unified.fractional_overlap_ticks(rotations, capacity)

    best_rotations = {job_id: 0 for job_id in job_ids}
    best_cost = cost(best_rotations)
    nodes = 1
    for _restart in range(restarts):
        if best_cost == 0:
            break
        current = {
            job_id: int(rng.integers(periods[job_id])) for job_id in job_ids
        }
        current_cost = cost(current)
        scale = max(unified.perimeter // 10, 1)
        for step in range(iterations):
            nodes += 1
            temperature = scale * (1.0 - step / iterations) + 1e-9
            job_id = job_ids[int(rng.integers(len(job_ids)))]
            period = periods[job_id]
            if rng.random() < 0.5:
                shift = int(rng.integers(1, max(period // 20, 2)))
            else:
                shift = int(rng.integers(period))
            candidate = dict(current)
            candidate[job_id] = (current[job_id] + shift) % period
            candidate_cost = cost(candidate)
            if candidate_cost <= current_cost or rng.random() < np.exp(
                (current_cost - candidate_cost) / temperature
            ):
                current, current_cost = candidate, candidate_cost
                if current_cost < best_cost:
                    best_rotations, best_cost = dict(current), current_cost
                    if best_cost == 0:
                        break
    return SolverOutcome(
        found=best_cost == 0,
        rotations=best_rotations,
        overlap=best_cost,
        complete=False,
        method="fractional-annealing",
        nodes=nodes,
    )


def _oracle_cases(count=64):
    """Seeded instances of 2-4 circles on small unified perimeters, some
    with two comm arcs, each with a demand for the fractional solver."""
    import numpy as np

    rng = np.random.default_rng(2024)
    cases = []
    for index in range(count):
        circles = []
        for k in range(2 + index % 3):
            period = int(rng.choice([30, 40, 60, 80, 120]))
            comm = int(rng.integers(2, period // 2 + 2))
            demand = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
            if k % 2 and comm >= 4:
                first = comm // 2
                arcs = [(0, first), (period // 2, comm - first)]
                circle = JobCircle.from_arcs(
                    f"j{k}", period, arcs, demand=demand
                )
            else:
                circle = JobCircle.from_phases(
                    f"j{k}", period - comm, comm, demand=demand
                )
            circles.append(circle)
        cases.append(pytest.param(index, circles, id=f"case{index}"))
    return cases


def _fields(outcome):
    return (
        outcome.found,
        outcome.rotations,
        outcome.overlap,
        outcome.method,
        outcome.nodes,
    )


class TestAnnealingLoopOracle:
    """``annealing_search`` and ``solve_fractional`` draw, move, accept
    and report exactly as their separate pre-refactor bodies did."""

    @pytest.mark.parametrize("index,circles", _oracle_cases())
    def test_annealing_search_matches_reference(self, index, circles):
        # ``None`` takes the default budget (600+ steps): a few cases.
        iterations = None if index % 16 == 0 else (12, 40, 150)[index % 3]
        kwargs = dict(
            iterations=iterations,
            restarts=1 + index % 4,
            seed=index,
        )
        assert _fields(annealing_search(circles, **kwargs)) == _fields(
            _reference_annealing_search(circles, **kwargs)
        )

    @pytest.mark.parametrize("index,circles", _oracle_cases())
    def test_solve_fractional_matches_reference(self, index, circles):
        capacity = (1.0, 0.75)[index % 2]
        iterations = (8, 30, 90)[index % 3]
        kwargs = dict(
            capacity=capacity,
            iterations=iterations,
            restarts=1 + index % 4,
            seed=index,
        )
        assert _fields(solve_fractional(circles, **kwargs)) == _fields(
            _reference_solve_fractional(circles, **kwargs)
        )

    def test_cases_reach_every_branch(self):
        # Not all trivially solvable: some cases must run their budgets
        # out, or the oracle would only compare the first draws.
        outcomes = [
            annealing_search(case.values[1], iterations=12, seed=index)
            for index, case in enumerate(_oracle_cases())
        ]
        assert any(outcome.found for outcome in outcomes)
        assert any(not outcome.found for outcome in outcomes)


def _evaluator_cases(count=48):
    """Seeded sets of 1-4 circles on small periods: one-arc, two-arc
    (some wrapping past zero) and full-circle circles."""
    import numpy as np

    rng = np.random.default_rng(23)
    cases = []
    for index in range(count):
        circles = []
        for k in range(1 + index % 4):
            period = int(rng.choice([6, 8, 10, 12, 15, 20, 30]))
            shape = int(rng.choice([0, 0, 1, 1, 2]))
            if shape == 2:
                circle = JobCircle.from_phases(f"j{k}", 0, period)
            elif shape == 1:
                start = int(rng.integers(period))
                arcs = [
                    (start, int(rng.integers(1, period // 3 + 1))),
                    (
                        start + period // 2,
                        int(rng.integers(1, period // 3 + 1)),
                    ),
                ]
                circle = JobCircle.from_arcs(f"j{k}", period, arcs)
            else:
                comm = int(rng.integers(1, period))
                circle = JobCircle.from_phases(f"j{k}", period - comm, comm)
            circles.append(circle)
        cases.append(pytest.param(index, circles, id=f"case{index}"))
    return cases


class TestOverlapEvaluatorOracle:
    """``UnifiedCircle.overlap_ticks`` equals the coverage sweep for any
    rotations, however often one circle is asked about the same
    relative state."""

    @pytest.mark.parametrize("index,circles", _evaluator_cases())
    def test_cost_matches_overlap_ticks(self, index, circles):
        import numpy as np

        rng = np.random.default_rng(index)
        unified = UnifiedCircle(circles)
        periods = {circle.job_id: circle.perimeter for circle in circles}
        queries = []
        for _ in range(30):
            # Negative, past-the-period and missing (read as 0) rotations;
            # a key naming no job is ignored.
            rotations = {
                job_id: int(rng.integers(-3 * period, 3 * period))
                for job_id, period in periods.items()
                if rng.random() < 0.8
            }
            if rng.random() < 0.2:
                rotations["ghost"] = 5
            # A spare draw keeps each case's seeded queries stable.
            rng.integers(1, 4)
            # The same relative state under a common shift plus whole
            # periods per job, then the very same dict again.
            shift = int(rng.integers(-unified.perimeter, unified.perimeter))
            moved = {
                job_id: rotations.get(job_id, 0)
                + shift
                + period * int(rng.integers(-2, 3))
                for job_id, period in periods.items()
            }
            queries += [rotations, moved, rotations]
        # Revisit half of the states again, in a shuffled order.
        order = rng.permutation(len(queries))
        queries += [queries[i] for i in order[: len(queries) // 2]]
        for rotations in queries:
            assert unified.overlap_ticks(rotations) == swept_overlap(
                circles, rotations
            ), rotations

    def test_cases_cover_every_shape(self):
        circles = [c for case in _evaluator_cases() for c in case.values[1]]
        assert {len(case.values[1]) for case in _evaluator_cases()} == {
            1, 2, 3, 4,
        }
        assert any(c.comm.is_full for c in circles)
        assert any(len(c.comm.intervals) == 2 for c in circles)

    def test_overloaded_pair_sweeps_each_relative_state_once(
        self, monkeypatch
    ):
        # The ablations' infeasible instance: two period-100 jobs, so
        # their 16,005 cost calls hold at most 100 relative states.
        scores = []
        pair_overlap = UnifiedCircle._pair_overlap

        def counted(self, shift):
            scores.append(shift)
            return pair_overlap(self, shift)

        monkeypatch.setattr(UnifiedCircle, "_pair_overlap", counted)
        circles = [
            JobCircle.from_phases("A", 40, 60),
            JobCircle.from_phases("B", 40, 60),
        ]
        outcome = annealing_search(circles, seed=1)
        assert (outcome.found, outcome.overlap, outcome.nodes) == (
            False, 20, 16_001,
        )
        assert len(scores) == len(set(scores)) == 100

    def test_kept_states_are_capped(self, monkeypatch):
        # Past ``MAX_KEPT_STATES`` a new state is scored, not kept: a
        # revisit scores again, with the same result.
        from repro.core import unified as unified_module

        scores = []
        pair_overlap = UnifiedCircle._pair_overlap

        def counted(self, shift):
            scores.append(shift)
            return pair_overlap(self, shift)

        monkeypatch.setattr(UnifiedCircle, "_pair_overlap", counted)
        monkeypatch.setattr(unified_module, "MAX_KEPT_STATES", 3)
        circles = [
            JobCircle.from_phases("A", 40, 60),
            JobCircle.from_phases("B", 40, 60),
        ]
        unified = UnifiedCircle(circles)
        for _ in range(2):
            for shift in range(10):
                assert unified.overlap_ticks(
                    {"B": shift}
                ) == swept_overlap(circles, {"B": shift})
        assert scores == list(range(10)) + list(range(3, 10))

    def test_coprime_pair_scores_one_state(self, monkeypatch):
        # Periods 200,003 and 200,009 have gcd 1, so every shift of the
        # pair is one state: 150,000-tick arcs overlap 150,000**2 ticks.
        scores = []
        pair_overlap = UnifiedCircle._pair_overlap

        def counted(self, shift):
            scores.append(shift)
            return pair_overlap(self, shift)

        monkeypatch.setattr(UnifiedCircle, "_pair_overlap", counted)
        unified = UnifiedCircle([
            JobCircle.from_phases(job_id, period - 150_000, 150_000)
            for job_id, period in (("a", 200_003), ("b", 200_009))
        ])
        for shift in range(0, 1_000 * 97, 97):
            assert unified.overlap_ticks(
                {"a": shift % 13, "b": shift}
            ) == 150_000**2
        assert len(scores) == 1

    def test_pair_formula_matches_the_sweep_seeded(self):
        # 1,500 seeded pairs: one-arc, multi-arc and full-circle circles
        # on periods that are coprime (gcd 1), equal, or share a factor;
        # negative, past-the-period and missing rotations.
        import numpy as np

        rng = np.random.default_rng(27)
        periods = (1, 5, 6, 7, 8, 9, 10, 12, 13, 15, 20, 24, 30)
        shapes = set()
        for _ in range(1_500):
            pair = []
            for job_id in "ab":
                period = int(rng.choice(periods))
                if pair and rng.random() < 0.25:
                    period = pair[0].perimeter
                shape = int(rng.integers(3))
                if shape == 0:
                    circle = JobCircle.from_phases(job_id, 0, period)
                elif shape == 1:
                    comm = int(rng.integers(1, period + 1))
                    circle = JobCircle.from_phases(
                        job_id, period - comm, comm
                    )
                else:
                    arcs = [
                        (
                            int(rng.integers(-period, 2 * period)),
                            int(rng.integers(1, period + 1)),
                        )
                        for _ in range(int(rng.integers(2, 4)))
                    ]
                    circle = JobCircle.from_arcs(job_id, period, arcs)
                pair.append(circle)
            first, second = pair
            g = math.gcd(first.perimeter, second.perimeter)
            shapes.add(("gcd 1", g == 1))
            shapes.add(("equal", first.perimeter == second.perimeter))
            for circle in pair:
                shapes.add(("full", circle.comm.is_full))
                shapes.add(("arcs", min(len(circle.comm.intervals), 2)))
            rotations = {
                circle.job_id: int(
                    rng.integers(-3 * circle.perimeter, 3 * circle.perimeter)
                )
                for circle in pair
                if rng.random() < 0.8
            }
            shapes.add(("missing", len(rotations) < 2))
            assert UnifiedCircle(pair).overlap_ticks(
                rotations
            ) == swept_overlap(pair, rotations), (pair, rotations)
        assert shapes == {
            (kind, flag)
            for kind in ("gcd 1", "equal", "full", "missing")
            for flag in (False, True)
        } | {("arcs", 1), ("arcs", 2)}


def _brute_force_min_overlap(circles):
    """Least overlap over every rotation (the first job held at 0)."""
    import itertools

    first, rest = circles[0], circles[1:]
    return min(
        swept_overlap(
            circles,
            {first.job_id: 0, **{
                c.job_id: r for c, r in zip(rest, combo)
            }},
        )
        for combo in itertools.product(
            *(range(c.perimeter) for c in rest)
        )
    )


class TestOverlapLowerBound:
    """Past the tiling budget ``solve`` reports the utilization excess
    spread over the jobs beyond the first: no rotation beats it."""

    def test_three_arcs_solve_below_their_true_minimum(self, monkeypatch):
        from repro.core import optimize

        monkeypatch.setattr(optimize, "MAX_TILED_ARCS_FOR_SEARCH", 0)
        circles = [JobCircle.from_phases(job_id, 4, 6) for job_id in "abc"]
        outcome = solve(circles)
        assert outcome.method == "utilization-bound"
        # Excess 18 - 10 = 8 over at most 2 extra jobs per tick.
        assert outcome.overlap == 4
        assert _brute_force_min_overlap(circles) == 6

    def test_bound_never_exceeds_the_minimum(self):
        import numpy as np

        rng = np.random.default_rng(7)
        for _ in range(30):
            circles = []
            for k in range(int(rng.integers(2, 4))):
                period = int(rng.choice([4, 5, 6, 8, 10, 12]))
                comm = int(rng.integers(1, period + 1))
                circles.append(
                    JobCircle.from_phases(f"j{k}", period - comm, comm)
                )
            bound = UnifiedCircle(circles).overlap_lower_bound()
            assert 0 <= bound <= _brute_force_min_overlap(circles), [
                (c.perimeter, c.comm_ticks) for c in circles
            ]

"""Tests for the incremental compatibility engine (core/incremental).

The load-bearing property is *metamorphic equivalence*: after any
sequence of arrivals and departures, ``engine.solve()`` must be
indistinguishable — verdict, rotations, overlap, violated links,
components, method string — from building a fresh
``ClusterCompatibilityProblem`` out of the same snapshot and solving it
from scratch.
"""

import pytest

from repro.core.arcs import ArcSet
from repro.core.circle import JobCircle
from repro.core.cluster_compat import ClusterCompatibilityProblem
from repro.core.compatibility import CompatibilityChecker
from repro.core.incremental import IncrementalCompatibilityEngine
from repro.core.metrics import compatibility_score, min_overlap
from repro.core.optimize import MAX_TILED_ARCS_FOR_SEARCH, solve
from repro.core.unified import UnifiedCircle
from repro.errors import CompatibilityError
from repro.sim.rng import RandomStreams
from repro.units import gbps
from repro.workloads.job import JobSpec


def quarter_circle(job_id, perimeter=400, comm=100, phase=0):
    """One job communicating ``comm`` of every ``perimeter`` ticks."""
    return JobCircle.from_arcs(job_id, perimeter, [(phase, comm)])


def fresh_result(engine, seed=0):
    circles = {job_id: None for job_id in engine.jobs}
    problem = ClusterCompatibilityProblem.from_assignments(
        [engine._circles[j] for j in sorted(circles)],
        {j: list(engine.links_of(j)) for j in sorted(circles)},
    )
    return problem.solve(seed=seed)


def assert_matches_scratch(engine, seed=0):
    got = engine.solve()
    want = fresh_result(engine, seed=seed)
    assert got.compatible == want.compatible
    assert got.rotations == want.rotations
    assert got.overlap_ticks == want.overlap_ticks
    assert got.violated_links == want.violated_links
    assert got.components == want.components
    assert got.method == want.method


class TestEngineBasics:
    def test_empty_engine_is_compatible(self):
        engine = IncrementalCompatibilityEngine()
        assert engine.cluster_compatible
        assert engine.solve().compatible
        assert engine.components() == []

    def test_single_job_trivial(self):
        engine = IncrementalCompatibilityEngine()
        verdict = engine.add(quarter_circle("a"), ["L0"])
        assert verdict.compatible
        assert verdict.component == ("a",)
        assert engine.rotation_of("a") == 0
        assert_matches_scratch(engine)

    def test_linkless_job_forms_singleton_component(self):
        engine = IncrementalCompatibilityEngine()
        verdict = engine.add(quarter_circle("solo"), [])
        assert verdict.compatible
        assert engine.components() == [["solo"]]

    def test_compatible_pair_admitted_by_screen(self):
        engine = IncrementalCompatibilityEngine()
        engine.add(quarter_circle("a"), ["L0"])
        verdict = engine.add(quarter_circle("b"), ["L0"])
        assert verdict.compatible
        assert verdict.method == "screen"
        # The running job kept its phase; the newcomer slid around it.
        assert engine.rotation_of("a") == 0
        assert engine.rotation_of("b") != 0
        overlap, violated = engine.live_audit()
        assert overlap == 0 and violated == []
        assert_matches_scratch(engine)

    def test_overloaded_link_is_incompatible(self):
        engine = IncrementalCompatibilityEngine()
        engine.add(quarter_circle("a", comm=250), ["L0"])
        verdict = engine.add(quarter_circle("b", comm=250), ["L0"])
        assert not verdict.compatible
        assert "L0" in verdict.violated_links
        assert not engine.cluster_compatible
        assert_matches_scratch(engine)

    def test_duplicate_add_raises(self):
        engine = IncrementalCompatibilityEngine()
        engine.add(quarter_circle("a"), ["L0"])
        with pytest.raises(CompatibilityError):
            engine.add(quarter_circle("a"), ["L1"])

    def test_remove_unknown_raises(self):
        engine = IncrementalCompatibilityEngine()
        with pytest.raises(CompatibilityError):
            engine.remove("ghost")


class TestTilingBudget:
    """A link whose jobs would tile past ``MAX_TILED_ARCS_FOR_SEARCH``
    arcs onto their LCM circle is audited pair by pair, a pair is scored
    on its gcd circle, and the component DFS builds no LCM circle:
    nothing tiles past the budget."""

    @pytest.fixture
    def bounded_tiling(self, monkeypatch):
        tile = ArcSet.tile
        tiled = UnifiedCircle.tiled

        def bounded(arcs, new_perimeter):
            count = len(arcs.intervals) * (new_perimeter // arcs.perimeter)
            if count > MAX_TILED_ARCS_FOR_SEARCH:
                raise AssertionError(f"tiled {count} arcs past the budget")
            return tile(arcs, new_perimeter)

        def bounded_unified(unified, rotations=None):
            # Every job within the budget alone, all of them past it.
            count = sum(
                len(circle.comm.intervals)
                * (unified.perimeter // circle.perimeter)
                for circle in unified.circles
            )
            if count > MAX_TILED_ARCS_FOR_SEARCH:
                raise AssertionError(f"tiled {count} arcs past the budget")
            return tiled(unified, rotations)

        monkeypatch.setattr(ArcSet, "tile", bounded)
        monkeypatch.setattr(UnifiedCircle, "tiled", bounded_unified)

    @staticmethod
    def coprime_circles():
        """Three 100-tick arcs on prime periods: every pair collides, and
        the shared LCM circle is 1,019,050,649 ticks."""
        return [
            JobCircle.from_phases(job_id, period - 100, 100)
            for job_id, period in (("a", 997), ("b", 1009), ("c", 1013))
        ]

    def test_problem_reports_the_shared_link(self, bounded_tiling):
        circles = self.coprime_circles()
        problem = ClusterCompatibilityProblem.from_assignments(
            circles, {circle.job_id: ["L"] for circle in circles}
        )
        result = problem.solve()
        assert not result.compatible
        assert result.violated_links == ["L"]

    def test_engine_admits_every_job(self, bounded_tiling):
        engine = IncrementalCompatibilityEngine()
        verdicts = [
            engine.add(circle, ["L"]) for circle in self.coprime_circles()
        ]
        assert [v.compatible for v in verdicts] == [True, False, False]
        assert verdicts[-1].violated_links == ("L",)
        assert engine.live_audit()[1] == ["L"]
        assert_matches_scratch(engine)

    def test_pairwise_compatible_jobs_are_still_solved(self, bounded_tiling):
        # Periods 400 * {293, 307, 311}: every pair fits on its 400-tick
        # gcd circle, but the three tile 276,551 arcs onto their LCM.
        circles = [
            JobCircle.from_phases(job_id, 400 * prime - 100, 100)
            for job_id, prime in (("a", 293), ("b", 307), ("c", 311))
        ]
        engine = IncrementalCompatibilityEngine()
        for circle in circles:
            assert engine.add(circle, ["L"]).compatible
        result = engine.solve()
        assert (result.compatible, result.method) == (True, "dfs")
        assert result.violated_links == []
        assert_matches_scratch(engine)

    def test_metrics_stop_at_the_solver_bound(self, bounded_tiling):
        # Every pair of these collides, so ``solve`` stops at a pair and
        # the metrics report its bound without annealing.
        circles = self.coprime_circles()
        clash = solve(circles)
        assert clash.method == "pairwise(a,b)"
        assert min_overlap(circles) == (clash.overlap, clash.rotations)
        # Periods 200,003 and 200,009 would tile 400,012 arcs onto their
        # LCM circle. 150,000-tick arcs overload it, so ``solve`` stops
        # at the utilization bound, with the pair's exact overlap from
        # its gcd circle: coprime periods put every tick of one arc
        # against every tick of the other once.
        circles = [
            JobCircle.from_phases(job_id, period - 150_000, 150_000)
            for job_id, period in (("a", 200_003), ("b", 200_009))
        ]
        bound = solve(circles)
        assert bound.method == "utilization-bound"
        assert bound.overlap == 150_000**2 == 22_500_000_000
        assert min_overlap(circles) == (bound.overlap, bound.rotations)
        unified = UnifiedCircle(circles)
        total = unified.total_comm_ticks()
        assert compatibility_score(circles) == 1.0 - bound.overlap / total

    def test_metrics_do_not_anneal_three_jobs_past_the_bound(
        self, monkeypatch
    ):
        # Every pair of these collides; the three tile 30,191 arcs, past
        # ``MAX_TILED_ARCS_FOR_ANNEALING``. ``solve`` stops at a pair with
        # the exact overlap, and the metrics return that outcome rather
        # than anneal.
        from repro.core import optimize

        def refuse(*args, **kwargs):
            raise AssertionError("annealed three jobs past the bound")

        monkeypatch.setattr(optimize, "_anneal", refuse)
        circles = [
            JobCircle.from_phases(job_id, period - 10, 10)
            for job_id, period in (("a", 97), ("b", 101), ("c", 103))
        ]
        clash = solve(circles)
        assert (clash.method, clash.overlap) == ("pairwise(a,b)", 28_100)
        assert min_overlap(circles) == (clash.overlap, clash.rotations)
        total = UnifiedCircle(circles).total_comm_ticks()
        assert compatibility_score(circles) == 1.0 - clash.overlap / total


class TestIncrementalBehaviour:
    def test_untouched_components_served_from_cache(self):
        engine = IncrementalCompatibilityEngine()
        engine.add(quarter_circle("a"), ["L0"])
        engine.add(quarter_circle("b"), ["L0"])
        engine.solve()
        solves_before = engine.stats()["component_solves"]
        # A new job on a *different* link must not re-solve {a, b}.
        engine.add(quarter_circle("c"), ["L9"])
        engine.solve()
        after = engine.stats()
        assert after["component_solves"] == solves_before + 1  # just {c}
        assert after["component_cache_hits"] >= 1

    def test_repeat_solve_is_fully_cached(self):
        engine = IncrementalCompatibilityEngine()
        engine.add(quarter_circle("a"), ["L0"])
        engine.add(quarter_circle("b"), ["L0"])
        engine.solve()
        solves = engine.stats()["component_solves"]
        engine.solve()
        assert engine.stats()["component_solves"] == solves

    def test_remove_splits_component_without_resolving(self):
        engine = IncrementalCompatibilityEngine()
        engine.add(quarter_circle("a"), ["L0"])
        engine.add(quarter_circle("b"), ["L0", "L1"])
        engine.add(quarter_circle("c"), ["L1"])
        assert engine.components() == [["a", "b", "c"]]
        solves = engine.stats()["component_solves"]
        engine.remove("b")  # bridge job: the component splits in two
        assert engine.components() == [["a"], ["c"]]
        # Parent was compatible, so the fragments inherit the verdict.
        assert engine.stats()["component_solves"] == solves
        assert engine.cluster_compatible
        assert_matches_scratch(engine)

    def test_departure_can_clear_congestion(self):
        engine = IncrementalCompatibilityEngine()
        engine.add(quarter_circle("a", comm=200), ["L0"])
        engine.add(quarter_circle("b", comm=200), ["L0"])
        engine.add(quarter_circle("c", comm=200), ["L0"])  # 150% load
        assert not engine.cluster_compatible
        engine.remove("c")
        assert engine.cluster_compatible
        overlap, _ = engine.live_audit()
        assert overlap == 0
        assert_matches_scratch(engine)

    def test_screen_admission_preserves_running_phases(self):
        engine = IncrementalCompatibilityEngine()
        engine.add(quarter_circle("a"), ["L0"])
        engine.add(quarter_circle("b"), ["L0"])
        rotations = engine.live_rotations
        verdict = engine.add(quarter_circle("c"), ["L0"])
        assert verdict.method == "screen"
        for job_id, rotation in rotations.items():
            assert engine.rotation_of(job_id) == rotation

    def test_candidate_score_clean_vs_congested(self):
        engine = IncrementalCompatibilityEngine()
        engine.add(quarter_circle("a"), ["L0"])
        engine.add(quarter_circle("hog", comm=390), ["L1"])
        clean, fraction = engine.candidate_score(
            quarter_circle("new"), ["L0"]
        )
        assert clean and fraction == 0.0
        blocked, fraction = engine.candidate_score(
            quarter_circle("new"), ["L1"]
        )
        assert not blocked
        assert fraction > 0.5


class TestMetamorphicRandomSequences:
    """Satellite: randomized arrival/departure streams vs from-scratch."""

    PERIODS = (240, 300, 360, 400, 480, 600)
    LINKS = tuple(f"L{i}" for i in range(5))

    def _spec(self, rng, index):
        period_ms = self.PERIODS[int(rng.integers(len(self.PERIODS)))]
        frac = float(rng.uniform(0.1, 0.45))
        period_s = period_ms / 1000.0
        return JobSpec(
            job_id=f"j{index:03d}",
            compute_time=(1.0 - frac) * period_s,
            comm_bytes=frac * period_s * gbps(42),
            n_workers=2,
        )

    @pytest.mark.parametrize("stream_seed", [7, 21, 99])
    def test_engine_matches_scratch_after_every_event(self, stream_seed):
        checker = CompatibilityChecker()
        engine = IncrementalCompatibilityEngine(checker=checker, seed=0)
        rng = RandomStreams(stream_seed).get("incremental-events")
        live = {}
        for step in range(40):
            if live and rng.random() < 0.35:
                job_id = sorted(live)[int(rng.integers(len(live)))]
                engine.remove(job_id)
                del live[job_id]
            else:
                spec = self._spec(rng, step)
                circle = checker.circle(spec)
                n_links = int(rng.integers(1, 3))
                links = sorted(
                    {
                        self.LINKS[int(rng.integers(len(self.LINKS)))]
                        for _ in range(n_links)
                    }
                )
                engine.add(circle, links)
                live[spec.job_id] = links
            got = engine.solve()
            problem = ClusterCompatibilityProblem.from_assignments(
                [engine._circles[j] for j in sorted(live)],
                {j: live[j] for j in sorted(live)},
            )
            want = problem.solve(seed=0)
            assert got.compatible == want.compatible
            assert got.rotations == want.rotations
            assert got.overlap_ticks == want.overlap_ticks
            assert got.violated_links == want.violated_links
            assert got.components == want.components
            assert got.method == want.method
            # Live certificate: a compatible engine audits clean.
            if engine.cluster_compatible:
                overlap, violated = engine.live_audit()
                assert overlap == 0 and violated == []

    def test_sequences_exercise_both_paths(self):
        """The randomized streams must hit screens AND full solves."""
        checker = CompatibilityChecker()
        engine = IncrementalCompatibilityEngine(checker=checker, seed=0)
        rng = RandomStreams(7).get("incremental-events")
        for step in range(40):
            spec = self._spec(rng, step)
            links = [self.LINKS[step % len(self.LINKS)]]
            engine.add(checker.circle(spec), links)
        stats = engine.stats()
        assert stats["screen_admits"] > 0
        assert stats["component_solves"] > 0

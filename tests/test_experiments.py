"""Integration tests: each experiment driver reproduces the paper's shape.

These run the real drivers at reduced scale and assert the qualitative
claims — who wins, signs of speedups, verdicts — not absolute numbers.
"""

import pytest

from repro.experiments import (
    ablations,
    fattree,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    mechanisms_exp,
    scheduler_exp,
    table1,
)


class TestFigure1:
    @pytest.fixture(scope="class")
    def bandwidth(self):
        return figure1.bandwidth_experiment(duration=0.15)

    def test_fair_split_roughly_even(self, bandwidth):
        j1, j2 = bandwidth.fair_gbps["J1"], bandwidth.fair_gbps["J2"]
        assert j1 / j2 == pytest.approx(1.0, abs=0.3)

    def test_unfair_favours_aggressive_timer(self, bandwidth):
        assert bandwidth.unfair_gbps["J1"] > bandwidth.unfair_gbps["J2"] * 1.15

    def test_table_renders(self, bandwidth):
        assert "Figure 1b/1c" in bandwidth.table()

    @pytest.fixture(scope="class")
    def cdf(self):
        return figure1.cdf_experiment(n_iterations=120, skip=20)

    def test_both_jobs_speed_up_at_median(self, cdf):
        for job in ("J1", "J2"):
            assert cdf.median_speedup(job) > 1.05

    def test_median_speedup_near_paper(self, cdf):
        # Paper: 1.23x. Accept the simulator's 1.1-1.5 band.
        for job in ("J1", "J2"):
            assert 1.05 < cdf.median_speedup(job) < 1.6

    def test_report_renders(self, cdf):
        assert "median speedup" in cdf.report()


class TestFigure2:
    @pytest.fixture(scope="class")
    def result(self):
        return figure2.run(n_iterations=8)

    def test_fair_iterations_locked_at_320ms(self, result):
        times = result.fair.iteration_times("J1")
        assert times[0] == pytest.approx(0.32, rel=1e-6)
        assert times[-1] == pytest.approx(0.32, rel=1e-6)

    def test_anchor_order_matches_paper(self, result):
        anchors = result.anchors()
        assert anchors["J1 first iteration end"] < (
            anchors["J2 first iteration end"]
        )
        assert anchors["J1 second comm start"] < (
            anchors["J2 second comm start"]
        )

    def test_anchors_near_paper_values(self, result):
        for name, measured in result.anchors().items():
            assert measured == pytest.approx(
                figure2.PAPER_ANCHORS[name], abs=0.03
            ), name

    def test_overlap_shrinks_across_iterations(self, result):
        overlaps = result.overlap_per_iteration(max_iterations=4)
        assert overlaps[0] > 3 * overlaps[3]

    def test_report_renders(self, result):
        text = result.report()
        assert "Figure 2" in text and "anchors" in text


class TestFigure3:
    @pytest.fixture(scope="class")
    def result(self):
        return figure3.run(n_iterations=3)

    def test_circle_matches_paper(self, result):
        assert result.perimeter_ms == 255
        assert result.comm_arc_ms == (141, 255)

    def test_roll_consistency(self, result):
        assert result.roll_is_consistent()

    def test_report_renders(self, result):
        assert "255 ms" in result.report()


class TestFigure4:
    @pytest.fixture(scope="class")
    def result(self):
        return figure4.run()

    def test_collision_before_rotation(self, result):
        assert result.overlap_at_zero > 0

    def test_compatible_after_rotation(self, result):
        assert result.result.compatible
        assert result.result.overlap_ticks == 0

    def test_report_renders(self, result):
        assert "Figure 4" in result.report()


class TestFigure5:
    @pytest.fixture(scope="class")
    def result(self):
        return figure5.run()

    def test_unified_perimeter_is_lcm(self, result):
        assert result.unified.perimeter == 120

    def test_tiles(self, result):
        assert result.tiles == {"J1": 3, "J2": 2}

    def test_compatible_with_30_degree_rotation(self, result):
        assert result.result.compatible
        degrees = result.rotation_degrees_on_unified()
        # One of the jobs carries the paper's 30-degree turn (mod 30°
        # symmetry of the meshing pattern).
        assert any(
            angle % 360 in (30.0, 330.0) or angle == pytest.approx(30.0)
            for angle in degrees.values()
        )

    def test_report_renders(self, result):
        assert "LCM" in result.report()


class TestTable1:
    @pytest.fixture(scope="class")
    def results(self):
        return table1.run_all(n_iterations=40, skip=10)

    def test_verdicts_match_paper(self, results):
        for result in results:
            assert result.verdict_matches_paper, result.group.name

    def test_compatible_groups_all_speed_up(self, results):
        for result in results:
            if result.group.paper_compatible:
                assert result.all_members_sped_up, result.group.name

    def test_incompatible_groups_hurt_someone(self, results):
        for result in results:
            if not result.group.paper_compatible:
                assert any(
                    row.speedup < 1.0 for row in result.rows
                ), result.group.name

    def test_dlrm_matches_paper_closely(self, results):
        group2 = results[1]
        for row in group2.rows:
            assert row.fair_ms == pytest.approx(row.paper_fair_ms, rel=0.03)
            assert row.unfair_ms == pytest.approx(
                row.paper_unfair_ms, rel=0.05
            )

    def test_speedup_directions_match_paper(self, results):
        for result in results:
            for row in result.rows:
                paper_helped = row.paper_unfair_ms < row.paper_fair_ms
                measured_helped = row.speedup > 1.0
                # Allow near-ties (ResNet50's 1.01x) either way.
                if abs(row.paper_fair_ms - row.paper_unfair_ms) > 10:
                    assert measured_helped == paper_helped, row.job_id

    def test_report_renders(self, results):
        text = table1.report(results)
        assert "Table 1" in text
        assert "dlrm-a-g2" in text


class TestAblations:
    def test_adaptive_helps_compatible_not_incompatible(self):
        results = ablations.adaptive_cc_experiment(n_iterations=40, skip=15)
        by_name = {r.group_name: r for r in results}
        compatible = by_name["group2"]
        incompatible = by_name["group1"]
        # Compatible: clearly faster than fair for every member.
        assert all(s > 1.15 for s in compatible.speedups.values())
        # Incompatible: no member hurt materially vs fair sharing.
        assert incompatible.worst_regression > 0.97

    def test_adaptive_reaches_solo_for_compatible(self):
        results = ablations.adaptive_cc_experiment(n_iterations=40, skip=15)
        compatible = results[0]
        for job, adaptive_ms in compatible.adaptive_ms.items():
            assert adaptive_ms == pytest.approx(
                compatible.solo_ms[job], rel=0.03
            )

    def test_sector_sensitivity_monotone_threshold(self):
        points = ablations.sector_sensitivity(steps=(4, 12, 36))
        assert not points[0].found      # too coarse
        assert points[-1].found         # fine enough

    def test_sector_sensitivity_rows_pinned(self):
        rows = [
            (p.steps_per_job, p.found, p.overlap, p.evaluations)
            for p in ablations.sector_sensitivity()
        ]
        assert rows == [
            (4, False, 5, 64),
            (6, False, 4, 343),
            (9, False, 2, 1000),
            (12, True, 0, 963),
            (18, True, 0, 132),
            (24, True, 0, 216),
            (36, True, 0, 779),
            (60, True, 0, 3056),
        ]

    def test_solver_comparison_rows_pinned(self):
        rows = [
            (run.instance, run.solver, run.found, run.overlap, run.nodes)
            for run in ablations.solver_comparison()
        ]
        assert rows == [
            ("fig5 (feasible)", "backtracking", True, 0, 2),
            ("fig5 (feasible)", "greedy", True, 0, 1),
            ("fig5 (feasible)", "annealing", True, 0, 5),
            ("fig5 (feasible)", "grid-36", True, 0, 11),
            ("tight triple (feasible)", "backtracking", True, 0, 3),
            ("tight triple (feasible)", "greedy", True, 0, 2),
            ("tight triple (feasible)", "annealing", True, 0, 375),
            ("tight triple (feasible)", "grid-36", True, 0, 779),
            ("overloaded (infeasible)", "backtracking", False, 60, 2),
            ("overloaded (infeasible)", "greedy", False, 20, 3),
            ("overloaded (infeasible)", "annealing", False, 20, 16001),
            ("overloaded (infeasible)", "grid-36", False, 20, 2500),
        ]

    def test_solver_comparison_agrees_on_ground_truth(self):
        runs = ablations.solver_comparison()
        for run in runs:
            if run.instance == "overloaded (infeasible)":
                assert not run.found, run.solver
            if run.instance == "fig5 (feasible)" and run.solver in (
                "backtracking",
            ):
                assert run.found


class TestMechanisms:
    @pytest.fixture(scope="class")
    def outcomes(self):
        return mechanisms_exp.run(n_iterations=40, skip=15)

    def test_all_five_treatments_present(self, outcomes):
        names = {o.mechanism for o in outcomes}
        assert names == {
            "fair", "weighted 2:1", "priorities", "adaptive",
            "flow scheduling",
        }

    def test_fair_is_worst(self, outcomes):
        by_name = {o.mechanism: o for o in outcomes}
        fair = by_name["fair"].mean_slowdown
        for name, outcome in by_name.items():
            if name != "fair":
                assert outcome.mean_slowdown <= fair + 1e-6, name

    def test_mechanisms_reach_solo_speed(self, outcomes):
        for outcome in outcomes:
            if outcome.mechanism == "fair":
                continue
            assert outcome.mean_slowdown == pytest.approx(1.0, abs=0.02), (
                outcome.mechanism
            )

    def test_report_renders(self, outcomes):
        assert "mechanism" in mechanisms_exp.report(outcomes)


class TestSchedulerExperiment:
    @pytest.fixture(scope="class")
    def outcomes(self):
        return scheduler_exp.run_policies(n_iterations=40)

    def test_compat_aware_wins(self, outcomes):
        by_name = {o.policy_name: o for o in outcomes}
        compat = by_name["compatibility-aware"]
        for name, outcome in by_name.items():
            assert compat.mean_slowdown <= outcome.mean_slowdown + 1e-9

    def test_compat_aware_no_mixed_links(self, outcomes):
        by_name = {o.policy_name: o for o in outcomes}
        assert by_name["compatibility-aware"].mixed_links == 0

    def test_compat_aware_at_solo_speed(self, outcomes):
        by_name = {o.policy_name: o for o in outcomes}
        assert by_name["compatibility-aware"].mean_slowdown == (
            pytest.approx(1.0, abs=0.02)
        )

    def test_consolidated_pays_for_mixing(self, outcomes):
        by_name = {o.policy_name: o for o in outcomes}
        assert by_name["consolidated"].mean_slowdown > 1.02

    def test_report_renders(self, outcomes):
        assert "placement" in scheduler_exp.report(outcomes)


class TestFatTreeExperiment:
    """The multi-link fabric study: placement + rotation on fat_tree(4)."""

    @pytest.fixture(scope="class")
    def placement(self):
        return fattree.run_placement(n_iterations=30)

    @pytest.fixture(scope="class")
    def rotation(self):
        return fattree.run_rotation()

    def test_compat_aware_wins_on_fabric(self, placement):
        by_name = {o.policy_name: o for o in placement}
        compat = by_name["compatibility-aware"]
        for outcome in placement:
            assert compat.mean_slowdown <= outcome.mean_slowdown + 1e-9

    def test_compat_aware_passes_cluster_audit(self, placement):
        by_name = {o.policy_name: o for o in placement}
        compat = by_name["compatibility-aware"]
        assert compat.cluster_compatible
        assert compat.mixed_links == 0
        assert compat.mean_slowdown == pytest.approx(1.0, abs=0.02)

    def test_random_mixes_and_pays(self, placement):
        by_name = {o.policy_name: o for o in placement}
        random = by_name["random"]
        assert random.mixed_links > 0
        assert not random.cluster_compatible
        assert random.mean_slowdown > 1.1

    def test_staggered_rotation_beats_aligned(self, rotation):
        by_name = {o.scenario: o for o in rotation}
        assert (
            by_name["staggered"].mean_iteration_ms
            < by_name["aligned"].mean_iteration_ms
        )
        # A compatible rotation keeps the shared downlinks queue-free.
        assert by_name["staggered"].worst_queue_kib == pytest.approx(0.0)
        assert by_name["aligned"].worst_queue_kib > 100.0

    def test_report_renders(self, placement, rotation):
        rendered = fattree.report(placement, rotation)
        assert "fat-tree" in rendered
        assert "staggered" in rendered

"""Fixture tests for the whole-program (semantic) lint pass.

ARCH001/DET004/UNIT002 need more than one module to show their value,
so these tests build virtual multi-module trees through
:func:`repro.lint.lint_sources` — an upward import in one virtual file
and its target in another behave exactly like two files on disk.

The mutation tests encode the PR's acceptance criteria directly: strip
a ``us(...)`` wrapper from correct code and UNIT002 must catch it;
inject a substream-name collision and DET004 must catch it.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint import LintConfig, lint_paths, lint_sources
from repro.lint.config import config_from_table, load_config
from repro.lint.dimflow import dim_of_identifier
from repro.lint.taint import name_template, template_prefix

import ast


def lint_tree(sources, **kwargs):
    dedented = {
        path: textwrap.dedent(source)
        for path, source in sources.items()
    }
    return lint_sources(dedented, **kwargs)


def codes(findings):
    return [finding.code for finding in findings]


# ---------------------------------------------------------------- ARCH001


class TestLayerDag:
    def test_upward_import_flagged(self):
        found = lint_tree(
            {
                "repro/core/shapes.py": """
                from ..experiments.report import render

                def describe(arc):
                    return render(arc)
                """,
                "repro/experiments/report.py": """
                def render(arc):
                    return str(arc)
                """,
            },
            select=["ARCH001"],
        )
        assert codes(found) == ["ARCH001"]
        assert "`core`" in found[0].message
        assert "`experiments`" in found[0].message
        assert found[0].path == "repro/core/shapes.py"

    def test_downward_import_clean(self):
        found = lint_tree(
            {
                "repro/experiments/report.py": """
                from ..core.shapes import describe

                def render(arc):
                    return describe(arc)
                """,
                "repro/core/shapes.py": """
                def describe(arc):
                    return str(arc)
                """,
            },
            select=["ARCH001"],
        )
        assert found == []

    def test_type_checking_import_exempt(self):
        found = lint_tree(
            {
                "repro/core/shapes.py": """
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from ..experiments.report import Report

                def describe(report: "Report") -> str:
                    return str(report)
                """,
                "repro/experiments/report.py": """
                class Report:
                    pass
                """,
            },
            select=["ARCH001"],
        )
        assert found == []

    def test_lazy_function_import_still_upward(self):
        # The runtime dependency is real; only the *cycle* analysis
        # ignores lazy imports.
        found = lint_tree(
            {
                "repro/sim/engine.py": """
                def run():
                    from ..runner.spec import RunSpec
                    return RunSpec
                """,
                "repro/runner/spec.py": """
                class RunSpec:
                    pass
                """,
            },
            select=["ARCH001"],
        )
        assert codes(found) == ["ARCH001"]

    def test_cross_cutting_exempt_both_ways(self):
        found = lint_tree(
            {
                "repro/units.py": """
                from .telemetry.session import current
                """,
                "repro/telemetry/session.py": """
                from ..experiments.report import render

                def current():
                    return render(None)
                """,
                "repro/experiments/report.py": """
                def render(arc):
                    return str(arc)
                """,
            },
            select=["ARCH001"],
        )
        assert found == []

    def test_import_cycle_flagged(self):
        found = lint_tree(
            {
                "repro/sim/alpha.py": """
                from repro.sim.beta import bee

                def aye():
                    return bee
                """,
                "repro/sim/beta.py": """
                from repro.sim.alpha import aye

                def bee():
                    return aye
                """,
            },
            select=["ARCH001"],
        )
        assert codes(found) == ["ARCH001", "ARCH001"]
        assert all("cycle" in f.message for f in found)

    def test_lazy_import_breaks_cycle(self):
        found = lint_tree(
            {
                "repro/sim/alpha.py": """
                from repro.sim.beta import bee

                def aye():
                    return bee
                """,
                "repro/sim/beta.py": """
                def bee():
                    from repro.sim.alpha import aye
                    return aye
                """,
            },
            select=["ARCH001"],
        )
        assert found == []

    def test_suppression_silences_project_finding(self):
        found = lint_tree(
            {
                "repro/core/shapes.py": """
                from ..experiments.report import render  # simlint: disable=ARCH001 - test justification

                def describe(arc):
                    return render(arc)
                """,
                "repro/experiments/report.py": """
                def render(arc):
                    return str(arc)
                """,
            },
            select=["ARCH001"],
        )
        assert found == []

    def test_mutation_injected_upward_import_detected(self):
        # Acceptance mutation: the tree is clean until a foundation
        # module grows a runtime dependency on a driver layer.
        clean = {
            "repro/core/shapes.py": """
            def describe(arc):
                return str(arc)
            """,
            "repro/experiments/report.py": """
            from ..core.shapes import describe

            def render(arc):
                return describe(arc)
            """,
        }
        assert lint_tree(clean, select=["ARCH001"]) == []
        mutated = dict(clean)
        mutated["repro/core/shapes.py"] = """
        from ..experiments.report import render

        def describe(arc):
            return render(arc)
        """
        found = lint_tree(mutated, select=["ARCH001"])
        # One upward-import finding plus one cycle finding per member.
        assert codes(found) == ["ARCH001", "ARCH001", "ARCH001"]
        messages = " ".join(f.message for f in found)
        assert "upward import" in messages
        assert "cycle" in messages

    def test_custom_layering_from_table(self):
        config = config_from_table(
            {"layers": [["zoo"], ["core"]], "cross-cutting": []}
        )
        found = lint_tree(
            {
                "repro/zoo/pen.py": """
                from ..core.shapes import describe
                """,
                "repro/core/shapes.py": """
                def describe(arc):
                    return str(arc)
                """,
            },
            select=["ARCH001"],
            config=config,
        )
        assert codes(found) == ["ARCH001"]
        assert "`zoo`" in found[0].message


# ---------------------------------------------------------------- DET004


class TestSubstreamDiscipline:
    def test_collision_across_components_flagged(self):
        found = lint_tree(
            {
                "repro/net/flows.py": """
                def build(streams):
                    return streams.get("flow-gaps")
                """,
                "repro/workloads/arrivals.py": """
                def build(streams):
                    return streams.get("flow-gaps")
                """,
            },
            select=["DET004"],
        )
        assert codes(found) == ["DET004", "DET004"]
        assert all("2 components" in f.message for f in found)

    def test_same_component_reuse_clean(self):
        found = lint_tree(
            {
                "repro/net/flows.py": """
                def build(streams):
                    return streams.get("flow-gaps")
                """,
                "repro/net/links.py": """
                def build(streams):
                    return streams.get("flow-gaps")
                """,
            },
            select=["DET004"],
        )
        assert found == []

    def test_declared_shared_stream_clean(self):
        config = LintConfig(
            shared_streams={"flow-gaps": "declared for this test"}
        )
        found = lint_tree(
            {
                "repro/net/flows.py": """
                def build(streams):
                    return streams.get("flow-gaps")
                """,
                "repro/workloads/arrivals.py": """
                def build(streams):
                    return streams.get("flow-gaps")
                """,
            },
            select=["DET004"],
            config=config,
        )
        assert found == []

    def test_fstring_template_collision(self):
        found = lint_tree(
            {
                "repro/net/flows.py": """
                def build(streams, fid):
                    return streams.get(f"flow:{fid}")
                """,
                "repro/scheduler/queue.py": """
                def build(streams, jid):
                    return streams.get(f"flow:{jid}")
                """,
            },
            select=["DET004"],
        )
        assert codes(found) == ["DET004", "DET004"]
        assert "'flow:{}'" in found[0].message

    def test_foreign_draw_of_owned_prefix(self):
        # Default config: the "arrival" prefix belongs to `workloads`.
        found = lint_tree(
            {
                "repro/scheduler/queue.py": """
                def build(streams):
                    return streams.get("arrival-gaps")
                """,
            },
            select=["DET004"],
        )
        assert codes(found) == ["DET004"]
        assert "owned by component `workloads`" in found[0].message

    def test_owner_draw_clean(self):
        found = lint_tree(
            {
                "repro/workloads/traces.py": """
                def build(streams):
                    return streams.get("arrival-gaps")
                """,
            },
            select=["DET004"],
        )
        assert found == []

    def test_module_scope_draw_flagged(self):
        found = lint_tree(
            {
                "repro/net/flows.py": """
                from repro.sim.rng import RandomStreams

                _GEN = RandomStreams(0).get("flow-gaps")
                """,
            },
            select=["DET004"],
        )
        assert codes(found) == ["DET004"]
        assert "module scope" in found[0].message

    def test_public_attribute_store_flagged(self):
        found = lint_tree(
            {
                "repro/net/flows.py": """
                class FlowSource:
                    def __init__(self, streams):
                        self.rng = streams.get("flow-gaps")
                """,
            },
            select=["DET004"],
        )
        assert codes(found) == ["DET004"]
        assert "public attribute `rng`" in found[0].message

    def test_private_attribute_store_clean(self):
        found = lint_tree(
            {
                "repro/net/flows.py": """
                class FlowSource:
                    def __init__(self, streams):
                        self._rng = streams.get("flow-gaps")
                """,
            },
            select=["DET004"],
        )
        assert found == []

    def test_mutation_injected_collision_detected(self):
        # Acceptance mutation: the tree is clean until a second
        # component starts drawing an existing substream name.
        clean = {
            "repro/net/flows.py": """
            def build(streams):
                return streams.get("flow-gaps")
            """,
            "repro/scheduler/queue.py": """
            def build(streams):
                return streams.get("queue-jitter")
            """,
        }
        assert lint_tree(clean, select=["DET004"]) == []
        mutated = dict(clean)
        mutated["repro/scheduler/queue.py"] = """
        def build(streams):
            return streams.get("flow-gaps")
        """
        found = lint_tree(mutated, select=["DET004"])
        assert codes(found) == ["DET004", "DET004"]

    def test_template_helpers(self):
        assert template_prefix("arrival-gaps") == "arrival"
        assert template_prefix("job:{}") == "job"
        assert template_prefix("plain") == "plain"
        node = ast.parse('f"job:{jid}"', mode="eval").body
        assert name_template(node) == "job:{}"
        assert name_template(
            ast.parse('"literal"', mode="eval").body
        ) == "literal"
        assert name_template(
            ast.parse("dynamic", mode="eval").body
        ) is None


# ---------------------------------------------------------------- UNIT002


class TestDimensionMismatch:
    def test_seconds_plus_ticks_flagged(self):
        found = lint_tree(
            {
                "repro/net/delay.py": """
                def total(now_ticks, delay_s):
                    return now_ticks + delay_s
                """,
            },
            select=["UNIT002"],
        )
        assert codes(found) == ["UNIT002"]
        assert "seconds and ticks" in found[0].message

    def test_comparison_mismatch_flagged(self):
        found = lint_tree(
            {
                "repro/net/delay.py": """
                def expired(deadline_s, now_ticks):
                    return now_ticks >= deadline_s
                """,
            },
            select=["UNIT002"],
        )
        assert codes(found) == ["UNIT002"]
        assert "comparison" in found[0].message

    def test_explicit_conversion_clean(self):
        found = lint_tree(
            {
                "repro/net/delay.py": """
                from repro.units import seconds_to_ticks

                def total(now_ticks, delay_s, tps):
                    return now_ticks + seconds_to_ticks(delay_s, tps)
                """,
            },
            select=["UNIT002"],
        )
        assert found == []

    def test_units_helper_arg_mismatch(self):
        found = lint_tree(
            {
                "repro/net/delay.py": """
                from repro.units import us

                def window(gap_ms):
                    return us(gap_ms)
                """,
            },
            select=["UNIT002"],
        )
        assert codes(found) == ["UNIT002"]
        assert "units.us() expects microseconds" in found[0].message

    def test_cross_module_call_edge_mismatch(self):
        found = lint_tree(
            {
                "repro/net/delay.py": """
                def wait(timeout_s):
                    return timeout_s
                """,
                "repro/cc/loop.py": """
                from repro.net.delay import wait

                def step(now_ticks):
                    return wait(now_ticks)
                """,
            },
            select=["UNIT002"],
        )
        assert codes(found) == ["UNIT002"]
        assert found[0].path == "repro/cc/loop.py"
        assert "`timeout_s`" in found[0].message
        assert "expects seconds" in found[0].message

    def test_cross_module_keyword_edge_mismatch(self):
        found = lint_tree(
            {
                "repro/net/delay.py": """
                def wait(timeout_s=0.0):
                    return timeout_s
                """,
                "repro/cc/loop.py": """
                from repro.net.delay import wait

                def step(now_ticks):
                    return wait(timeout_s=now_ticks)
                """,
            },
            select=["UNIT002"],
        )
        assert codes(found) == ["UNIT002"]

    def test_matching_call_edge_clean(self):
        found = lint_tree(
            {
                "repro/net/delay.py": """
                def wait(timeout_s):
                    return timeout_s
                """,
                "repro/cc/loop.py": """
                from repro.net.delay import wait

                def step(budget_s):
                    return wait(budget_s)
                """,
            },
            select=["UNIT002"],
        )
        assert found == []

    def test_ticks_per_second_misuse_flagged(self):
        found = lint_tree(
            {
                "repro/net/delay.py": """
                from repro.units import TICKS_PER_SECOND

                def convert(delay_ms):
                    return delay_ms * TICKS_PER_SECOND
                """,
            },
            select=["UNIT002"],
        )
        assert codes(found) == ["UNIT002"]
        assert "expects seconds" in found[0].message

    def test_mutation_dropped_us_wrapper_detected(self):
        # Acceptance mutation: remove the us(...) conversion from
        # correct code and the mix must surface.
        correct = {
            "repro/net/delay.py": """
            from repro.units import us

            def window(base_s, gap_us):
                return base_s + us(gap_us)
            """,
        }
        assert lint_tree(correct, select=["UNIT002"]) == []
        mutated = {
            "repro/net/delay.py": """
            def window(base_s, gap_us):
                return base_s + gap_us
            """,
        }
        found = lint_tree(mutated, select=["UNIT002"])
        assert codes(found) == ["UNIT002"]
        assert "microseconds" in found[0].message

    def test_unknown_operands_stay_silent(self):
        found = lint_tree(
            {
                "repro/net/delay.py": """
                def mix(a, b):
                    return a + b
                """,
            },
            select=["UNIT002"],
        )
        assert found == []

    def test_dim_of_identifier_conventions(self):
        assert dim_of_identifier("delay_s") == "seconds"
        assert dim_of_identifier("gap_us") == "microseconds"
        assert dim_of_identifier("now_ticks") == "ticks"
        assert dim_of_identifier("size_bytes") == "bytes"
        assert dim_of_identifier("rate_bytes_per_s") == "bytes/s"
        assert dim_of_identifier("ticks") == "ticks"
        assert dim_of_identifier("_s") is None
        assert dim_of_identifier("plain") is None


# ----------------------------------------------------------- determinism


class TestDeterminism:
    FIXTURE = {
        "repro/net/flows.py": """
        def build(streams):
            return streams.get("flow-gaps")
        """,
        "repro/workloads/arrivals.py": """
        def build(streams):
            return streams.get("flow-gaps")
        """,
        "repro/core/shapes.py": """
        from ..experiments.report import render
        """,
        "repro/experiments/report.py": """
        def render(arc):
            return str(arc)
        """,
    }

    def test_discovery_order_does_not_matter(self):
        forward = lint_tree(dict(self.FIXTURE))
        backward = lint_tree(
            dict(reversed(list(self.FIXTURE.items())))
        )
        assert forward == backward
        assert forward  # the fixture is intentionally dirty

    def test_jobs_parity_on_disk(self, tmp_path):
        root = tmp_path / "repro"
        for path, source in self.FIXTURE.items():
            target = tmp_path / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(
                textwrap.dedent(source), encoding="utf-8"
            )
        (root / "__init__.py").write_text("", encoding="utf-8")
        config = load_config()  # the repo's own table
        serial = lint_paths([str(root)], jobs=1, config=config)
        parallel = lint_paths([str(root)], jobs=4, config=config)
        assert serial.findings == parallel.findings
        assert serial.to_dict() == parallel.to_dict()
        assert serial.findings  # the fixture is intentionally dirty


# ---------------------------------------------------------------- config


class TestRepoConfig:
    def test_compiled_defaults_mirror_repo_table(self):
        # Interpreters without tomllib (and trees without a pyproject)
        # fall back to LintConfig(); it must be the repo's own policy.
        pytest.importorskip("tomllib")
        package = Path(__file__).resolve().parents[1] / "src" / "repro"
        assert load_config([str(package)]) == LintConfig()

"""Smoke tests: every experiment's ``main()`` prints a report.

The heavyweight drivers are exercised with full assertions in
``test_experiments.py`` and the benchmarks; these tests pin the
presentation layer (the printed paper-vs-measured reports) for the cheap
artifacts plus the CLI glue around them.
"""

import pytest

from repro.analysis.convergence import detect_convergence
from repro.experiments import (
    extensions,
    figure2,
    figure3,
    figure4,
    figure5,
    sweep,
)


class TestMains:
    def test_figure3_main(self, capsys):
        figure3.main()
        out = capsys.readouterr().out
        assert "255 ms" in out and "[0, 141) ms" in out

    def test_figure4_main(self, capsys):
        figure4.main()
        out = capsys.readouterr().out
        assert "overlap after rotation" in out

    def test_figure5_main(self, capsys):
        figure5.main()
        out = capsys.readouterr().out
        assert "LCM" in out
        assert "30 deg" in out
        # The ASCII circle art and coverage bands render too.
        assert "unified perimeter = 120 ticks" in out
        assert "coverage before rotation" in out

    def test_extensions_main(self, capsys):
        extensions.main()
        out = capsys.readouterr().out
        assert "cluster-level" in out
        assert "fractional demands" in out
        assert "hyper-parameter tuning" in out

    def test_sweep_main(self, capsys):
        sweep.main()
        out = capsys.readouterr().out
        assert "comm fraction" in out
        assert "mixed-period" in out


class TestFigure2Convergence:
    def test_slide_reaches_bounded_limit_cycle(self):
        # This workload's comm demand exceeds its solo period, so the
        # slide ends in a bounded oscillation: no fixed point at a tight
        # tolerance, but a stable band well below the fair 320 ms.
        result = figure2.run(n_iterations=16)
        j1 = result.unfair.iteration_times("J1")
        tight = detect_convergence(j1, tolerance=0.01)
        loose = detect_convergence(j1, tolerance=0.16)
        assert not tight.converged
        assert loose.converged
        assert loose.steady_value < 0.27  # vs 0.32 under fair sharing

    def test_report_includes_utilization_rows(self):
        result = figure2.run(n_iterations=6)
        out = result.report()
        assert "unfair/J1" in out and "fair/J2" in out

"""Tests for the PFC switch model."""

import numpy as np
import pytest

from repro.cc.dcqcn import DcqcnFluidSimulator, DcqcnParams
from repro.errors import ConfigError
from repro.units import gbps, kib


class TestPfc:
    def _sim(self, **kwargs):
        sim = DcqcnFluidSimulator(
            capacity=gbps(50),
            pfc_pause_threshold=kib(600),
            **kwargs,
        )
        params = DcqcnParams()
        sim.add_sender("a", params, np.random.default_rng(1))
        sim.add_sender("b", params, np.random.default_rng(2))
        return sim

    def test_queue_bounded_by_pause_threshold(self):
        sim = self._sim()
        result = sim.run(0.05)
        # One step of headroom: both senders at line rate for dt.
        headroom = 2 * gbps(50) * sim.dt
        assert result.queue_series.values.max() <= kib(600) + headroom

    def test_pause_time_accounted(self):
        sim = self._sim()
        sim.run(0.05)
        assert sim.pfc_pause_seconds >= 0.0

    def test_dcqcn_keeps_pfc_mostly_idle(self):
        # DCQCN's job: ECN kicks in well below the PFC threshold, so
        # pauses should be a tiny fraction of the run.
        sim = self._sim()
        sim.run(0.1)
        assert sim.pfc_pause_seconds < 0.01

    def test_without_dcqcn_reaction_pfc_fires(self):
        # Disable marking (no CNPs): senders stay at line rate and the
        # lossless fabric must pause.
        from repro.switches.ecn import RedEcnMarker

        sim = DcqcnFluidSimulator(
            capacity=gbps(50),
            marker=RedEcnMarker(kmin=1e12, kmax=2e12, pmax=0.001),
            pfc_pause_threshold=kib(600),
        )
        params = DcqcnParams()
        sim.add_sender("a", params, np.random.default_rng(1))
        sim.add_sender("b", params, np.random.default_rng(2))
        sim.run(0.05)
        assert sim.pfc_pause_seconds > 0.005

    def test_resume_threshold_validation(self):
        with pytest.raises(ConfigError):
            DcqcnFluidSimulator(
                pfc_pause_threshold=kib(100),
                pfc_resume_threshold=kib(200),
            )
        with pytest.raises(ConfigError):
            DcqcnFluidSimulator(pfc_pause_threshold=0.0)

    def test_default_resume_is_half_pause(self):
        sim = DcqcnFluidSimulator(pfc_pause_threshold=kib(400))
        assert sim.pfc_resume_threshold == pytest.approx(kib(200))

    def test_pfc_disabled_by_default(self):
        sim = DcqcnFluidSimulator()
        assert sim.pfc_pause_threshold is None
        params = DcqcnParams()
        sim.add_sender("a", params, np.random.default_rng(1))
        sim.run(0.01)
        assert sim.pfc_pause_seconds == 0.0

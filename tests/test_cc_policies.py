"""Share-policy tests: fair, weighted, adaptive, priority, factory."""

import math

import pytest

from repro import io
from repro.cc.adaptive import AdaptiveUnfair
from repro.cc.factory import make_policy
from repro.cc.fair import FairSharing
from repro.cc.priority import PrioritySharing
from repro.cc.weighted import StaticWeighted
from repro.errors import ConfigError
from repro.net.flows import Flow


def _flow(job_id, progress=0.0):
    return Flow(
        flow_id=f"flow:{job_id}", src="a", dst="b",
        job_id=job_id, progress=progress,
    )


class TestFair:
    def test_all_weights_one(self):
        policy = FairSharing()
        assert policy.weight_of(_flow("x")) == 1.0
        assert policy.weight_of(_flow("y")) == 1.0

    def test_default_priority_zero(self):
        assert FairSharing().priority_of(_flow("x")) == 0

    def test_no_tick_needed(self):
        assert FairSharing().reallocation_interval is None


class TestStaticWeighted:
    def test_explicit_weights(self):
        policy = StaticWeighted({"a": 3.0, "b": 1.5})
        assert policy.weight_of(_flow("a")) == 3.0
        assert policy.weight_of(_flow("b")) == 1.5

    def test_default_weight_for_unknown_job(self):
        policy = StaticWeighted({"a": 3.0}, default=2.0)
        assert policy.weight_of(_flow("stranger")) == 2.0

    def test_aggressiveness_order_ratios(self):
        policy = StaticWeighted.from_aggressiveness_order(
            ["first", "second", "third"], ratio=2.0
        )
        assert policy.weight_for_job("first") == 4.0
        assert policy.weight_for_job("second") == 2.0
        assert policy.weight_for_job("third") == 1.0

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ConfigError):
            StaticWeighted({"a": 0.0})

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_nonfinite_weight_rejected(self, weight):
        with pytest.raises(ConfigError, match="job J: weight"):
            StaticWeighted({"J": weight})
        with pytest.raises(ConfigError, match="default weight"):
            StaticWeighted({"J": 1.0}, default=weight)
        document = {"kind": "static-weighted", "weights": {"J": weight}}
        with pytest.raises(ConfigError):
            io.policy_from_dict(document)

    def test_ratio_must_exceed_one(self):
        with pytest.raises(ConfigError):
            StaticWeighted.from_aggressiveness_order(["a", "b"], ratio=1.0)


class TestAdaptive:
    def test_paper_formula_at_zero_progress(self):
        # Data_sent = 0: no boost.
        assert AdaptiveUnfair().weight_of(_flow("x", 0.0)) == 1.0

    def test_paper_formula_at_full_progress(self):
        # Data_sent = Data_comm_phase: doubled additive increase.
        assert AdaptiveUnfair().weight_of(_flow("x", 1.0)) == 2.0

    def test_monotone_in_progress(self):
        policy = AdaptiveUnfair()
        weights = [
            policy.weight_of(_flow("x", p))
            for p in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert weights == sorted(weights)

    def test_exponent_sharpens(self):
        soft = AdaptiveUnfair(exponent=1.0).weight_of(_flow("x", 1.0))
        sharp = AdaptiveUnfair(exponent=3.0).weight_of(_flow("x", 1.0))
        assert sharp > soft

    def test_requires_tick(self):
        assert AdaptiveUnfair().reallocation_interval is not None

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigError):
            AdaptiveUnfair(gain=-1.0)
        with pytest.raises(ConfigError):
            AdaptiveUnfair(exponent=0.0)
        with pytest.raises(ConfigError):
            AdaptiveUnfair(reallocation_interval=0.0)

    @pytest.mark.parametrize(
        "name", ["gain", "exponent", "base_weight", "reallocation_interval"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_params_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            AdaptiveUnfair(**{name: value})

    @pytest.mark.parametrize(
        "params",
        [
            {"gain": 10.0, "exponent": 1000.0},
            {"base_weight": 1e308, "gain": 1.0, "exponent": 2.0},
        ],
    )
    def test_overflowing_weight_rejected(self, params):
        # The weight peaks at progress 1: base * (1 + gain) ** exponent.
        with pytest.raises(ConfigError, match="overflows"):
            AdaptiveUnfair(**params)
        document = {
            "kind": "adaptive-unfair",
            "gain": 1.0,
            "exponent": 1.0,
            "base_weight": 1.0,
            "reallocation_interval": 2e-3,
            **params,
        }
        with pytest.raises(ConfigError, match="overflows"):
            io.policy_from_dict(document)

    def test_largest_finite_weight_accepted(self):
        policy = AdaptiveUnfair(gain=10.0, exponent=100.0)
        assert policy.weight_of(_flow("x", 1.0)) == 11.0 ** 100


class TestPrioritySharing:
    def test_unique_for_gives_distinct_descending(self):
        policy = PrioritySharing.unique_for(["a", "b", "c"])
        ps = [policy.priority_for_job(j) for j in ("a", "b", "c")]
        assert len(set(ps)) == 3
        assert ps == sorted(ps, reverse=True)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError):
            PrioritySharing.unique_for(["a", "a"])

    def test_unknown_job_gets_default(self):
        policy = PrioritySharing({"a": 5}, default=1)
        assert policy.priority_of(_flow("stranger")) == 1

    def test_weight_within_class_is_fair(self):
        policy = PrioritySharing({"a": 5})
        assert policy.weight_of(_flow("a")) == 1.0


class TestFactory:
    def test_fair(self):
        assert isinstance(make_policy("fair"), FairSharing)

    def test_weighted_with_order(self):
        policy = make_policy("weighted", order=["a", "b"])
        assert isinstance(policy, StaticWeighted)
        assert policy.weight_for_job("a") == 2.0

    def test_weighted_with_order_and_ratio(self):
        policy = make_policy("weighted", order=["a", "b"], ratio=3.0)
        assert policy.weight_for_job("a") == 3.0

    def test_weighted_with_weights(self):
        policy = make_policy("weighted", weights={"a": 5.0})
        assert policy.weight_for_job("a") == 5.0

    def test_weighted_order_and_weights_conflict(self):
        with pytest.raises(ConfigError):
            make_policy("weighted", order=["a"], weights={"a": 1.0})

    def test_adaptive(self):
        assert isinstance(make_policy("adaptive"), AdaptiveUnfair)

    def test_priority_with_order(self):
        policy = make_policy("priority", order=["a", "b"])
        assert isinstance(policy, PrioritySharing)

    def test_case_insensitive(self):
        assert isinstance(make_policy("  FAIR "), FairSharing)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            make_policy("tcp-reno")

"""Focused workload-generation coverage (PR 2 satellite).

`tests/test_serving.py` smoke-tests the workload module alongside the
facade; these tests pin the contracts precisely — validation errors,
bit-determinism of the Poisson stream under a fixed seed (arrival gaps
*and* model choices), and the inverse-QoS mixture arithmetic.
"""

import numpy as np
import pytest

from repro.models.registry import get_entry, model_names
from repro.serving.workload import (
    WorkloadSpec,
    full_mix,
    scenario_queries,
    single_model,
)


class TestWorkloadSpecValidation:
    def test_empty_entries(self):
        with pytest.raises(ValueError, match="empty"):
            WorkloadSpec(name="none", entries=())

    def test_zero_weight(self):
        with pytest.raises(ValueError, match="non-positive"):
            WorkloadSpec(name="z", entries=(("resnet50", 0.0),))

    def test_negative_weight(self):
        with pytest.raises(ValueError, match="non-positive"):
            WorkloadSpec(name="n", entries=(("resnet50", 2.0),
                                            ("googlenet", -0.5),))

    def test_models_preserve_entry_order(self):
        spec = WorkloadSpec(name="o", entries=(("b", 1.0), ("a", 2.0)))
        assert spec.models == ["b", "a"]


class TestPoissonDeterminism:
    def test_identical_streams_under_fixed_seed(self, light_stack):
        spec = WorkloadSpec(name="mix", entries=(("mobilenet_v2", 1.0),
                                                 ("googlenet", 3.0)))
        first = scenario_queries(light_stack.compiled, "poisson", 120, 300,
                                 seed=17, spec=spec)
        second = scenario_queries(light_stack.compiled, "poisson", 120, 300,
                                  seed=17, spec=spec)
        assert [q.arrival_s for q in first] == [q.arrival_s
                                               for q in second]
        assert [q.model.name for q in first] == [q.model.name
                                                 for q in second]
        assert [q.qos_s for q in first] == [q.qos_s for q in second]

    def test_seed_changes_both_gaps_and_choices(self, light_stack):
        spec = WorkloadSpec(name="mix", entries=(("mobilenet_v2", 1.0),
                                                 ("googlenet", 1.0)))
        first = scenario_queries(light_stack.compiled, "poisson", 120, 300,
                                 seed=17, spec=spec)
        other = scenario_queries(light_stack.compiled, "poisson", 120, 300,
                                 seed=18, spec=spec)
        assert [q.arrival_s for q in first] != [q.arrival_s
                                                for q in other]
        assert [q.model.name for q in first] != [q.model.name
                                                 for q in other]

    def test_rejects_nonpositive_count(self, light_stack):
        spec = WorkloadSpec(name="m", entries=(("mobilenet_v2", 1.0),))
        with pytest.raises(ValueError):
            scenario_queries(light_stack.compiled, "poisson", 100, 0,
                             spec=spec)

    def test_uniform_rejects_bad_args(self, light_stack):
        with pytest.raises(ValueError):
            scenario_queries(light_stack.compiled, "uniform", 0, 5,
                             spec=single_model("mobilenet_v2"))
        with pytest.raises(ValueError):
            scenario_queries(light_stack.compiled, "uniform", 50, -1,
                             spec=single_model("mobilenet_v2"))


class TestInverseQosMixture:
    def test_weights_are_exact_inverse_qos(self):
        spec = full_mix()
        weights = dict(spec.entries)
        assert set(weights) == set(model_names())
        for name, weight in weights.items():
            assert weight == pytest.approx(1.0 / get_entry(name).qos_ms)

    def test_probabilities_sum_to_one(self):
        probabilities = full_mix().probabilities()
        assert probabilities.sum() == pytest.approx(1.0)
        assert np.all(probabilities > 0)

    def test_probability_ratio_matches_qos_ratio(self):
        spec = full_mix()
        probabilities = dict(zip(spec.models, spec.probabilities()))
        # mobilenet (10 ms) must be exactly 13x likelier than BERT
        # (130 ms): frequency inversely proportional to the QoS target.
        ratio = probabilities["mobilenet_v2"] / probabilities["bert_large"]
        assert ratio == pytest.approx(130.0 / 10.0)

    def test_draw_frequencies_track_weights(self, light_stack):
        spec = WorkloadSpec(name="m", entries=(("mobilenet_v2", 3.0),
                                               ("googlenet", 1.0)))
        queries = scenario_queries(light_stack.compiled, "poisson", 200, 2000,
                                   seed=5, spec=spec)
        share = (sum(1 for q in queries if q.model.name == "mobilenet_v2")
                 / len(queries))
        assert share == pytest.approx(0.75, abs=0.05)

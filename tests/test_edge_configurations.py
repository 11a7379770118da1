"""Edge-configuration coverage: degenerate model shapes still work."""

from repro.core.policy import FMoEPolicy
from repro.moe.config import tiny_test_model
from repro.moe.model import MoEModel
from repro.serving.engine import ServingEngine
from repro.serving.hardware import HardwareConfig
from repro.serving.request import Request


def serve(config, hardware, distance=1, budget_experts=None):
    model = MoEModel(config, seed=0)
    policy = FMoEPolicy(prefetch_distance=distance)
    budget = (budget_experts or config.total_experts) * config.expert_bytes
    engine = ServingEngine(
        model, policy, cache_budget_bytes=budget, hardware=hardware
    )
    return engine.run([Request(0, 0, 4, 3)])


class TestDegenerateShapes:
    def test_two_layer_model(self, small_hardware):
        config = tiny_test_model(num_layers=2)
        report = serve(config, small_hardware)
        assert report.iterations == 3

    def test_top1_routing(self, small_hardware):
        config = tiny_test_model(top_k=1)
        report = serve(config, small_hardware)
        assert report.activations >= config.num_layers * 3

    def test_full_width_routing(self, small_hardware):
        """top_k == J: every expert activates every layer."""
        config = tiny_test_model(experts_per_layer=3, top_k=3)
        report = serve(config, small_hardware)
        assert report.activations == 3 * config.num_layers * 3

    def test_two_expert_layers(self, small_hardware):
        config = tiny_test_model(experts_per_layer=2, top_k=1)
        report = serve(config, small_hardware)
        assert 0.0 <= report.hit_rate <= 1.0

    def test_distance_exceeding_layers_is_clamped_by_store(
        self, small_hardware
    ):
        config = tiny_test_model(num_layers=4)
        # Policy accepts d > L; the store clamps its own distance and
        # trajectory targets beyond the model simply never fire.
        report = serve(config, small_hardware, distance=10)
        assert report.iterations == 3

    def test_single_cluster_single_phase(self, small_hardware):
        config = tiny_test_model(num_clusters=1, phases_per_cluster=1)
        report = serve(config, small_hardware)
        assert report.activations > 0


class TestHardwareEdges:
    def test_many_small_gpus(self):
        config = tiny_test_model()
        hardware = HardwareConfig(
            num_gpus=8, framework_layer_overhead_seconds=1e-3
        )
        report = serve(config, hardware)
        assert report.iterations == 3

    def test_zero_framework_overhead(self):
        config = tiny_test_model()
        hardware = HardwareConfig(
            num_gpus=2, framework_layer_overhead_seconds=0.0
        )
        report = serve(config, hardware)
        assert report.mean_tpot() > 0

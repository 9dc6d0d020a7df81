import pytest

from clothdet import (
    FusionConfig,
    NoiseParams,
    SynthParams,
    encode_scene,
    synth_scenes,
)
from clothdet.bench import STRATEGY_NAMES, bench_decode, compare_strategies


@pytest.fixture(scope="module")
def tensor_sets(table):
    scenes = synth_scenes(SynthParams(seed=30, num_images=2, image_width=128, image_height=128,
                                      min_box_size=48, max_box_size=96), table)
    return [encode_scene(s, table) for s in scenes]


class TestBenchDecode:
    def test_single_iteration_collapses_percentiles(self, tensor_sets, table):
        report = bench_decode(tensor_sets, table, iterations=1, warmup=0)
        for stats in report.stages.values():
            assert stats.p50_ms == stats.p95_ms == stats.mean_ms

    def test_percentile_order_and_sign(self, tensor_sets, table):
        report = bench_decode(tensor_sets, table, iterations=5, warmup=1)
        for stats in report.stages.values():
            assert 0.0 <= stats.p50_ms <= stats.p95_ms

    def test_default_fusion_omits_flip_stage(self, tensor_sets, table):
        report = bench_decode(tensor_sets, table, iterations=1, warmup=0)
        assert "flip_fusion" not in report.stages
        assert set(report.stages) == {"decode", "nms", "multiscale_fusion"}

    def test_flip_enabled_adds_stage(self, tensor_sets, table):
        report = bench_decode(tensor_sets, table, iterations=1, warmup=0,
                              fusion=FusionConfig(flip_enabled=True))
        assert set(report.stages) == {"decode", "nms", "flip_fusion", "multiscale_fusion"}

    def test_single_scale_omits_multiscale_stage(self, tensor_sets, table):
        report = bench_decode(tensor_sets, table, iterations=1, warmup=0,
                              fusion=FusionConfig(scales=(1.0,)))
        assert "multiscale_fusion" not in report.stages

    def test_threaded_run(self, tensor_sets, table):
        report = bench_decode(tensor_sets, table, iterations=2, warmup=0, threads=2)
        assert report.threads == 2
        assert report.images == len(tensor_sets)

    def test_single_tensor_set_accepted(self, tensor_sets, table):
        report = bench_decode(tensor_sets[0], table, iterations=1, warmup=0)
        assert report.images == 1

    def test_bad_arguments(self, tensor_sets, table):
        with pytest.raises(ValueError, match="iterations"):
            bench_decode(tensor_sets, table, iterations=0)
        with pytest.raises(ValueError, match="tensor set"):
            bench_decode([], table)

    def test_report_rows(self, tensor_sets, table):
        report = bench_decode(tensor_sets, table, iterations=1, warmup=0)
        rows = report.rows()
        assert rows[0] == ["stage", "mean_ms", "p50_ms", "p95_ms"]
        assert [r[0] for r in rows[1:]] == list(report.stages)


class TestCompareStrategies:
    def test_ladder_smoke(self, table):
        scenes = synth_scenes(
            SynthParams(seed=1, num_images=4, image_width=256, image_height=256,
                        min_box_size=48, max_box_size=96, avoid_cell_boundaries=True),
            table,
        )
        report = compare_strategies(scenes, table, NoiseParams(seed=1))
        assert tuple(r.name for r in report.results) == STRATEGY_NAMES
        assert report.images == 4
        for result in report.results:
            assert 0.0 <= result.map_box <= 1.0
            assert 0.0 <= result.map_pt <= 1.0
            assert result.latency_ms > 0.0
        rows = report.rows()
        assert rows[0] == ["metric", *STRATEGY_NAMES]
        assert [r[0] for r in rows[1:]] == ["mAP_box", "mAP_pt", "latency_ms"]

    def test_flip_rungs_do_not_depend_on_flip_enabled(self, table):
        scenes = synth_scenes(
            SynthParams(seed=1, num_images=2, image_width=256, image_height=256,
                        min_box_size=48, max_box_size=96, avoid_cell_boundaries=True),
            table,
        )
        default = compare_strategies(scenes, table, NoiseParams(seed=1), fusion=FusionConfig())
        flip = compare_strategies(scenes, table, NoiseParams(seed=1), fusion=FusionConfig(flip_enabled=True))
        assert default.rows()[1:3] == flip.rows()[1:3]

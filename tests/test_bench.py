from clothdet import NoiseParams, SynthParams, synth_scenes
from clothdet.bench import STRATEGY_NAMES, compare_strategies


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

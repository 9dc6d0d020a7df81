import json

import numpy as np
import pytest

from clothdet import dump_category_table, new_head_tensors, read_tensors, write_tensors
from clothdet.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Chained synth -> encode -> decode artifacts shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    scenes = root / "scenes.json"
    assert main(["synth", "--out", str(scenes), "--images", "2",
                 "--width", "256", "--height", "256", "--seed", "5"]) == 0
    tensors = root / "tensors"
    assert main(["encode", "--scenes", str(scenes), "--out-dir", str(tensors)]) == 0
    dets = root / "dets.json"
    assert main(["decode", "--tensors", str(tensors), "--out", str(dets)]) == 0
    return root


class TestParsing:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "clothdet" in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["synth", "--nope"]) == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "error:" in err

    def test_missing_command(self, capsys):
        assert main([]) == 1

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "dets.json"
        assert main(["eval", "--detections", str(out), "--scenes", str(out)]) == 2
        assert "error:" in capsys.readouterr().err


class TestSynth:
    def test_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["--images", "3", "--seed", "9"]
        assert main(["synth", "--out", str(a), *args]) == 0
        assert main(["synth", "--out", str(b), *args]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["synth", "--out", str(a), "--images", "3", "--seed", "1"]) == 0
        assert main(["synth", "--out", str(b), "--images", "3", "--seed", "2"]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_custom_categories_file(self, tmp_path, table):
        config = tmp_path / "cats.json"
        config.write_text(dump_category_table(table))
        out = tmp_path / "scenes.json"
        assert main(["synth", "--out", str(out), "--images", "1", "--categories", str(config)]) == 0
        assert json.loads(out.read_text())["images"]


class TestEncodeDecode:
    def test_encode_writes_expected_files(self, workspace):
        names = sorted(p.name for p in (workspace / "tensors").glob("*.dmrk"))
        assert names == ["synth-0005-0000.dmrk", "synth-0005-0001.dmrk"]

    def test_encode_flip_and_scales_views(self, workspace, tmp_path):
        out = tmp_path / "views"
        assert main(["encode", "--scenes", str(workspace / "scenes.json"), "--out-dir", str(out),
                     "--flip", "--scales", "1.0,0.75"]) == 0
        suffixes = {p.name.replace("synth-0005-0000", "") for p in out.glob("synth-0005-0000*")}
        assert suffixes == {".dmrk", "@flip.dmrk", "@s0.75.dmrk", "@s0.75@flip.dmrk"}

    def test_decode_reproducible_across_workers(self, workspace, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        tensors = str(workspace / "tensors")
        assert main(["decode", "--tensors", tensors, "--out", str(a)]) == 0
        assert main(["decode", "--tensors", tensors, "--out", str(b), "--workers", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() == (workspace / "dets.json").read_bytes()

    def test_decode_rejects_mismatched_channels(self, tmp_path, capsys):
        bad_dir = tmp_path / "tensors"
        bad_dir.mkdir()
        write_tensors(bad_dir / "img.dmrk", new_head_tensors(32, 32, 4, num_categories=12))
        out = tmp_path / "dets.json"
        assert main(["decode", "--tensors", str(bad_dir), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "expected 13 channels" in err

    @staticmethod
    def _seed7_container(tmp_path):
        """One clean container of `clothdet synth --seed 7`, and the cell of its highest center peak."""
        scenes = tmp_path / "scenes.json"
        assert main(["synth", "--out", str(scenes), "--images", "1", "--width", "256", "--height", "256",
                     "--seed", "7"]) == 0
        tensors = tmp_path / "tensors"
        assert main(["encode", "--scenes", str(scenes), "--out-dir", str(tensors)]) == 0
        (path,) = tensors.glob("*.dmrk")
        container = read_tensors(path)
        peak = np.unravel_index(int(np.argmax(container.center)), container.center.shape)
        return path, container, tuple(int(v) for v in peak)

    def test_decode_rejects_nan_regression_value(self, tmp_path, capsys):
        path, container, (_, row, col) = self._seed7_container(tmp_path)
        container.wh[0, row, col] = np.nan
        write_tensors(path, container)
        out = tmp_path / "dets.json"
        assert main(["decode", "--tensors", str(path.parent), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"wh: non-finite value at channel 0, cell ({row}, {col})" in captured.err
        assert not out.exists()
        assert "NaN" not in captured.out + captured.err

    def test_decode_rejects_center_above_one(self, tmp_path, capsys):
        path, container, (channel, row, col) = self._seed7_container(tmp_path)
        container.center[channel] *= 1.5
        write_tensors(path, container)
        out = tmp_path / "dets.json"
        assert main(["decode", "--tensors", str(path.parent), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"center: value 1.5 outside [0, 1] at channel {channel}, cell ({row}, {col})" in err
        assert not out.exists()

    def test_decode_empty_dir_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["decode", "--tensors", str(empty), "--out", str(tmp_path / "d.json")]) == 2
        assert "no base .dmrk files" in capsys.readouterr().err


class TestFuse:
    def test_equal_weight_average(self, workspace, tmp_path):
        src = sorted((workspace / "tensors").glob("*.dmrk"))
        out = tmp_path / "fused.dmrk"
        assert main(["fuse", "--inputs", str(src[0]), str(src[1]), "--out", str(out)]) == 0
        a, b, fused = read_tensors(src[0]), read_tensors(src[1]), read_tensors(out)
        expect = (a.center.astype(np.float64) + b.center.astype(np.float64)) / 2
        np.testing.assert_array_equal(fused.center, expect.astype(np.float32))

    def test_zero_weight_matches_first_input(self, workspace, tmp_path):
        src = sorted((workspace / "tensors").glob("*.dmrk"))
        out = tmp_path / "fused.dmrk"
        assert main(["fuse", "--inputs", str(src[0]), str(src[1]), "--out", str(out),
                     "--weights", "2,0"]) == 0
        assert out.read_bytes() == src[0].read_bytes()

    def test_unflip_out_of_range(self, workspace, tmp_path, capsys):
        src = sorted((workspace / "tensors").glob("*.dmrk"))
        assert main(["fuse", "--inputs", str(src[0]), "--out", str(tmp_path / "f.dmrk"),
                     "--unflip", "3"]) == 2
        assert "out of range" in capsys.readouterr().err


class TestEval:
    def test_perfect_roundtrip_reports_ones(self, workspace, tmp_path, capsys):
        report = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        plots = tmp_path / "plots"
        assert main(["eval", "--detections", str(workspace / "dets.json"),
                     "--scenes", str(workspace / "scenes.json"),
                     "--out-json", str(report), "--out-csv", str(csv_path),
                     "--plot", str(plots)]) == 0
        out = capsys.readouterr().out
        assert "mAP_box = 1.000" in out
        doc = json.loads(report.read_text())
        assert doc["box"]["map"] == 1.0
        assert doc["pt"]["visible_only"]["map"] == 1.0
        assert csv_path.read_text().startswith("metric,")
        assert (plots / "pr_curves.csv").exists()
        assert (plots / "pr_curves.svg").read_text().startswith("<svg")

    def test_modes_identical_without_occlusion(self, workspace, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["eval", "--detections", str(workspace / "dets.json"),
                "--scenes", str(workspace / "scenes.json")]
        assert main([*base, "--mode", "visible", "--out-json", str(a)]) == 0
        assert main([*base, "--mode", "all", "--out-json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sigma_file(self, workspace, tmp_path, capsys):
        sigmas = tmp_path / "sigmas.json"
        sigmas.write_text(json.dumps([0.05] * 294))
        assert main(["eval", "--detections", str(workspace / "dets.json"),
                     "--scenes", str(workspace / "scenes.json"), "--sigmas", str(sigmas)]) == 0
        assert "mAP_pt" in capsys.readouterr().out


class TestBenchCommands:
    def test_bench_runs(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--images", "1", "--width", "256", "--height", "256",
                     "--iterations", "1", "--warmup", "0", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        for stage in ("decode", "nms", "flip_fusion", "multiscale_fusion"):
            assert stage in stdout
        assert out.read_text().startswith("stage,")

    def test_roundtrip_prints_perfect_score(self, capsys):
        assert main(["roundtrip", "--images", "2", "--width", "256", "--height", "256"]) == 0
        out = capsys.readouterr().out
        assert "mAP_box = 1.000" in out
        assert "mAP_pt = 1.000" in out

    def test_strategies_quick_run(self, tmp_path, capsys):
        out = tmp_path / "strategies.csv"
        plots = tmp_path / "plots"
        assert main(["strategies", "--images", "2", "--seed", "1",
                     "--out", str(out), "--plot", str(plots)]) == 0
        stdout = capsys.readouterr().out
        assert "nms+flip+multiscale" in stdout
        assert out.read_text().startswith("metric,")
        assert (plots / "strategies.svg").exists()

    def test_strategies_dims_must_be_divisible(self, capsys):
        assert main(["strategies", "--images", "1", "--width", "250", "--height", "256"]) == 2
        assert "divisible by 4" in capsys.readouterr().err

import json
import re
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from clothdet import (
    HeadTensorSet,
    default_table,
    dump_category_table,
    evaluate,
    new_head_tensors,
    read_detections,
    read_scenes,
    read_tensors,
    report_to_dict,
    write_tensors,
)
from clothdet.cli import build_parser, main


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


def readme_commands():
    """Arguments of every `clothdet ...` line in README.md's sh blocks, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            tokens = shlex.split(line, comments=True)
            if tokens[:1] == ["clothdet"]:
                commands.append(tokens[1:])
    return commands


def test_readme_commands_parse(capsys):
    commands = readme_commands()
    assert len(commands) >= 6
    for argv in commands:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: clothdet {shlex.join(argv)}\n{capsys.readouterr().err}")
        assert args.command == argv[0]


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

    @pytest.mark.parametrize("scales,message", [
        ("inf", "--scales must be positive and finite, got inf in 'inf'"),
        ("nan", "--scales must be positive and finite, got nan in 'nan'"),
        ("1e-300", "--scales value 1e-300 leaves image 'synth-0005-0000' (256x256) with no pixels"),
        ("1.0,1.0", "--scales lists scale 1 twice, in '1.0,1.0'"),
    ])
    def test_encode_rejects_bad_scales(self, workspace, tmp_path, capsys, scales, message):
        out = tmp_path / "views"
        assert main(["encode", "--scenes", str(workspace / "scenes.json"), "--out-dir", str(out),
                     "--scales", scales]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not list(out.glob("*.dmrk"))

    @pytest.mark.parametrize("image_id", ["../escaped", "a/b", "img@flip", "", ".", "..", "nul\0id"])
    def test_encode_rejects_ids_that_cannot_name_a_view(self, workspace, tmp_path, capsys, image_id):
        doc = json.loads((workspace / "scenes.json").read_text("utf-8"))
        doc["images"][1]["image_id"] = image_id
        scenes, out = tmp_path / "scenes.json", tmp_path / "sub" / "views"
        scenes.write_text(json.dumps(doc), "utf-8")
        assert main(["encode", "--scenes", str(scenes), "--out-dir", str(out)]) == 2
        assert f"error: image 1: image_id {image_id!r} cannot name a view file" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.dmrk"))

    def test_encode_rejects_a_repeated_image_id(self, workspace, tmp_path, capsys):
        # Both scenes' views would go to one file, the second overwriting the first.
        doc = json.loads((workspace / "scenes.json").read_text("utf-8"))
        doc["images"][0]["image_id"] = doc["images"][1]["image_id"] = "a"
        scenes, out = tmp_path / "scenes.json", tmp_path / "views"
        scenes.write_text(json.dumps(doc), "utf-8")
        assert main(["encode", "--scenes", str(scenes), "--out-dir", str(out)]) == 2
        assert "error: image 1: image_id 'a' repeats image 0's" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.dmrk"))

    @pytest.mark.parametrize("scales,message", [
        ("inf", "--scales must be positive and finite, got inf in 'inf'"),
        ("nan", "--scales must be positive and finite, got nan in 'nan'"),
        ("1.0,1", "--scales lists scale 1 twice, in '1.0,1'"),
    ])
    def test_decode_rejects_bad_scales(self, workspace, tmp_path, capsys, scales, message):
        out = tmp_path / "dets.json"
        assert main(["decode", "--tensors", str(workspace / "tensors"), "--out", str(out), "--scales", scales]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_decode_rejects_nan_snap_margin(self, workspace, tmp_path, capsys):
        out = tmp_path / "dets.json"
        assert main(["decode", "--tensors", str(workspace / "tensors"), "--out", str(out), "--snap-margin", "nan"]) == 2
        assert "error: snap_box_margin must be a finite number >= 1.0, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_decode_rejects_infinite_snap_margin(self, workspace, tmp_path, capsys):
        # Snapping scales box half-sizes by the margin: 0 * inf is NaN on the zero-size boxes of score-0 detections.
        out = tmp_path / "dets.json"
        assert main(["decode", "--tensors", str(workspace / "tensors"), "--out", str(out), "--snap-margin", "inf"]) == 2
        assert capsys.readouterr().err == "error: snap_box_margin must be a finite number >= 1.0, got inf\n"
        assert not out.exists()

    def test_categories_file_is_read_on_every_call(self, workspace, tmp_path, table, capsys):
        # The first two landmarks of every category mirror each other.
        pairs = tuple((s.global_offset, s.global_offset + 1) for s in table.specs)
        flip_text = dump_category_table(replace(table, flip_pairs=pairs))
        config = tmp_path / "cats.json"
        config.write_text(flip_text)
        tensors = tmp_path / "tensors"
        assert main(["encode", "--scenes", str(workspace / "scenes.json"), "--out-dir", str(tensors),
                     "--flip", "--categories", str(config)]) == 0

        def decode(name, *categories):
            out = tmp_path / name
            assert main(["decode", "--tensors", str(tensors), "--out", str(out), "--flip", *categories]) == 0
            return out.read_bytes()

        first = decode("first.json", "--categories", str(config))
        assert decode("second.json", "--categories", str(config)) == first
        # Without flip pairs the mirrored view's landmarks stay on the wrong side.
        config.write_text(dump_category_table(table))
        rewritten = decode("rewritten.json", "--categories", str(config))
        assert rewritten != first
        assert rewritten == decode("default.json")
        config.write_text(flip_text)
        assert decode("again.json", "--categories", str(config)) == first

    def test_malformed_categories_file_fails_every_call(self, workspace, tmp_path, table, capsys):
        config = tmp_path / "cats.json"
        out = tmp_path / "dets.json"
        argv = ["decode", "--tensors", str(workspace / "tensors"), "--out", str(out), "--categories", str(config)]
        for text in ("{", '{"categories": []}', "{"):
            config.write_text(text)
            for _ in range(2):
                assert main(argv) == 2
                assert "error: " in capsys.readouterr().err
        assert not out.exists()
        config.write_text(dump_category_table(table))
        assert main(argv) == 0

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
        """One clean container of `clothdet synth --seed 7` as writable arrays, and the cell of its highest center peak."""
        scenes = tmp_path / "scenes.json"
        assert main(["synth", "--out", str(scenes), "--images", "1", "--width", "256", "--height", "256",
                     "--seed", "7"]) == 0
        tensors = tmp_path / "tensors"
        assert main(["encode", "--scenes", str(scenes), "--out-dir", str(tensors)]) == 0
        (path,) = tensors.glob("*.dmrk")
        container = HeadTensorSet(stride=4, **{name: np.array(grid) for name, grid in read_tensors(path).named().items()})
        peak = np.unravel_index(int(np.argmax(container.center)), container.center.shape)
        return path, container, tuple(int(v) for v in peak)

    def test_decode_rejects_nan_regression_value(self, tmp_path, capsys):
        path, container, (_, row, col) = self._seed7_container(tmp_path)
        wh = np.array(container.wh)
        wh[0, row, col] = np.nan
        write_tensors(path, replace(container, wh=wh))
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

    @pytest.mark.parametrize("view", ["", "@flip"])
    @pytest.mark.parametrize("value,message", [
        (1.5, "center: value 1.5 outside [0, 1] at channel 0, cell (0, 5)"),
        (np.nan, "center: non-finite value at channel 0, cell (0, 5)"),
    ])
    def test_decode_flip_rejects_bad_heatmap_value_in_either_view(self, tmp_path, capsys, view, value, message):
        scenes, tensors = tmp_path / "scenes.json", tmp_path / "tensors"
        assert main(["synth", "--out", str(scenes), "--images", "1", "--width", "256", "--height", "256",
                     "--seed", "3"]) == 0
        assert main(["encode", "--scenes", str(scenes), "--out-dir", str(tensors), "--flip"]) == 0
        (path,) = tensors.glob(f"*[0-9]{view}.dmrk")
        container = read_tensors(path)
        center = np.array(container.center)
        center[0, 0, 5] = value
        write_tensors(path, replace(container, center=center))
        for flip in ([], ["--flip"]):
            out = tmp_path / f"dets{len(flip)}.json"
            # The plain view alone is rejected without --flip; the mirrored one is read only with it.
            expected = 2 if flip or not view else 0
            assert main(["decode", "--tensors", str(tensors), "--out", str(out), *flip]) == expected
            if expected == 2:
                assert f"error: {message}" in capsys.readouterr().err
                assert not out.exists()
        # fuse checks both inputs as decode --flip does, before unflipping either.
        plain = next(p for p in tensors.glob("*.dmrk") if "@" not in p.name)
        fused = tmp_path / "fused.dmrk"
        assert main(["fuse", "--inputs", str(plain), str(plain.with_name(plain.stem + "@flip.dmrk")),
                     "--unflip", "1", "--out", str(fused)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not fused.exists()

    @staticmethod
    def _flip_map_box(tmp_path, capsys, width, scales):
        """mAP_box of 8 `synth --seed 7` images, height 512, through `encode --flip` and `decode --flip` at `scales`."""
        scenes, tensors, dets, report = (tmp_path / n for n in ("scenes.json", "tensors", "dets.json", "report.json"))
        assert main(["synth", "--out", str(scenes), "--images", "8", "--width", str(width), "--height", "512",
                     "--seed", "7"]) == 0
        assert main(["encode", "--scenes", str(scenes), "--out-dir", str(tensors), "--flip", "--scales", scales]) == 0
        capsys.readouterr()
        assert main(["decode", "--tensors", str(tensors), "--out", str(dets), "--flip", "--scales", scales]) == 0
        assert "over 8 images" in capsys.readouterr().out
        assert main(["eval", "--detections", str(dets), "--scenes", str(scenes), "--out-json", str(report)]) == 0
        return json.loads(report.read_text())["box"]["map"]

    def test_decode_flip_at_a_width_off_the_stride(self, tmp_path, capsys):
        # A mirror about 510 rather than the padded 512 shifted every unflipped peak: 0.536.
        # What stays below 1 is the split of peaks on exact cell edges.
        assert self._flip_map_box(tmp_path, capsys, 510, "1.0") >= 0.826

    def test_decode_ids_come_from_the_first_scale(self, tmp_path, capsys):
        # encode --scales 0.75 writes no unscaled view, and its 390-wide views are off the stride too.
        assert round(self._flip_map_box(tmp_path, capsys, 520, "0.75"), 3) >= 0.910

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
        expect = (np.asarray(a.center).astype(np.float64) + np.asarray(b.center).astype(np.float64)) / 2
        np.testing.assert_array_equal(fused.center, expect.astype(np.float32))

    def test_zero_weight_matches_first_input(self, workspace, tmp_path):
        src = sorted((workspace / "tensors").glob("*.dmrk"))
        out = tmp_path / "fused.dmrk"
        assert main(["fuse", "--inputs", str(src[0]), str(src[1]), "--out", str(out),
                     "--weights", "2,0"]) == 0
        assert out.read_bytes() == src[0].read_bytes()

    def test_unflip_then_plain_decode_matches_decode_flip(self, tmp_path, capsys):
        scenes, tensors, fused = tmp_path / "scenes.json", tmp_path / "tensors", tmp_path / "fused"
        assert main(["synth", "--out", str(scenes), "--seed", "7", "--images", "2",
                     "--width", "256", "--height", "256"]) == 0
        assert main(["encode", "--scenes", str(scenes), "--out-dir", str(tensors),
                     "--flip", "--scales", "1.0,0.75"]) == 0
        views = sorted(p for p in tensors.glob("*.dmrk") if not p.stem.endswith("@flip"))
        assert len(views) == 4
        fused.mkdir()
        for view in views:
            assert main(["fuse", "--inputs", str(view), str(view.with_name(view.stem + "@flip.dmrk")),
                         "--unflip", "1", "--out", str(fused / view.name)]) == 0
        by_flip, by_fuse = tmp_path / "flip.json", tmp_path / "fuse.json"
        assert main(["decode", "--tensors", str(tensors), "--out", str(by_flip), "--flip",
                     "--scales", "1.0,0.75"]) == 0
        assert main(["decode", "--tensors", str(fused), "--out", str(by_fuse), "--scales", "1.0,0.75"]) == 0
        assert "over 2 images" in capsys.readouterr().out
        assert sum(map(len, read_detections(by_flip).values())) > 0
        assert by_fuse.read_bytes() == by_flip.read_bytes()

    def test_non_finite_regression_value_is_data_error(self, workspace, tmp_path, capsys):
        # A NaN away from every peak: decode never reads it, but fuse would average and write it.
        src = sorted((workspace / "tensors").glob("*.dmrk"))[0]
        container = read_tensors(src)
        wh = np.array(container.wh)
        wh[1, 3, 7] = np.nan
        bad, out = tmp_path / "bad.dmrk", tmp_path / "f.dmrk"
        write_tensors(bad, replace(container, wh=wh))
        for unflip in ([], ["--unflip", "1"]):
            assert main(["fuse", "--inputs", str(src), str(bad), "--out", str(out), *unflip]) == 2
            assert capsys.readouterr().err == f"error: wh: non-finite value at channel 1, cell (3, 7), in input 1 ({bad})\n"
            assert not out.exists()

    def test_wrong_channel_count_is_data_error(self, tmp_path, capsys):
        src, out = tmp_path / "t.dmrk", tmp_path / "f.dmrk"
        write_tensors(src, new_head_tensors(4, 4, 4, num_categories=5))
        assert main(["fuse", "--inputs", str(src), "--out", str(out), "--unflip", "0"]) == 2
        assert "center: expected 13 channels, got 5" in capsys.readouterr().err
        assert not out.exists()

    def test_unflip_out_of_range(self, workspace, tmp_path, capsys):
        src = sorted((workspace / "tensors").glob("*.dmrk"))
        assert main(["fuse", "--inputs", str(src[0]), "--out", str(tmp_path / "f.dmrk"),
                     "--unflip", "3"]) == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--unflip", "1.5", "--unflip must be a comma list of input indices, got '1.5'"),
        ("--unflip", "0,x", "--unflip must be a comma list of input indices, got '0,x'"),
        ("--weights", "1,,2", "--weights must be a comma list of numbers, got '1,,2'"),
        ("--weights", "1,two", "--weights must be a comma list of numbers, got '1,two'"),
    ])
    def test_unparsable_list_names_its_flag(self, workspace, tmp_path, capsys, flag, value, message):
        src = sorted((workspace / "tensors").glob("*.dmrk"))
        out = tmp_path / "f.dmrk"
        assert main(["fuse", "--inputs", str(src[0]), str(src[1]), "--out", str(out), flag, value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


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

    def test_calls_in_one_process_share_no_values(self, workspace, tmp_path, capsys):
        # The options of one main call must not become the defaults of the
        # next, however the parser is built or kept.
        base = ["eval", "--detections", str(workspace / "dets.json"), "--scenes", str(workspace / "scenes.json")]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main([*base, "--mode", "visible", "--maxdets", "1", "--out-json", str(first)]) == 0
        assert main([*base, "--out-json", str(second)]) == 0
        table = default_table()
        report = evaluate(read_detections(workspace / "dets.json"), read_scenes(workspace / "scenes.json", table), table)
        assert second.read_text() == json.dumps(report_to_dict(report), indent=2, sort_keys=True)
        assert set(json.loads(first.read_text())["pt"]) == {"map", "map_50", "map_75", "per_category"}
        assert main(["eval", "--mode", "nope", *base[1:]]) == 1
        assert main([*base, "--out-json", str(second)]) == 0
        assert second.read_text() == json.dumps(report_to_dict(report), indent=2, sort_keys=True)

    @pytest.mark.parametrize("content,message", [
        (json.dumps([0.05] * 10), "sigmas must hold 294 numbers, got 10"),
        (json.dumps([0.05] * 400), "sigmas must hold 294 numbers, got 400"),
        (json.dumps([0.05] * 293 + [float("nan")]), "sigmas[293] = nan is not a finite number >= 0"),
        (json.dumps([0.05] * 100 + [-1] + [0.05] * 193), "sigmas[100] = -1 is not a finite number >= 0"),
        (json.dumps({"sigmas": [0.05] * 294}), "sigmas must hold 294 numbers, got dict"),
        (json.dumps([0.05] * 293 + ["0.05"]), "sigmas[293] = '0.05' is not a finite number >= 0"),
        (json.dumps([0.05] * 293 + [10**400]), "sigmas[293] = 1" + "0" * 400 + " is not a finite number >= 0"),
        ("[0.05,", "Expecting value"),
    ], ids=["short", "long", "nan", "negative", "object", "string", "huge", "not-json"])
    def test_bad_sigma_file_is_data_error(self, workspace, tmp_path, capsys, content, message):
        sigmas = tmp_path / "sigmas.json"
        sigmas.write_text(content)
        assert main(["eval", "--detections", str(workspace / "dets.json"),
                     "--scenes", str(workspace / "scenes.json"), "--sigmas", str(sigmas)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --sigmas {sigmas}: ") and message in err and err.count("\n") == 1

    def test_sigma_file(self, workspace, tmp_path, capsys):
        sigmas = tmp_path / "sigmas.json"
        # A sigma of 0 is valid: its landmark scores only on an exact match.
        for value in (0.05, 0):
            sigmas.write_text(json.dumps([value] * 294))
            assert main(["eval", "--detections", str(workspace / "dets.json"),
                         "--scenes", str(workspace / "scenes.json"), "--sigmas", str(sigmas)]) == 0
            assert "mAP_pt" in capsys.readouterr().out

    def test_non_integer_category_is_data_error(self, workspace, tmp_path, capsys):
        dets = tmp_path / "dets.json"
        dets.write_text(json.dumps({"detections": [{"image_id": "a", "category_id": [1], "score": 0.5,
                                                    "bbox": [0, 0, 1, 1], "landmarks": []}]}))
        assert main(["eval", "--detections", str(dets), "--scenes", str(workspace / "scenes.json")]) == 2
        err = capsys.readouterr().err
        assert "detections[0].category_id must be an integer" in err
        assert "Traceback" not in err


class TestMends:
    """Inputs that once exited 0 and gave wrong or unreadable output, run through main."""

    @pytest.fixture(scope="class")
    def seed7(self, tmp_path_factory):
        """One synth --seed 7 image, its view and detections, and a copy of its scenes with visibility 3 for 2."""
        root = tmp_path_factory.mktemp("seed7")
        scenes = str(root / "scenes.json")
        assert main(["synth", "--out", scenes, "--images", "1", "--seed", "7"]) == 0
        assert main(["encode", "--scenes", scenes, "--out-dir", str(root / "views")]) == 0
        assert main(["decode", "--tensors", str(root / "views"), "--out", str(root / "dets.json")]) == 0
        doc = json.loads((root / "scenes.json").read_text())
        for item in (item for image in doc["images"] for item in image["items"]):
            item["landmarks"][2::3] = [3 if v == 2 else v for v in item["landmarks"][2::3]]
        (root / "vis3.json").write_text(json.dumps(doc))
        return root

    @pytest.mark.parametrize("case,message", [
        ("encode-visibility-3", r"^error: images\[0\]: item 0 of image 'synth-0007-0000': landmark \d+ has visibility 3, "
                                r"not 0, 1 or 2$"),
        ("eval-visibility-3", r"^error: images\[0\]: item 0 of image 'synth-0007-0000': landmark \d+ has visibility 3, "),
        ("encode-scale-5", r"^error: .*/synth-0007-0000@s5\.dmrk: tensors hold 369049600 values, more than the 268435456 "
                           r"a container may declare$"),
        ("fuse-weights-1e308", None),
    ])
    def test_repro(self, seed7, tmp_path, capsys, case, message):
        view = str(seed7 / "views" / "synth-0007-0000.dmrk")
        out = tmp_path / "out"
        argv = {
            "encode-visibility-3": ["encode", "--scenes", str(seed7 / "vis3.json"), "--out-dir", str(out)],
            "eval-visibility-3": ["eval", "--detections", str(seed7 / "dets.json"), "--scenes", str(seed7 / "vis3.json"),
                                  "--out-json", str(out)],
            "encode-scale-5": ["encode", "--scenes", str(seed7 / "scenes.json"), "--out-dir", str(out), "--scales", "5"],
            "fuse-weights-1e308": ["fuse", "--inputs", view, view, "--weights", "1e308,1e308", "--out", str(out)],
        }[case]
        code = main(argv)
        err = capsys.readouterr().err
        if message is None:
            # Weights whose sum overflows give the shares of equal weights, not an all-zero set.
            plain = tmp_path / "plain.dmrk"
            assert code == 0 and main(["fuse", "--inputs", view, view, "--out", str(plain)]) == 0
            assert out.read_bytes() == plain.read_bytes()
            return
        assert code == 2
        assert err.count("\n") == 1 and re.search(message, err.rstrip("\n"))
        assert not out.exists() or list(out.iterdir()) == []


class TestBenchCommands:
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
        assert "scale 0.75 does not keep image size integral" in capsys.readouterr().err

import hashlib
import json
import re
import warnings

import numpy as np
import pytest

from metapix import arraysim
from metapix.cli import main
from metapix.surrogate import init_mlp, save_checkpoint


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_target_single_freq(capsys):
    code, out, _ = run(capsys, "target", "--freq", "5.8e9")
    assert code == 0
    rows = [l for l in out.splitlines() if "[band]" in l]
    assert len(rows) == 1
    m = re.search(r"re ([-+0-9.]+)\s+im ([-+0-9.]+)", rows[0])
    re_val, im_val = float(m.group(1)), float(m.group(2))
    assert -0.73 <= re_val <= -0.71
    assert 0.00 <= im_val <= 0.02


def test_target_band_row_count(capsys):
    code, out, _ = run(capsys, "target", "--band", "5.3e9:6.3e9")
    assert code == 0
    assert sum("[band]" in l for l in out.splitlines()) == 11


def test_target_anchor_row(capsys):
    code, out, _ = run(capsys, "target", "--freq", "5.8e9",
                       "--anchor", "5.75e9:-0.1:0")
    assert code == 0
    anchors = [l for l in out.splitlines() if "[anchor]" in l]
    assert len(anchors) == 1
    assert anchors[0].startswith("5.7000e+09")
    assert "re -0.100000" in anchors[0]


def test_target_artifact_and_manifest(tmp_path, capsys):
    out = tmp_path / "t.json"
    code, _, _ = run(capsys, "target", "--freq", "5.8e9", "--out", str(out))
    assert code == 0
    manifest = json.loads((tmp_path / "t.json.manifest.json").read_text())
    assert manifest["sha256"] == sha(out)
    assert manifest["command"] == "target"
    assert "version" in manifest

    code, _, err = run(capsys, "target", "--freq", "5.8e9", "--out", str(out))
    assert code == 1
    assert "refusing to overwrite" in err
    code, _, _ = run(capsys, "target", "--freq", "5.8e9", "--out", str(out), "--force")
    assert code == 0


def test_malformed_flags_exit_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["target", "--band", "5e9"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["array", "--steer", "95:0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["design"])  # --target is required
    assert exc.value.code == 2
    capsys.readouterr()


def test_gen_deterministic_across_jobs(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    code, _, _ = run(capsys, "gen", "--n", "66", "--seed", "1",
                     "--outdir", str(a), "--jobs", "1")
    assert code == 0
    code, _, _ = run(capsys, "gen", "--n", "66", "--seed", "1",
                     "--outdir", str(b), "--jobs", "2")
    assert code == 0
    assert sha(a / "dataset.bin") == sha(b / "dataset.bin")
    assert (a / "dataset.bin.manifest.json").read_bytes() == \
        (b / "dataset.bin.manifest.json").read_bytes()

    code, _, err = run(capsys, "gen", "--n", "66", "--seed", "1", "--outdir", str(a))
    assert code == 1
    assert "refusing to overwrite" in err


def test_stats_reads_dataset(tmp_path, capsys):
    run(capsys, "gen", "--n", "44", "--seed", "3", "--outdir", str(tmp_path))
    code, out, _ = run(capsys, "stats", "--data", str(tmp_path / "dataset.bin"))
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 44
    assert "mag_max" in doc


def test_stats_refuses_another_frequency_grid(tmp_path, capsys):
    run(capsys, "gen", "--n", "44", "--seed", "3", "--outdir", str(tmp_path))
    data = tmp_path / "dataset.bin"
    head, body = data.read_bytes().split(b"\n", 1)
    header = json.loads(head) | {"freq_start": 1e9, "freq_step": 0.5e9}
    data.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)
    out = tmp_path / "stats.json"
    for extra in ([], ["--no-fingerprint-check"]):
        code, _, err = run(capsys, "stats", "--data", str(data), "--out", str(out), *extra)
        assert code == 1
        assert _one_error_line(err) and f"{data}: frequency grid" in err
        assert not out.exists()


def test_train_missing_dataset_names_file(tmp_path, capsys):
    code, _, err = run(capsys, "train", "--outdir", str(tmp_path))
    assert code == 1
    assert "missing" in err
    assert str(tmp_path / "dataset.bin") in err


def test_design_missing_checkpoint_names_file(tmp_path, capsys):
    target = tmp_path / "t.json"
    run(capsys, "target", "--freq", "5.8e9", "--out", str(target))
    code, _, err = run(capsys, "design", "--target", str(target),
                       "--outdir", str(tmp_path))
    assert code == 1
    assert "missing" in err
    assert str(tmp_path / "surrogate.ckpt") in err


def test_design_oracle_deterministic(tmp_path, capsys):
    target = tmp_path / "t.json"
    run(capsys, "target", "--freq", "5.8e9", "--out", str(target))
    docs = []
    for name in ("d1.json", "d2.json"):
        code, _, _ = run(capsys, "design", "--target", str(target),
                         "--evaluator", "oracle", "--seed", "7",
                         "--population", "24", "--generations", "4",
                         "--out", str(tmp_path / name), "--outdir", str(tmp_path))
        assert code == 0
        docs.append(json.loads((tmp_path / name).read_text()))
    assert docs[0]["genome"] == docs[1]["genome"]
    assert docs[0]["history_best"] == docs[1]["history_best"]
    assert len(docs[0]["history_best"]) == 5
    assert re.fullmatch(r"[0-9A-F]{16}", docs[0]["genome"])


def test_validate_writes_report_and_pbm(tmp_path, capsys):
    target = tmp_path / "t.json"
    run(capsys, "target", "--freq", "5.8e9", "--out", str(target))
    run(capsys, "design", "--target", str(target), "--evaluator", "oracle",
        "--seed", "7", "--population", "40", "--generations", "8",
        "--outdir", str(tmp_path))
    code, out, _ = run(capsys, "validate", "--design", str(tmp_path / "design.json"),
                       "--target", str(target), "--outdir", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "validation.csv").read_text().splitlines()
    assert len(lines) == 62
    assert lines[0].startswith("f_hz,")
    pbm = (tmp_path / "genome.pbm").read_text().splitlines()
    assert pbm[0] == "P1"
    assert "genome" in out


def test_array_pattern_peak_at_steer(tmp_path, capsys):
    code, out, _ = run(capsys, "array", "--steer", "30:0", "--freq", "5.8e9",
                       "--outdir", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "pattern_phi0.csv").read_text().splitlines()
    assert rows[0] == "theta_deg,power_db"
    data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    peak_angle = data[np.argmax(data[:, 1]), 0]
    assert abs(peak_angle - 30.0) <= 1.5
    assert (tmp_path / "codes.pbm").exists()
    assert (tmp_path / "pattern_phi0.csv.manifest.json").exists()


@pytest.mark.filterwarnings("error")
def test_array_hemisphere_with_no_power_renders_the_floor(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(arraysim, "far_field_gammas",
                        lambda cfg, gammas, f, thetas, phi=0.0: np.zeros(len(thetas), complex))
    code, _, _ = run(capsys, "array", "--hemisphere", "--outdir", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "hemisphere.pgm").read_text().splitlines()
    assert lines[:3] == ["P2", "91 360", "255"]
    assert all(set(row.split()) == {"0"} for row in lines[3:])


def test_array_design_without_genome_is_one_error_line(tmp_path, capsys):
    design = tmp_path / "d.json"
    design.write_text(json.dumps({"fitness": 1.0}))
    code, _, err = run(capsys, "array", "--design", str(design), "--outdir", str(tmp_path))
    assert code == 1
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("genome", ["0x003FC000E00000", "0000_3FC0_00E000", "+0003FC000E00000"])
def test_array_design_with_non_hex_genome_writes_nothing(tmp_path, capsys, genome):
    design = tmp_path / "d.json"
    design.write_text(json.dumps({"genome": genome}))
    out = tmp_path / "o"
    code, _, err = run(capsys, "array", "--design", str(design), "--outdir", str(out))
    assert code == 1
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert f"bad design file {design}" in err
    assert not out.exists() or not any(out.iterdir())


def test_array_design_refuses_off_grid_freq(tmp_path, capsys):
    design = tmp_path / "d.json"
    design.write_text(json.dumps({"genome": "00003FC000E00000"}))
    code, _, err = run(capsys, "array", "--freq", "100e9", "--design", str(design),
                       "--outdir", str(tmp_path))
    assert code == 1
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "off the evaluation grid" in err
    assert not (tmp_path / "codes.pbm").exists()
    # ideal +-1 element states have no grid to leave
    code, _, _ = run(capsys, "array", "--freq", "100e9", "--outdir", str(tmp_path))
    assert code == 0


def test_config_file_overrides_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ga": {"population": 24}, "outdir": str(tmp_path)}))
    code, out, _ = run(capsys, "config", "--config", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["ga"]["population"] == 24
    assert doc["ga"]["generations"] == 300
    assert doc["outdir"] == str(tmp_path)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"ga": {"popsize": 5}}))
    code, _, err = run(capsys, "config", "--config", str(bad))
    assert code == 1
    assert "unknown config key" in err


def _one_error_line(err):
    return err.startswith("error:") and len(err.splitlines()) == 1


def _design_doc():
    return {"genome": "00003FC000E00000", "predicted_re": [0.0] * 61,
            "predicted_im": [0.0] * 61, "history_best": [1.0], "history_median": [0.5]}


@pytest.mark.parametrize("text", [
    "[]",
    json.dumps({"freqs": [5.8e9], "re": [-0.7], "im": [0.0], "weight": [1.0]}),
    pytest.param(json.dumps({"freqs": [9.8e9 + 0.1e9 * k for k in range(61)],
                             "re": [-0.7] * 61, "im": [0.0] * 61, "weight": [1.0] * 61}),
                 id="freqs-7GHz-above-grid"),
])
def test_validate_bad_target_file_is_one_error_line(tmp_path, capsys, text):
    target = tmp_path / "t.json"
    target.write_text(text)
    design = tmp_path / "d.json"
    design.write_text(json.dumps(_design_doc()))
    code, _, err = run(capsys, "validate", "--design", str(design), "--target", str(target),
                       "--outdir", str(tmp_path))
    assert code == 1
    assert _one_error_line(err) and "bad target file" in err


@pytest.mark.parametrize("field, k, value", [
    ("re", 0, float("nan")),  # a don't-care row
    ("re", 30, float("nan")),
    ("weight", 30, float("inf")),
])
def test_design_non_finite_target_is_one_error_line(tmp_path, capsys, field, k, value):
    target = tmp_path / "t.json"
    run(capsys, "target", "--freq", "5.8e9", "--out", str(target))
    doc = json.loads(target.read_text())
    doc[field][k] = value
    target.write_text(json.dumps(doc))
    out = tmp_path / "design.json"
    code, _, err = run(capsys, "design", "--target", str(target), "--evaluator", "oracle",
                       "--population", "8", "--generations", "1", "--out", str(out))
    assert code == 1
    assert _one_error_line(err)
    assert f"bad target file {target}: target {field} must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("predicted_re", "abc"),
    ("predicted_re", [0.1, 0.2]),
    ("predicted_im", [[0.0]] * 61),
    ("predicted_im", [None] * 61),
    ("history_best", 3.0),
    ("history_median", {"a": 1}),
])
def test_validate_bad_design_fields_are_one_error_line(tmp_path, capsys, field, value):
    target = tmp_path / "t.json"
    run(capsys, "target", "--freq", "5.8e9", "--out", str(target))
    doc = _design_doc()
    doc[field] = value
    design = tmp_path / "d.json"
    design.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", "--design", str(design), "--target", str(target),
                       "--outdir", str(tmp_path))
    assert code == 1
    assert _one_error_line(err)
    assert f"bad design file {design}: {field}" in err
    assert not (tmp_path / "validation.csv").exists()


def test_array_sweep_without_design_writes_nothing(tmp_path, capsys):
    out = tmp_path / "o"
    code, _, err = run(capsys, "array", "--sweep", "--outdir", str(out))
    assert code == 1
    assert _one_error_line(err) and "--sweep needs --design" in err
    assert not out.exists() or not any(out.iterdir())


def test_design_checkpoint_without_sizes_is_one_error_line(tmp_path, capsys):
    target = tmp_path / "t.json"
    run(capsys, "target", "--freq", "5.8e9", "--out", str(target))
    ckpt = tmp_path / "net.ckpt"
    ckpt.write_bytes(b'{"format": "mlp-f64", "version": 1}\n' + b"\x00" * 16)
    code, _, err = run(capsys, "design", "--target", str(target), "--ckpt", str(ckpt),
                       "--outdir", str(tmp_path))
    assert code == 1
    assert _one_error_line(err) and "sizes" in err


@pytest.mark.parametrize("sizes", [(64, 4, 100), (10, 4, 122), (64, 122, 4)])
def test_design_checkpoint_of_wrong_width_is_one_error_line(tmp_path, capsys, sizes):
    target = tmp_path / "t.json"
    run(capsys, "target", "--freq", "5.8e9", "--out", str(target))
    ckpt = tmp_path / "net.ckpt"
    save_checkpoint(ckpt, init_mlp(1, sizes[1:-1], n_in=sizes[0], n_out=sizes[-1]))
    out = tmp_path / "d.json"
    code, _, err = run(capsys, "design", "--target", str(target), "--ckpt", str(ckpt),
                       "--population", "8", "--generations", "1", "--out", str(out))
    assert code == 1
    assert _one_error_line(err) and f"checkpoint {ckpt} maps {sizes[0]} to {sizes[-1]}" in err
    assert not out.exists()


@pytest.mark.parametrize("branch", [
    {"state1": {"c": 0.0}},
    {"state1": {"l": 0.0, "c": -1e-13}},
    {"state0": {"r": -1.0}},
])
def test_target_refuses_an_unphysical_switch_branch(tmp_path, capsys, branch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"switch": branch}))
    out = tmp_path / "target.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "target", "--freq", "5.8e9", "--config", str(cfg),
                           "--out", str(out))
    assert code == 1
    assert _one_error_line(err) and "switch branch" in err
    assert not out.exists()


@pytest.mark.parametrize("epochs", ["0", "-1"])
def test_train_refuses_nonpositive_epochs(tmp_path, capsys, epochs):
    run(capsys, "gen", "--n", "44", "--seed", "3", "--outdir", str(tmp_path))
    before = sorted(p.name for p in tmp_path.iterdir())
    code, _, err = run(capsys, "train", "--epochs", epochs, "--outdir", str(tmp_path))
    assert code == 1
    assert _one_error_line(err) and "epoch" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_gen_refuses_jobs_below_one(tmp_path, capsys, jobs):
    code, _, err = run(capsys, "gen", "--n", "44", "--jobs", jobs, "--outdir", str(tmp_path))
    assert code == 1
    assert _one_error_line(err) and "--jobs" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("n", ["0", "-5"])
def test_gen_refuses_n_below_one_and_creates_no_outdir(tmp_path, capsys, n):
    outdir = tmp_path / "g0"
    code, _, err = run(capsys, "gen", "--n", n, "--outdir", str(outdir))
    assert code == 1
    assert _one_error_line(err) and "--n" in err
    assert not outdir.exists()


def test_validate_writes_nothing_when_an_output_exists(tmp_path, capsys):
    target = tmp_path / "t.json"
    run(capsys, "target", "--freq", "5.8e9", "--out", str(target))
    design = tmp_path / "d.json"
    design.write_text(json.dumps(_design_doc()))
    out = tmp_path / "out"
    out.mkdir()
    (out / "genome.pbm").write_text("P1\n")
    code, _, err = run(capsys, "validate", "--design", str(design), "--target", str(target),
                       "--outdir", str(out))
    assert code == 1
    assert _one_error_line(err) and "genome.pbm" in err
    assert [p.name for p in out.iterdir()] == ["genome.pbm"]


def test_array_writes_nothing_when_an_output_exists(tmp_path, capsys):
    (tmp_path / "codes.pbm").write_text("P1\n")
    code, _, err = run(capsys, "array", "--steer", "30:0", "--outdir", str(tmp_path))
    assert code == 1
    assert _one_error_line(err) and "codes.pbm" in err
    assert [p.name for p in tmp_path.iterdir()] == ["codes.pbm"]


@pytest.mark.parametrize("flag, value", [
    ("--step", "0"), ("--step", "-1"), ("--step", "nan"), ("--step", "inf"),
    ("--step", "1e-9"), ("--step", "91"),
    ("--ref-phase", "nan"), ("--ref-phase", "inf"), ("--ref-phase", "-inf"),
])
def test_array_bad_number_is_one_error_line_and_writes_nothing(tmp_path, capsys, flag, value):
    out = tmp_path / "o"
    code, _, err = run(capsys, "array", f"{flag}={value}", "--outdir", str(out))
    assert code == 1
    assert _one_error_line(err) and flag in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("array", "--freq", "nan"),
    ("array", "--freq", "inf"),
    ("target", "--freq", "nan"),
    ("target", "--freq", "inf"),
    ("target", "--band", "nan:6.3e9"),
    ("target", "--band", "5.3e9:inf"),
    ("target", "--band", "5.3e9:6.3e9", "--anchor", "5.0e9:nan:0"),
    ("target", "--band", "5.3e9:6.3e9", "--anchor", "nan:-0.1:0"),
    ("target", "--band", "5.3e9:6.3e9", "--anchor", "5.0e9:-0.1:inf"),
])
def test_non_finite_flag_values_are_refused(tmp_path, capsys, argv):
    extra = ["--out", str(tmp_path / "t.json")] if argv[0] == "target" else []
    with pytest.raises(SystemExit) as exc:
        main(list(argv) + extra + ["--outdir", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())

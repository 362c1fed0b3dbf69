import hashlib
import json
import re
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from metapix import arraysim, cli, dataset, inverse, surrogate
from metapix.cli import main
from metapix.pattern import render_pbm, unpack_genome
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


def test_target_refuses_two_anchors_on_one_grid_row_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "t.json"
    code, stdout, err = run(capsys, "target", "--band", "5.3e9:6.3e9", "--anchor", "5.0e9:-0.1:0",
                            "--anchor", "5.04e9:0.3:0.2", "--out", str(out))
    assert code == 1 and stdout == ""
    assert _one_error_line(err) and "already anchored grid frequency" in err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("jobs", [1, 2])
def test_gen_manifest_holds_the_sha256_of_the_file_it_wrote(tmp_path, capsys, jobs):
    """gen hashes its blocks as it writes them; the last block is partial."""
    n = 2 * jobs * dataset.BLOCK + 100
    code, _, _ = run(capsys, "gen", "--n", str(n), "--seed", "8", "--jobs", str(jobs),
                     "--outdir", str(tmp_path))
    assert code == 0
    data = tmp_path / "dataset.bin"
    manifest = json.loads((tmp_path / "dataset.bin.manifest.json").read_text())
    assert manifest["sha256"] == sha(data)
    whole = tmp_path / "whole.bin"
    dataset.save(str(whole), n, 8)
    assert data.read_bytes() == whole.read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
def test_gen_fills_every_window_on_one_pool(tmp_path, capsys, monkeypatch, pin_cpus, jobs):
    """A gen that goes round its ring of jobs + 1 block buffers three times
    fills every block on the threads of one pool of `--jobs` threads, never
    on the calling thread, which only writes."""
    fill, threads = dataset._fill, set()

    def recording_fill(*args):
        threads.add(threading.current_thread())
        fill(*args)

    monkeypatch.setattr(dataset, "_fill", recording_fill)
    pin_cpus(jobs)
    n = 3 * (jobs + 1) * dataset.BLOCK + 1  # three full rings and a one-record block
    code, _, _ = run(capsys, "gen", "--n", str(n), "--jobs", str(jobs), "--outdir", str(tmp_path))
    assert code == 0
    # a pool's threads are named <pool name>_<thread number>
    assert len({t.name.rsplit("_", 1)[0] for t in threads}) == 1
    assert threading.current_thread() not in threads and len(threads) <= jobs


def test_gen_fills_on_no_more_threads_than_the_cpus_it_may_run_on(tmp_path, capsys,
                                                                  monkeypatch, pin_cpus):
    fill, threads = dataset._fill, set()

    def recording_fill(*args):
        threads.add(threading.current_thread())
        fill(*args)

    monkeypatch.setattr(dataset, "_fill", recording_fill)
    pin_cpus(2)
    n = str(5 * dataset.BLOCK + 1)
    for jobs in ("64", "1"):
        code, _, _ = run(capsys, "gen", "--n", n, "--jobs", jobs, "--out", str(tmp_path / jobs))
        assert code == 0
        if jobs == "64":
            assert len(threads) == 2 and threading.current_thread() not in threads
    assert (tmp_path / "64").read_bytes() == (tmp_path / "1").read_bytes()


def _fail_in_window_two(monkeypatch, jobs):
    """Make every block from counter jobs * BLOCK on raise."""
    fill = dataset._fill

    def failing_fill(part, seed, start, consts, geom):
        if start >= jobs * dataset.BLOCK:
            raise ValueError("chunk failed")
        fill(part, seed, start, consts, geom)

    monkeypatch.setattr(dataset, "_fill", failing_fill)
    return "chunk failed"


def _fail_in_the_writer(monkeypatch, jobs):
    """Make gen's second block write fail, as on a full disk; gen writes on
    its calling thread."""
    main_thread = threading.current_thread()

    class FullDisk:
        def __init__(self, path, mode):
            self.fh = open(path, mode)
            self.writes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            assert threading.current_thread() is main_thread
            self.writes += 1
            if self.writes == 3:
                raise OSError(28, "No space left on device")
            return self.fh.write(data)

    monkeypatch.setattr(dataset, "open", FullDisk, raising=False)
    return "No space left on device"


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("fail", [_fail_in_window_two, _fail_in_the_writer])
def test_gen_failure_mid_stream_publishes_nothing_and_joins_its_threads(
        tmp_path, capsys, monkeypatch, pin_cpus, fail, jobs):
    message = fail(monkeypatch, jobs)
    pin_cpus(jobs)
    threads = threading.active_count()
    code, _, err = run(capsys, "gen", "--n", str(3 * jobs * dataset.BLOCK), "--jobs", str(jobs),
                       "--outdir", str(tmp_path / "out"))
    assert code == 1
    assert _one_error_line(err) and message in err
    assert list(tmp_path.iterdir()) == []
    assert threading.active_count() == threads


def test_gen_writes_blocks_that_finish_out_of_order_in_counter_order(tmp_path, capsys,
                                                                      monkeypatch, pin_cpus):
    """Block 0 finishes only after block 1 has, yet `--jobs 2` writes the
    bytes and manifest of `--jobs 1`."""
    n = str(3 * dataset.BLOCK + 5)
    code, _, _ = run(capsys, "gen", "--n", n, "--seed", "4", "--jobs", "1",
                     "--outdir", str(tmp_path / "a"))
    assert code == 0
    fill, second_done, waited = dataset._fill, threading.Event(), []

    def late_first_block(part, seed, start, consts, geom):
        if start == 0:
            waited.append(second_done.wait(timeout=30))
        fill(part, seed, start, consts, geom)
        if start == dataset.BLOCK:
            second_done.set()

    monkeypatch.setattr(dataset, "_fill", late_first_block)
    pin_cpus(2)
    code, _, _ = run(capsys, "gen", "--n", n, "--seed", "4", "--jobs", "2",
                     "--outdir", str(tmp_path / "b"))
    assert code == 0 and waited == [True]
    assert sha(tmp_path / "a" / "dataset.bin") == sha(tmp_path / "b" / "dataset.bin")
    manifests = [json.loads((tmp_path / d / "dataset.bin.manifest.json").read_text())
                 for d in "ab"]
    assert manifests[0]["sha256"] == manifests[1]["sha256"] == sha(tmp_path / "a" / "dataset.bin")


def test_stats_names_a_non_finite_record_of_a_later_block(tmp_path, capsys):
    run(capsys, "gen", "--n", str(2 * dataset.BLOCK + 9), "--seed", "3",
        "--outdir", str(tmp_path))
    data = tmp_path / "dataset.bin"
    blob = bytearray(data.read_bytes())
    bad = dataset.BLOCK + 5
    offset = blob.index(b"\n") + 1 + bad * dataset.RECORD_DTYPE.itemsize + 8 + 8 * 17
    blob[offset:offset + 8] = np.array([np.inf]).tobytes()
    data.write_bytes(bytes(blob))
    before = sorted(tmp_path.iterdir())
    code, out, err = run(capsys, "stats", "--data", str(data), "--out", str(tmp_path / "s.json"))
    assert code == 1 and out == ""
    assert _one_error_line(err) and f"{data}: record {bad} holds a non-finite response" in err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["gen", "design", "validate"])
def test_a_non_finite_oracle_response_is_one_error_line_and_writes_nothing(tmp_path, capsys,
                                                                          command):
    """A reactance that overflows makes the spectra NaN; every command that
    runs the oracle refuses them, without a floating-point warning."""
    target = tmp_path / "t.json"
    run(capsys, "target", "--freq", "5.8e9", "--out", str(target))
    design = tmp_path / "d.json"
    design.write_text(json.dumps(_design_doc()))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"constants": {"l_lead": 1e308}}))
    before = sorted(tmp_path.iterdir())
    argv = {"gen": ["gen", "--n", "50"],
            "design": ["design", "--evaluator", "oracle", "--target", str(target),
                       "--population", "8", "--generations", "1"],
            "validate": ["validate", "--design", str(design), "--target", str(target)]}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv, "--config", str(cfg), "--outdir", str(tmp_path))
    assert code == 1 and out == ""
    assert _one_error_line(err) and "oracle response is not finite under" in err
    assert "l_lead=1e+308" in err
    assert sorted(tmp_path.iterdir()) == before


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


@pytest.mark.parametrize("field, value", [("n", 16.0), ("seed", "x"), ("n", "16")])
def test_stats_refuses_header_field_of_wrong_type(tmp_path, capsys, field, value):
    run(capsys, "gen", "--n", "16", "--seed", "3", "--outdir", str(tmp_path))
    data = tmp_path / "dataset.bin"
    head, body = data.read_bytes().split(b"\n", 1)
    header = json.loads(head) | {field: value}
    data.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)
    out = tmp_path / "stats.json"
    code, _, err = run(capsys, "stats", "--data", str(data), "--out", str(out))
    assert code == 1
    assert _one_error_line(err) and f"{data}: dataset header field {field}" in err
    assert not out.exists() and not (tmp_path / "stats.json.manifest.json").exists()


def test_train_missing_dataset_names_file(tmp_path, capsys):
    code, _, err = run(capsys, "train", "--outdir", str(tmp_path))
    assert code == 1
    assert "missing" in err
    assert str(tmp_path / "dataset.bin") in err


def test_train_names_a_non_finite_record_and_writes_nothing(tmp_path, capsys):
    run(capsys, "gen", "--n", str(dataset.BLOCK + 20), "--seed", "3", "--outdir", str(tmp_path))
    data = tmp_path / "dataset.bin"
    blob = bytearray(data.read_bytes())
    bad = dataset.BLOCK + 11  # a validation record of the second block
    offset = blob.index(b"\n") + 1 + bad * dataset.RECORD_DTYPE.itemsize + 8 + 8 * 40
    blob[offset:offset + 8] = np.array([np.nan]).tobytes()
    data.write_bytes(bytes(blob))
    before = sorted(tmp_path.iterdir())
    code, out, err = run(capsys, "train", "--epochs", "1", "--outdir", str(tmp_path))
    assert code == 1 and out == ""
    assert _one_error_line(err) and f"{data}: record {bad} holds a non-finite response" in err
    assert sorted(tmp_path.iterdir()) == before


def test_train_refuses_a_diverged_network_and_writes_nothing(tmp_path, capsys):
    run(capsys, "gen", "--n", "200", "--seed", "3", "--outdir", str(tmp_path))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"lr0": 1e300}}))
    before = sorted(tmp_path.iterdir())
    code, out, err = run(capsys, "train", "--epochs", "3", "--config", str(cfg),
                         "--outdir", str(tmp_path))
    assert code == 1 and out == ""
    assert _one_error_line(err) and "training diverged at epoch 1" in err
    assert sorted(tmp_path.iterdir()) == before


def test_train_refuses_a_dataset_too_small_to_split(tmp_path, capsys):
    run(capsys, "gen", "--n", "1", "--seed", "3", "--outdir", str(tmp_path))
    before = sorted(tmp_path.iterdir())
    code, out, err = run(capsys, "train", "--epochs", "1", "--outdir", str(tmp_path))
    assert code == 1 and out == ""
    assert _one_error_line(err) and "cannot split 1 records 10/11" in err
    assert sorted(tmp_path.iterdir()) == before


def test_design_missing_checkpoint_names_file(tmp_path, capsys):
    target = tmp_path / "t.json"
    run(capsys, "target", "--freq", "5.8e9", "--out", str(target))
    code, _, err = run(capsys, "design", "--target", str(target),
                       "--outdir", str(tmp_path))
    assert code == 1
    assert "missing" in err
    assert str(tmp_path / "surrogate.ckpt") in err


def test_design_refuses_a_surrogate_that_predicts_non_finite_values(tmp_path, capsys):
    target = tmp_path / "t.json"
    run(capsys, "target", "--freq", "5.8e9", "--out", str(target))
    ckpt = tmp_path / "big.ckpt"
    mlp = init_mlp(0, (16,))
    mlp.params[:] = 1e200  # the hidden layer holds 6.4e201, the output overflows
    save_checkpoint(ckpt, mlp)
    before = sorted(tmp_path.iterdir())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "design", "--target", str(target), "--ckpt", str(ckpt),
                             "--population", "8", "--generations", "1",
                             "--outdir", str(tmp_path))
    assert code == 1 and out == ""
    assert _one_error_line(err)
    assert f"checkpoint {ckpt}: the surrogate predicts a non-finite response" in err
    assert sorted(tmp_path.iterdir()) == before


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


def test_validate_prints_the_oracle_and_predicted_target_errors(tmp_path, capsys):
    """After the band lines, validate prints the target error of the oracle
    response at the winner and of the design's prediction: equal for an
    oracle design, apart for a design that an untrained surrogate predicted."""
    target = tmp_path / "t.json"
    run(capsys, "target", "--band", "5.3e9:6.3e9", "--out", str(target))
    ckpt = tmp_path / "net.ckpt"
    save_checkpoint(ckpt, init_mlp(1, (4,)))
    errors = {}
    for evaluator in ("oracle", "surrogate"):
        design = tmp_path / f"{evaluator}.json"
        code, _, _ = run(capsys, "design", "--target", str(target), "--evaluator", evaluator,
                         "--ckpt", str(ckpt), "--population", "8", "--generations", "1",
                         "--out", str(design), "--outdir", str(tmp_path))
        assert code == 0
        code, out, _ = run(capsys, "validate", "--design", str(design), "--target",
                           str(target), "--outdir", str(tmp_path / evaluator))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("genome ") and lines[1].startswith("operating band ")
        at = next(k for k in range(1, len(lines)) if not lines[k].startswith("operating band "))
        assert re.fullmatch(r"oracle target error \d+\.\d{6}", lines[at])
        assert re.fullmatch(r"predicted target error \d+\.\d{6}", lines[at + 1])
        assert lines[at + 2].startswith("final fitness ")
        errors[evaluator] = [float(line.split()[-1]) for line in lines[at:at + 2]]
    assert errors["oracle"][0] == errors["oracle"][1]
    assert errors["surrogate"][0] != errors["surrogate"][1]


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


def test_array_writes_codes_for_a_non_square_array(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"array": {"n_x": 20, "n_y": 12}}))
    code, _, err = run(capsys, "array", "--steer", "30:0", "--config", str(cfg),
                       "--outdir", str(tmp_path))
    assert code == 0 and err == ""
    lines = (tmp_path / "codes.pbm").read_text().splitlines()
    assert lines[:2] == ["P1", "20 12"]
    assert len(lines) == 14 and all(len(row.split()) == 20 for row in lines[2:])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("array, flags", [
    ({"spacing": 1e308}, ["--design", "d.json", "--sweep"]),
    ({"spacing": 1e100}, ["--freq", "1e300"]),
    ({"feed_xyz": [0, 0, 1e200]}, []),
], ids=["spacing-1e308-sweep", "spacing-1e100-freq-1e300", "feed-1e200"])
def test_array_refuses_a_far_field_that_is_not_finite(tmp_path, capsys, monkeypatch,
                                                      array, flags):
    monkeypatch.chdir(tmp_path)
    Path("d.json").write_text(json.dumps(_design_doc()))
    Path("cfg.json").write_text(json.dumps({"array": array}))
    code, stdout, err = run(capsys, "array", "--steer", "30:0", "--config", "cfg.json",
                            "--outdir", "o", *flags)
    assert code == 1 and stdout == ""
    assert _one_error_line(err) and "overflow" in err
    assert not Path("o").exists()


@pytest.mark.filterwarnings("error")
def test_array_hemisphere_with_no_power_renders_the_floor(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(arraysim, "far_field_gammas",
                        lambda cfg, gammas, f, thetas, phi=0.0:
                        np.zeros(np.broadcast_shapes(np.shape(thetas), np.shape(phi)), complex))
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


def test_array_design_refuses_a_freq_between_grid_rows(tmp_path, capsys):
    """The element's states are known on the grid only: 5.86 GHz is not
    answered with 5.9 GHz's, while a grid frequency within 1 Hz is taken."""
    design = tmp_path / "d.json"
    design.write_text(json.dumps({"genome": "00003FC000E00000"}))
    out = tmp_path / "o"
    code, _, err = run(capsys, "array", "--freq", "5.86e9", "--design", str(design),
                       "--outdir", str(out))
    assert code == 1 and _one_error_line(err)
    assert "5860000000.0 Hz is not a grid frequency (nearest 5900000000.0 Hz)" in err
    assert not out.exists() or not any(out.iterdir())
    for freq, d in (("5.9e9", "a"), ("5900000001", "b")):
        code, _, _ = run(capsys, "array", "--freq", freq, "--design", str(design),
                         "--outdir", str(tmp_path / d))
        assert code == 0
    params = [json.loads((tmp_path / d / "codes.pbm.manifest.json").read_text())["params"]
              for d in "ab"]
    assert [(p["gamma0"], p["gamma1"]) for p in params] == \
        [(params[0]["gamma0"], params[0]["gamma1"])] * 2
    # without --design the ideal +-1 states hold at any frequency
    code, _, _ = run(capsys, "array", "--freq", "5.86e9", "--outdir", str(out))
    assert code == 0


@pytest.mark.parametrize("freq, config", [("6.0e9", {}), ("8.8e9", {"geometry": {"f0": 9.5e9}})],
                         ids=["freq-6GHz", "freq-8.8GHz-f0-9.5GHz"])
def test_array_sweep_freezes_the_codes_it_writes(tmp_path, capsys, freq, config):
    """sweep.csv comes from the coding matrix that codes.pbm holds, computed
    at --freq whatever the geometry's f0, and its band is taken around --freq."""
    genome = "00003FC000E00000"
    design = tmp_path / "d.json"
    design.write_text(json.dumps({"genome": genome}))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    code, stdout, _ = run(capsys, "array", "--design", str(design), "--sweep", "--steer", "30:0",
                          "--freq", freq, "--config", str(cfg), "--outdir", str(out))
    assert code == 0
    f = float(freq)
    acfg, steer = arraysim.ArrayConfig(), arraysim.SteerTarget(30.0, 0.0)
    codes = arraysim.quantize_1bit(arraysim.ideal_phase(acfg, steer, f, 0.0))
    f0 = config.get("geometry", {}).get("f0", 5.8e9)
    assert (codes != arraysim.quantize_1bit(arraysim.ideal_phase(acfg, steer, f0, 0.0))).any()
    assert (out / "codes.pbm").read_text() == render_pbm(codes)
    report = inverse.validate_design(unpack_genome(genome))
    want = arraysim.spectral_power_sweep(acfg, report.freqs, report.gamma1_state0,
                                         report.gamma1_state1, steer, f0=f)
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    np.testing.assert_allclose([float(r.split(",")[1]) for r in rows], want.power_db, atol=5e-7)
    if want.band is None:
        assert f"no 3-dB band around {f:.3e} Hz" in stdout
    else:
        assert want.band[0] <= f <= want.band[1]
        assert f"3-dB band {want.band[0]:.3e}..{want.band[1]:.3e} Hz" in stdout


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
    assert (f"bad target file {target}: target {field}[{k}] expects float, "
            f"got {json.dumps(value)}") in err
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


@pytest.mark.parametrize("edit, where", [
    (lambda t: t | {"re": [str(v) for v in t["re"]], "weight": [w > 0 for w in t["weight"]]},
     "target re[0] expects float, got \"0.0\""),
    (lambda t: t | {"weight": [w > 0 for w in t["weight"]]}, "target weight[0] expects float"),
    (lambda t: t | {"re": [[v] for v in t["re"]]}, "target re[0] expects float, got [0.0]"),
    (lambda t: t | {"weight": [1e308 * w for w in t["weight"]]},
     "target weight sum must be finite"),
], ids=["strings-and-bools", "bool-weights", "nested-re", "weight-sum-overflows"])
@pytest.mark.parametrize("command", ["design", "validate"])
def test_mistyped_target_is_one_error_line_and_writes_nothing(tmp_path, capsys, command,
                                                              edit, where):
    target = tmp_path / "t.json"
    run(capsys, "target", "--band", "5.3e9:6.3e9", "--out", str(target))
    target.write_text(json.dumps(edit(json.loads(target.read_text()))))
    design = tmp_path / "d.json"
    design.write_text(json.dumps(_design_doc()))
    before = sorted(tmp_path.iterdir())
    argv = {"design": ["design", "--evaluator", "oracle", "--population", "8",
                       "--generations", "1"],
            "validate": ["validate", "--design", str(design)]}[command]
    code, _, err = run(capsys, *argv, "--target", str(target), "--outdir", str(tmp_path))
    assert code == 1
    assert _one_error_line(err) and f"bad target file {target}: {where}" in err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("field, value, where", [
    ("predicted_re", [str(v) for v in [0.0] * 61], "predicted_re[0] expects float"),
    ("history_best", [True, False], "history_best[0] expects float, got true"),
    ("history_median", [float("nan")], "history_median[0] expects float, got NaN"),
    ("predicted_im", None, "predicted_im is missing"),
])
def test_validate_refuses_mistyped_design_values(tmp_path, capsys, field, value, where):
    target = tmp_path / "t.json"
    run(capsys, "target", "--freq", "5.8e9", "--out", str(target))
    doc = _design_doc() | {field: value}
    if value is None:
        del doc[field]
    design = tmp_path / "d.json"
    design.write_text(json.dumps(doc))
    before = sorted(tmp_path.iterdir())
    code, out, err = run(capsys, "validate", "--design", str(design), "--target", str(target),
                         "--outdir", str(tmp_path))
    assert code == 1 and "final fitness" not in out
    assert _one_error_line(err) and f"bad design file {design}: {where}" in err
    assert sorted(tmp_path.iterdir()) == before


def test_array_design_reads_only_the_genome(tmp_path, capsys):
    design = tmp_path / "d.json"
    design.write_text(json.dumps({"genome": "00003FC000E00000", "predicted_re": "unread"}))
    code, _, _ = run(capsys, "array", "--design", str(design), "--outdir", str(tmp_path / "o"))
    assert code == 0


@pytest.mark.parametrize("edit, where", [
    ({"version": 99}, "checkpoint version 99 is not 1"),
    ({"meta": [1, 2]}, "checkpoint header field meta expects dict, got [1, 2]"),
    ({"version": 99, "meta": [1, 2]}, "checkpoint header field meta"),
    ({"version": "1"}, "checkpoint header field version expects int"),
])
def test_design_refuses_checkpoint_of_another_version(tmp_path, capsys, edit, where):
    target = tmp_path / "t.json"
    run(capsys, "target", "--freq", "5.8e9", "--out", str(target))
    ckpt = tmp_path / "net.ckpt"
    save_checkpoint(ckpt, init_mlp(1, (4,)))
    header, body = ckpt.read_bytes().split(b"\n", 1)
    ckpt.write_bytes(json.dumps(json.loads(header) | edit).encode() + b"\n" + body)
    before = sorted(tmp_path.iterdir())
    code, _, err = run(capsys, "design", "--target", str(target), "--ckpt", str(ckpt),
                       "--population", "8", "--generations", "1", "--outdir", str(tmp_path))
    assert code == 1
    assert _one_error_line(err) and f"{ckpt}: {where}" in err
    assert sorted(tmp_path.iterdir()) == before


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


@pytest.mark.parametrize("argv, config", [
    (["gen", "--n", "5", "--seed", "-1"], None),
    (["gen", "--n", "5", "--seed", str(1 << 64)], None),
    (["gen", "--n", "5"], {"dataset_seed": -1}),
    (["design", "--target", "t.json", "--evaluator", "oracle", "--population", "8", "--generations", "1", "--seed", "99999999999999999999999"], None),
    (["design", "--target", "t.json", "--evaluator", "oracle", "--population", "8", "--generations", "1"], {"ga": {"seed": -1}}),
    (["train", "--data", "data.bin", "--epochs", "1"], {"train": {"seed": 1 << 64}}),
], ids=["gen-flag-negative", "gen-flag-2**64", "gen-config", "design-flag", "design-config",
        "train-config"])
def test_seed_outside_u64_is_one_error_line_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                               argv, config):
    """A seed is refused rather than folded mod 2**64, where -1 and 2**64 - 1
    would write the same records under different headers."""
    monkeypatch.chdir(tmp_path)
    run(capsys, "target", "--freq", "5.8e9", "--out", "t.json")
    run(capsys, "gen", "--n", "44", "--out", "data.bin")
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [*argv, "--config", "cfg.json"]
    before = sorted(tmp_path.iterdir())
    code, _, err = run(capsys, *argv, "--outdir", "out")
    assert code == 1
    assert _one_error_line(err) and "lies outside [0, 2**64)" in err
    assert sorted(tmp_path.iterdir()) == before


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
    ("array", "--steer", "nan:0"),
    ("array", "--steer", "30:inf"),
])
def test_non_finite_flag_values_are_refused(tmp_path, capsys, argv):
    extra = ["--out", str(tmp_path / "t.json")] if argv[0] == "target" else []
    with pytest.raises(SystemExit) as exc:
        main(list(argv) + extra + ["--outdir", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_a_refused_allocation_is_one_error_line_and_writes_nothing(tmp_path, capsys,
                                                                  monkeypatch):
    target = tmp_path / "t.json"
    run(capsys, "target", "--freq", "5.8e9", "--out", str(target))

    def ga_run(cfg, evaluator):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                          "(10000000000,) and data type uint64")

    monkeypatch.setattr(inverse, "ga_run", ga_run)
    out = tmp_path / "o"
    code, stdout, err = run(capsys, "design", "--target", str(target), "--evaluator", "oracle",
                            "--population", "10000000000", "--outdir", str(out))
    assert code == 1 and stdout == ""
    assert _one_error_line(err) and "Unable to allocate 74.5 GiB" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, config, message", [
    (["train"], {}, "missing dataset artifact"),
    (["design", "--target", "t.json"], {}, "missing surrogate checkpoint"),
    (["array", "--design", "bad.json"], {}, "bad design file bad.json"),
    (["design", "--target", "t.json", "--evaluator", "oracle"], {"ga": {"tournament": 0}},
     "tournament must be at least 1, got 0"),
    (["design", "--target", "t.json", "--evaluator", "oracle", "--generations", "-1"], {},
     "generations must be nonnegative, got -1"),
    (["train"], {"train": {"patience": 0}}, "patience must be at least 1, got 0"),
    (["train"], {"train": {"lr_drops": -1}}, "lr_drops must be nonnegative, got -1"),
], ids=["train-without-dataset", "design-without-checkpoint", "array-design-without-genome",
        "tournament-0", "generations-flag-negative", "patience-0", "lr_drops-negative"])
def test_input_error_creates_no_outdir(tmp_path, capsys, monkeypatch, argv, config, message):
    monkeypatch.chdir(tmp_path)
    run(capsys, "target", "--freq", "5.8e9", "--out", "t.json")
    (tmp_path / "bad.json").write_text("{}")
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    code, _, err = run(capsys, *argv, "--config", "cfg.json", "--outdir", "o")
    assert code == 1
    assert _one_error_line(err) and message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, message", [
    (["target", "--freq", "5.8e9", "--out", "dd", "--force"], "output is a directory: dd"),
    (["train", "--data", "data.bin", "--out", "ck2", "--history", "dd", "--force"],
     "output is a directory: dd"),
    (["array", "--outdir", "afile"], "not a directory: afile"),
    (["train", "--data", "data.bin", "--out", "same", "--history", "same"], "the same file"),
], ids=["target-out-is-a-directory", "train-history-is-a-directory",
        "array-outdir-is-a-file", "train-outputs-share-a-path"])
def test_bad_output_path_is_one_error_line_and_adds_no_file(tmp_path, capsys, monkeypatch,
                                                             argv, message):
    monkeypatch.chdir(tmp_path)
    run(capsys, "gen", "--n", "44", "--seed", "3", "--out", "data.bin")
    (tmp_path / "dd").mkdir()
    (tmp_path / "afile").write_text("")
    before = sorted(tmp_path.rglob("*"))
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert _one_error_line(err) and message in err
    assert sorted(tmp_path.rglob("*")) == before


def test_write_error_after_staging_publishes_nothing(tmp_path, capsys, monkeypatch):
    def save_history(path, history):
        open(path, "w").close()
        raise PermissionError(13, "Permission denied", str(path))

    run(capsys, "gen", "--n", "44", "--seed", "3", "--out", str(tmp_path / "data.bin"))
    monkeypatch.setattr(surrogate, "save_history", save_history)
    code, _, err = run(capsys, "train", "--data", str(tmp_path / "data.bin"), "--epochs", "1",
                       "--outdir", str(tmp_path / "new" / "deep"))
    assert code == 1
    assert _one_error_line(err) and "Permission denied" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.bin", "data.bin.manifest.json"]


@pytest.mark.parametrize("argv", [["stats", "--out", "out/stats.json"],
                                  ["train", "--epochs", "1", "--outdir", "out"]])
def test_input_hash_error_publishes_nothing_and_joins_the_thread(tmp_path, capsys, monkeypatch,
                                                                 argv):
    """The inputs are hashed on a worker thread beside the work; a read error
    there, raised once the work has staged its outputs, ends the command in
    one error line with nothing published, and the thread is joined."""
    monkeypatch.chdir(tmp_path)
    run(capsys, "gen", "--n", "44", "--seed", "3", "--out", "data.bin")
    sha256 = cli._sha256

    def failing_sha256(path):
        if path.name != "data.bin":
            return sha256(path)
        deadline = time.monotonic() + 60
        while not list(tmp_path.glob("out/*.tmp.*")) and time.monotonic() < deadline:
            time.sleep(0.005)
        raise OSError(5, "Input/output error", str(path))

    monkeypatch.setattr(cli, "_sha256", failing_sha256)
    threads = threading.active_count()
    code, _, err = run(capsys, *argv, "--data", "data.bin")
    assert code == 1
    assert _one_error_line(err) and "Input/output error" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.bin", "data.bin.manifest.json"]
    assert threading.active_count() == threads


# sha256 of all 26 files (13 artifacts, 13 manifests) the chain below writes;
# a moved byte in any artifact or manifest fails here
GOLDEN_CHAIN = {
    "codes.pbm": "e0acc4c6ddf402eabc1833c0f55fcf645eab8984a8df5acb83377bd0b44f6855",
    "codes.pbm.manifest.json": "1c80f89705a9373c7acf7f0b00b0f12bed97b887f95be6464ce98345a69a7f7c",
    "dataset.bin": "da5121ccb7e4c8fc16af21f8377169194c93256f0d862f0617027842a157e779",
    "dataset.bin.manifest.json": "53b41f7738a0153bac845f63334d9db88e712832b73a5daa7151084daf45a55c",
    "design.json": "534cba47525c0259bcd004f2156cebfec51076b93f1f0628ebdc1bdb543b4ecf",
    "design.json.manifest.json": "cd914f7e45335e48c97d61fbbd388a5da421b2cc28da88f7a36ae94d6102b4dd",
    "genome.pbm": "bd0302f46a2a11de21e7a7f8f7ca243c6269579ae12051e4043fd1bdf7b786df",
    "genome.pbm.manifest.json": "0874b6ae453af9f2b6668a65edf65481ada145d10024432181c2bcaf7e6efd56",
    "hemisphere.pgm": "41b4296b569e93423c0b52a85b124a1c4885c35a2c0874f3319c6891d498b287",
    "hemisphere.pgm.manifest.json": "6b7cdfbb9040f2a10722fdf6d0df711fe46ec12001d0fefce4292b115f95dbea",
    "pattern_phi0.csv": "238be3389c79eb33b9edf6a226ac6a520864fe7561d31351f8e45dd4c3f45ac1",
    "pattern_phi0.csv.manifest.json": "16fda531c6647646a42611036f332e8a3312dc594c292a6a4c2d31a4b3c4602b",
    "pattern_phi90.csv": "238be3389c79eb33b9edf6a226ac6a520864fe7561d31351f8e45dd4c3f45ac1",
    "pattern_phi90.csv.manifest.json": "ce44206ddfdb63fe119a619a9b5ebe3c3df605163a86b585498ed30728fad69d",
    "stats.json": "3c3bd39d648217670352205a75edb153a4eda2c15ff8ff5cdcfe295e45c04945",
    "stats.json.manifest.json": "c19f651a9d1b52981c8f5dad6f307c7c575709dd591267980b88349816ffd5cb",
    "surrogate.ckpt": "8d5526f741c7fe48ae2e3a34b8e5a362599b81db4aa1a5a1a9fe4adf4044e300",
    "surrogate.ckpt.manifest.json": "5ab44bbb4061a9848b65ea8fb85ccfca2da37255186a18ffe173e65d7d91e9db",
    "sweep.csv": "06d7837d5a5d933b0024f48729475556f5949878f996d3a0e3a36a40b288a9cc",
    "sweep.csv.manifest.json": "6f4850303a96543f384e36d5a8234483fd2c5afd7085a9e2b71d1ada87b6be34",
    "target.json": "a2afedd559bb0915984ea641bbf0c61bc476ac5c19d3cf347b053fc8bea7cd97",
    "target.json.manifest.json": "683d97c864a5c4c9f74d3c220f3c310db2d0caef0724531d0b89350247804179",
    "train_history.csv": "3f6835ff6fab8956068008e67cca3bb70b52fe67c961e22244d4d7cde1236cc0",
    "train_history.csv.manifest.json": "74b11a23aac2230b43d964bfec4eb7b046ed4699f9d9a6475d0868f036472266",
    "validation.csv": "9128d929d777a86a08084d247fb90eb657ef452d9e5ad41a837574c05eb45f94",
    "validation.csv.manifest.json": "96ff3d77999d7957f1a24552eabc3efe4e9af7f4c8e6cb9b60d543f7d4f6b261",
}


def test_cli_chain_writes_golden_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["target", "--band", "5.3e9:6.3e9", "--out", "target.json"],
        ["gen", "--n", "300", "--seed", "3", "--outdir", "."],
        ["train", "--epochs", "1", "--outdir", "."],
        ["design", "--target", "target.json", "--evaluator", "oracle",
         "--population", "40", "--generations", "5", "--outdir", "."],
        ["validate", "--design", "design.json", "--target", "target.json", "--outdir", "."],
        ["stats", "--data", "dataset.bin", "--out", "stats.json"],
        ["array", "--design", "design.json", "--sweep", "--hemisphere", "--step", "1",
         "--outdir", "."],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert not list(tmp_path.glob("*.tmp.*"))
    assert {p.name: sha(p) for p in tmp_path.iterdir()} == GOLDEN_CHAIN

"""Fuzzing at the trust boundary.

Damaged dataset and checkpoint files (a non-finite response or weight
among them), target, design and config JSON with a value of the wrong type,
a NaN, a bool, a string, a nested list, a missing or extra key or a wrong
length, and JSON of any kind nested past the recursion limit, each end in
exit status 1, exactly one `error:` line and no new file.
"""

import contextlib
import functools
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from metapix.cli import main
from metapix.config import RunConfig, config_to_dict
from metapix.dataset import RECORD_DTYPE, RESP_WIDTH
from metapix.surrogate import init_mlp, save_checkpoint

FUZZ = settings(max_examples=40, deadline=None)

# values that no float, int, str or bool field takes, nor a list of them
BAD_ANY = [math.nan, math.inf, -math.inf, {}, {"a": 1}, [[0.5]], [None]]
# values that no float field or list element takes
BAD_FLOAT = BAD_ANY + ["0.5", True, False, None, [0.5], 10**400]
NOT_A_LIST = st.sampled_from(["x", 0.5, True, None, {}])
NOT_AN_OBJECT = st.sampled_from([[], [{}], "x", 1, None, True])
BAD_GENOMES = st.sampled_from([5, None, True, [], "G" * 16, "0" * 15, "0x" + "0" * 14])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Good inputs by file name: a band target, a 16-record dataset, a design
    and a 64-4-122 checkpoint; and a factory of fresh empty directories."""
    d = tmp_path_factory.mktemp("inputs")
    target = str(d / "target.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["target", "--band", "5.3e9:6.3e9", "--out", target]) == 0
        assert main(["gen", "--n", "16", "--seed", "3", "--out", str(d / "dataset.bin")]) == 0
        assert main(["design", "--target", target, "--evaluator", "oracle", "--population", "8",
                     "--generations", "1", "--out", str(d / "design.json")]) == 0
    save_checkpoint(d / "net.ckpt", init_mlp(1, (4,)))
    cases = tmp_path_factory.mktemp("cases")
    return {p.name: p for p in d.iterdir()}, lambda: Path(tempfile.mkdtemp(dir=cases))


def fails_cleanly(work: Path, *argv) -> str:
    """`main(argv)` exits 1 with one `error:` line, which it returns, and
    leaves `work` as it was."""
    before = sorted(work.rglob("*"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code == 1, out.getvalue()
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err.getvalue()
    assert sorted(work.rglob("*")) == before
    return lines[0]


def non_finite(blob: bytes, end: int) -> bytes:
    """Every exponent bit of the little-endian float64 ending at `end` set: an inf or a NaN."""
    return blob[:end - 2] + bytes([blob[end - 2] | 0xF0, blob[end - 1] | 0x7F]) + blob[end:]


def damaged(blob: bytes, draw, extra_damage=None) -> bytes:
    """`blob` cut short, or with the top bit of one byte of its header line
    flipped (so the header is no longer UTF-8), or hit by `extra_damage`."""
    kind = draw(st.sampled_from(["truncate", "flip"] + (["extra"] if extra_damage else [])))
    if kind == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if kind == "extra":
        return extra_damage(blob)
    i = draw(st.integers(0, blob.index(b"\n")))  # the newline too
    return blob[:i] + bytes([blob[i] ^ 0x80]) + blob[i + 1:]


@FUZZ
@given(data=st.data())
def test_damaged_dataset_is_refused(inputs, data):
    files, fresh = inputs
    blob = files["dataset.bin"].read_bytes()
    body = blob.index(b"\n") + 1

    def non_finite_response(b: bytes) -> bytes:
        # record layout: an 8-byte genome word, then the 122 response floats
        record = data.draw(st.integers(0, (len(b) - body) // RECORD_DTYPE.itemsize - 1))
        value = data.draw(st.integers(1, RESP_WIDTH))
        return non_finite(b, body + record * RECORD_DTYPE.itemsize + 8 + 8 * value)

    work = fresh()
    bad = work / "dataset.bin"
    bad.write_bytes(damaged(blob, data.draw, non_finite_response))
    fails_cleanly(work, "stats", "--data", bad, "--out", work / "stats.json")


@FUZZ
@given(data=st.data())
def test_damaged_checkpoint_is_refused(inputs, data):
    files, fresh = inputs
    blob = files["net.ckpt"].read_bytes()
    body = blob.index(b"\n") + 1

    def non_finite_weight(b: bytes) -> bytes:
        return non_finite(b, body + 8 * data.draw(st.integers(1, (len(b) - body) // 8)))

    work = fresh()
    bad = work / "net.ckpt"
    bad.write_bytes(damaged(blob, data.draw, non_finite_weight))
    fails_cleanly(work, "design", "--target", files["target.json"], "--ckpt", bad,
                  "--population", "8", "--generations", "1", "--out", work / "design.json")


def mutated(doc: dict, draw, lists: dict, extra_is_fault: bool = True):
    """`doc` with one fault: a bad element or a bad whole value of a list
    field, a list of the wrong length, a missing key, an extra key (if that
    is a fault), or no object at all.  `lists` maps each list field to its
    required length, or to None when any length will do."""
    kinds = ["element", "whole", "length", "missing", "root"] + ["extra"] * extra_is_fault
    kind = draw(st.sampled_from(kinds))
    field = draw(st.sampled_from(sorted(lists)))
    if kind == "length" and lists[field] is None:
        kind = "element"
    doc = json.loads(json.dumps(doc))
    if kind == "root":
        return draw(NOT_AN_OBJECT)
    if kind == "extra":
        doc[draw(st.text(min_size=1).filter(lambda k: k not in doc))] = 1.0
    elif kind == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "whole":
        doc[field] = draw(NOT_A_LIST)
    elif kind == "length":
        doc[field] = doc[field][:-1] if draw(st.booleans()) else doc[field] + [0.0]
    else:
        doc[field][draw(st.integers(0, len(doc[field]) - 1))] = draw(st.sampled_from(BAD_FLOAT))
    return doc


@FUZZ
@given(data=st.data(), command=st.sampled_from(["design", "validate"]))
def test_mistyped_target_is_refused(inputs, data, command):
    files, fresh = inputs
    doc = json.loads(files["target.json"].read_text())
    work = fresh()
    bad = work / "target.json"
    bad.write_text(json.dumps(mutated(doc, data.draw, dict.fromkeys(doc, 61))))
    argv = (["design", "--evaluator", "oracle", "--population", "8", "--generations", "1"]
            if command == "design" else ["validate", "--design", files["design.json"]])
    fails_cleanly(work, *argv, "--target", bad, "--outdir", work / "out")


@FUZZ
@given(data=st.data())
def test_mistyped_design_is_refused(inputs, data):
    """`validate` reads five fields and leaves other keys alone, so the
    document holds just those five and an extra key is no fault."""
    files, fresh = inputs
    full = json.loads(files["design.json"].read_text())
    lists = {"predicted_re": 61, "predicted_im": 61, "history_best": None,
             "history_median": None}
    doc = {k: full[k] for k in ["genome", *lists]}
    work = fresh()
    bad = work / "design.json"
    bad.write_text(json.dumps(mutated(doc, data.draw, lists, extra_is_fault=False)))
    fails_cleanly(work, "validate", "--design", bad, "--target", files["target.json"],
                  "--outdir", work / "out")


@FUZZ
@given(genome=BAD_GENOMES, other=st.booleans())
def test_array_design_with_a_bad_genome_is_refused(inputs, genome, other):
    _, fresh = inputs
    work = fresh()
    bad = work / "design.json"
    bad.write_text(json.dumps({"genome": genome} | ({"fitness": "unread"} if other else {})))
    fails_cleanly(work, "array", "--design", bad, "--outdir", work / "out")


def _leaves(node, path=()):
    """(key path, value) of every value in a config dict that is no object."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


def _sections(node, path=()):
    """Key path of every object in a config dict, the root first."""
    yield path
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _sections(value, path + (key,))


def _bad_for(value) -> list:
    """Values that the config field whose default is `value` refuses."""
    if isinstance(value, bool):
        return BAD_ANY + [0, 1, "true", None]
    if isinstance(value, str):
        return BAD_ANY + [1, True, None]
    if isinstance(value, int):
        return BAD_ANY + ["1", True, 1.5, None]
    if isinstance(value, float):  # not None: some float fields are optional
        return BAD_ANY + ["1.0", True, [1.0]]
    if value is None:
        return BAD_ANY + ["1e-13", True]
    return BAD_ANY + ["1", 1, True, None, [value], ["1", *value[1:]], [None, *value[1:]]]


@FUZZ
@given(data=st.data())
def test_mistyped_config_is_refused(inputs, data):
    """Config keys have defaults, so a missing key is no fault here."""
    _, fresh = inputs
    doc = config_to_dict(RunConfig())

    def at(path):
        return functools.reduce(dict.__getitem__, path, doc)

    kind = data.draw(st.sampled_from(["leaf", "section", "extra", "length", "root"]))
    if kind == "leaf":
        path, value = data.draw(st.sampled_from(list(_leaves(doc))))
        at(path[:-1])[path[-1]] = data.draw(st.sampled_from(_bad_for(value)))
    elif kind == "section":
        path = data.draw(st.sampled_from(list(_sections(doc))[1:]))
        at(path[:-1])[path[-1]] = data.draw(st.sampled_from(["x", 1, True, [], None]))
    elif kind == "extra":
        node = at(data.draw(st.sampled_from(list(_sections(doc)))))
        node[data.draw(st.text(min_size=1).filter(lambda k: k not in node))] = 1
    elif kind == "length":
        doc["array"]["feed_xyz"] = doc["array"]["feed_xyz"][:data.draw(st.integers(0, 2))]
    else:
        doc = data.draw(NOT_AN_OBJECT)
    work = fresh()
    bad = work / "config.json"
    bad.write_text(json.dumps(doc))
    fails_cleanly(work, "target", "--freq", "5.8e9", "--config", bad,
                  "--out", work / "target.json")


@pytest.mark.parametrize("kind", ["config", "target", "design", "dataset", "checkpoint"])
def test_json_nested_past_the_recursion_limit_is_refused(inputs, kind):
    files, fresh = inputs
    work = fresh()
    deep = "[" * 100000
    bad = work / kind
    if kind in ("dataset", "checkpoint"):  # a header line that nests too deep
        blob = files["dataset.bin" if kind == "dataset" else "net.ckpt"].read_bytes()
        bad.write_bytes(deep.encode() + blob[blob.index(b"\n"):])
    else:
        bad.write_text(deep)
    target = files["target.json"]
    argv = {
        "config": ["target", "--freq", "5.8e9", "--config", bad, "--out", work / "t.json"],
        "target": ["design", "--evaluator", "oracle", "--target", bad, "--outdir", work / "out"],
        "design": ["validate", "--design", bad, "--target", target, "--outdir", work / "out"],
        "dataset": ["stats", "--data", bad, "--out", work / "stats.json"],
        "checkpoint": ["design", "--target", target, "--ckpt", bad, "--outdir", work / "out"],
    }[kind]
    fails_cleanly(work, *argv)


@pytest.mark.parametrize("doc", ['"' + "x" * 1_000_000 + '"', "[" * 500 + "]" * 500,
                                 "[" + ", ".join(["0.5"] * 100_000) + "]"])
@pytest.mark.parametrize("kind", ["config", "target"])
def test_a_huge_or_deep_refused_value_gives_a_short_error_line(inputs, kind, doc):
    """The error shows the refused value's JSON cut after 60 characters."""
    files, fresh = inputs
    work = fresh()
    bad = work / f"{kind}.json"
    bad.write_text(doc)
    if kind == "config":
        argv = ["config", "--config", bad]
    else:
        argv = ["design", "--evaluator", "oracle", "--target", bad, "--outdir", work / "out"]
    line = fails_cleanly(work, *argv)
    assert "expects an object, got " + doc[:60] + "..." in line
    assert len(line) < 120 + len(str(bad))

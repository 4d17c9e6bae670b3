"""Shared plumbing: named random substreams, key=value files, manifests."""

import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiogan.kvfile import format_kv, parse_kv, read_kv, write_kv
from radiogan.manifest import config_digest, read_manifest, write_manifest
from radiogan.seeding import as_generator, substream


def test_substream_reproducible():
    a = substream(7, "train", "I", "snr").standard_normal(16)
    b = substream(7, "train", "I", "snr").standard_normal(16)
    assert np.array_equal(a, b)


def test_substream_labels_matter():
    base = substream(7, "train", "I", "snr").standard_normal(16)
    for labels in (("train", "Q", "snr"), ("train", "I", "latent"), ("validate", "I", "snr")):
        other = substream(7, *labels).standard_normal(16)
        assert not np.array_equal(base, other)
    assert not np.array_equal(base, substream(8, "train", "I", "snr").standard_normal(16))


def test_substream_streams_are_uncorrelated():
    a = substream(0, "a").standard_normal(50_000)
    b = substream(0, "b").standard_normal(50_000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.02


def test_substream_no_label_is_valid():
    assert np.array_equal(
        substream(3).standard_normal(4), substream(3).standard_normal(4)
    )


def test_as_generator_passthrough_and_coercion():
    gen = substream(1, "x")
    assert as_generator(gen) is gen
    a = as_generator(5).standard_normal(4)
    b = as_generator(5).standard_normal(4)
    assert np.array_equal(a, b)


def test_kv_round_trip(tmp_path):
    mapping = {"alpha": "0.2", "note": "has spaces and = sign", "empty": ""}
    path = tmp_path / "pairs.txt"
    write_kv(path, mapping)
    assert read_kv(path) == mapping


def test_kv_values_split_on_first_equals():
    assert parse_kv("k=a=b=c\n") == {"k": "a=b=c"}


def test_kv_ignores_comments_and_blanks():
    text = "# header\n\nkey=1\n  # indented comment\nother=2\n"
    assert parse_kv(text) == {"key": "1", "other": "2"}


def test_kv_rejects_bare_words():
    with pytest.raises(ValueError):
        parse_kv("key=1\njust-a-word\n")


def test_kv_strips_whitespace():
    assert parse_kv("  key =  value  \n") == {"key": "value"}


@pytest.mark.parametrize("text,line", [("a=1\na=2\n", 2), ("a=1\n# c\n\nb=2\n a =1\n", 5)])
def test_kv_refuses_a_repeated_key(text, line):
    # keys compare after stripping, as they are stored
    with pytest.raises(ValueError, match=f"^line {line}: duplicate key 'a'$"):
        parse_kv(text)


@pytest.mark.parametrize(
    "mapping",
    [
        {"a": "x\ny=1"},  # a line break would inject the key "y"
        {"a": " padded "},  # surrounding whitespace would be stripped
        {"a=b": "c"},  # the key would split at its "="
        {"#a": "b"},  # the line would read as a comment
        {" a": "b"},
        {"a\rb": "c"},
        {1: "a", "1": "b"},  # both keys are written as 1, which the reader refuses to repeat
    ],
)
def test_kv_writer_refuses_what_the_reader_would_change(mapping, tmp_path):
    with pytest.raises(ValueError):
        format_kv(mapping)
    with pytest.raises(ValueError):
        write_kv(tmp_path / "pairs.txt", mapping)
    assert not (tmp_path / "pairs.txt").exists()


@settings(derandomize=True, database=None, max_examples=300)
@given(st.dictionaries(st.text(), st.text()))
def test_kv_written_text_reads_back_or_is_refused(mapping):
    try:
        text = format_kv(mapping)
    except ValueError:
        return
    assert parse_kv(text) == mapping


_KEY_CHARS = string.ascii_letters + string.digits + "_.-"
_VALUE_CHARS = _KEY_CHARS + " =:#,+"


@settings(derandomize=True, database=None, max_examples=200)
@given(
    st.dictionaries(
        st.text(_KEY_CHARS, min_size=1),
        st.text(_VALUE_CHARS).filter(lambda v: v == v.strip()),
    )
)
def test_kv_plain_pairs_always_round_trip(mapping):
    assert parse_kv(format_kv(mapping)) == mapping


def test_config_digest_is_order_independent():
    a = config_digest({"x": 1, "y": "two"})
    b = config_digest({"y": "two", "x": 1})
    assert a == b
    assert len(a) == 64
    assert a != config_digest({"x": 2, "y": "two"})


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "run.manifest"
    written = write_manifest(path, "train", {"n_epoch": 3, "eta_g": "0.011"}, seed=9)
    back = read_manifest(path)
    assert back == written
    assert back.command == "train"
    assert back.seed == 9
    assert back.config_digest == config_digest({"n_epoch": 3, "eta_g": "0.011"})
    assert "T" in back.created_utc  # ISO timestamp


def test_manifest_text_keys_and_order_are_pinned(tmp_path):
    path = tmp_path / "run.manifest"
    written = write_manifest(path, "generate", {"n_gen": 4}, seed=5)
    pairs = read_kv(path)
    assert list(pairs) == ["command", "config_digest", "seed", "tool_version", "created_utc"]
    assert pairs["seed"] == "5"
    assert pairs["tool_version"] == written.tool_version

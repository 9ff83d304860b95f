"""Binary format round trips and corruption handling."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hierembed.storage import (
    FormatError,
    load_features,
    load_linear_classifier,
    load_model,
    read_tsv,
    save_embeddings,
    save_features,
    save_joint_model,
    save_linear_classifier,
    sidecar_path,
    write_tsv,
)


def test_embeddings_round_trip(tmp_path):
    path = tmp_path / "table.emb"
    coords = np.arange(12, dtype=float).reshape(4, 3) / 10
    ids = ("a", "b", "c", "d")
    save_embeddings(path, ids, coords, "hc")
    ids2, coords2, kind, w, header = load_model(path)
    assert (ids2, kind, w, header) == (ids, "hc", None, {})
    np.testing.assert_array_equal(coords2, coords)
    assert sidecar_path(path).exists()


def test_embeddings_trailer_keeps_k_and_squared(tmp_path):
    path = tmp_path / "table.emb"
    coords = np.arange(6, dtype=float).reshape(3, 2) / 10
    save_embeddings(path, ("a", "b", "c"), coords, "oe", k=0.3, squared=True)
    ids, loaded, kind, w, header = load_model(path)
    assert (ids, kind, w, header) == (
        ("a", "b", "c"), "oe", None, {"geometry": "oe", "k": 0.3, "squared": True}
    )
    np.testing.assert_array_equal(loaded, coords)


def test_embeddings_without_trailer_load_as_before(tmp_path):
    path = tmp_path / "table.emb"
    save_embeddings(path, ("a",), np.zeros((1, 2)), "ec")
    # magic, counts, tag and coordinates only: the layout of older files
    assert path.stat().st_size == 4 + 9 + 16
    assert load_model(path)[3:] == (None, {})
    # a joint model's LMAP block after EMB1 is not a trailer: it reads as a joint model
    model = tmp_path / "model.bin"
    save_joint_model(model, ("a",), np.zeros((1, 2)), np.ones((3, 2)), {"geometry": "ec", "k": 0.2})
    _, _, _, w, header = load_model(model)
    assert header == {"geometry": "ec", "k": 0.2}
    np.testing.assert_array_equal(w, np.ones((3, 2)))


def test_embeddings_trailer_geometry_checked(tmp_path):
    path = tmp_path / "table.emb"
    save_embeddings(path, ("a",), np.zeros((1, 2)), "ec", k=0.1)
    data = path.read_bytes().replace(b'"geometry": "ec"', b'"geometry": "hc"')
    path.write_bytes(data)
    with pytest.raises(FormatError, match="header geometry 'hc' disagrees"):
        load_model(path)


def test_embeddings_magic_enforced(tmp_path):
    path = tmp_path / "bad.emb"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError):
        load_model(path)


def test_features_round_trip(tmp_path):
    path = tmp_path / "features.feat"
    feats = np.random.default_rng(0).standard_normal((5, 7)).astype(np.float32)
    ids = tuple(f"i{k}" for k in range(5))
    leaves = tuple(f"leaf{k % 2}" for k in range(5))
    save_features(path, ids, feats, leaves)
    ids2, feats2, leaves2 = load_features(path)
    assert ids2 == ids and leaves2 == leaves
    np.testing.assert_allclose(feats2, feats, rtol=0, atol=0)


def test_features_store_f32(tmp_path):
    path = tmp_path / "features.feat"
    feats = np.array([[1.123456789012345]])
    save_features(path, ("a",), feats, ("x",))
    _, loaded, _ = load_features(path)
    assert loaded[0, 0] == np.float32(1.123456789012345)


def test_joint_model_round_trip(tmp_path):
    path = tmp_path / "model.bin"
    coords = np.linspace(0, 0.5, 6).reshape(3, 2)
    w = np.random.default_rng(1).standard_normal((4, 2))
    header = {"geometry": "ec", "k": 0.1, "margin": 1.0, "dim": 2,
              "lr_labels": 0.01, "lr_instances": 0.001, "split_seed": 3}
    save_joint_model(path, ("a", "b", "c"), coords, w, header)
    ids, coords2, kind, w2, header2 = load_model(path)
    assert (ids, kind) == (("a", "b", "c"), "ec")
    np.testing.assert_array_equal(coords2, coords)
    np.testing.assert_array_equal(w2, w)
    assert header2 == header


def test_joint_model_geometry_consistency(tmp_path):
    path = tmp_path / "model.bin"
    with pytest.raises(FormatError):
        save_joint_model(path, ("a",), np.zeros((1, 2)), np.zeros((2, 2)), {"geometry": "xx"})


def write_layouts(root):
    """One small file of each written layout."""
    ids, coords = ("a", "b"), np.array([[0.1, 0.2], [0.3, -0.4]])
    save_embeddings(root / "plain.emb", ids, coords, "ec")
    save_embeddings(root / "trailer.emb", ids, coords, "oe", k=0.3, squared=True)
    save_joint_model(root / "model.bin", ids, coords, np.ones((3, 2)), {"geometry": "hc", "k": 0.1})
    save_linear_classifier(root / "clf.bin", np.ones((3, 2)), np.zeros(2), {"head": "plc"})
    save_features(root / "features.feat", ("i", "j"), np.ones((2, 3)), ("a", "b"))


# each layout's file and the loader that accepts it
LAYOUT_LOADERS = {
    "plain.emb": load_model,
    "trailer.emb": load_model,
    "model.bin": load_model,
    "clf.bin": load_linear_classifier,
    "features.feat": load_features,
}
EMB1_END = 4 + 9 + 8 * 2 * 2  # the end of the two-row EMB1 block of write_layouts


@pytest.mark.parametrize("name", LAYOUT_LOADERS)
def test_every_proper_prefix_is_refused(tmp_path, name):
    write_layouts(tmp_path)
    path = tmp_path / name
    data = path.read_bytes()
    load = LAYOUT_LOADERS[name]
    load(path)
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        if cut == EMB1_END and load is load_model:
            # the EMB1 block alone is a whole label file without a trailer
            assert load_model(path)[3:] == (None, {})
            continue
        with pytest.raises(FormatError) as err:
            load(path)
        assert str(err.value).startswith(f"{path}: ")


@pytest.mark.parametrize("name", LAYOUT_LOADERS)
def test_bytes_after_a_whole_layout_are_refused(tmp_path, name):
    write_layouts(tmp_path)
    path = tmp_path / name
    data = path.read_bytes()
    for extra in (b"\0", b"FEAT", data):
        path.write_bytes(data + extra)
        with pytest.raises(FormatError, match="found .*, expected "):
            LAYOUT_LOADERS[name](path)


def test_a_bad_block_is_refused(tmp_path):
    write_layouts(tmp_path)
    path = tmp_path / "plain.emb"
    emb = path.read_bytes()
    for payload in (b"{oops", b"[1, 2]", b"\xff{}"):
        path.write_bytes(emb + b"HDR1" + struct.pack("<I", len(payload)) + payload)
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: its HDR1 block does not hold a JSON object"
    # a count past the end of the file fails before anything is allocated for it
    path.write_bytes(b"EMB1" + struct.pack("<IIB", 2**32 - 1, 2**32 - 1, 1))
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert str(err.value) == (
        f"{path}: its EMB1 block is cut short: {8 * (2**32 - 1) ** 2} bytes wanted, 0 left"
    )
    path.write_bytes(emb[:12] + b"\x07" + emb[13:])
    with pytest.raises(FormatError, match="unknown geometry tag 7"):
        load_model(path)


@pytest.mark.parametrize("writer", ["embeddings", "joint model", "features"])
@pytest.mark.parametrize("ids, problem", [
    (("a\tb", "c"), "holds a tab"),
    (("a", "b", "c"), "columns of .*3.* entries for 2 rows"),
])
def test_a_refused_sidecar_leaves_no_file(tmp_path, writer, ids, problem):
    path = tmp_path / "out.bin"
    coords = np.zeros((2, 2))
    with pytest.raises(FormatError, match=problem):
        if writer == "embeddings":
            save_embeddings(path, ids, coords, "ec", k=0.2)
        elif writer == "joint model":
            save_joint_model(path, ids, coords, np.ones((3, 2)), {"geometry": "ec"})
        else:
            save_features(path, ("i", "j"), coords, ids)
    assert list(tmp_path.iterdir()) == []


def test_linear_classifier_round_trip(tmp_path):
    path = tmp_path / "clf.bin"
    w = np.random.default_rng(2).standard_normal((6, 9))
    b = np.arange(9, dtype=float)
    header = {"head": "hab", "thresholds": [0.5], "level_sizes": [1, 3, 5]}
    save_linear_classifier(path, w, b, header)
    w2, b2, header2 = load_linear_classifier(path)
    np.testing.assert_array_equal(w2, w)
    np.testing.assert_array_equal(b2, b)
    assert header2 == header


def test_byte_identical_writes(tmp_path):
    a, b = tmp_path / "a.emb", tmp_path / "b.emb"
    coords = np.random.default_rng(3).standard_normal((8, 4))
    save_embeddings(a, tuple("abcdefgh"), coords, "oe")
    save_embeddings(b, tuple("abcdefgh"), coords, "oe")
    assert a.read_bytes() == b.read_bytes()
    assert sidecar_path(a).read_bytes() == sidecar_path(b).read_bytes()


# Characters that ``str.splitlines`` breaks a line at, besides the ones a
# field cannot hold: a table must read them back inside a field.
LINE_BREAKS_KEPT = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
FIELDS = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r")
) | st.text(st.sampled_from(LINE_BREAKS_KEPT + "a"))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(FIELDS, min_size=1).filter(lambda row: row != [""]), max_size=8))
@example([["a\u2028b", "", "\x85"], ["\x0b\x0c"], ["\x1c", "\x1d\x1e", "", ""]])
def test_tsv_round_trip(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "round_trip.tsv"
    write_tsv(path, rows)
    assert read_tsv(path) == rows
    if rows and len({len(row) for row in rows}) == 1:
        assert read_tsv(path, len(rows[0])) == [list(col) for col in zip(*rows)]


def test_tsv_header_and_blocks(tmp_path, monkeypatch):
    import hierembed.storage as storage

    monkeypatch.setattr(storage, "TSV_BLOCK", 2)
    path = tmp_path / "t.tsv"
    rows = [(str(i), f"v{i}") for i in range(5)]
    write_tsv(path, iter(rows), header=("k", "v"))
    assert path.read_bytes() == b"k\tv\n" + b"".join(f"{i}\tv{i}\n".encode() for i in range(5))
    assert read_tsv(path, 2, header=("k", "v")) == [[r[0] for r in rows], [r[1] for r in rows]]
    write_tsv(path, [])
    assert path.read_bytes() == b"" and read_tsv(path, 3) == [[], [], []]


@pytest.mark.parametrize("bad", ["\t", "\n", "\r"])
def test_tsv_writer_refuses_a_separator_in_a_field(tmp_path, monkeypatch, bad):
    import hierembed.storage as storage

    monkeypatch.setattr(storage, "TSV_BLOCK", 2)
    path = tmp_path / "t.tsv"
    field = f"x{bad}y"
    with pytest.raises(FormatError) as err:
        write_tsv(path, [("a", "0"), ("b", "1"), (field, "2")])
    assert str(err.value) == (
        f"{path}: field {field!r} holds a tab, line feed or carriage return"
    )
    assert not path.exists()


@pytest.mark.parametrize("row", [(), ("",)])
def test_tsv_writer_refuses_a_row_read_back_as_blank(tmp_path, row):
    path = tmp_path / "t.tsv"
    with pytest.raises(FormatError, match="blank line"):
        write_tsv(path, [("a",), row])
    # a tab in a field beside the blank row cannot hide it from the count
    with pytest.raises(FormatError, match="holds a tab"):
        write_tsv(path, [("a\tb", "c"), row])


def test_tsv_reader_names_file_and_line(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("a\t0\n\nb\t1\textra\n", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        read_tsv(path, 2)
    assert str(err.value) == f"{path}, line 3: 3 fields, expected 2"
    with pytest.raises(FormatError) as err:
        read_tsv(path, 2, header=("id", "row"))
    assert str(err.value) == f"{path}, line 1: 'a\\t0' is not the header 'id\\trow'"
    path.write_text("", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        read_tsv(path, 2, header=("id", "row"))
    assert str(err.value) == f"{path}, line 1: '' is not the header 'id\\trow'"


def _sidecar_cases():
    # sidecar lines for the rows of a 3-row table, and the end of the error they raise
    return [
        ("r\t0\nr.0\t1\nr.0.0\t2\nr.1\t0\n", ": its 4 row numbers are not 0..2, each once"),
        ("r.0\t0\nzzz\t0\nr.0.0\t2\nr\t1\n", ": its 4 row numbers are not 0..2, each once"),
        ("r\t0\nr.0\t1\nr.0.0\t3\n", ": its 3 row numbers are not 0..2, each once"),
        ("r\t0\nr.0\t-1\nr.0.0\t2\n", ": its 3 row numbers are not 0..2, each once"),
        ("r\t0\nr.0.0\t2\n", ": its 2 row numbers are not 0..2, each once"),
        ("r\t0\nr.0\tone\nr.0.0\t2\n", ", line 2: 'one' is not an integer"),
    ]


@pytest.mark.parametrize("text, message", _sidecar_cases())
def test_sidecar_rows_checked(tmp_path, text, message):
    path = tmp_path / "table.emb"
    save_embeddings(path, ("r", "r.0", "r.0.0"), np.zeros((3, 2)), "ec")
    sidecar_path(path).write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert str(err.value) == f"{sidecar_path(path)}{message}"


@pytest.mark.parametrize("text, message", _sidecar_cases())
def test_instance_rows_checked(tmp_path, text, message):
    path = tmp_path / "features.feat"
    save_features(path, ("r", "r.0", "r.0.0"), np.zeros((3, 2)), ("x", "y", "z"))
    side = tmp_path / "instances.tsv"
    side.write_text("".join(line + "\tleaf\n" for line in text.splitlines()), encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_features(path)
    assert str(err.value) == f"{side}{message}"


def test_permuted_sidecars_load_in_row_order(tmp_path):
    emb, feat = tmp_path / "table.emb", tmp_path / "features.feat"
    save_embeddings(emb, ("a", "b", "c"), np.zeros((3, 2)), "ec")
    sidecar_path(emb).write_text("c\t2\n\na\t0\nb\t1\n", encoding="utf-8")
    assert load_model(emb)[0] == ("a", "b", "c")
    save_features(feat, ("a", "b", "c"), np.zeros((3, 2)), ("x", "y", "z"))
    (tmp_path / "instances.tsv").write_text("b\t1\ty\nc\t2\tz\na\t0\tx\n", encoding="utf-8")
    ids, _, leaves = load_features(feat)
    assert (ids, leaves) == (("a", "b", "c"), ("x", "y", "z"))


# sha256 of each binary writer's file and sidecar on fixed arrays. The label
# file without a trailer is the layout the benchmark's seeded models use. A
# change to a binary format has to say so and record the new digests here.
GOLDEN_WRITERS = {
    "plain.emb": "037f8a488ea96b8778f1200248ac75226e86dd27b293cc6a4b42179f90c2dfa3",
    "plain.emb.nodes.tsv": "e06b15ecb5c1c3c8a06a28bb5362045c2039a02a2c1a53c103f8d0ee1b9d4e73",
    "trailer.emb": "fe670efe229374594b651a5ceb6c1664099be4c0d1430b93f6cc15fc508bbbfc",
    "trailer.emb.nodes.tsv": "e06b15ecb5c1c3c8a06a28bb5362045c2039a02a2c1a53c103f8d0ee1b9d4e73",
    "model.bin": "dee4c7331b88e4cd68c37753643e0baa957be3cfab7504059be2b68a8741405d",
    "model.bin.nodes.tsv": "e06b15ecb5c1c3c8a06a28bb5362045c2039a02a2c1a53c103f8d0ee1b9d4e73",
    "clf.bin": "4d264e43232ca19175c7d879ea7845e2f3f8f0f3234fed9aacc1e9d6f23ee5a6",
    "features.feat": "3ad4c76882b2810baa04967d250052978aff6d48226c3583856e22250efca00a",
    "instances.tsv": "fb4244e1f425550aed2b60fcaa94a5ea508c54c72225a0ca913e9dbc7af1599c",
}


def test_golden_writer_digests(tmp_path):
    import hashlib

    ids = ("r", "r.0", "r.1")
    coords = np.linspace(-0.5, 0.5, 6).reshape(3, 2)
    save_embeddings(tmp_path / "plain.emb", ids, coords, "ec")
    save_embeddings(tmp_path / "trailer.emb", ids, coords, "oe", k=0.3, squared=True)
    save_joint_model(tmp_path / "model.bin", ids, coords, np.arange(8.0).reshape(4, 2) / 7,
                     {"geometry": "hc", "k": 0.1, "dim": 2, "split_seed": 1, "feature_dim": 4})
    save_linear_classifier(tmp_path / "clf.bin", np.arange(12.0).reshape(4, 3) / 11,
                           np.array([0.25, -1.0, 1e-300]),
                           {"head": "hab", "thresholds": [0.5, 0.125], "level_sizes": [1, 2]})
    save_features(tmp_path / "features.feat", ("i0", "i1", "i2"),
                  np.arange(15.0).reshape(3, 5) / 3, ("r.0", "r.1", "r.0"))
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN_WRITERS}
    assert got == GOLDEN_WRITERS

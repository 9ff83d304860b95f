"""Binary format round trips and corruption handling."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hierembed.storage import (
    FormatError,
    load_embeddings,
    load_embeddings_with_header,
    load_features,
    load_joint_model,
    load_linear_classifier,
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
    ids2, coords2, kind = load_embeddings(path)
    assert ids2 == ids
    assert kind == "hc"
    np.testing.assert_array_equal(coords2, coords)
    assert sidecar_path(path).exists()


def test_embeddings_trailer_keeps_k_and_squared(tmp_path):
    path = tmp_path / "table.emb"
    coords = np.arange(6, dtype=float).reshape(3, 2) / 10
    save_embeddings(path, ("a", "b", "c"), coords, "oe", k=0.3, squared=True)
    ids, loaded, kind, header = load_embeddings_with_header(path)
    assert (ids, kind, header) == (("a", "b", "c"), "oe", {"geometry": "oe", "k": 0.3, "squared": True})
    np.testing.assert_array_equal(loaded, coords)
    assert load_embeddings(path)[2] == "oe"


def test_embeddings_without_trailer_load_as_before(tmp_path):
    path = tmp_path / "table.emb"
    save_embeddings(path, ("a",), np.zeros((1, 2)), "ec")
    # magic, counts, tag and coordinates only: the layout of older files
    assert path.stat().st_size == 4 + 9 + 16
    assert load_embeddings_with_header(path)[3] == {}
    # a joint model's LMAP block after EMB1 is not a trailer
    model = tmp_path / "model.bin"
    save_joint_model(model, ("a",), np.zeros((1, 2)), np.ones((3, 2)), {"geometry": "ec", "k": 0.2})
    assert load_embeddings_with_header(model)[3] == {}


def test_embeddings_trailer_geometry_checked(tmp_path):
    path = tmp_path / "table.emb"
    save_embeddings(path, ("a",), np.zeros((1, 2)), "ec", k=0.1)
    data = path.read_bytes().replace(b'"geometry": "ec"', b'"geometry": "hc"')
    path.write_bytes(data)
    with pytest.raises(FormatError):
        load_embeddings_with_header(path)


def test_embeddings_magic_enforced(tmp_path):
    path = tmp_path / "bad.emb"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError):
        load_embeddings(path)


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
    ids, coords2, w2, header2 = load_joint_model(path)
    assert ids == ("a", "b", "c")
    np.testing.assert_array_equal(coords2, coords)
    np.testing.assert_array_equal(w2, w)
    assert header2 == header


def test_joint_model_geometry_consistency(tmp_path):
    path = tmp_path / "model.bin"
    with pytest.raises(FormatError):
        save_joint_model(path, ("a",), np.zeros((1, 2)), np.zeros((2, 2)), {"geometry": "xx"})


def test_embeddings_file_is_not_a_joint_model(tmp_path):
    path = tmp_path / "table.emb"
    save_embeddings(path, ("a",), np.zeros((1, 2)), "ec")
    with pytest.raises(FormatError):
        load_joint_model(path)


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
        load_embeddings(path)
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
    assert load_embeddings(emb)[0] == ("a", "b", "c")
    save_features(feat, ("a", "b", "c"), np.zeros((3, 2)), ("x", "y", "z"))
    (tmp_path / "instances.tsv").write_text("b\t1\ty\nc\t2\tz\na\t0\tx\n", encoding="utf-8")
    ids, _, leaves = load_features(feat)
    assert (ids, leaves) == (("a", "b", "c"), ("x", "y", "z"))

"""Binary format round trips and corruption handling."""

import numpy as np
import pytest

from hierembed.storage import (
    FormatError,
    load_embeddings,
    load_embeddings_with_header,
    load_features,
    load_joint_model,
    load_linear_classifier,
    save_embeddings,
    save_features,
    save_joint_model,
    save_linear_classifier,
    sidecar_path,
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

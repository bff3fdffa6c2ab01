"""Scene generation determinism, invariants, and dataset round-trips."""

import copy
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tripledet.boxes import iou
from tripledet.synthdata import (DatasetError, generate_dataset, generate_incremental_dataset,
                                 load_dataset, make_classes, read_ppm, save_dataset,
                                 write_ppm)


def scenes_equal(a, b):
    return all(np.array_equal(x.image, y.image) and np.array_equal(x.boxes, y.boxes)
               and np.array_equal(x.labels, y.labels) for x, y in zip(a, b))


def test_same_seed_bit_identical():
    classes = make_classes(4)
    a = generate_dataset(classes, 12, seed=7)
    b = generate_dataset(classes, 12, seed=7)
    assert len(a) == len(b) == 12
    assert scenes_equal(a, b)


def test_different_seed_differs():
    classes = make_classes(3)
    a = generate_dataset(classes, 4, seed=1)
    b = generate_dataset(classes, 4, seed=2)
    assert not scenes_equal(a, b)


def test_scene_invariants():
    classes = make_classes(6)
    for scene in generate_dataset(classes, 50, seed=3):
        assert scene.image.shape == (3, 64, 64)
        assert scene.image.min() >= 0.0 and scene.image.max() <= 1.0
        assert 1 <= len(scene.labels) <= 4
        boxes = scene.boxes.tolist()
        for x1, y1, x2, y2 in boxes:
            assert 0 <= x1 < x2 <= 64 and 0 <= y1 < y2 <= 64
            assert 10 <= x2 - x1 <= 28 and 10 <= y2 - y1 <= 28
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                assert iou(boxes[i], boxes[j]) <= 0.2


def test_class_frequency_roughly_uniform():
    classes = make_classes(4)
    counts = {c.class_id: 0 for c in classes}
    total = 0
    for scene in generate_dataset(classes, 1000, seed=5):
        for cid in scene.labels.tolist():
            counts[cid] += 1
            total += 1
    expected = total / len(classes)
    for cid, n in counts.items():
        assert abs(n - expected) / expected < 0.10, f"class {cid}: {n} vs {expected}"


def test_objects_land_on_their_color():
    classes = make_classes(3)
    scene = generate_dataset(classes, 1, seed=11)[0]
    by_id = {c.class_id: c for c in classes}
    for (x1, y1, x2, y2), cid in zip(scene.boxes.tolist(), scene.labels.tolist()):
        cx = int((x1 + x2) / 2)
        cy = int((y1 + y2) / 2)
        # center pixel of any default shape carries the class color (plus noise)
        assert np.abs(scene.image[:, cy, cx] - np.array(by_id[cid].color)).max() < 0.1


def test_incremental_dataset_annotations_new_only():
    classes = make_classes(4)
    scenes = generate_incremental_dataset(classes[:3], classes[3:], 40, seed=6)
    assert len(scenes) == 40
    for s in scenes:
        assert len(s.labels), "every incremental scene has a new-class object"
        assert all(cid == 4 for cid in s.labels.tolist())


def test_incremental_images_contain_unannotated_old_objects():
    classes = make_classes(4)
    scenes = generate_incremental_dataset(classes[:3], classes[3:], 60, seed=8)
    # old shapes co-occur with probability 0.5 per scene; detect their colors
    old_colors = np.array([c.color for c in classes[:3]])
    found = 0
    for s in scenes:
        img = s.image.reshape(3, -1).T
        for color in old_colors:
            if np.any(np.abs(img - color).max(axis=1) < 0.08):
                found += 1
                break
    assert found >= 10


def test_unique_class_defs_enforced():
    classes = make_classes(2)
    with pytest.raises(ValueError):
        generate_dataset(classes + [classes[0]], 2, seed=0)


def test_impossible_placement_regenerates_with_fewer_objects(monkeypatch):
    import tripledet.synthdata as sd
    # forbid any second object: placement beyond the first must always fail,
    # so every scene falls back to a single object
    monkeypatch.setattr(sd, "MAX_GT_IOU", -1.0)
    scenes = generate_dataset(make_classes(3), 10, seed=21)
    assert all(len(s.labels) == 1 for s in scenes)


# -- I/O ------------------------------------------------------------------------

def test_ppm_roundtrip_quantization(tmp_path):
    rng = np.random.default_rng(10)
    img = rng.uniform(0.0, 1.0, (3, 16, 16))
    write_ppm(tmp_path / "x.ppm", img)
    back = read_ppm(tmp_path / "x.ppm")
    assert np.abs(back - img).max() <= 1.0 / 255.0 + 1e-12


def test_dataset_roundtrip(tmp_path):
    scenes = generate_dataset(make_classes(3), 5, seed=12)
    save_dataset(scenes, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert len(back) == 5
    for a, b in zip(scenes, back):
        assert np.array_equal(a.boxes, b.boxes) and np.array_equal(a.labels, b.labels)
        assert np.abs(a.image - b.image).max() <= 1.0 / 255.0 + 1e-12


def test_manifest_parses_with_plain_json(tmp_path):
    scenes = generate_dataset(make_classes(2), 3, seed=13)
    save_dataset(scenes, tmp_path / "ds")
    with open(tmp_path / "ds" / "manifest.json") as f:
        manifest = json.load(f)
    assert isinstance(manifest, list) and len(manifest) == 3
    entry = manifest[0]
    assert set(entry) == {"file", "width", "height", "objects"}
    assert set(entry["objects"][0]) == {"x1", "y1", "x2", "y2", "class_id"}


def test_missing_file_rejected_with_path(tmp_path):
    scenes = generate_dataset(make_classes(2), 2, seed=14)
    save_dataset(scenes, tmp_path / "ds")
    (tmp_path / "ds" / "scene_00001.ppm").unlink()
    with pytest.raises(DatasetError) as exc:
        load_dataset(tmp_path / "ds")
    assert "scene_00001.ppm" in str(exc.value)


@pytest.mark.parametrize("class_id", [2.7, 2.0, "3", True, None, 0, -1])
def test_manifest_rejects_non_integer_or_nonpositive_class_id(tmp_path, class_id):
    scenes = generate_dataset(make_classes(2), 2, seed=15)
    save_dataset(scenes, tmp_path / "ds")
    path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest[1]["objects"][0]["class_id"] = class_id
    path.write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match=r"entry 1 in .*manifest\.json: class_id must be"):
        load_dataset(tmp_path / "ds")


def test_malformed_manifest_rejected(tmp_path):
    d = tmp_path / "ds"
    d.mkdir()
    (d / "manifest.json").write_text("{not json")
    with pytest.raises(DatasetError) as exc:
        load_dataset(d)
    assert "manifest" in str(exc.value)


def test_truncated_ppm_rejected(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P6\n8 8\n255\n" + b"\x00" * 10)
    with pytest.raises(DatasetError):
        read_ppm(p)


def test_ppm_rejects_empty_image(tmp_path):
    p = tmp_path / "empty.ppm"
    p.write_bytes(b"P6 0 1 255\n")
    with pytest.raises(DatasetError, match="0x1 image .*empty.ppm"):
        read_ppm(p)


def test_ppm_rejects_trailing_bytes(tmp_path):
    p = tmp_path / "long.ppm"
    write_ppm(p, np.zeros((3, 5, 7)))
    p.write_bytes(p.read_bytes() + b"\0")
    with pytest.raises(DatasetError, match="106 bytes of pixel data in .*long.ppm, expected 105"):
        read_ppm(p)


def test_manifest_rejects_image_of_another_size(tmp_path):
    save_dataset(generate_dataset(make_classes(2), 2, seed=16), tmp_path / "ds")
    path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest[1]["width"] = 32
    path.write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match=r"entry 1 in .*manifest\.json: scene_00001.ppm is "
                                           r"64x64, not the manifest's 32x64"):
        load_dataset(tmp_path / "ds")


@pytest.mark.parametrize("key", ["width", "height"])
@pytest.mark.parametrize("value", [64.0, True, "64", 0])
def test_manifest_rejects_non_integer_or_nonpositive_size(tmp_path, key, value):
    """Sizes follow the class-id rule: a JSON integer >= 1, not 64.0 or true."""
    save_dataset(generate_dataset(make_classes(2), 2, seed=17), tmp_path / "ds")
    path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest[1][key] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match=rf"entry 1 in .*manifest\.json: {key} must be an "
                                           rf"integer >= 1, got {value!r}"):
        load_dataset(tmp_path / "ds")


# edits of one object's coordinates that no box survives
BAD_BOXES = {
    "x2_eq_x1": {"x1": 5, "x2": 5},
    "y2_lt_y1": {"y1": 9, "y2": 8},
    "nan": {"x1": float("nan")},
    "infinity": {"y2": float("inf")},
    "string": {"x1": "1.5"},
    "null": {"y1": None},
    "list": {"x2": [1]},
}


@pytest.mark.parametrize("edit", BAD_BOXES.values(), ids=BAD_BOXES.keys())
def test_manifest_rejects_bad_box(tmp_path, edit):
    """Coordinates must be finite numbers with x2 > x1 and y2 > y1."""
    save_dataset(generate_dataset(make_classes(2), 2, seed=19), tmp_path / "ds")
    path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest[1]["objects"][0].update(edit)
    path.write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match=r"entry 1 in .*manifest\.json: "):
        load_dataset(tmp_path / "ds")


def test_manifest_integer_coordinates_load_as_floats(tmp_path):
    scenes = generate_dataset(make_classes(2), 2, seed=19)
    save_dataset(scenes, tmp_path / "ds")
    path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(path.read_text())
    obj = manifest[1]["objects"][0]
    obj.update({k: int(obj[k]) for k in ("x1", "y1", "x2", "y2")})
    path.write_text(json.dumps(manifest))
    boxes = load_dataset(tmp_path / "ds")[1].boxes
    assert boxes.dtype == np.float64 and np.array_equal(boxes, scenes[1].boxes)


@pytest.fixture(scope="module")
def saved_manifest(tmp_path_factory):
    """A saved 2-scene dataset and its manifest, for edits of the manifest alone."""
    directory = tmp_path_factory.mktemp("manifest_edits")
    save_dataset(generate_dataset(make_classes(2), 2, seed=18), directory)
    return directory, json.loads((directory / "manifest.json").read_text())


def load_edited(directory, manifest_text):
    """load_dataset on `manifest_text`: the scenes, or None on a DatasetError."""
    (directory / "manifest.json").write_text(manifest_text)
    try:
        return load_dataset(directory)
    except DatasetError:
        return None


# what one manifest field may be edited to: every JSON type, numbers past
# float range, nested lists and objects, and file names that name no PPM
HUGE_NUMBERS = st.sampled_from([10 ** 400, -10 ** 400, 2 ** 64, 1e308, -1e308])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | HUGE_NUMBERS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)
FILE_NAMES = st.sampled_from(["", ".", "..", "missing.ppm", "manifest.json", "a\x00b.ppm",
                              "x" * 300, "scene_00000.ppm/", "sub/scene.ppm", "scene_00001.ppm"])
ENTRY_FIELDS = ("file", "width", "height", "objects")
OBJECT_FIELDS = ("x1", "y1", "x2", "y2", "class_id")


@settings(max_examples=300, deadline=None)
@given(entry=st.integers(0, 1), field=st.sampled_from(ENTRY_FIELDS + OBJECT_FIELDS),
       delete=st.booleans(), value=HUGE_NUMBERS | JSON_VALUES | FILE_NAMES)
@example(entry=0, field="x2", delete=False, value=10 ** 400)
def test_manifest_field_edits_load_or_are_dataset_errors(saved_manifest, entry, field,
                                                         delete, value):
    """Any edit of one field of one entry (or of its first object) loads or
    raises DatasetError, never another exception."""
    directory, original = saved_manifest
    manifest = copy.deepcopy(original)
    target = manifest[entry] if field in ENTRY_FIELDS else manifest[entry]["objects"][0]
    if delete:
        del target[field]
    else:
        target[field] = value
    load_edited(directory, json.dumps(manifest))


@pytest.mark.parametrize("raw", ["1" * 5000, "[" * 100_000 + "]" * 100_000],
                         ids=["5000_digits", "100000_deep"])
@pytest.mark.parametrize("field", ["width", "x1"])
def test_manifest_field_json_cannot_parse_is_dataset_error(saved_manifest, raw, field):
    """Values json.load itself refuses: an integer past Python's digit limit
    and nesting past the recursion limit."""
    directory, original = saved_manifest
    manifest = copy.deepcopy(original)
    target = manifest[1] if field == "width" else manifest[1]["objects"][0]
    target[field] = "@RAW@"
    assert load_edited(directory, json.dumps(manifest).replace('"@RAW@"', raw)) is None


# one header separator: whitespace and '#' comments, at least one piece
SEPARATORS = st.lists(st.sampled_from([b" ", b"\t", b"\n", b"\r"])
                      | st.binary(max_size=4).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n"),
                      min_size=1, max_size=3).map(b"".join)


@settings(max_examples=200, deadline=None)
@given(w=st.integers(1, 8), h=st.integers(1, 8), seps=st.lists(SEPARATORS, min_size=3, max_size=3),
       end=st.sampled_from([b" ", b"\t", b"\n", b"\r"]), seed=st.integers(0, 2 ** 16),
       corrupt_at=st.floats(0.0, 1.0, exclude_max=True), corrupt_to=st.integers(0, 255))
def test_ppm_header_spellings_round_trip_and_corruptions_are_dataset_errors(
        tmp_path_factory, w, h, seps, end, seed, corrupt_at, corrupt_to):
    """write_ppm's pixels read back under any header spelling; any
    single-byte corruption reads as an image or a DatasetError."""
    path = tmp_path_factory.getbasetemp() / "spelled.ppm"
    image = np.random.default_rng(seed).uniform(0.0, 1.0, (3, h, w))
    write_ppm(path, image)
    canonical = read_ppm(path)
    pixels = path.read_bytes()[len(f"P6\n{w} {h}\n255\n"):]
    raw = b"P6" + b"".join(sep + str(v).encode() for sep, v in zip(seps, (w, h, 255))) + end
    raw += pixels
    path.write_bytes(raw)
    assert np.array_equal(read_ppm(path), canonical)
    assert np.abs(canonical - image).max() <= 1.0 / 255.0 + 1e-12
    corrupted = bytearray(raw)
    corrupted[int(corrupt_at * len(raw))] = corrupt_to
    path.write_bytes(bytes(corrupted))
    try:
        assert read_ppm(path).shape[0] == 3
    except DatasetError:
        pass

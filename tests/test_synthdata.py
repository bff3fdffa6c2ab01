"""Scene generation determinism, invariants, and dataset round-trips."""

import json

import numpy as np
import pytest

from tripledet.boxes import iou
from tripledet.synthdata import (DatasetError, generate_dataset, generate_incremental_dataset,
                                 load_dataset, make_classes, read_ppm, save_dataset,
                                 write_ppm)


def scenes_equal(a, b):
    return all(np.array_equal(x.image, y.image) and x.annotations == y.annotations
               for x, y in zip(a, b))


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
        assert 1 <= len(scene.annotations) <= 4
        boxes = [b for b, _ in scene.annotations]
        for b in boxes:
            assert 0 <= b.x1 < b.x2 <= 64 and 0 <= b.y1 < b.y2 <= 64
            assert 10 <= b.width <= 28 and 10 <= b.height <= 28
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                assert iou(boxes[i], boxes[j]) <= 0.2


def test_class_frequency_roughly_uniform():
    classes = make_classes(4)
    counts = {c.class_id: 0 for c in classes}
    total = 0
    for scene in generate_dataset(classes, 1000, seed=5):
        for _, cid in scene.annotations:
            counts[cid] += 1
            total += 1
    expected = total / len(classes)
    for cid, n in counts.items():
        assert abs(n - expected) / expected < 0.10, f"class {cid}: {n} vs {expected}"


def test_objects_land_on_their_color():
    classes = make_classes(3)
    scene = generate_dataset(classes, 1, seed=11)[0]
    by_id = {c.class_id: c for c in classes}
    for box, cid in scene.annotations:
        cx = int((box.x1 + box.x2) / 2)
        cy = int((box.y1 + box.y2) / 2)
        # center pixel of any default shape carries the class color (plus noise)
        assert np.abs(scene.image[:, cy, cx] - np.array(by_id[cid].color)).max() < 0.1


def test_incremental_dataset_annotations_new_only():
    classes = make_classes(4)
    scenes = generate_incremental_dataset(classes[:3], classes[3:], 40, seed=6)
    assert len(scenes) == 40
    for s in scenes:
        assert s.annotations, "every incremental scene has a new-class object"
        assert all(cid == 4 for _, cid in s.annotations)


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
    assert all(len(s.annotations) == 1 for s in scenes)


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
        assert a.annotations == b.annotations
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

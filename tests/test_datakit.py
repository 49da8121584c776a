"""Dataset generation, file formats, phrase sampling, augmentation."""
import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from cbce import datakit
from cbce.datakit import (
    DEFAULT_BANK,
    ManifestRecord,
    SynthConfig,
    augment,
    generate_pair_fixtures,
    generate_record,
    load_image,
    load_manifest,
    netpbm_size,
    phrase_sample,
    rasterize_shape,
    read_netpbm,
    save_manifest,
    split_records,
    synth_generate,
    write_mask,
    write_netpbm,
)
from cbce.train import load_config


def test_netpbm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(9, 7, 3), dtype=np.uint8)
    msk = rng.integers(0, 2, size=(9, 7), dtype=np.uint8) * 255
    write_netpbm(tmp_path / "x.ppm", img)
    write_netpbm(tmp_path / "x.pgm", msk)
    np.testing.assert_array_equal(read_netpbm(tmp_path / "x.ppm", b"P6"), img)
    np.testing.assert_array_equal(read_netpbm(tmp_path / "x.pgm", b"P5"), msk)
    assert netpbm_size(tmp_path / "x.ppm") == (9, 7)
    np.testing.assert_array_equal(load_image(tmp_path / "x.ppm"), img / 255.0)
    write_mask(tmp_path / "m.pgm", msk > 0)
    assert (tmp_path / "m.pgm").read_bytes() == (tmp_path / "x.pgm").read_bytes()
    with pytest.raises(ValueError, match="uint8"):
        write_netpbm(tmp_path / "y.ppm", img.astype(np.float64))
    with pytest.raises(ValueError, match="uint8"):
        write_netpbm(tmp_path / "y.ppm", img[..., :2])


def test_read_netpbm_refuses_malformed_files(tmp_path):
    path = tmp_path / "x.pgm"
    write_netpbm(path, np.zeros((4, 5), dtype=np.uint8))
    with pytest.raises(ValueError, match=r"magic b'P5', expected b'P6'"):
        read_netpbm(path, b"P6")
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ValueError, match="truncated netpbm payload"):
        read_netpbm(path, b"P5")
    path.write_bytes(b"P5\n5 4\n65535\n" + bytes(40))
    with pytest.raises(ValueError, match="maxval 255"):
        read_netpbm(path, b"P5")


def test_manifest_round_trip(tmp_path):
    img = np.zeros((4, 4, 3), dtype=np.uint8)
    msk = np.zeros((4, 4), dtype=np.uint8)
    write_netpbm(tmp_path / "a.ppm", img)
    write_netpbm(tmp_path / "a.pgm", msk)
    recs = [ManifestRecord("a", str(tmp_path / "a.ppm"), str(tmp_path / "a.pgm"),
                           "roll", ["can roll", "spherical"])]
    save_manifest(recs, tmp_path / "m.jsonl")
    loaded = load_manifest(tmp_path / "m.jsonl")
    assert loaded == recs


def test_manifest_empty_file(tmp_path):
    (tmp_path / "m.jsonl").write_text("")
    assert load_manifest(tmp_path / "m.jsonl") == []


def test_manifest_error_reporting(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"id": "x"}\n')
    with pytest.raises(ValueError, match="missing fields"):
        load_manifest(path)
    path.write_text("{not json\n")
    with pytest.raises(ValueError, match="m.jsonl:1"):
        load_manifest(path)
    path.write_text(json.dumps({"id": "x", "image": "i.ppm", "mask": "m.pgm",
                                "affordance": "roll", "phrases": []}) + "\n")
    with pytest.raises(ValueError, match="phrases"):
        load_manifest(path)
    with pytest.raises(FileNotFoundError):
        load_manifest(tmp_path / "nope.jsonl")


def test_manifest_size_mismatch(tmp_path):
    write_netpbm(tmp_path / "a.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
    write_netpbm(tmp_path / "a.pgm", np.zeros((5, 4), dtype=np.uint8))
    recs = [ManifestRecord("a", str(tmp_path / "a.ppm"), str(tmp_path / "a.pgm"),
                           "roll", ["p"])]
    save_manifest(recs, tmp_path / "m.jsonl")
    with pytest.raises(ValueError, match="size mismatch"):
        load_manifest(tmp_path / "m.jsonl")


def test_bank_structure():
    assert len(DEFAULT_BANK.affordances()) == 6
    for aff in DEFAULT_BANK.affordances():
        assert len(DEFAULT_BANK.phrases(aff)) >= 8
        assert DEFAULT_BANK.entries[aff]["action"]


def test_phrase_sample_properties():
    rng = np.random.default_rng(1)
    for aff in DEFAULT_BANK.affordances():
        got = phrase_sample(DEFAULT_BANK, aff, 4, rng)
        assert len(got) == len(set(got)) == 4
        actions = set(DEFAULT_BANK.entries[aff]["action"])
        assert actions & set(got)
    full = DEFAULT_BANK.phrases("stack")
    got = phrase_sample(DEFAULT_BANK, "stack", len(full), rng)
    assert sorted(got) == sorted(full)
    with pytest.raises(ValueError):
        phrase_sample(DEFAULT_BANK, "stack", 99, rng)


def test_phrase_sample_covers_every_phrase_over_10k_draws():
    rng = np.random.default_rng(2)
    seen = {aff: set() for aff in DEFAULT_BANK.affordances()}
    for i in range(10_000):
        aff = DEFAULT_BANK.affordances()[i % 6]
        seen[aff].update(phrase_sample(DEFAULT_BANK, aff, 4, rng))
    for aff, phrases in seen.items():
        assert phrases == set(DEFAULT_BANK.phrases(aff)), aff


def test_generate_record_deterministic():
    cfg = SynthConfig(samples=4, seed=9)
    a = generate_record(cfg, 2)
    b = generate_record(cfg, 2)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    assert a[2] == b[2] and a[3] == b[3]


TOY_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "toy.json")


def _toy_synth(seed):
    return dataclasses.replace(load_config(TOY_CONFIG).synth, seed=seed)


def _record_digest(record):
    image, mask, affordance, phrases = record
    h = hashlib.sha256(image.tobytes())
    h.update(mask.tobytes())
    h.update(repr((affordance, phrases)).encode())
    return h.hexdigest()


def test_records_placed_on_first_stream_are_unchanged():
    # digests taken before placement failures were retried
    toy = _toy_synth(21)
    assert _record_digest(generate_record(toy, 0)) == (
        "2368dfa0511c0d3e6d12b41277943b04c97e09e7c3920ea63c84428d6748e2fd")
    assert _record_digest(generate_record(toy, 117)) == (
        "200e147801e1f322d31e3cd85dcb0aa5fbdb917bfecacc818e08e0d1d66198fb")
    assert _record_digest(generate_record(toy, 119)) == (
        "de515548a18acc42ad11fb8d4c9465b5bb3984b8d8c248bf2fdab53262a8d3fb")
    assert _record_digest(generate_record(SynthConfig(seed=5), 3)) == (
        "aed2f258aa2952d818490aad69899e7d069db4c3a8648649b39f50e5a29563e2")


def test_unplaceable_record_is_redrawn(monkeypatch):
    # toy seed 21, record 118: the confuser does not fit on the first stream
    cfg = _toy_synth(21)
    calls = []
    place = datakit._place_object

    def logged(cls_name, occupied, scale_range, rng, cfg_):
        calls.append((cls_name, scale_range))
        return place(cls_name, occupied, scale_range, rng, cfg_)

    monkeypatch.setattr(datakit, "_place_object", logged)
    with pytest.raises(datakit.PlacementError):
        datakit._draw_record(cfg, 118, np.random.default_rng([cfg.seed, 118]))
    calls.clear()
    record = generate_record(cfg, 118)
    image, mask, affordance, phrases = record
    assert image.shape == (cfg.size, cfg.size, 3) and image.dtype == np.uint8
    assert mask.shape == (cfg.size, cfg.size) and mask.any()
    assert affordance == cfg.classes[118 % len(cfg.classes)]
    assert len(phrases) == cfg.n_phrases
    assert set(phrases) <= set(DEFAULT_BANK.phrases(affordance))
    # the accepted draw: target, then the confuser at target scale, then
    # small distractors, their count within distractor_range
    last = max(i for i, (_, scale) in enumerate(calls) if scale == cfg.target_scale)
    accepted = calls[last:]
    assert accepted[0][0] == affordance
    distractors = accepted[1:]
    lo, hi = cfg.distractor_range
    assert lo <= len(distractors) <= hi
    assert distractors[0][1] == cfg.confuser_scale
    assert all(scale == cfg.distractor_scale for _, scale in distractors[1:])
    assert all(name != affordance for name, _ in distractors)
    assert _record_digest(generate_record(cfg, 118)) == _record_digest(record)


def test_synth_outputs_byte_identical(tmp_path):
    cfg = SynthConfig(samples=6, seed=5)
    synth_generate(cfg, tmp_path / "one")
    synth_generate(cfg, tmp_path / "two")
    for sub in ("manifest.jsonl", "images/s00000.ppm", "masks/s00003.pgm", "vocab.txt"):
        assert (tmp_path / "one" / sub).read_bytes() == (tmp_path / "two" / sub).read_bytes()


def test_synth_outputs_match_the_pinned_digest(tmp_path):
    # pins the writers' bytes across changes: relative path plus contents of
    # every file, scenes (s/) first, then pairs (p/), each walked in sorted order
    synth_generate(SynthConfig(samples=6, seed=5), tmp_path / "s")
    generate_pair_fixtures(SynthConfig(seed=10), tmp_path / "p", count=4)
    digest = hashlib.sha256()
    for sub in ("s", "p"):
        for dirpath, dirs, files in os.walk(tmp_path / sub):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, tmp_path).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    assert digest.hexdigest() == "cd4475fb90eb1cd5c96f281b63de6797c68a3b015d5b3aa1a4bed6c06f40e7a1"


def test_synth_manifest_counts_and_split(tmp_path):
    cfg = SynthConfig(samples=40, seed=6)
    records = synth_generate(cfg, tmp_path)
    assert len(records) == 40
    manifest = load_manifest(tmp_path / "manifest.jsonl")
    assert len(manifest) == 40
    train = load_manifest(tmp_path / "train.jsonl")
    test = load_manifest(tmp_path / "test.jsonl")
    assert len(train) == 30 and len(test) == 10
    assert {r.id for r in train} | {r.id for r in test} == {r.id for r in manifest}


def test_mask_matches_rasterization_oracle():
    # single-object scene for the disc class: the written mask's pixel count
    # must equal a brute-force per-pixel rasterization of the same draws
    cfg = SynthConfig(samples=4, seed=7, distractor_range=(0, 0))
    idx = cfg.classes.index("roll")
    _, mask, affordance, _ = generate_record(cfg, idx)
    assert affordance == "roll"

    # replay the generator's stream: first placement attempt on an empty
    # canvas draws (size, cy, cx, orient) in this order
    rng = np.random.default_rng([cfg.seed, idx])
    lo, hi = cfg.target_scale
    size = rng.uniform(lo, hi)
    margin = size / 2.0 + 2.0
    cy = rng.uniform(margin, cfg.size - margin)
    cx = rng.uniform(margin, cfg.size - margin)
    slow = 0
    for r in range(cfg.size):
        for c in range(cfg.size):
            if (r - cy) ** 2 + (c - cx) ** 2 <= (size / 2.0) ** 2:
                slow += 1
    assert mask.sum() == slow > 0


def test_rasterize_shape_counts_by_brute_force():
    for cy, cx, size in [(20.0, 30.0, 24.0), (40.5, 40.5, 31.0)]:
        fast = rasterize_shape("disc", 80, cy, cx, size).sum()
        slow = 0
        for r in range(80):
            for c in range(80):
                if (r - cy) ** 2 + (c - cx) ** 2 <= (size / 2) ** 2:
                    slow += 1
        assert fast == slow


def _full_canvas_shape(kind, canvas, cy, cx, size, orient):
    rr, cc = np.mgrid[0:canvas, 0:canvas].astype(np.float64)
    return datakit._shape_test(kind, rr - cy, cc - cx, size, orient)


def test_rasterize_shape_window_matches_full_canvas():
    canvas = 32
    # centres inside, on and beyond every border and corner, so the window
    # is clipped on each side; fractional centres and sizes included
    coords = (-9.0, -1.5, 0.0, 2.25, 15.5, 29.75, 31.0, 33.5, 40.0)
    for kind in sorted(set(datakit.SHAPE_FOR_CLASS.values())):
        for orient in range(4):
            for size in (1.0, 6.5, 13.0, 21.3):
                for cy in coords:
                    for cx in coords:
                        got = rasterize_shape(kind, canvas, cy, cx, size, orient)
                        want = _full_canvas_shape(kind, canvas, cy, cx, size, orient)
                        assert got.shape == (canvas, canvas) and got.dtype == bool
                        np.testing.assert_array_equal(got, want, err_msg=str(
                            (kind, orient, size, cy, cx)))


def test_class_balance_within_20pct():
    cfg = SynthConfig(samples=1200, seed=8)
    counts = {}
    for idx in range(1200):
        cls = cfg.classes[idx % len(cfg.classes)]
        counts[cls] = counts.get(cls, 0) + 1
    expected = 1200 / 6
    for c in counts.values():
        assert abs(c - expected) <= 0.2 * expected


def test_split_is_deterministic_and_75_25():
    recs = [ManifestRecord(f"id{i}", "a", "b", "roll", ["p"]) for i in range(100)]
    t1, v1 = split_records(recs)
    t2, v2 = split_records(list(reversed(recs)))
    assert [r.id for r in t1] == [r.id for r in t2]
    assert len(t1) == 75 and len(v1) == 25


def test_pair_fixtures(tmp_path):
    cfg = SynthConfig(seed=10)
    recs = generate_pair_fixtures(cfg, tmp_path, count=8)
    assert len(recs) == 16
    by_img = {}
    for r in recs:
        by_img.setdefault(r.image_path, []).append(r)
    for pair in by_img.values():
        assert len(pair) == 2
        a, b = pair
        assert a.affordance != b.affordance
        ma, mb = a.load_mask() > 0, b.load_mask() > 0
        assert not (ma & mb).any()  # disjoint objects
        assert ma.any() and mb.any()


def test_augment_correspondence_and_involution():
    rng = np.random.default_rng(11)
    image = rng.random((20, 20, 3))
    mask = (rng.random((20, 20)) > 0.5).astype(float)
    img_a, msk_a = augment(image, mask, np.random.default_rng(3), crop_size=16)
    img_b, msk_b = augment(image, mask, np.random.default_rng(3), crop_size=16)
    np.testing.assert_array_equal(img_a, img_b)  # seeded determinism
    np.testing.assert_array_equal(msk_a, msk_b)
    assert img_a.shape == (16, 16, 3) and msk_a.shape == (16, 16)
    assert set(np.unique(msk_a)) <= {0.0, 1.0}
    # flipping twice restores the crop
    np.testing.assert_array_equal(img_a[:, ::-1][:, ::-1], img_a)
    # all-ones mask stays all ones
    _, ones = augment(image, np.ones((20, 20)), rng, crop_size=12)
    np.testing.assert_array_equal(ones, np.ones((12, 12)))
    with pytest.raises(ValueError, match="crop"):
        augment(image, mask, rng, crop_size=21)


def test_augment_pixelwise_alignment():
    # paint one object pixel and confirm it lands at the same place in both
    image = np.zeros((16, 16, 3))
    mask = np.zeros((16, 16))
    image[5, 9] = 1.0
    mask[5, 9] = 1.0
    for seed in range(10):
        img, msk = augment(image, mask, np.random.default_rng(seed), crop_size=12)
        np.testing.assert_array_equal((img[:, :, 0] > 0.5), (msk > 0.5))

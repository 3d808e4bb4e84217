"""Dataset loading, synthesis, and augmentation contracts."""

import numpy as np
import pytest

from gradeq import data as dt
from gradeq.seeding import seed_stream


def write_record(path, label, pixel_bytes):
    with open(path, "wb") as f:
        f.write(bytes([label]) + bytes(pixel_bytes))


def write_cifar10(batch, path):
    """A batch as CIFAR-10 records, pixels quantized to bytes."""
    quantized = np.round(batch.pixels * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        for label, img in zip(batch.labels, quantized):
            f.write(bytes([int(label)]) + img.tobytes())


class TestCifarLoader:
    def test_hand_built_record_exact(self, tmp_path):
        path = tmp_path / "one.bin"
        pixels = bytearray(3072)
        pixels[0] = 255  # R plane, pixel (0,0)
        pixels[1024 + 33] = 51  # G plane, pixel (1,1)
        pixels[2048 + 3071 - 2048] = 102  # B plane, pixel (31,31)
        write_record(path, 7, pixels)
        batch = dt.load_cifar(path, "cifar10")
        assert batch.pixels.shape == (1, 3, 32, 32)
        assert batch.labels.tolist() == [7]
        assert batch.pixels[0, 0, 0, 0] == 1.0
        assert batch.pixels[0, 1, 1, 1] == pytest.approx(51 / 255)
        assert batch.pixels[0, 2, 31, 31] == pytest.approx(102 / 255)
        assert batch.pixels.sum() == pytest.approx((255 + 51 + 102) / 255)

    def test_two_records_structural(self, tmp_path):
        path = tmp_path / "two.bin"
        with open(path, "wb") as f:
            f.write(bytes([0]) + bytes(3072))
            f.write(bytes([9]) + bytes([255] * 3072))
        batch = dt.load_cifar(path, "cifar10")
        assert len(batch) == 2
        assert batch.labels.tolist() == [0, 9]
        assert np.all(batch.pixels[1] == 1.0)

    def test_cifar100_two_label_bytes(self, tmp_path):
        path = tmp_path / "c100.bin"
        with open(path, "wb") as f:
            f.write(bytes([3, 42]) + bytes(3072))
        batch = dt.load_cifar(path, "cifar100")
        assert batch.classes == 100
        assert batch.labels.tolist() == [42]

    def test_bad_length_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(3072))  # missing label byte
        with pytest.raises(ValueError, match="record size"):
            dt.load_cifar(path, "cifar10")

    def test_label_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad_label.bin"
        write_record(path, 10, bytes(3072))
        with pytest.raises(ValueError, match="label"):
            dt.load_cifar(path, "cifar10")

    def test_export_round_trip(self, tmp_path):
        batch = dt.synth_blobs(6, resolution=32, classes=3, seed=5, channels=3)
        path = tmp_path / "export.bin"
        write_cifar10(batch, path)
        again = dt.load_cifar(path, "cifar10")
        assert again.labels.tolist() == batch.labels.tolist()
        np.testing.assert_allclose(again.pixels, batch.pixels, atol=0.5 / 255 + 1e-12)


class TestSynthBlobs:
    def test_seed_determinism(self):
        a = dt.synth_blobs(12, seed=3)
        b = dt.synth_blobs(12, seed=3)
        assert np.array_equal(a.pixels, b.pixels)
        assert np.array_equal(a.labels, b.labels)
        c = dt.synth_blobs(12, seed=4)
        assert not np.array_equal(a.pixels, c.pixels)

    def test_pixels_clipped(self):
        batch = dt.synth_blobs(30, amplitude=2.0, noise=0.8, seed=1)
        assert batch.pixels.min() >= 0.0 and batch.pixels.max() <= 1.0

    def test_linear_probe_separates_two_classes(self):
        batch = dt.synth_blobs(200, classes=2, seed=2, amplitude=0.6, noise=0.05)
        flat = batch.pixels.reshape(len(batch), -1)
        x = np.hstack([flat, np.ones((len(batch), 1))])
        targets = np.eye(2)[batch.labels]
        w, *_ = np.linalg.lstsq(x, targets, rcond=None)
        acc = np.mean(np.argmax(x @ w, axis=1) == batch.labels)
        assert acc >= 0.95

    def test_validation(self):
        with pytest.raises(ValueError):
            dt.synth_blobs(4, resolution=4)
        with pytest.raises(ValueError):
            dt.synth_blobs(4, classes=1)

    def test_extremes_within_bounds_stay_quiet(self):
        # a far bump under a narrow spread overflows its exponent to -inf,
        # whose exp is 0; a numeric warning is a test failure
        batch = dt.synth_blobs(4, resolution=8, classes=2, spread=1e-150, jitter=1e150)
        assert len(batch) == 4
        for key, value in (("spread", 1e-151), ("spread", 1e151), ("jitter", 2e150)):
            with pytest.raises(ValueError, match=f"{key} must be"):
                dt.synth_blobs(4, resolution=8, classes=2, **{key: value})

    def test_balanced_labels(self):
        batch = dt.synth_blobs(20, classes=4, seed=0)
        assert np.bincount(batch.labels).tolist() == [5, 5, 5, 5]


class TestCutout:
    def test_full_size_hole_covers_everything(self):
        batch = dt.synth_blobs(8, resolution=16, seed=1)
        fill = float(batch.pixels.mean())
        out = dt.cutout(batch, 16, fill, seed_stream(0, "cutout"))
        assert np.all(out.pixels == fill)
        assert np.array_equal(out.labels, batch.labels)

    def test_zero_hole_is_identity(self):
        batch = dt.synth_blobs(5, resolution=16, seed=1)
        out = dt.cutout(batch, 0, 0.5, seed_stream(0, "cutout"))
        assert np.array_equal(out.pixels, batch.pixels)

    def test_corner_hole_is_clipped(self):
        # Force a corner center; the painted area must be under hole^2.
        batch = dt.synth_blobs(1, resolution=16, seed=3, noise=0.3)
        hole = 6

        class Corner:
            def integers(self, lo, hi, size):
                return np.zeros(size, dtype=int)

        out = dt.cutout(batch, hole, float(batch.pixels.mean()), Corner())
        changed = np.any(out.pixels != batch.pixels, axis=1)[0]
        area = int(changed.sum())
        assert 0 < area < hole * hole
        ys, xs = np.where(changed)
        assert ys.max() < hole and xs.max() < hole

    def test_fill_value_is_batch_mean(self):
        batch = dt.synth_blobs(3, resolution=16, seed=4)
        fill = float(batch.pixels.mean())
        out = dt.cutout(batch, 4, fill, seed_stream(1, "cutout"))
        changed = out.pixels != batch.pixels
        assert np.all(out.pixels[changed] == fill)

    def test_deterministic_per_stream(self):
        batch = dt.synth_blobs(6, resolution=16, seed=5)
        a = dt.cutout(batch, 5, 0.5, seed_stream(2, "cutout"))
        b = dt.cutout(batch, 5, 0.5, seed_stream(2, "cutout"))
        assert np.array_equal(a.pixels, b.pixels)


class TestBatchOps:
    def test_split_deterministic_and_disjoint(self):
        batch = dt.synth_blobs(40, seed=7)
        t1, v1 = dt.train_val_split(batch, 0.25, seed=9)
        t2, v2 = dt.train_val_split(batch, 0.25, seed=9)
        assert np.array_equal(t1.pixels, t2.pixels)
        assert np.array_equal(v1.pixels, v2.pixels)
        assert len(t1) + len(v1) == len(batch)

    @pytest.mark.parametrize("n, fraction", [(1, 0.1), (2, 0.9)])
    def test_split_leaving_no_training_sample_raises(self, n, fraction):
        # an empty training half has no mean: the split refuses it up front
        batch = dt.synth_blobs(n, resolution=8, classes=2, seed=3)
        with pytest.raises(ValueError, match=f"batch of {n} .* {fraction}"):
            dt.train_val_split(batch, fraction, seed=0)

    def test_subset_keeps_stats(self):
        batch = dt.synth_blobs(10, seed=9)
        sub = batch.subset(np.array([1, 3]))
        assert len(sub) == 2

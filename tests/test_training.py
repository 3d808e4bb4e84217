"""Trainer checks: objective components against closed forms and finite
differences, frozen-teacher guarantees, the lam=0 bit-identity with plain
adversarial training, and end-to-end learning on separable data."""

import numpy as np
import pytest

from gradeq import attribution
from gradeq import training as tr
from gradeq.data import synth_blobs
from gradeq.models import MLP, LinearScore, build_model
from gradeq.seeding import seed_stream


def upcast(model):
    # float32 storage ruins finite differences; promote in place
    for n, p in model.params.items():
        model.params[n] = p.astype(np.float64)
    return model


def softmax_ce(logits, y):
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    return float(np.mean(-np.log(p[np.arange(len(y)), y])))


class TestConfig:
    def test_rejects_bad_settings(self):
        m = {"kind": "mlp", "in_shape": [4], "hidden": [3], "classes": 2}
        with pytest.raises(ValueError):
            tr.TrainConfig("fancy", m)
        with pytest.raises(ValueError):
            tr.TrainConfig("igd", m, lam=-1.0)
        with pytest.raises(ValueError):
            tr.TrainConfig("pgdat", m, lam=2.0)  # coefficient is igd-only
        with pytest.raises(ValueError):
            tr.TrainConfig("standard", m, val_fraction=1.5)

    def test_selection_metric(self):
        m = {"kind": "mlp", "in_shape": [4], "hidden": [3], "classes": 2}
        assert tr.TrainConfig("standard", m).selection_metric == "clean_acc"
        assert tr.TrainConfig("pgdat", m).selection_metric == "adv_acc"


class TestIgdLoss:
    def test_lambda_zero_is_plain_ce(self):
        model = MLP((6,), [5], 3, seed=1)
        rng = seed_stream(2, "x")
        x = rng.uniform(size=(4, 6))
        xa = np.clip(x + rng.uniform(-0.03, 0.03, size=x.shape), 0, 1)
        y = np.array([0, 1, 2, 1])
        parts = tr.igd_loss(model, None, x, xa, y, 0.0)
        assert parts.total == parts.ce
        assert parts.cos_mean == 0.0
        assert not parts.degenerate.any()
        assert parts.ce == pytest.approx(softmax_ce(model.logits(xa), y), abs=1e-12)

    def test_student_equals_teacher_cosine_one(self):
        student = MLP((6,), [5], 3, "softplus", seed=3)
        teacher = MLP((6,), [5], 3, "softplus", seed=3)
        rng = seed_stream(4, "x")
        x = rng.uniform(size=(5, 6))
        y = np.array([0, 1, 2, 0, 1])
        lam = 2.0
        parts = tr.igd_loss(student, teacher, x, x, y, lam)
        assert parts.cos_mean == pytest.approx(1.0, abs=1e-10)
        assert parts.total == pytest.approx(parts.ce - lam, abs=1e-10)

    def test_scaled_teacher_cosine_one(self):
        w = seed_stream(5, "w").normal(size=8)
        student = LinearScore.from_arrays(w, 0.0)
        teacher = LinearScore.from_arrays(3.0 * w, -1.0)
        x = seed_stream(6, "x").uniform(size=(3, 8))
        y = np.ones(3, dtype=int)
        parts = tr.igd_loss(student, teacher, x, x, y, 1.0)
        assert parts.cos_mean == pytest.approx(1.0, abs=1e-12)

    def test_teacher_gradient_detached(self):
        # perturbing the teacher must change the value but the gradient
        # check below is about the student only; here: teacher params get
        # no gradient entry at all
        student = MLP((4,), [3], 2, "softplus", seed=7)
        teacher = MLP((4,), [3], 2, "softplus", seed=8)
        x = seed_stream(9, "x").uniform(size=(3, 4))
        y = np.array([0, 1, 0])
        parts = tr.igd_loss(student, teacher, x, x, y, 1.5)
        assert set(parts.grads) == set(student.params)

    def test_param_gradients_match_fd(self):
        student = upcast(MLP((5,), [6], 3, "softplus", seed=10))
        teacher = upcast(MLP((5,), [6], 3, "softplus", seed=11))
        rng = seed_stream(12, "x")
        x = rng.uniform(0.1, 0.9, size=(4, 5))
        xa = np.clip(x + rng.uniform(-0.05, 0.05, size=x.shape), 0, 1)
        y = np.array([0, 2, 1, 1])
        lam = 0.7
        parts = tr.igd_loss(student, teacher, x, xa, y, lam)
        h = 1e-5
        for name in student.params:
            p = student.params[name]
            flat = p.reshape(-1)
            for j in range(0, flat.size, max(1, flat.size // 5)):
                orig = flat[j]
                flat[j] = orig + h
                up = tr.igd_loss(student, teacher, x, xa, y, lam).total
                flat[j] = orig - h
                dn = tr.igd_loss(student, teacher, x, xa, y, lam).total
                flat[j] = orig
                fd = (up - dn) / (2 * h)
                got = parts.grads[name].reshape(-1)[j]
                assert got == pytest.approx(fd, rel=1e-3, abs=1e-7), (name, j)

    def test_degenerate_rows_flagged(self):
        # a teacher with zero weights has a zero input gradient everywhere
        student = LinearScore.from_arrays(np.array([1.0, 2.0]), 0.0)
        teacher = LinearScore.from_arrays(np.array([0.0, 0.0]), 0.0)
        x = np.array([[0.2, 0.8], [0.5, 0.5]])
        y = np.ones(2, dtype=int)
        parts = tr.igd_loss(student, teacher, x, x, y, 1.0)
        assert parts.degenerate.all()
        assert parts.cos_mean == 0.0
        assert parts.total == parts.ce  # -lam * 0, with the term masked out


class TestSaliencyProbe:
    def test_nan_map_raises(self, monkeypatch):
        # a NaN map used to be skipped, leaving the mean of the others
        real = attribution.input_gradients

        def one_nan(model, x, y):
            g = real(model, x, y)
            g[1, 0, 0, 0] = np.nan
            return g

        model = MLP((1, 4, 4), [5], 2, seed=1)
        x = seed_stream(2, "probe").uniform(size=(4, 1, 4, 4))
        y = np.array([0, 1, 1, 0])
        assert 0.0 < tr.mean_saliency_gini(model, x, y) < 1.0
        monkeypatch.setattr(attribution, "input_gradients", one_nan)
        with pytest.raises(ValueError, match="finite"):
            tr.mean_saliency_gini(model, x, y)

    def test_zero_maps_give_nan(self):
        model = MLP((1, 4, 4), [5], 2, seed=1)
        for k in model.params:
            model.params[k] = np.zeros_like(model.params[k])
        x = seed_stream(3, "probe").uniform(size=(3, 1, 4, 4))
        assert np.isnan(tr.mean_saliency_gini(model, x, np.array([0, 1, 0])))


def blob_config(method, **kw):
    model = {"kind": "mlp", "in_shape": [64], "hidden": [16], "classes": 2}
    base = dict(epochs=3, batch_size=32, lr=0.05, pgd_iters=2,
                val_fraction=0.2, seed=5)
    base.update(kw)
    return tr.TrainConfig(method, model, **base)


def blobs(n=120):
    b = synth_blobs(n, resolution=8, classes=2, seed=6, spread=1.5, noise=0.05)
    return b


class TestTrain:
    def test_zero_epochs_returns_init(self):
        cfg = blob_config("standard", epochs=0)
        model, record = tr.train(cfg, blobs())
        fresh = build_model(cfg.model, seed=cfg.seed)
        assert record.rows == () and record.best_epoch == -1
        for n in model.params:
            assert np.array_equal(model.params[n], fresh.params[n])

    def test_standard_learns_blobs(self):
        cfg = blob_config("standard", epochs=15, lr=0.1)
        data = blobs(240)
        model, record = tr.train(cfg, data)
        assert not record.aborted
        assert len(record.rows) == 15
        assert tr.accuracy(model, data.pixels, data.labels) >= 0.95

    def test_best_epoch_matches_metric(self):
        cfg = blob_config("standard", epochs=6)
        _, record = tr.train(cfg, blobs())
        accs = [r.clean_acc for r in record.rows]
        assert record.best_epoch == int(np.argmax(accs))

    def test_lambda_zero_bit_identity_with_pgdat(self):
        data = blobs()
        pg_cfg = blob_config("pgdat", epochs=2)
        ig_cfg = blob_config("igd", epochs=2, lam=0.0)
        teacher, _ = tr.train(blob_config("standard", epochs=1), data)
        m_pg, r_pg = tr.train(pg_cfg, data)
        m_ig, r_ig = tr.train(ig_cfg, data, teacher=teacher)
        for n in m_pg.params:
            assert np.array_equal(m_pg.params[n], m_ig.params[n])
        for a, b in zip(r_pg.rows, r_ig.rows):
            assert a.loss == b.loss and a.adv_acc == b.adv_acc

    def test_teacher_params_untouched(self):
        data = blobs()
        teacher, _ = tr.train(blob_config("standard", epochs=2), data)
        before = {n: p.tobytes() for n, p in teacher.params.items()}
        tr.train(blob_config("igd", epochs=2, lam=2.0), data, teacher=teacher)
        after = {n: p.tobytes() for n, p in teacher.params.items()}
        assert before == after

    def test_igd_requires_teacher(self):
        with pytest.raises(ValueError):
            tr.train(blob_config("igd", lam=1.0), blobs())

    def test_cutout_method_trains(self):
        model, record = tr.train(blob_config("pgdat_cutout", epochs=2,
                                             cutout_hole=3), blobs())
        assert not record.aborted
        assert len(record.rows) == 2

    def test_divergence_aborts(self):
        cfg = blob_config("standard", epochs=4, lr=1e12, batch_size=8)
        _, record = tr.train(cfg, blobs(80))
        assert record.aborted
        assert len(record.rows) < 4

    @pytest.mark.filterwarnings("error")
    def test_divergence_on_last_batch_aborts(self):
        """A run that diverges on an epoch's last batch aborts right after
        that update instead of evaluating the overflowed parameters."""
        cfg = tr.TrainConfig(method="standard", model={
            "kind": "mlp", "in_shape": [1, 8, 8], "hidden": [8], "classes": 2},
            epochs=3, batch_size=64, lr=1e30, seed=0)
        model, record = tr.train(cfg, synth_blobs(40, resolution=8, classes=2, seed=1))
        assert record.aborted
        assert len(record.rows) == 1 and record.best_epoch == 0
        assert all(np.isfinite(p).all() for p in model.params.values())

    def test_igd_records_cosine(self):
        data = blobs()
        teacher, _ = tr.train(blob_config("standard", epochs=2), data)
        _, record = tr.train(blob_config("igd", epochs=2, lam=1.0), data,
                             teacher=teacher)
        assert all(-1.0 <= r.cos <= 1.0 for r in record.rows)
        assert any(r.cos != 0.0 for r in record.rows)

    def test_deterministic(self):
        data = blobs()
        a, ra = tr.train(blob_config("pgdat", epochs=2), data)
        b, rb = tr.train(blob_config("pgdat", epochs=2), data)
        for n in a.params:
            assert np.array_equal(a.params[n], b.params[n])
        assert ra == rb

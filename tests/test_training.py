"""Trainer checks: objective components against closed forms and finite
differences, frozen-teacher guarantees, the lam=0 bit-identity with plain
adversarial training, and end-to-end learning on separable data."""

import tracemalloc
import weakref

import numpy as np
import pytest

from gradeq import attribution
from gradeq import autodiff as ag
from gradeq import training as tr
from gradeq.data import synth_blobs, train_val_split
from gradeq.models import MLP, LinearScore, build_model
from gradeq.seeding import seed_stream
from support import one_tape_igd_loss


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


def same_parts(got, want):
    """Two `LossParts` equal in every byte: values, flags, every gradient."""
    for f in ("total", "ce", "cos_mean"):
        assert np.float64(getattr(got, f)).tobytes() == np.float64(getattr(want, f)).tobytes(), f
    assert got.degenerate.tobytes() == want.degenerate.tobytes()
    assert list(got.grads) == list(want.grads)
    for name, g in want.grads.items():
        assert got.grads[name].dtype == g.dtype and got.grads[name].shape == g.shape, name
        assert got.grads[name].tobytes() == g.tobytes(), name


class TestTwoTapes:
    """`igd_loss` sweeps the alignment tape, frees it, then records and
    sweeps the CE tape; it must equal the one-tape objective bit for bit."""

    MODELS = {
        "mlp-relu": {"kind": "mlp", "in_shape": [3, 8, 8], "hidden": [16, 8],
                     "classes": 3, "activation": "relu"},
        "mlp-softplus": {"kind": "mlp", "in_shape": [3, 8, 8], "hidden": [16],
                         "classes": 3, "activation": "softplus"},
        "cnn-relu": {"kind": "cnn", "in_shape": [3, 8, 8], "channels": [4, 6],
                     "classes": 3, "activation": "relu"},
        "cnn-softplus": {"kind": "cnn", "in_shape": [3, 8, 8], "channels": [4, 6],
                         "classes": 3, "activation": "softplus"},
        "linear": {"kind": "linear", "in_shape": [3, 8, 8]},
    }

    @staticmethod
    def _batch(cfg, n=5):
        student, teacher = build_model(cfg, seed=1), build_model(cfg, seed=2)
        rng = seed_stream(3, "x")
        x = rng.uniform(size=(n, *cfg["in_shape"]))
        xa = np.clip(x + rng.uniform(-0.03, 0.03, size=x.shape), 0, 1)
        return student, teacher, x, xa, rng.integers(0, student.classes, size=n)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("kind", list(MODELS))
    def test_equals_the_one_tape_oracle(self, kind, lam):
        args = (*self._batch(self.MODELS[kind]), lam)
        same_parts(tr.igd_loss(*args), one_tape_igd_loss(*args))

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_a_parameter_the_alignment_term_leaves_unreached_takes_the_ce_array(
            self, monkeypatch, lam):
        """One sample through a ReLU MLP whose hidden unit 0 is dead while
        its upstream gradient is negative: the CE gradient of `b0[0]` is
        -0.0, and no uncut path leads from `b0` to the alignment term."""
        student, teacher = MLP((6,), [5], 3, seed=1), MLP((6,), [5], 3, seed=2)
        student.params["b0"][0] = -100.0
        student.params["w1"][0] = [1.0, 0.0, 0.0]
        x, y = seed_stream(2, "x").uniform(size=(1, 6)), np.array([0])
        want = one_tape_igd_loss(student, teacher, x, x, y, lam)
        sweeps, real = [], ag.grad

        def spy(out, wrts, *, create_graph=False):
            result = real(out, wrts, create_graph=create_graph)
            if not create_graph:
                sweeps.append((len(wrts), result))
            return result

        monkeypatch.setattr(ag, "grad", spy)
        got = tr.igd_loss(student, teacher, x, x, y, lam)
        (_, _), (aligned, _), (_, ce_grads) = sweeps  # teacher, alignment, CE
        assert aligned == 2 < len(student.params)  # w0 and w1; no bias
        assert np.signbit(ce_grads[list(student.params).index("b0")][0])
        assert np.signbit(got.grads["b0"][0])
        same_parts(got, want)

    def test_the_ce_array_of_an_unreached_parameter_is_kept_as_it_is(self, monkeypatch):
        """Spy a CE sweep whose `b0` gradient is all -0.0: `b0` reaches no
        alignment term, so its gradient is that array, not zeros plus it."""
        student, teacher, x, xa, y = self._batch(self.MODELS["mlp-relu"])
        real, b0, doubled = ag.grad, list(student.params).index("b0"), []

        def spy(out, wrts, *, create_graph=False):
            result = real(out, wrts, create_graph=create_graph)
            if create_graph:
                doubled.append(weakref.ref(out.graph))
            elif len(wrts) > 1 and all(r() is not out.graph for r in doubled):
                result[b0] = np.full_like(result[b0], -0.0)  # the CE sweep
            return result

        monkeypatch.setattr(ag, "grad", spy)
        got = tr.igd_loss(student, teacher, x, xa, y, 2.0).grads["b0"]
        assert np.signbit(got).all() and not got.any()

    @pytest.mark.parametrize("lam", [0.0, 2.0])
    def test_one_tape_per_term(self, monkeypatch, lam):
        made = []

        class Counted(ag.Graph):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(ag, "Graph", Counted)
        student, teacher, x, xa, y = self._batch(self.MODELS["mlp-softplus"])
        tr.igd_loss(student, teacher, x, xa, y, lam)
        assert len(made) == (1 if lam == 0.0 else 3)  # CE; teacher, alignment, CE

    def test_the_alignment_tape_is_dead_when_the_ce_tape_is_swept(self, monkeypatch):
        student, teacher, x, xa, y = self._batch(self.MODELS["cnn-relu"])
        real, seen = ag.grad, {"align": None, "ce": 0}

        def spy(out, wrts, *, create_graph=False):
            if create_graph:
                seen["align"] = weakref.ref(out.graph)
            elif seen["align"] is not None and out.graph is not seen["align"]():
                assert seen["align"]() is None, "alignment tape alive at the CE sweep"
                seen["ce"] += 1
            return real(out, wrts, create_graph=create_graph)

        monkeypatch.setattr(ag, "grad", spy)
        tr.igd_loss(student, teacher, x, xa, y, 2.0)
        assert seen["ce"] == 1

    def test_peaks_well_below_the_one_tape_objective(self):
        """The double backward's largest temporaries no longer share memory
        with the CE tape: on a 16x3x32x32 CNN [8, 16] batch the peak was
        28.0 MB against the one-tape 36.3 MB."""
        cfg = {"kind": "cnn", "in_shape": [3, 32, 32], "channels": [8, 16], "classes": 10}
        args = (*self._batch(cfg, n=16), 2.0)
        peaks = []
        for loss in (tr.igd_loss, one_tape_igd_loss):
            tracemalloc.start()
            try:
                loss(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 0.85 * peaks[1], peaks


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
        x = np.zeros((2, 4))
        with pytest.raises(ValueError, match="needs a teacher"):
            tr.igd_loss(MLP((4,), [3], 2, seed=1), None, x, x, np.array([0, 1]), 0.5)

    def test_cutout_method_trains(self):
        model, record = tr.train(blob_config("pgdat_cutout", epochs=2,
                                             cutout_hole=3), blobs())
        assert not record.aborted
        assert len(record.rows) == 2

    def test_cutout_fills_holes_with_the_training_mean(self, monkeypatch):
        cfg = blob_config("pgdat_cutout", epochs=1, cutout_hole=3)
        data = blobs()
        fills, real = [], tr.cutout
        monkeypatch.setattr(tr, "cutout", lambda batch, hole, fill, rng:
                            fills.append(fill) or real(batch, hole, fill, rng))
        tr.train(cfg, data)
        want = float(train_val_split(data, cfg.val_fraction, cfg.seed)[0].pixels.mean())
        assert fills and all(f.hex() == want.hex() for f in fills)

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

    def test_nonfinite_loss_aborts_with_finite_parameters(self, monkeypatch):
        """A loss tape that goes non-finite while every parameter is still
        finite aborts the run at that batch and keeps the best epoch so far:
        here the first batch of epoch 1, so epoch 0's parameters."""
        cfg, data = blob_config("standard", epochs=3), blobs()
        want, _ = tr.train(blob_config("standard", epochs=1), data)
        pool = len(train_val_split(data, cfg.val_fraction, cfg.seed)[0])
        per_epoch = -(-pool // cfg.batch_size)
        calls, real = [], tr.igd_loss

        def spy(*args):
            calls.append(args)
            if len(calls) == per_epoch + 1:
                raise ag.NonFiniteError("op 'exp' produced non-finite values")
            return real(*args)

        monkeypatch.setattr(tr, "igd_loss", spy)
        model, record = tr.train(cfg, data)
        assert record.aborted and len(calls) == per_epoch + 1
        assert len(record.rows) == 1 and record.best_epoch == 0
        for n, p in want.params.items():
            assert model.params[n].tobytes() == p.tobytes()

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

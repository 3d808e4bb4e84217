"""Model forwards, linearization, and checkpoint round trips."""

import functools
import hashlib
import json
import struct
from typing import Annotated

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradeq import autodiff as ag
from gradeq import models as md
from support import class_score


def graph_forward(model, x):
    g = ag.Graph()
    return model.graph_logits(g.var(x), model.bind(g)).value


def conv_shift_add(x, k, pad):
    """Convolution as a sum over kernel offsets, unlike the windowed kernel."""
    n, c, h, w = x.shape
    o, _, kh, kw = k.shape
    x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = h + 2 * pad - kh + 1
    wo = w + 2 * pad - kw + 1
    out = np.zeros((n, o, ho, wo))
    for u in range(kh):
        for v in range(kw):
            out += np.einsum("nchw,oc->nohw", x[:, :, u : u + ho, v : v + wo], k[:, :, u, v])
    return out


def pool_direct(x):
    """2x2 max pool as a direct max, without an argmax mask."""
    n, c, h, w = x.shape
    return x.reshape(n, c, h // 2, 2, w // 2, 2).max(axis=(3, 5))


def cnn_oracle(model, x):
    """The CNN forward built from the shift-and-add convolution and direct max."""
    act = {"relu": lambda v: np.maximum(v, 0.0),
           "softplus": lambda v: np.logaddexp(0.0, v)}[model.activation]
    p = {k: v.astype(np.float64) for k, v in model.params.items()}
    h = pool_direct(act(conv_shift_add(x, p["k1"], 1) + p["cb1"][None, :, None, None]))
    h = pool_direct(act(conv_shift_add(h, p["k2"], 1) + p["cb2"][None, :, None, None]))
    return h.reshape(len(h), -1) @ p["w"] + p["b"]


class TestForwardRoutes:
    def test_mlp_routes_agree(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, size=(5, 1, 2, 3))
        for activation in ("relu", "softplus"):
            m = md.MLP((1, 2, 3), [8, 8], 3, activation, seed=4)
            assert np.array_equal(m.logits(x), graph_forward(m, x))

    def test_cnn_routes_agree(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, size=(3, 3, 8, 8))
        for activation in ("relu", "softplus"):
            m = md.CNN((3, 8, 8), [4, 6], 5, activation, seed=9)
            assert np.array_equal(m.logits(x), graph_forward(m, x))

    def test_linear_routes_agree(self):
        rng = np.random.default_rng(3)
        m = md.LinearScore((7,), seed=1)
        x = rng.uniform(0, 1, size=(4, 7))
        assert np.array_equal(m.logits(x), graph_forward(m, x))

    @pytest.mark.parametrize("activation", ["relu", "softplus"])
    def test_cnn_matches_shift_add_oracle(self, activation):
        rng = np.random.default_rng(6)
        m = md.CNN((3, 12, 8), [5, 7], 4, activation, seed=3)
        x = rng.uniform(0, 1, size=(6, 3, 12, 8))
        want = cnn_oracle(m, x)
        np.testing.assert_allclose(m.logits(x), want, rtol=1e-12, atol=1e-13)
        assert np.array_equal(np.argmax(m.logits(x), axis=1), np.argmax(want, axis=1))

    def test_mlp_and_linear_match_matmul_oracle(self):
        rng = np.random.default_rng(7)
        m = md.MLP((6,), [5], 3, "relu", seed=2)
        x = rng.uniform(0, 1, size=(4, 6))
        p = {k: v.astype(np.float64) for k, v in m.params.items()}
        want = np.maximum(x @ p["w0"] + p["b0"], 0.0) @ p["w1"] + p["b1"]
        assert np.array_equal(m.logits(x), want)
        lin = md.LinearScore.from_arrays(rng.normal(size=6), -0.25)
        s = x @ lin.w - 0.25
        assert np.array_equal(lin.logits(x), np.stack([np.zeros_like(s), s], axis=1))

    def test_unknown_activation_rejected(self):
        for make in (lambda: md.MLP((4,), [3], 2, "tanh"),
                     lambda: md.CNN((1, 8, 8), [2, 2], 2, "matmul")):
            with pytest.raises(ValueError, match="activation"):
                make()

    @pytest.mark.parametrize("config", [
        {"kind": "mlp", "in_shape": [1, 4, 4], "hidden": [3], "classes": 0},
        {"kind": "mlp", "in_shape": [1, 4, 4], "hidden": [0], "classes": 2},
        {"kind": "mlp", "in_shape": [1, 4, 4], "hidden": [-3], "classes": 2},
        {"kind": "mlp", "in_shape": [1, 0, 4], "hidden": [3], "classes": 2},
        {"kind": "mlp", "in_shape": [4], "hidden": [3.0], "classes": 2},
        {"kind": "cnn", "in_shape": [0, 8, 8], "channels": [2, 2], "classes": 2},
        {"kind": "cnn", "in_shape": [1, 8, 8], "channels": [2, -2], "classes": 2},
        {"kind": "cnn", "in_shape": [1, 8, 8], "channels": [2, 2], "classes": -1},
        {"kind": "cnn", "in_shape": [1, -8, 8], "channels": [2, 2], "classes": 2},
        {"kind": "linear", "in_shape": [0]},
        {"kind": "linear", "in_shape": [True, 4]},
    ])
    def test_nonpositive_sizes_rejected(self, config):
        # refused before any arithmetic: np.sqrt(2.0 / 0) raised ZeroDivisionError
        with pytest.raises(ValueError, match="positive integers"):
            md.build_model(config)

    @pytest.mark.parametrize("config, match", [
        ({"kind": "mlp", "in_shape": [4], "hidden": [3]}, r"missing keys \['classes'\]"),
        ({"kind": "cnn", "in_shape": [1, 8, 8], "classes": 2}, "missing keys"),
        ({"kind": "mlp", "in_shape": [4], "hidden": [3], "classes": 2, "dropout": 0.5},
         r"unknown keys \['dropout'\]"),
        ({"kind": "linear", "in_shape": [4], "hidden": [3]}, "unknown keys"),
        ({"kind": "linear", "in_shape": [4], "seed": 3}, "unknown keys"),
        ({"kind": "rnn", "in_shape": [4]}, "unknown kind 'rnn'"),
        ([1, 2], "unknown kind None"),
    ])
    def test_build_model_checks_keys(self, config, match):
        with pytest.raises(ValueError, match=match):
            md.build_model(config)

    def test_init_deterministic_per_seed(self):
        a = md.MLP((4,), [5], 2, seed=7)
        b = md.MLP((4,), [5], 2, seed=7)
        c = md.MLP((4,), [5], 2, seed=8)
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])
        assert not np.array_equal(a.params["w0"], c.params["w0"])

    def test_cnn_rejects_odd_dims(self):
        with pytest.raises(ValueError):
            md.CNN((3, 30, 30), [4, 8], 10)
        with pytest.raises(ValueError, match="expected exactly two conv stages"):
            md.CNN((1, 8, 8), [4], 2)


class TestClassScore:
    """The single-input score the finite-difference checks rest on."""

    def test_linear_dot_plus_bias(self):
        m = md.LinearScore.from_arrays([1.0, -1.0], 0.5)
        assert class_score(m, np.array([2.0, 1.0]), 1) == pytest.approx(1.5)
        assert class_score(m, np.array([2.0, 1.0]), 0) == 0.0

    def test_zero_network_scores_zero(self):
        m = md.MLP((5,), [4], 3, seed=0)
        for k in m.params:
            m.params[k] = np.zeros_like(m.params[k])
        x = np.ones(5)
        for y in range(3):
            assert class_score(m, x, y) == 0.0

    def test_matches_graph_route(self):
        rng = np.random.default_rng(4)
        m = md.CNN((1, 8, 8), [3, 4], 4, seed=2)
        x = rng.uniform(0, 1, size=(1, 8, 8))
        want = graph_forward(m, x[None])[0]
        for y in range(4):
            assert class_score(m, x, y) == pytest.approx(want[y], rel=1e-9)

    def test_out_of_range_class(self):
        m = md.LinearScore((3,))
        with pytest.raises(ValueError):
            class_score(m, np.zeros(3), 2)


class TestSaliencyGradient:
    """`label_score` is the one labeled-logit score every saliency gradient
    differentiates: attribution's, the theory surrogate's and the igd term's."""

    MODELS = {"mlp": lambda: md.MLP((1, 8, 8), [6], 3, "softplus", seed=2),
              "cnn": lambda: md.CNN((2, 8, 8), [3, 4], 3, "softplus", seed=3)}

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_create_graph_gradient_is_input_gradients(self, kind):
        m = self.MODELS[kind]()
        x = np.random.default_rng(4).uniform(size=(5, *m.in_shape))
        y = np.array([0, 2, 1, 1, 0])
        g = ag.Graph()
        pv = m.bind(g)
        xv = g.var(x)
        (gx,) = ag.grad(md.label_score(m, xv, pv, y), [xv], create_graph=True)
        assert np.array_equal(gx.value, md.input_gradients(m, x, y))

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_linearize_is_one_inputs_gradient(self, kind):
        m = self.MODELS[kind]()
        x = np.random.default_rng(5).uniform(size=m.in_shape)
        lin = md.linearize(m, x, 1)
        want = md.input_gradients(m, x[None], [1])[0].reshape(-1)
        assert np.array_equal(lin.w, want)
        at_x = lin.logits(x[None])[0, 1]
        assert at_x == pytest.approx(m.logits(x[None])[0, 1], rel=1e-12, abs=1e-12)

    def test_label_out_of_range_refused(self):
        m = self.MODELS["mlp"]()
        with pytest.raises(ValueError, match="labels out of range for 3 classes"):
            md.linearize(m, np.zeros(m.in_shape), 3)


class TestLinearize:
    def test_linear_fixed_point(self):
        m = md.LinearScore.from_arrays([0.5, 2.0, -1.0], 0.25)
        lin = md.linearize(m, np.array([1.0, 2.0, 3.0]), 1)
        np.testing.assert_allclose(lin.w, m.w, rtol=1e-14)
        assert lin.b == pytest.approx(m.b, abs=1e-12)

    def test_zero_mlp(self):
        m = md.MLP((4,), [3], 2, seed=0)
        for k in m.params:
            m.params[k] = np.zeros_like(m.params[k])
        lin = md.linearize(m, np.ones(4), 1)
        assert np.all(lin.w == 0.0) and lin.b == 0.0

    def test_non_finite_gradient_refused(self):
        # the forward stays finite (x = 0 skips the first weight), the
        # input gradient's product of ten 1e35 weights does not
        m = md.MLP((1,), [1] * 9, 2, seed=0)
        for k in m.params:
            m.params[k][...] = 1e35 if k.startswith("w") else 0.0
        m.params["b0"][...] = 1e-40
        with np.errstate(over="ignore"), pytest.raises(
                FloatingPointError, match="non-finite input gradient at linearization point"):
            md.linearize(m, np.zeros(1), 1)

    def test_cnn_taylor_agreement(self):
        rng = np.random.default_rng(5)
        m = md.CNN((1, 8, 8), [3, 4], 3, "softplus", seed=6)
        x = rng.uniform(0.2, 0.8, size=(1, 8, 8))
        y = 2
        lin = md.linearize(m, x, y)
        at_x = lin.w @ x.reshape(-1) + lin.b
        assert at_x == pytest.approx(class_score(m, x, y), abs=1e-10)
        direction = rng.normal(size=x.shape)
        direction /= np.linalg.norm(direction)
        x2 = x + 0.01 * direction
        surrogate = lin.w @ x2.reshape(-1) + lin.b
        actual = class_score(m, x2, y)
        assert surrogate == pytest.approx(actual, rel=0.05)


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        m = md.CNN((3, 8, 8), [4, 6], 5, seed=3)
        path = tmp_path / "m.ckpt"
        md.save_checkpoint(path, m, {"method": "standard", "epoch": 4, "seed": 3})
        loaded, extra = md.load_checkpoint(path)
        assert extra == {"method": "standard", "epoch": 4, "seed": 3}
        assert loaded.config() == m.config()
        for k in m.params:
            assert np.array_equal(loaded.params[k], m.params[k])

    def test_corrupt_payload_byte_rejected(self, tmp_path):
        m = md.MLP((4,), [3], 2, seed=1)
        path = tmp_path / "m.ckpt"
        md.save_checkpoint(path, m)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(md.IntegrityError):
            md.load_checkpoint(path)

    def test_empty_file_bad_magic(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        path.write_bytes(b"")
        with pytest.raises(md.IntegrityError, match="magic"):
            md.load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        m = md.MLP((4,), [3], 2, seed=1)
        path = tmp_path / "m.ckpt"
        md.save_checkpoint(path, m)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(md.IntegrityError, match="version"):
            md.load_checkpoint(path)

    def test_truncated_header_rejected(self, tmp_path):
        m = md.MLP((4,), [3], 2, seed=1)
        path = tmp_path / "m.ckpt"
        md.save_checkpoint(path, m)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(md.IntegrityError):
            md.load_checkpoint(path)

    def test_build_model_round_trip(self):
        for m in (md.MLP((6,), [4], 3, "softplus", 2), md.CNN((1, 8, 8), [2, 3], 4),
                  md.LinearScore((5,), 1)):
            again = md.build_model(m.config())
            assert again.config() == m.config()


def frame(header, payload=b""):
    """Checkpoint bytes around a raw header blob, framed like save_checkpoint."""
    blob = header if isinstance(header, bytes) else json.dumps(header).encode()
    return b"IGDC" + struct.pack("<IQ", 1, len(blob)) + blob + payload


def split_checkpoint(raw):
    (hlen,) = struct.unpack("<Q", raw[8:16])
    return json.loads(raw[16 : 16 + hlen]), raw[16 + hlen :]


def saved_bytes(tmp_path, model, extra=None):
    path = tmp_path / "m.ckpt"
    md.save_checkpoint(path, model, extra)
    return path.read_bytes()


_SAMPLE = md.MLP((1, 2, 2), [3], 2, "softplus", seed=5)


class TestMalformedCheckpoints:
    def load_bytes(self, tmp_path, raw):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(raw)
        return md.load_checkpoint(path)

    def test_every_truncation_raises_integrity_error(self, tmp_path):
        for model in (_SAMPLE, md.CNN((1, 4, 4), [2, 2], 2, seed=1), md.LinearScore((3,))):
            raw = saved_bytes(tmp_path, model, {"epoch": 3})
            for n in range(len(raw)):
                with pytest.raises(md.IntegrityError):
                    self.load_bytes(tmp_path, raw[:n])

    def test_header_not_utf8_or_not_json(self, tmp_path):
        for blob in (b"\xff\xfe{}", b"{not json", b"[1, 2]", b"null"):
            with pytest.raises(md.IntegrityError):
                self.load_bytes(tmp_path, frame(blob))

    def test_missing_keys(self, tmp_path):
        header, payload = split_checkpoint(saved_bytes(tmp_path, _SAMPLE))
        for key in header:
            broken = {k: v for k, v in header.items() if k != key}
            with pytest.raises(md.IntegrityError):
                self.load_bytes(tmp_path, frame(broken, payload))
        for key in header["model"]:
            broken = dict(header, model={k: v for k, v in header["model"].items() if k != key})
            with pytest.raises(md.IntegrityError):
                self.load_bytes(tmp_path, frame(broken, payload))

    def test_unknown_model_config(self, tmp_path):
        header, payload = split_checkpoint(saved_bytes(tmp_path, _SAMPLE))
        for model in ({"kind": "rnn"}, dict(header["model"], activation="tanh"),
                      dict(header["model"], hidden="3"), [1, 2],
                      dict(header["model"], dropout=0.5),
                      {k: v for k, v in header["model"].items() if k != "classes"},
                      dict(header["model"], hidden=[0]), dict(header["model"], hidden=[-3]),
                      dict(header["model"], classes=0), dict(header["model"], classes=-2),
                      dict(header["model"], in_shape=[1, 0, 2]),
                      dict(header["model"], in_shape=[1, 2, -2])):
            with pytest.raises(md.IntegrityError):
                self.load_bytes(tmp_path, frame(dict(header, model=model), payload))

    def test_params_must_match_the_model(self, tmp_path):
        header, payload = split_checkpoint(saved_bytes(tmp_path, _SAMPLE))
        recs = header["params"]
        for params in (recs[::-1], recs[:-1], [dict(recs[0], name="w9")] + recs[1:],
                       [dict(recs[0], shape=[2, 6])] + recs[1:], "w0", [1, 2, 3, 4]):
            with pytest.raises(md.IntegrityError):
                self.load_bytes(tmp_path, frame(dict(header, params=params), payload))

    @pytest.mark.parametrize("edit, match", [
        (lambda header, payload: (dict(header, extra=[]), payload),
         "extra is not an object"),
        (lambda header, payload: (
            dict(header, payload_sha256=hashlib.sha256(payload + bytes(4)).hexdigest()),
            payload + bytes(4)),
         "payload length does not match"),
    ], ids=["extra-a-list", "payload-4-bytes-long"])
    def test_refused_behind_a_matching_digest(self, tmp_path, edit, match):
        """A file whose payload digest holds is still refused by the checks
        after it."""
        header, payload = split_checkpoint(saved_bytes(tmp_path, _SAMPLE))
        with pytest.raises(md.IntegrityError, match=match):
            self.load_bytes(tmp_path, frame(*edit(header, payload)))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_single_byte_flip_never_escapes(self, tmp_path_factory, data):
        raw = saved_bytes(tmp_path_factory.mktemp("flip"), _SAMPLE, {"epoch": 3, "tag": "ok"})
        (hlen,) = struct.unpack("<Q", raw[8:16])
        pos = data.draw(st.integers(0, 16 + hlen - 1), label="pos")
        flipped = bytearray(raw)
        flipped[pos] ^= data.draw(st.integers(1, 255), label="xor")
        try:
            model, _ = self.load_bytes(tmp_path_factory.mktemp("flip"), bytes(flipped))
        except md.IntegrityError:
            return
        # a flip that still loads (inside extra, or whitespace) keeps the model
        assert model.config() == _SAMPLE.config()
        for k in _SAMPLE.params:
            assert np.array_equal(model.params[k], _SAMPLE.params[k])



class TestCheckValue:
    """The one checker of config values: a type, then each bound of an
    `Annotated` annotation, per entry of a list."""

    @pytest.mark.parametrize("annotation, value, message", [
        (int, True, "x must be an integer, got True"),
        (int, 2.0, "x must be an integer, got 2.0"),
        (float, float("inf"), "x must be a finite number, got inf"),
        (float, "1", "x must be a finite number, got '1'"),
        (str, 5, "x must be a string, got 5"),
        (Annotated[int, (">=", 1)], 0, "x must be >= 1, got 0"),
        (Annotated[float, (">", 0), ("<", 1)], 1, "x must be < 1, got 1"),
        (Annotated[str, ("in", ("a", "b"))], "c", r"x must be one of \['a', 'b'\], got 'c'"),
        (Annotated[list[int], (">=", 1), ("<=", 5)], 3, "x must be a list, got 3"),
        (Annotated[list[int], (">=", 1), ("<=", 5)], [1, 6], "x entry must be <= 5, got 6"),
        (Annotated[list[int], (">=", 1)], [1, 2.0], "x entry must be an integer, got 2.0"),
    ])
    def test_refusals_name_the_value(self, annotation, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            md.check_value("x", annotation, value)

    def test_an_integer_beyond_every_float_is_not_a_finite_number(self):
        # JSON reads 1 followed by 400 zeros as an exact int, too large for a float
        with pytest.raises(ValueError, match="x must be a finite number"):
            md.check_value("x", float, 10**400)

    @pytest.mark.parametrize("annotation, value", [
        (int, np.int64(3)), (float, 2), (Annotated[float, (">=", 0), ("<=", 1)], 1.0),
        (Annotated[list[str], ("in", ("a", "b"))], []), (dict, 5), (str | None, None),
    ])
    def test_accepted(self, annotation, value):
        md.check_value("x", annotation, value)

    def test_check_args_reads_through_a_wrapper(self):
        """A wrapper that sets `__wrapped__`, as the benchmark's tracer does,
        is checked by the annotations of the function it wraps."""
        def bounded(n: Annotated[int, (">=", 1)], name: str = "a"):
            return n

        @functools.wraps(bounded)
        def wrapper(*args, **kwargs):
            return bounded(*args, **kwargs)

        md.check_args(wrapper, {"n": 1, "name": "b"})
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            md.check_args(wrapper, {"n": 0})

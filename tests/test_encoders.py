"""Vocabulary, tokenizer, and the two encoders."""

import numpy as np
import pytest

from refseg import autodiff as ad
from refseg.autodiff import Tensor
from refseg.encoders import (
    ImageEncoder,
    TextEncoder,
    Vocabulary,
    tokenize,
)
from refseg.config import ModelConfig
from refseg.errors import ConfigError, VocabularyError
from refseg.gradcheck import grad_check
from refseg.gradsuite import _sparse as sparse_proj
from refseg.nn import ParamStore


def test_vocabulary_reserved_ids(vocab):
    assert vocab.pad_id == 0 and vocab.sos_id == 1 and vocab.eos_id == 2
    assert len(set(vocab.words)) == vocab.size


def test_vocabulary_save_load(tmp_path, vocab):
    vocab.save(tmp_path / "vocab.txt")
    back = Vocabulary.load(tmp_path / "vocab.txt")
    assert back.words == vocab.words
    # line number equals id
    lines = (tmp_path / "vocab.txt").read_text().splitlines()
    assert lines[vocab.id_of("red")] == "red"


def test_tokenize_empty(vocab):
    seq = tokenize("", vocab, 9)
    assert seq.ids[0] == vocab.sos_id
    assert seq.ids[1] == vocab.eos_id
    assert seq.eos_position == 1
    assert all(i == vocab.pad_id for i in seq.ids[2:])


def test_tokenize_red_circle_lmax17(vocab):
    seq = tokenize("red circle", vocab, 17)
    assert len(seq.ids) == 17
    assert seq.eos_position == 3


def test_tokenize_truncation_keeps_eos(vocab):
    words = " ".join(["red"] * 30)
    seq = tokenize(words, vocab, 17)
    assert seq.ids[16] == vocab.eos_id
    assert seq.eos_position == 16
    assert seq.ids[15] == vocab.id_of("red")


def test_tokenize_unknown_word_lists_it(vocab):
    with pytest.raises(VocabularyError) as e:
        tokenize("red zeppelin", vocab, 9)
    assert "zeppelin" in str(e.value)


class TestTextEncoder:
    def _build(self, tiny_cfg, vocab):
        store = ParamStore(dtype=np.float64, seed=3)
        return TextEncoder(store, tiny_cfg, vocab.size), store

    def test_pad_embedding_cannot_affect_global_feature(self, tiny_cfg, vocab):
        enc, _ = self._build(tiny_cfg, vocab)
        seq = tokenize("red circle", vocab, tiny_cfg.max_tokens)
        base = enc(seq).f_tg.data.copy()
        enc.tok_emb.value.data[vocab.pad_id] += 37.0
        bumped = enc(seq).f_tg.data
        assert np.abs(base - bumped).max() < 1e-6

    def test_deterministic(self, tiny_cfg, vocab):
        enc, _ = self._build(tiny_cfg, vocab)
        seq = tokenize("blue square on the left", vocab, tiny_cfg.max_tokens)
        a = enc(seq)
        b = enc(seq)
        assert np.array_equal(a.f_t.data, b.f_t.data)
        assert np.array_equal(a.f_tg.data, b.f_tg.data)

    def test_shapes(self, tiny_cfg, vocab):
        enc, _ = self._build(tiny_cfg, vocab)
        out = enc(tokenize("red circle", vocab, tiny_cfg.max_tokens))
        assert out.f_t.shape == (tiny_cfg.max_tokens, tiny_cfg.fusion_width)
        assert out.f_tg.shape == (tiny_cfg.text_global_width,)

    def test_gradcheck(self, tiny_cfg, vocab, rng):
        enc, store = self._build(tiny_cfg, vocab)
        seq = tokenize("green triangle", vocab, tiny_cfg.max_tokens)
        wt = sparse_proj((tiny_cfg.max_tokens, tiny_cfg.fusion_width), rng)
        wg = sparse_proj((tiny_cfg.text_global_width,), rng, k=3)

        def f():
            out = enc(seq)
            return ad.add(ad.tsum(ad.mul(out.f_t, wt)), ad.tsum(ad.mul(out.f_tg, wg)))

        assert grad_check(f, store.parameters(), eps=1e-4, sample_per_param=4, rng=rng) < 1e-4


class TestImageEncoder:
    def test_pyramid_sizes_64(self, vocab):
        cfg = ModelConfig(image_size=64)
        store = ParamStore(dtype=np.float32, seed=0)
        enc = ImageEncoder(store, cfg)
        out = enc(Tensor(np.zeros((64, 64, 3), dtype=np.float32)))
        assert out.f_v2.shape[:2] == (16, 16)
        assert out.f_v3.shape[:2] == (8, 8)
        assert out.f_v4.shape[:2] == (4, 4)
        assert out.f_vg.shape == (cfg.backbone_channels[3],)

    def test_pyramid_ratio_invariant(self, tiny_cfg):
        store = ParamStore(dtype=np.float64, seed=0)
        enc = ImageEncoder(store, tiny_cfg)
        out = enc(Tensor(np.zeros((16, 16, 3))))
        h2, h3, h4 = out.f_v2.shape[0], out.f_v3.shape[0], out.f_v4.shape[0]
        assert h2 == 2 * h3 == 4 * h4
        assert h2 == tiny_cfg.image_size // 4

    def test_global_feature_sees_every_pixel(self, tiny_cfg, rng):
        store = ParamStore(dtype=np.float64, seed=1)
        enc = ImageEncoder(store, tiny_cfg)
        img = rng.random((16, 16, 3))
        base = enc(Tensor(img)).f_vg.data.copy()
        img2 = img.copy()
        img2[13, 2, 1] += 0.5
        bumped = enc(Tensor(img2)).f_vg.data
        assert np.abs(base - bumped).max() > 0

    def test_indivisible_size_rejected(self, tiny_cfg):
        store = ParamStore(dtype=np.float64, seed=0)
        enc = ImageEncoder(store, tiny_cfg)
        with pytest.raises(ConfigError):
            enc(Tensor(np.zeros((20, 20, 3))))

    def test_deterministic(self, tiny_cfg, rng):
        store = ParamStore(dtype=np.float64, seed=2)
        enc = ImageEncoder(store, tiny_cfg)
        img = Tensor(rng.random((16, 16, 3)))
        a = enc(img)
        b = enc(img)
        assert np.array_equal(a.f_v4.data, b.f_v4.data)
        assert np.array_equal(a.f_vg.data, b.f_vg.data)

    @pytest.mark.parametrize("head", ["v2", "v3", "v4", "vg"])
    def test_gradcheck(self, head, tiny_cfg, rng):
        store = ParamStore(dtype=np.float64, seed=4)
        enc = ImageEncoder(store, tiny_cfg)
        img = Tensor(rng.random((16, 16, 3)))
        proj = {}

        def f():
            out = enc(img)
            t = {"v2": out.f_v2, "v3": out.f_v3, "v4": out.f_v4, "vg": out.f_vg}[head]
            if "w" not in proj:
                proj["w"] = sparse_proj(t.shape, rng)
            return ad.tsum(ad.mul(t, proj["w"]))

        assert grad_check(f, store.parameters(), eps=1e-4, sample_per_param=4, rng=rng) < 1e-4

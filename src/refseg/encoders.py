"""Text and image encoders producing the feature interfaces the fusion
stages consume: per-token features F_t with a global language vector F_tg,
and the multi-scale maps F_v2/F_v3/F_v4 with a global vision vector F_vg.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig, read_text
from .errors import ConfigError, VocabularyError
from .nn import Conv, FeedForward, LayerNorm, MultiHeadAttention, ParamStore, linear, normal_init, ones_init

PAD_TOKEN = "<pad>"
SOS_TOKEN = "<sos>"
EOS_TOKEN = "<eos>"


@dataclass(frozen=True)
class Vocabulary:
    """Dense token-to-id map with reserved pad/start/end ids."""

    words: tuple

    def __post_init__(self):
        if self.words[:3] != (PAD_TOKEN, SOS_TOKEN, EOS_TOKEN):
            raise VocabularyError("first three vocabulary entries must be pad/sos/eos")
        if len(set(self.words)) != len(self.words):
            raise VocabularyError("vocabulary contains duplicate tokens")

    @classmethod
    def from_words(cls, words: Sequence[str]) -> "Vocabulary":
        return cls((PAD_TOKEN, SOS_TOKEN, EOS_TOKEN) + tuple(words))

    @property
    def pad_id(self) -> int:
        return 0

    @property
    def sos_id(self) -> int:
        return 1

    @property
    def eos_id(self) -> int:
        return 2

    @property
    def size(self) -> int:
        return len(self.words)

    def id_of(self, word: str) -> int:
        try:
            return self.words.index(word)
        except ValueError:
            raise VocabularyError(f"word {word!r} is not in the vocabulary")

    def save(self, path) -> None:
        Path(path).write_text("\n".join(self.words) + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        return cls(tuple(read_text(path).splitlines()))


@dataclass
class TokenSequence:
    """Fixed-length id sequence: [SOS] words [EOS] then padding.  A batch
    stacks B sequences: ``ids`` (B, L) and one [EOS] position per sample."""

    ids: np.ndarray
    eos_position: int | np.ndarray

    @classmethod
    def stack(cls, seqs: Sequence["TokenSequence"]) -> "TokenSequence":
        return cls(
            ids=np.stack([s.ids for s in seqs]),
            eos_position=np.array([s.eos_position for s in seqs]),
        )


def tokenize(expression: str, vocab: Vocabulary, l_max: int) -> TokenSequence:
    """Lowercase whitespace tokenization into a padded id sequence.

    Truncation drops trailing words but always keeps [EOS] as the last
    retained token.  Unknown words raise VocabularyError.
    """
    words = expression.lower().split()
    word_ids = [vocab.id_of(w) for w in words]
    if len(word_ids) > l_max - 2:
        word_ids = word_ids[: l_max - 2]
    ids = np.full(l_max, vocab.pad_id, dtype=np.int64)
    ids[0] = vocab.sos_id
    ids[1 : 1 + len(word_ids)] = word_ids
    eos_position = 1 + len(word_ids)
    ids[eos_position] = vocab.eos_id
    return TokenSequence(ids=ids, eos_position=eos_position)


def pad_key_bias(tokens: TokenSequence, l_max: int, dtype) -> np.ndarray:
    """(L,) or per sample (B, L): 0 for real tokens, -inf for padding;
    added to attention logits."""
    real = np.arange(l_max) <= np.asarray(tokens.eos_position)[..., None]
    return np.where(real, 0.0, -np.inf).astype(dtype)


@dataclass
class TextFeatures:
    f_t: Tensor    # (..., L_max, C) per-token features
    f_tg: Tensor   # (..., C') global language feature


@dataclass
class ImageFeatures:
    f_v2: Tensor   # (..., H/4,  W/4,  C4)
    f_v3: Tensor   # (..., H/8,  W/8,  C4)
    f_v4: Tensor   # (..., H/16, W/16, C4)
    f_vg: Tensor   # (..., C4) global vision feature


class TextEncoder:
    """Bidirectional transformer over the padded token sequence.

    Padding positions are masked out as attention keys, so every produced
    feature of a real token, and in particular the global feature read at
    the [EOS] position, is invariant to whatever the pad embeddings hold.
    """

    def __init__(self, store: ParamStore, cfg: ModelConfig, vocab_size: int) -> None:
        c = cfg.fusion_width
        self.cfg = cfg
        self.tok_emb = store.parameter("text.tok_emb", (vocab_size, c), normal_init(0.02))
        self.pos_emb = store.parameter("text.pos_emb", (cfg.max_tokens, c), normal_init(0.01))
        self.blocks = []
        for i in range(cfg.text_layers):
            self.blocks.append(
                {
                    "attn": MultiHeadAttention(store, f"text.layer{i}.attn", c, cfg.heads),
                    "ln1": LayerNorm(store, f"text.layer{i}.ln1", c),
                    "ffn": FeedForward(store, f"text.layer{i}.ffn", c),
                    "ln2": LayerNorm(store, f"text.layer{i}.ln2", c),
                }
            )
        self.ln_final = LayerNorm(store, "text.ln_final", c)
        self.w_tg = store.matrix("text.w_tg", c, cfg.text_global_width)

    def __call__(self, tokens: TokenSequence) -> TextFeatures:
        key_bias = pad_key_bias(tokens, self.cfg.max_tokens, self.tok_emb.value.data.dtype)
        x = ad.add(ad.getitem(self.tok_emb.value, tokens.ids), self.pos_emb.value)
        for blk in self.blocks:
            x = blk["ln1"](ad.add(x, blk["attn"](x, key_bias=key_bias)))
            x = blk["ln2"](ad.add(x, blk["ffn"](x)))
        x = self.ln_final(x)
        # each sample's [EOS] row: (1, C) for one sample, (B, 1, C) for a batch
        e = np.asarray(tokens.eos_position)
        lead = np.indices(e.shape + (1,), sparse=True)[:-1]
        eos_row = ad.getitem(x, (*lead, e[..., None]))
        f_tg = ad.reshape(linear(eos_row, self.w_tg), e.shape + (self.cfg.text_global_width,))
        return TextFeatures(f_t=x, f_tg=f_tg)


class ImageEncoder:
    """Four conv stages with stride-2 pooling, then attention pooling.

    Stage outputs x2..x4 sit at 1/4, 1/8 and 1/16 resolution.  The stage-4
    map is globally averaged, the mean token is prepended to the flattened
    spatial tokens (with learned positions), and one self-attention layer
    produces the pooled pair: row 0 becomes the global feature, the rest the
    refined spatial map.  Learned matrices project everything to C4 channels.
    """

    def __init__(self, store: ParamStore, cfg: ModelConfig) -> None:
        chans = cfg.backbone_channels
        cins = (3,) + chans[:3]
        self.convs = [Conv(store, f"image.stage{i + 1}", 3, cins[i], chans[i]) for i in range(4)]
        c4 = chans[3]
        side4 = cfg.image_size // 16
        self.pool_pos = store.parameter("image.pool_pos", (side4 * side4, c4), normal_init(0.01))
        self.pool_attn = MultiHeadAttention(store, "image.pool_attn", c4, cfg.heads)
        self.w_v2 = store.matrix("image.w_v2", chans[1], c4)
        self.w_v3 = store.matrix("image.w_v3", chans[2], c4)
        # attention pooling averages weakly correlated tokens and shrinks the
        # signal, hence the extra gain on the spatial projection.  The global
        # row stays small next to the word features it gates (an RMS of
        # 0.10-0.15 even at gain 4), so F_vg carries a learned offset that
        # starts at one: the vision gate it drives starts near identity
        # (see QueryGenerator.fuse_language_global).
        self.w_z = store.matrix("image.w_z", c4, c4, gain=4.0)
        self.w_zbar = store.matrix("image.w_zbar", c4, c4)
        self.b_zbar = store.parameter("image.b_zbar", (c4,), ones_init)

    def __call__(self, image: Tensor) -> ImageFeatures:
        """(H, W, 3) image, or a (B, H, W, 3) batch, to its features."""
        lead, (h, w, c) = image.shape[:-3], image.shape[-3:]
        if h % 16 or w % 16:
            raise ConfigError(f"image size {image.shape} must be divisible by 16")
        if c != 3 or len(lead) > 1:
            raise ConfigError(f"expected an RGB image or a batch of them, got {image.shape}")
        x = image
        stages = []
        for conv in self.convs:
            x = ad.avgpool2x(ad.relu(conv(x)))
            stages.append(x)
        x2, x3, x4 = stages[1], stages[2], stages[3]

        h4, w4, c4 = x4.shape[-3:]
        flat4 = ad.reshape(x4, lead + (h4 * w4, c4))
        mean_tok = ad.tmean(flat4, axis=-2, keepdims=True)
        spatial = ad.add(flat4, self.pool_pos.value)
        pooled = self.pool_attn(ad.concat([mean_tok, spatial], axis=-2))
        zbar = ad.getitem(pooled, (Ellipsis, slice(0, 1), slice(None)))
        z = ad.getitem(pooled, (Ellipsis, slice(1, 1 + h4 * w4), slice(None)))

        f_v2 = linear(x2, self.w_v2, rows=2)
        f_v3 = linear(x3, self.w_v3, rows=2)
        f_v4 = ad.reshape(linear(z, self.w_z), lead + (h4, w4, c4))
        f_vg = ad.reshape(linear(zbar, self.w_zbar, self.b_zbar), lead + (c4,))
        return ImageFeatures(f_v2=f_v2, f_v3=f_v3, f_v4=f_v4, f_vg=f_vg)

"""Fusion neck: language gating, multi-scale aggregation, coordinates."""

import numpy as np
import pytest

from refseg import autodiff as ad
from refseg.autodiff import Tensor
from refseg.encoders import ImageFeatures
from refseg.gradcheck import grad_check
from refseg.gradsuite import _sparse as sparse_proj
from refseg.neck import FusionNeck, coord_features
from refseg.nn import ParamStore


def make_feats(cfg, rng, scale=1.0):
    s4 = cfg.image_size // 16
    c4 = cfg.backbone_channels[3]
    return ImageFeatures(
        f_v2=Tensor(scale * rng.standard_normal((4 * s4, 4 * s4, c4))),
        f_v3=Tensor(scale * rng.standard_normal((2 * s4, 2 * s4, c4))),
        f_v4=Tensor(scale * rng.standard_normal((s4, s4, c4))),
        f_vg=Tensor(scale * rng.standard_normal(c4)),
    )


def build_neck(cfg, seed=7):
    store = ParamStore(dtype=np.float64, seed=seed)
    return FusionNeck(store, cfg), store


def test_zero_language_gate_zeroes_stage4(tiny_cfg, rng):
    neck, _ = build_neck(tiny_cfg)
    feats = make_feats(tiny_cfg, rng)
    f_tg = Tensor(np.zeros(tiny_cfg.text_global_width))
    f_m4 = neck.fuse_stage4(feats.f_v4, f_tg)
    assert np.array_equal(f_m4.data, np.zeros_like(f_m4.data))


def test_identity_gate_passes_vision_branch(tiny_cfg, rng):
    neck, _ = build_neck(tiny_cfg)
    feats = make_feats(tiny_cfg, rng)
    # arrange the gate projection to produce exactly ones
    cp = tiny_cfg.text_global_width
    neck.w_tg.value.data[:] = 1.0 / cp
    f_tg = Tensor(np.ones(cp))
    f_m4 = neck.fuse_stage4(feats.f_v4, f_tg)
    expected = ad.upsample2x(
        ad.reshape(
            ad.relu(
                ad.matmul(
                    ad.reshape(feats.f_v4, (-1, feats.f_v4.shape[2])), neck.fuser.w_v4.value
                )
            ),
            (feats.f_v4.shape[0], feats.f_v4.shape[1], tiny_cfg.fusion_width),
        )
    )
    assert np.allclose(f_m4.data, expected.data)


def test_concat_width_bookkeeping(tiny_cfg, rng):
    neck, _ = build_neck(tiny_cfg)
    feats = make_feats(tiny_cfg, rng)
    f_tg = Tensor(rng.standard_normal(tiny_cfg.text_global_width))
    c = tiny_cfg.fusion_width
    f_m4 = neck.fuse_stage4(feats.f_v4, f_tg)
    assert f_m4.shape[2] == c
    # the 1x1 aggregation consumes a 3C-wide concat and emits C
    assert neck.fuser.conv_m.value.shape == (1, 1, 3 * c, c)
    f_m = neck.fuser.fuse_multiscale(f_m4, feats.f_v3, feats.f_v2)
    assert f_m.shape[2] == c


def test_zero_side_branches_leave_stage4_path(tiny_cfg, rng):
    neck, _ = build_neck(tiny_cfg)
    feats = make_feats(tiny_cfg, rng)
    s4 = tiny_cfg.image_size // 16
    c4 = tiny_cfg.backbone_channels[3]
    feats_zero = ImageFeatures(
        f_v2=Tensor(np.zeros((4 * s4, 4 * s4, c4))),
        f_v3=Tensor(np.zeros((2 * s4, 2 * s4, c4))),
        f_v4=feats.f_v4,
        f_vg=feats.f_vg,
    )
    f_tg = Tensor(rng.standard_normal(tiny_cfg.text_global_width))
    f_m4 = neck.fuse_stage4(feats_zero.f_v4, f_tg)
    f_m = neck.fuser.fuse_multiscale(f_m4, feats_zero.f_v3, feats_zero.f_v2)
    # reconstruct: side branches contribute exactly zero, so F_m is the conv
    # of [relu(m3 paths), zeros] where only stage-4 inputs are live
    cp = tiny_cfg.fusion_width // 2
    m4 = f_m4.data
    m3 = np.concatenate(
        [
            np.maximum(m4.reshape(-1, m4.shape[2]) @ neck.fuser.w_m4.value.data, 0).reshape(
                m4.shape[0], m4.shape[1], cp
            ),
            np.zeros((m4.shape[0], m4.shape[1], cp)),
        ],
        axis=2,
    )
    m2 = np.concatenate(
        [
            np.maximum(m3.reshape(-1, m3.shape[2]) @ neck.fuser.w_m3.value.data, 0).reshape(
                m3.shape[0], m3.shape[1], cp
            ),
            np.zeros((m3.shape[0], m3.shape[1], cp)),
        ],
        axis=2,
    )
    stacked = np.concatenate([m2, m3, m4], axis=2)
    kmat = neck.fuser.conv_m.value.data.reshape(3 * tiny_cfg.fusion_width, tiny_cfg.fusion_width)
    expected = stacked.reshape(-1, stacked.shape[2]) @ kmat + neck.fuser.conv_m_b.value.data
    assert np.allclose(f_m.data.reshape(-1, tiny_cfg.fusion_width), expected)


def test_full_neck_matches_compositional_oracle(tiny_cfg, rng):
    """Recompute the whole neck with raw numpy from the stored weights."""
    neck, _ = build_neck(tiny_cfg)
    feats = make_feats(tiny_cfg, rng)
    f_tg_arr = rng.standard_normal(tiny_cfg.text_global_width)
    f_vt = neck(feats, Tensor(f_tg_arr))
    fused_m = neck.fuser.fuse_multiscale(neck.fuse_stage4(feats.f_v4, Tensor(f_tg_arr)), feats.f_v3, feats.f_v2)

    c = tiny_cfg.fusion_width
    relu = lambda a: np.maximum(a, 0)
    proj = lambda x, w: (x.reshape(-1, x.shape[2]) @ w).reshape(x.shape[0], x.shape[1], -1)

    gate = relu(f_tg_arr @ neck.w_tg.value.data)
    m4_lo = relu(proj(feats.f_v4.data, neck.fuser.w_v4.value.data)) * gate
    m4 = ad.bilinear_resize_array(m4_lo, (2 * m4_lo.shape[0], 2 * m4_lo.shape[1]))
    m3 = np.concatenate(
        [relu(proj(m4, neck.fuser.w_m4.value.data)), relu(proj(feats.f_v3.data, neck.fuser.w_v3.value.data))],
        axis=2,
    )
    v2p = feats.f_v2.data.reshape(
        feats.f_v2.shape[0] // 2, 2, feats.f_v2.shape[1] // 2, 2, -1
    ).mean(axis=(1, 3))
    m2 = np.concatenate(
        [relu(proj(m3, neck.fuser.w_m3.value.data)), relu(proj(v2p, neck.fuser.w_v2.value.data))],
        axis=2,
    )
    f_m = proj(np.concatenate([m2, m3, m4], axis=2), neck.fuser.conv_m.value.data.reshape(3 * c, c))
    f_m = f_m + neck.fuser.conv_m_b.value.data
    assert np.allclose(fused_m.data, f_m, atol=1e-10)

    s = m4.shape[0]
    coords = coord_features(s, s, dtype=np.float64).data
    inte = proj(np.concatenate([f_m, coords], axis=2), neck.fuser.conv_inte.value.data.reshape(c + 2, c))
    inte = inte + neck.fuser.conv_inte_b.value.data
    assert np.allclose(f_vt.data, inte.reshape(s * s, c), atol=1e-10)


class TestCoordFeatures:
    def test_corner(self):
        # an axis of length one sits at -1, in either precision
        for h, w in ((4, 4), (1, 1), (1, 3)):
            for dtype in (np.float32, np.float64):
                grid = coord_features(h, w, dtype=dtype).data
                assert grid.shape == (h, w, 2) and grid.dtype == dtype
                assert tuple(grid[0, 0]) == (-1.0, -1.0)

    def test_center_of_odd_grid(self):
        grid = coord_features(5, 5).data
        assert tuple(grid[2, 2]) == (0.0, 0.0)

    def test_full_table_4x4(self):
        grid = coord_features(4, 4).data
        xs = np.linspace(-1, 1, 4)
        for i in range(4):
            for j in range(4):
                assert grid[i, j, 0] == pytest.approx(xs[j])
                assert grid[i, j, 1] == pytest.approx(xs[i])

    def test_values_bounded(self):
        grid = coord_features(7, 3).data
        assert grid.min() >= -1.0 and grid.max() <= 1.0


def test_flatten_row_major_order(tiny_cfg, rng):
    neck, _ = build_neck(tiny_cfg)
    feats = make_feats(tiny_cfg, rng)
    f_vt = neck(feats, Tensor(rng.standard_normal(tiny_cfg.text_global_width)))
    s = tiny_cfg.grid_size
    # row-major: spatial position (1, 0) lands at flat row 1*s + 0
    inte = f_vt.data.reshape(s, s, tiny_cfg.fusion_width)
    assert np.array_equal(f_vt.data[1 * s + 0], inte[1, 0])
    assert f_vt.shape == (s * s, tiny_cfg.fusion_width)


def test_fvt_row_count_matches_grid(tiny_cfg, rng):
    neck, _ = build_neck(tiny_cfg)
    feats = make_feats(tiny_cfg, rng)
    f_vt = neck(feats, Tensor(rng.standard_normal(tiny_cfg.text_global_width)))
    assert f_vt.shape[0] == tiny_cfg.num_tokens == tiny_cfg.grid_size**2


def test_neck_gradcheck(tiny_cfg, rng):
    neck, store = build_neck(tiny_cfg)
    feats = make_feats(tiny_cfg, rng, scale=0.5)
    f_tg = Tensor(rng.standard_normal(tiny_cfg.text_global_width))
    proj = sparse_proj((tiny_cfg.num_tokens, tiny_cfg.fusion_width), rng)
    err = grad_check(
        lambda: ad.tsum(ad.mul(neck(feats, f_tg), proj)),
        store.parameters(),
        eps=1e-4,
        sample_per_param=6,
        rng=rng,
    )
    assert err < 1e-4

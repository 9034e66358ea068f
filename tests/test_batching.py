"""The batch axis: batched ops and a batched forward pass against their
single-sample cases, the per-step tape budget, and gradient release."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from refseg import autodiff as ad
from refseg.aligner import MaskGenerator
from refseg.autodiff import Tape, Tensor, backward
from refseg.config import ModelConfig, TrainConfig
from refseg.data import GrammarConfig, generate_split, vocabulary_for
from refseg.encoders import TokenSequence
from refseg.errors import DimensionError
from refseg.gradcheck import grad_check
from refseg.gradsuite import _param as randn_param
from refseg.metrics import bce_loss, downsample_mask_nearest
from refseg.model import Model
from refseg.nn import ParamStore
from refseg.train import init_state, train

from test_tensor_ops import naive_conv

MODES = ("full", "fixed_kernel", "no_estimator", "no_fvg")
REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def batch3(tiny_cfg, tiny_grammar):
    """A double-precision model and three samples whose expressions have
    different lengths, one of them empty."""
    cfg = dataclasses.replace(tiny_cfg, num_queries=3)
    vocab = vocabulary_for(tiny_grammar)
    samples = generate_split(11, 3, tiny_grammar)
    model = Model(cfg, vocab, seed=5)
    images = [np.asarray(s.image, dtype=np.float64) for s in samples]
    tokens = [model.tokenize(e) for e in ("red circle", "", "triangle top of green circle")]
    gts = [downsample_mask_nearest(s.gt_mask, (cfg.mask_size, cfg.mask_size)) for s in samples]
    return model, images, tokens, gts


# ---------------------------------------------------------------------------
# batched forward and gradients


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("perm", [None, [2, 0, 1]])
def test_batched_forward_equals_single_forwards(batch3, mode, perm, permuted_queries):
    model, images, tokens, _ = batch3
    with permuted_queries(model, perm):
        batched = model.forward(Tensor(np.stack(images)), TokenSequence.stack(tokens), mode=mode)
        singles = [model.forward(Tensor(images[j]), tokens[j], mode=mode) for j in range(3)]
    for j, single in enumerate(singles):
        assert batched.y.shape == (3,) + single.y.shape
        assert np.array_equal(batched.y.data[j], single.y.data)
        assert np.array_equal(batched.scores.data[j], single.scores.data)
        assert len(batched.masks) == len(single.masks)
        for mb, ms in zip(batched.masks, single.masks):
            assert np.array_equal(mb.data[j], ms.data)


@pytest.fixture(scope="module")
def default_samples():
    grammar = GrammarConfig()
    return vocabulary_for(grammar), generate_split(21, 8, grammar)


@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("mode", MODES)
def test_batched_forward_is_batch_invariant(default_samples, mode, precision):
    """A default-config forward over a stack of B samples gives each sample
    the bytes of its own single forward, at B in {1, 2, 3, 8}: every GEMM
    runs per sample, so a row rounds alike whatever the batch.  This is a
    property of the numpy/BLAS build, which this test pins."""
    vocab, samples = default_samples
    model = Model(ModelConfig(precision=precision), vocab, seed=3)
    images = [np.asarray(s.image, dtype=model.dtype) for s in samples]
    tokens = [model.tokenize(s.expression) for s in samples]
    singles = [model.forward(Tensor(im), tok, mode=mode) for im, tok in zip(images, tokens)]
    for b in (1, 2, 3, 8):
        batched = model.forward(Tensor(np.stack(images[:b])), TokenSequence.stack(tokens[:b]), mode=mode)
        for j in range(b):
            assert batched.y.data[j].tobytes() == singles[j].y.data.tobytes(), (b, j)
            assert batched.scores.data[j].tobytes() == singles[j].scores.data.tobytes(), (b, j)
            for mb, ms in zip(batched.masks, singles[j].masks):
                assert mb.data[j].tobytes() == ms.data.tobytes(), (b, j)


def test_batched_mean_loss_gradients_equal_mean_of_per_sample(batch3):
    model, images, tokens, gts = batch3
    with Tape() as tape:
        y = model.forward(Tensor(np.stack(images)), TokenSequence.stack(tokens)).y
        loss = bce_loss(y, np.stack(gts))
    model.zero_grad()
    backward(tape, loss)
    batched = {p.name: p.gradient.copy() for p in model.parameters()}

    mean = {name: np.zeros_like(g) for name, g in batched.items()}
    for image, tok, gt in zip(images, tokens, gts):
        with Tape() as tape:
            loss = bce_loss(model.forward(Tensor(image), tok).y, gt)
        model.zero_grad()
        backward(tape, loss)
        for p in model.parameters():
            mean[p.name] += p.gradient / 3.0
    worst = max(np.abs(batched[n] - mean[n]).max() for n in batched)
    assert worst < 1e-10


def test_batch_size_mismatch_rejected(batch3):
    model, images, tokens, _ = batch3
    with pytest.raises(DimensionError):
        model.forward(Tensor(np.stack(images)), TokenSequence.stack(tokens[:2]))


@pytest.mark.parametrize("lead", [(), (2,)])
def test_wrong_image_size_rejected_up_front(batch3, lead):
    model, _, tokens, _ = batch3
    image = Tensor(np.zeros(lead + (32, 32, 3)))
    tok = TokenSequence.stack(tokens[:2]) if lead else tokens[0]
    with pytest.raises(DimensionError, match=r"\(32, 32\).*\(16, 16\)"):
        model.forward(image, tok)


def test_default_batch8_forward_allocates_under_16mb(default_samples):
    """The tracemalloc peak of a tape-free default-config forward over 8
    samples: 31.3 MiB when the mask heads cast a float32 patch matrix to
    float64, 8.0 MiB with one GEMM per tap."""
    vocab, samples = default_samples
    model = Model(ModelConfig(), vocab, seed=3)
    images = np.stack([np.asarray(s.image, dtype=np.float32) for s in samples])
    tokens = TokenSequence.stack([model.tokenize(s.expression) for s in samples])
    model.forward(Tensor(images), tokens)  # warm the resize-matrix cache
    tracemalloc.start()
    try:
        model.forward(Tensor(images), tokens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


# ---------------------------------------------------------------------------
# batched ops


def test_per_sample_kernel_conv_matches_naive_loop(rng):
    for _ in range(10):
        b, h, w = int(rng.integers(1, 4)), int(rng.integers(3, 8)), int(rng.integers(3, 8))
        cin, cout = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        # float32-representable inputs, so that both precisions see the same
        # values and the single-precision result differs only by rounding
        x, k, bias = (
            (0.5 * rng.standard_normal(shape)).astype(np.float32).astype(np.float64)
            for shape in ((b, h, w, cin), (b, 3, 3, cin, cout), (b, cout))
        )
        out64 = ad.conv2d(Tensor(x), Tensor(k), Tensor(bias)).data
        out32 = ad.conv2d(*(Tensor(a.astype(np.float32)) for a in (x, k, bias))).data
        for j in range(b):
            ref = naive_conv(x[j], k[j], bias[j])
            assert out64[j].tobytes() == ref.tobytes(), "double precision must be exact"
            assert np.abs(out32[j] - ref).max() < 1e-6


def test_batched_float32_dynamic_kernel_masks_match_naive_loop(tiny_cfg, rng):
    """The dynamic head's batched training path keeps the double sum: every
    mask is within 1e-6 of the double loop over the same float32 kernels,
    and within half a float32 ulp of it (a float32 sum is off by thousands
    of ulps where the taps cancel)."""
    cfg = dataclasses.replace(tiny_cfg, num_queries=4)
    gen = MaskGenerator(ParamStore(dtype=np.float32, seed=0), cfg)
    cp = cfg.kernel_channels
    f_p = (0.5 * rng.standard_normal((3, 8, 8, cp))).astype(np.float32)
    f_q = rng.standard_normal((3, 4, cfg.fusion_width)).astype(np.float32)
    taps, bias = gen.kernel_from_query(Tensor(f_q))
    masks = gen.apply_dynamic_kernel(Tensor(f_p), taps, bias).data
    weights, bias = taps.data.astype(np.float64), bias.data.astype(np.float64)
    assert masks.shape == (3, 4, 8, 8) and masks.dtype == np.float32
    for j in range(3):
        for n in range(4):
            ref = naive_conv(f_p[j].astype(np.float64), weights[j, n, ..., None], bias[j, n : n + 1])[:, :, 0]
            err = np.abs(masks[j, n] - ref)
            assert err.max() < 1e-6
            # 1e-12 covers the two double sums' different orders
            assert np.all(err <= 0.5 * np.spacing(np.abs(ref).astype(np.float32)) + 1e-12)


def test_shared_kernel_batched_conv_equals_per_sample_conv(rng):
    x = rng.standard_normal((3, 5, 4, 2))
    k = Tensor(rng.standard_normal((3, 3, 2, 4)))
    bias = Tensor(rng.standard_normal(4))
    out = ad.conv2d(Tensor(x), k, bias).data
    for j in range(3):
        assert np.array_equal(out[j], ad.conv2d(Tensor(x[j]), k, bias).data)


@pytest.mark.parametrize(
    "x_shape, k_shape, b_shape",
    [((4, 4, 2), (2, 3, 3, 2, 1), (2, 1)), ((2, 4, 4, 2), (3, 3, 3, 2, 1), (3, 1)), ((2, 4, 4, 2), (2, 3, 3, 2, 1), (1,))],
)
def test_per_sample_kernel_shape_errors(x_shape, k_shape, b_shape):
    with pytest.raises(DimensionError):
        ad.conv2d(Tensor(np.zeros(x_shape)), Tensor(np.zeros(k_shape)), Tensor(np.zeros(b_shape)))


def _op_case(rng, op, in_shapes, out_shape):
    store = ParamStore(dtype=np.float64, seed=0)
    params = [randn_param(store, f"p{i}", s, rng) for i, s in enumerate(in_shapes)]
    proj = Tensor(rng.standard_normal(out_shape))
    return (lambda: ad.tsum(ad.mul(op(*[p.value for p in params]), proj))), params


@pytest.mark.parametrize(
    "name, op, in_shapes, out_shape",
    [
        ("conv2d shared kernel", ad.conv2d, [(2, 4, 3, 2), (3, 3, 2, 3), (3,)], (2, 4, 3, 3)),
        ("conv2d per-sample kernel", ad.conv2d, [(3, 4, 3, 2), (3, 3, 3, 2, 2), (3, 2)], (3, 4, 3, 2)),
        ("conv2d 1x1 per-sample kernel", ad.conv2d, [(2, 3, 3, 2), (2, 1, 1, 2, 3), (2, 3)], (2, 3, 3, 3)),
        ("upsample2x", ad.upsample2x, [(2, 3, 2, 2)], (2, 6, 4, 2)),
        ("avgpool2x", ad.avgpool2x, [(3, 4, 2, 2)], (3, 2, 1, 2)),
        ("matmul shared weight", ad.matmul, [(2, 3, 4, 5), (5, 2)], (2, 3, 4, 2)),
        ("matmul map rows", lambda a, b: ad.matmul(a, b, rows=2), [(2, 3, 4, 5), (5, 2)], (2, 3, 4, 2)),
    ],
)
def test_batched_op_gradcheck(name, op, in_shapes, out_shape, rng):
    f, params = _op_case(rng, op, in_shapes, out_shape)
    assert grad_check(f, params, eps=1e-5) < 1e-6, name


# ---------------------------------------------------------------------------
# tape budget and gradient release


def test_train_step_tape_is_the_same_at_every_batch_size(monkeypatch):
    """One train step records one forward and one loss, whatever the batch
    size: the trend-fixture model stays within 400 nodes."""
    grammar = GrammarConfig(image_size=32, max_shapes=3, size_frac_min=0.16, size_frac_max=0.24)
    vocab = vocabulary_for(grammar)
    samples = generate_split(3, 8, grammar)
    model_cfg = ModelConfig(
        image_size=32, fusion_width=32, text_global_width=32, num_queries=4, max_tokens=12,
        heads=4, text_layers=2, decoder_layers=2, backbone_channels=(16, 32, 32, 32),
    )
    record = Tape.record
    nodes = []

    def counting_record(tape, fn):
        nodes.append(fn)
        record(tape, fn)

    monkeypatch.setattr(Tape, "record", counting_record)
    counts = {}
    for mode in MODES:
        for batch_size in (1, 2, 4):
            cfg = TrainConfig(model=model_cfg, steps=1, batch_size=batch_size, mode=mode)
            state = init_state(cfg, vocab)
            nodes.clear()
            train(cfg, state, samples)
            counts[(mode, batch_size)] = len(nodes)
    for mode in MODES:
        assert counts[(mode, 1)] == counts[(mode, 2)] == counts[(mode, 4)] <= 400, counts


@pytest.fixture(scope="module")
def default_step_data():
    grammar = GrammarConfig()
    return vocabulary_for(grammar), generate_split(3, 4, grammar)


def test_default_train_step_leaves_constants_without_gradient(default_step_data, monkeypatch):
    """The image batch, the pad-key biases and the coordinate maps are
    operands of taped ops but require no gradient, so none is computed."""
    vocab, samples = default_step_data
    operands = {}
    record = ad._record

    def spy(out, bw, *ts):
        operands.update((id(t), t) for t in ts)
        record(out, bw, *ts)

    monkeypatch.setattr(ad, "_record", spy)
    cfg = TrainConfig(model=ModelConfig(), steps=1, batch_size=4)
    train(cfg, init_state(cfg, vocab), samples)
    constants = [t for t in operands.values() if not t.requires_grad]
    images = [t for t in constants if t.shape == (4, 64, 64, 3)]
    key_biases = [t for t in constants if np.isneginf(t.data).any()]
    coords = [t for t in constants if t.shape[0] == 4 and t.shape[-1] == 2]
    assert len(images) == 1 and key_biases and coords
    assert all(t.grad is None for t in constants)


def test_constants_record_no_nodes_in_default_train_step(default_step_data, monkeypatch):
    """Tape nodes per default-config step, against the counts with attention
    as one node and every other op recording a node whatever its operands:
    no mode records more, and ``no_estimator``'s aggregation by all-ones
    scores records one fewer."""
    vocab, samples = default_step_data
    record = Tape.record
    nodes = []
    monkeypatch.setattr(Tape, "record", lambda tape, fn: nodes.append(fn) or record(tape, fn))
    counts = {}
    for mode in MODES:
        cfg = TrainConfig(model=ModelConfig(), steps=1, batch_size=4, mode=mode)
        state = init_state(cfg, vocab)
        nodes.clear()
        train(cfg, state, samples)
        counts[mode] = len(nodes)
    every_op = {"full": 166, "fixed_kernel": 151, "no_estimator": 161, "no_fvg": 162}
    assert all(counts[m] <= every_op[m] for m in MODES), counts
    assert counts["no_estimator"] < every_op["no_estimator"], counts


def test_default_train_step_leaves_no_gradient_aliased(default_step_data):
    """Backward adopts the arrays a node owns instead of copying them; no
    two parameters' gradients may then share memory, nor a gradient the
    parameter arena."""
    vocab, samples = default_step_data
    for mode in MODES:
        cfg = TrainConfig(model=ModelConfig(), steps=1, batch_size=4, mode=mode)
        state = init_state(cfg, vocab)
        train(cfg, state, samples)
        grads = [p.value.grad for p in state.model.parameters() if p.value.grad is not None]
        assert len(grads) > 100, mode
        assert not any(np.shares_memory(g, state.model.store.arena) for g in grads), mode
        shared = [(i, j) for i in range(len(grads)) for j in range(i) if np.shares_memory(grads[i], grads[j])]
        assert not shared, (mode, shared)


STEP_FAULTS = """
import json, resource
from refseg.config import ModelConfig, TrainConfig
from refseg.data import GrammarConfig, generate_split, vocabulary_for
from refseg.train import init_state, train
grammar = GrammarConfig()
samples = generate_split(0, 16, grammar)
cfg = TrainConfig(model=ModelConfig(), steps=7, batch_size=4)
state = init_state(cfg, vocabulary_for(grammar))
faults = []
for step in range(1, 8):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(cfg, state, samples, max_step=step)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_minflt counts minor faults on Linux")
def test_default_train_step_does_not_refault_the_heap():
    """A steady default-config step reuses the heap.  If glibc trims the
    memory a step freed and faults it back on the next, a step takes
    2400-2800 minor page faults (seen when gradients were views into an
    arena) and runs measurably slower; a reusing step takes 0-5."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", STEP_FAULTS], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    faults = json.loads(proc.stdout.strip().splitlines()[-1])
    # two warm-up steps, then the median of five
    assert np.median(faults[2:]) < 200, faults


def test_backward_releases_intermediate_gradients(rng):
    store = ParamStore(dtype=np.float64, seed=0)
    w = randn_param(store, "w", (4, 3), rng)
    x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    with Tape() as tape:
        h = ad.matmul(x, w.value)
        y = ad.relu(h)
        loss = ad.tsum(y)
    backward(tape, loss)
    assert h.grad is None and y.grad is None and loss.grad is None
    mask = h.data > 0
    assert np.allclose(w.gradient, x.data.T @ mask)
    assert np.allclose(x.grad, mask.astype(float) @ w.value.data.T)


# ---------------------------------------------------------------------------
# benchmark smoke run


@pytest.mark.slow
def test_benchmark_smoke_run():
    """Every workload runs traced through refseg's public API: all output
    checks pass and every traced entry point exists."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=REPO, capture_output=True, text=True, timeout=900,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 0, out[-3000:]
    assert not re.search(r"^check FAIL", out, re.M), out[-3000:]
    assert not re.search(r"span target .* not found", out), out[-3000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["failed"] == 0

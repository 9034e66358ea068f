"""Optimizer, schedule, training determinism, checkpoints."""

import dataclasses
import importlib.util
import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refseg.aligner
import refseg.encoders
import refseg.neck
import refseg.nn
import refseg.queries
import refseg.train as train_module
from refseg.config import ModelConfig, TrainConfig
from refseg.data import GrammarConfig, generate_split, vocabulary_for
from refseg.errors import CheckpointError, ConfigError, NumericalError, RefsegError
from refseg.model import Model
from refseg.nn import ParamStore, zeros_init
from refseg.train import (
    CHECKPOINT_VERSION,
    Adam,
    batch_indices,
    init_state,
    load_checkpoint,
    polynomial_lr,
    save_checkpoint,
    train,
)


def small_train_cfg(**over):
    model = ModelConfig(
        image_size=16,
        fusion_width=8,
        text_global_width=8,
        num_queries=2,
        max_tokens=9,
        heads=2,
        text_layers=1,
        decoder_layers=1,
        backbone_channels=(4, 8, 8, 8),
    )
    defaults = dict(model=model, lr=3e-4, steps=4, batch_size=2, seed=1)
    defaults.update(over)
    return TrainConfig(**defaults)


def rewrite_header(path, make_header):
    """Replace a checkpoint's JSON header by ``make_header(header)``'s bytes,
    keeping the payloads after it."""
    raw = path.read_bytes()
    (n,) = struct.unpack_from("<Q", raw, 8)
    blob = make_header(json.loads(raw[16 : 16 + n]))
    path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + n :])


@pytest.fixture
def tiny_data(tiny_grammar):
    return vocabulary_for(tiny_grammar), generate_split(50, 6, tiny_grammar)


class TestSchedule:
    def test_polynomial_endpoints(self):
        assert polynomial_lr(3e-4, 0, 100, 0.9) == pytest.approx(3e-4)
        assert polynomial_lr(3e-4, 100, 100, 0.9) == 0.0

    def test_polynomial_midpoint(self):
        assert polynomial_lr(1.0, 50, 100, 0.9) == pytest.approx(0.5**0.9)

    def test_clamped_beyond_horizon(self):
        assert polynomial_lr(1.0, 150, 100, 0.9) == 0.0


def packed_store(*values) -> ParamStore:
    """A packed float64 store with one parameter p0, p1, ... per value."""
    store = ParamStore(dtype=np.float64)
    for i, value in enumerate(values):
        store.parameter(f"p{i}", np.shape(value), lambda rng, shape, dtype, value=value: np.array(value, dtype))
    store.pack()
    return store


class TestAdam:
    def test_single_step_matches_hand_formula(self):
        store = packed_store([1.0, 2.0])
        p = store.get("p0")
        p.value.grad = np.array([0.5, -1.0])
        opt = Adam(store, beta1=0.9, beta2=0.999, eps=1e-8)
        opt.step(lr=0.1)
        g = np.array([0.5, -1.0])
        m = 0.1 * g
        v = 0.001 * g * g
        expected = np.array([1.0, 2.0]) - 0.1 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
        assert np.allclose(p.value.data, expected)

    def test_zero_gradient_is_noop(self):
        store = packed_store([3.0])
        Adam(store).step(lr=0.1)
        assert store.get("p0").value.data[0] == pytest.approx(3.0)

    def test_unpacked_store_rejected(self):
        store = ParamStore(dtype=np.float64)
        store.parameter("w", (2,), zeros_init)
        with pytest.raises(ConfigError):
            Adam(store)


class TestParamStore:
    def test_parameter_after_pack_rejected(self, tiny_data):
        vocab, _ = tiny_data
        model = Model(small_train_cfg().model, vocab)
        with pytest.raises(ConfigError):
            model.store.parameter("late", (2,), zeros_init)
        with pytest.raises(ConfigError):
            packed_store([1.0]).parameter("late", (2,), zeros_init)

    def test_init_state_leaves_parameters_in_the_arena(self, tiny_data, monkeypatch):
        # Adam neither copies nor rebinds: each value is the arena view the
        # model was built with
        before = {}

        def adam(store, *args):
            before.update({p.name: p.value.data for p in store.parameters()})
            return Adam(store, *args)

        monkeypatch.setattr(train_module, "Adam", adam)
        state = init_state(small_train_cfg(), tiny_data[0])
        arena = state.model.store.arena
        assert before
        for p in state.model.parameters():
            assert p.value.data is before[p.name], p.name
            assert np.shares_memory(p.value.data, arena), p.name


class TestAdamArena:
    @pytest.mark.parametrize("chunk", [train_module.ADAM_CHUNK, 40])  # 40: runs split at odd offsets
    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_steps_bit_identical_to_per_parameter_loop(self, tiny_data, precision, chunk, monkeypatch):
        monkeypatch.setattr(train_module, "ADAM_CHUNK", chunk)
        vocab, samples = tiny_data
        cfg = small_train_cfg(model=dataclasses.replace(small_train_cfg().model, precision=precision), steps=5)
        state = init_state(cfg, vocab)
        params = state.model.parameters()
        ref_p = {p.name: p.value.data.copy() for p in params}
        ref_m = {n: np.zeros_like(a) for n, a in ref_p.items()}
        ref_v = {n: np.zeros_like(a) for n, a in ref_p.items()}
        b1, b2 = cfg.beta1, cfg.beta2
        for t in range(1, cfg.steps + 1):
            lr = polynomial_lr(cfg.lr, t - 1, cfg.total_steps, cfg.decay_power)
            train(cfg, state, samples, max_step=t)
            for p in params:
                g, m, v = p.gradient, ref_m[p.name], ref_v[p.name]
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                update = (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + cfg.adam_eps)
                ref_p[p.name] -= np.asarray(lr * update, dtype=p.value.data.dtype)
        # the fixed-kernel head is unreached in full mode: its None gradient reads as zeros
        assert state.model.store.get("aligner.fixed.kernel").value.grad is None
        for p in params:
            assert p.value.data.tobytes() == ref_p[p.name].tobytes(), p.name
            assert state.optimizer.m[p.name].tobytes() == ref_m[p.name].tobytes(), p.name
            assert state.optimizer.v[p.name].tobytes() == ref_v[p.name].tobytes(), p.name

    def test_parameters_and_moments_are_arena_views(self, tiny_data):
        vocab, samples = tiny_data
        cfg = small_train_cfg(steps=1)
        state = init_state(cfg, vocab)
        train(cfg, state, samples)
        opt = state.optimizer
        for p in state.model.parameters():
            assert np.shares_memory(p.value.data, state.model.store.arena), p.name
            assert np.shares_memory(opt.m[p.name], opt.flat_m), p.name
            assert np.shares_memory(opt.v[p.name], opt.flat_v), p.name

    def test_step_allocates_no_full_size_temporaries(self):
        # default config, 493k parameters: a full-size float32 temporary is 1.9 MB
        cfg = TrainConfig()
        state = init_state(cfg, vocabulary_for(GrammarConfig()))
        opt = state.optimizer
        for p in state.model.parameters():
            p.value.grad = np.full_like(p.value.data, 1e-3)
        opt.step(1e-3)
        tracemalloc.start()
        try:
            opt.step(1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024


def load_train_digest():
    path = Path(__file__).resolve().parents[1] / "tools" / "train_digest.py"
    spec = importlib.util.spec_from_file_location("train_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_train_digest_repeats_and_sees_one_ulp(tmp_path):
    tool = load_train_digest()
    model_cfg = small_train_cfg().model
    work_a, work_b = tmp_path / "a", tmp_path / "b"
    work_a.mkdir()
    work_b.mkdir()
    runs = tool.train_runs(model_cfg, steps=1, batch=2, work=work_a)
    first = tool.digest(runs)
    assert tool.digest(tool.train_runs(model_cfg, steps=1, batch=2, work=work_b)) == first
    for state in runs[0][1]:  # the live state, then the one loaded from its checkpoint
        w = state.model.parameters()[0].value.data.reshape(-1)
        w[0] = np.nextafter(w[0], np.inf)
        assert tool.digest(runs) != first
        w[0] = np.nextafter(w[0], -np.inf)
        assert tool.digest(runs) == first
    # the second line covers every checkpoint byte, header included
    first_files = tool.checkpoint_digest(work_a)
    assert tool.checkpoint_digest(work_b) == first_files
    path = work_b / f"{tool.TRAIN_MODES[-1]}.eavc"
    original = path.read_bytes()
    for at in (20, len(original) - 1):  # a header byte, the last arena byte
        path.write_bytes(original[:at] + bytes([original[at] ^ 1]) + original[at + 1 :])
        assert tool.checkpoint_digest(work_b) != first_files
    path.write_bytes(original)
    assert tool.checkpoint_digest(work_b) == first_files


def test_batch_indices_deterministic_and_shuffled():
    a = [batch_indices(7, 10, 4, step) for step in range(6)]
    b = [batch_indices(7, 10, 4, step) for step in range(6)]
    assert a == b
    flat = [i for batch in a for i in batch]
    assert sorted(flat[:10]) == list(range(10))  # first epoch is a permutation
    assert flat[:10] != list(range(10))


def test_zero_steps_checkpoint_equals_initialization(tiny_data, tmp_path):
    vocab, samples = tiny_data
    cfg = small_train_cfg(steps=1)
    state = init_state(cfg, vocab)
    init_params = {p.name: p.value.data.copy() for p in state.model.parameters()}
    train(cfg, state, samples, max_step=0)  # run nothing
    save_checkpoint(tmp_path / "c.eavc", cfg, state)
    _, loaded, _ = load_checkpoint(tmp_path / "c.eavc")
    for p in loaded.model.parameters():
        assert np.array_equal(p.value.data, init_params[p.name])
    assert loaded.step == 0


def test_training_decreases_loss_on_fixed_batch():
    # median over 3 seeds: loss after 50 steps on one fixed batch is lower,
    # at the full desk configuration and lr 3e-4
    grammar = GrammarConfig(image_size=64)
    vocab = vocabulary_for(grammar)
    fixed = generate_split(300, 2, grammar)
    first, last = [], []
    for seed in (0, 1, 2):
        cfg = TrainConfig(model=ModelConfig(), lr=3e-4, steps=50, batch_size=2, seed=seed)
        state = init_state(cfg, vocab)
        losses = []
        train(cfg, state, fixed, log=lambda line: losses.append(json.loads(line)["loss"]))
        first.append(losses[0])
        last.append(losses[-1])
    assert np.median(last) < np.median(first)


def test_metrics_log_byte_identical_across_runs(tiny_data):
    vocab, samples = tiny_data
    logs = []
    for _ in range(2):
        cfg = small_train_cfg(steps=5, eval_every=5)
        state = init_state(cfg, vocab)
        lines = []
        train(cfg, state, samples, log=lines.append)
        logs.append("\n".join(lines))
    assert logs[0] == logs[1]


def test_log_contains_step_loss_lr_and_eval(tiny_data):
    vocab, samples = tiny_data
    cfg = small_train_cfg(steps=3, eval_every=3)
    state = init_state(cfg, vocab)
    lines = []
    train(cfg, state, samples, log=lines.append)
    first = json.loads(lines[0])
    assert set(first) == {"loss", "lr", "step"}
    evals = [json.loads(l) for l in lines if "mean_iou" in l]
    assert evals and evals[0]["step"] == 3


class TestCheckpoint:
    def test_round_trip_reproduces_forward_bitwise(self, tiny_data, tmp_path):
        vocab, samples = tiny_data
        cfg = small_train_cfg(steps=3)
        state = init_state(cfg, vocab)
        train(cfg, state, samples)
        path = tmp_path / "model.eavc"
        save_checkpoint(path, cfg, state)
        _, loaded, _ = load_checkpoint(path)

        s = samples[0]
        image = np.asarray(s.image, dtype=state.model.dtype)
        a = state.model.predict_logits(image, s.expression)
        b = loaded.model.predict_logits(image, s.expression)
        assert np.array_equal(a, b)
        assert loaded.step == state.step
        assert loaded.optimizer.t == state.optimizer.t
        for name, m in state.optimizer.m.items():
            assert np.array_equal(loaded.optimizer.m[name], m)

    def test_resume_reproduces_next_loss_bitwise(self, tiny_data, tmp_path):
        vocab, samples = tiny_data
        cfg = small_train_cfg(steps=6)
        state = init_state(cfg, vocab)
        losses_a = []
        train(cfg, state, samples, log=lambda l: losses_a.append(l), max_step=3)
        save_checkpoint(tmp_path / "mid.eavc", cfg, state)
        train(cfg, state, samples, log=lambda l: losses_a.append(l))

        cfg_b, resumed, _ = load_checkpoint(tmp_path / "mid.eavc")
        losses_b = []
        train(cfg_b, resumed, samples, log=lambda l: losses_b.append(l))
        assert losses_a[3:] == losses_b

    def test_load_draws_nothing(self, tiny_data, tmp_path, monkeypatch):
        vocab, samples = tiny_data
        cfg = small_train_cfg(steps=2)
        state = init_state(cfg, vocab)
        train(cfg, state, samples)
        path = tmp_path / "d.eavc"
        save_checkpoint(path, cfg, state)

        def refuse(*args, **kwargs):
            raise AssertionError("a checkpoint load drew a parameter")

        for module in (refseg.nn, refseg.encoders, refseg.neck, refseg.queries, refseg.aligner):
            for name in ("linear_init", "scaled_init", "conv_init", "normal_init"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, lambda *args, **kwargs: refuse)
            for name in ("zeros_init", "ones_init", "_near_channel_average"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(refseg.nn.np.random, "default_rng", refuse)
        _, loaded, _ = load_checkpoint(path)

        assert (loaded.step, loaded.optimizer.t) == (state.step, state.optimizer.t)
        for a, b in zip(state.model.parameters(), loaded.model.parameters()):
            assert a.name == b.name and a.value.data.tobytes() == b.value.data.tobytes(), a.name
        assert state.optimizer.flat_m.tobytes() == loaded.optimizer.flat_m.tobytes()
        assert state.optimizer.flat_v.tobytes() == loaded.optimizer.flat_v.tobytes()

    def test_failed_save_keeps_previous_file(self, tiny_data, tmp_path):
        vocab, samples = tiny_data
        cfg = small_train_cfg(steps=2)
        state = init_state(cfg, vocab)
        train(cfg, state, samples, max_step=1)
        path = tmp_path / "s.eavc"
        save_checkpoint(path, cfg, state)
        before = path.read_bytes()
        train(cfg, state, samples)
        # the last arena cannot be written: the save fails after the header
        # and the first two arenas
        state.optimizer.flat_v = None
        with pytest.raises(TypeError):
            save_checkpoint(path, cfg, state)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert path.read_bytes() == before
        _, loaded, _ = load_checkpoint(path)
        assert loaded.step == 1

    def test_truncated_file_rejected(self, tiny_data, tmp_path):
        vocab, samples = tiny_data
        cfg = small_train_cfg()
        state = init_state(cfg, vocab)
        path = tmp_path / "t.eavc"
        save_checkpoint(path, cfg, state)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_mismatch_names_versions(self, tiny_data, tmp_path):
        vocab, _ = tiny_data
        cfg = small_train_cfg()
        state = init_state(cfg, vocab)
        path = tmp_path / "v.eavc"
        save_checkpoint(path, cfg, state)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError) as e:
            load_checkpoint(path)
        assert "99" in str(e.value) and str(CHECKPOINT_VERSION) in str(e.value)

    @pytest.mark.parametrize("version", [1, 3, 4])
    def test_older_version_refused(self, tiny_data, tmp_path, version):
        # version 1 holds the network before the residual query scorer and
        # the identity-start vision gate, version 3 a header with the removed
        # model.kernel_activation, version 4 one EAVT blob per tensor
        vocab, _ = tiny_data
        cfg = small_train_cfg()
        path = tmp_path / "old.eavc"
        save_checkpoint(path, cfg, init_state(cfg, vocab))
        raw = bytearray(path.read_bytes())
        raw[4:8] = version.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError) as e:
            load_checkpoint(path)
        assert f"version {version}" in str(e.value) and str(CHECKPOINT_VERSION) in str(e.value)

    @pytest.mark.parametrize(
        "field, value", [(0, "aligner.renamed"), (1, [3, 1])], ids=["renamed", "reshaped"]
    )
    def test_param_entry_not_in_model_rejected(self, tiny_data, tmp_path, field, value):
        vocab, _ = tiny_data
        cfg = small_train_cfg()
        path = tmp_path / "p.eavc"
        save_checkpoint(path, cfg, init_state(cfg, vocab))

        def edit_w_p(header):
            entry = next(e for e in header["params"] if e[0] == "aligner.w_p")
            entry[field] = value
            return json.dumps(header).encode()

        rewrite_header(path, edit_w_p)
        with pytest.raises(CheckpointError) as e:
            load_checkpoint(path)
        assert str(value) in str(e.value) and "aligner.w_p" in str(e.value)

    @pytest.mark.parametrize("change", ["short", "long", "other_precision"])
    def test_payload_of_wrong_size_rejected(self, tiny_data, tmp_path, change):
        # the arenas follow the header with nothing after them, so the file
        # size alone tells a truncated, padded or wrong-precision payload
        vocab, _ = tiny_data
        cfg = small_train_cfg()
        path = tmp_path / "s.eavc"
        save_checkpoint(path, cfg, init_state(cfg, vocab))
        if change == "other_precision":

            def to_double(header):
                header["config"]["model.precision"] = "double"
                return json.dumps(header).encode()

            rewrite_header(path, to_double)
        raw = path.read_bytes()
        path.write_bytes({"short": raw[:-4], "long": raw + b"\0" * 4}.get(change, raw))
        with pytest.raises(CheckpointError) as e:
            load_checkpoint(path)
        size = path.stat().st_size
        assert str(size) in str(e.value) and "expected" in str(e.value)

    @pytest.mark.parametrize("dropped", ["not_json", "config", "vocab", "step", "adam_t", "params"])
    def test_malformed_header_rejected(self, tiny_data, tmp_path, dropped):
        vocab, _ = tiny_data
        cfg = small_train_cfg()
        path = tmp_path / "h.eavc"
        save_checkpoint(path, cfg, init_state(cfg, vocab))

        def make_header(header):
            if dropped == "not_json":
                return b"{not json"
            return json.dumps({k: v for k, v in header.items() if k != dropped}).encode()

        rewrite_header(path, make_header)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["config", "vocab", "params"])
    def test_header_entry_of_wrong_type_rejected(self, tiny_data, tmp_path, key):
        vocab, _ = tiny_data
        cfg = small_train_cfg()
        path = tmp_path / "w.eavc"
        save_checkpoint(path, cfg, init_state(cfg, vocab))
        rewrite_header(path, lambda header: json.dumps({**header, key: 5}).encode())
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key, value", [("step", "7"), ("step", True), ("step", 2.0), ("adam_t", -3), ("adam_t", None)]
    )
    def test_header_counter_of_wrong_type_or_sign_rejected(self, tiny_data, tmp_path, key, value):
        vocab, _ = tiny_data
        cfg = small_train_cfg()
        path = tmp_path / "n.eavc"
        save_checkpoint(path, cfg, init_state(cfg, vocab))
        rewrite_header(path, lambda header: json.dumps({**header, key: value}).encode())
        with pytest.raises(CheckpointError) as e:
            load_checkpoint(path)
        assert key in str(e.value)


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    cfg = small_train_cfg()
    path = tmp_path_factory.mktemp("checkpoint") / "c.eavc"
    save_checkpoint(path, cfg, init_state(cfg, vocabulary_for(GrammarConfig(image_size=16))))
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_loads_or_raises_typed_error(checkpoint_bytes, tmp_path_factory, data):
    # a truncated file always fails; a flipped bit may load (inside a
    # payload it changes one value) but any failure is a RefsegError
    raw = checkpoint_bytes
    path = tmp_path_factory.getbasetemp() / "damaged.eavc"
    if data.draw(st.booleans(), label="truncate"):
        path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1), label="length")])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        return
    # about half the flips land in the first 16 bytes or the JSON header,
    # which are a few percent of the file
    header_end = 16 + struct.unpack_from("<Q", raw, 8)[0]
    bit = data.draw(st.integers(0, 8 * header_end - 1) | st.integers(0, 8 * len(raw) - 1), label="bit")
    damaged = bytearray(raw)
    damaged[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(damaged))
    try:
        load_checkpoint(path)
    except RefsegError:
        pass


def test_nan_loss_aborts_with_dump(tiny_data, tmp_path):
    vocab, samples = tiny_data
    cfg = small_train_cfg(steps=2)
    state = init_state(cfg, vocab)
    bad = state.model.store.get("aligner.w_p")
    bad.value.data[0, 0] = np.nan
    with pytest.raises(NumericalError):
        train(cfg, state, samples, dump_dir=tmp_path / "diag")
    dumped = list((tmp_path / "diag").glob("*"))
    assert any(p.suffix == ".eavt" for p in dumped)
    assert any(p.name == "batch.json" for p in dumped)

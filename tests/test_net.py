import struct
import zlib
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from predprey.errors import CheckpointError, InputError, NumericsError, StructuralError
from predprey.net import (
    ADAM_EPS,
    AdamState,
    DenseNet,
    _layer_views,
    adam_step,
    backward,
    checkpoint_from_bytes,
    checkpoint_to_bytes,
    forward,
    heads,
    init_net,
    load_checkpoint,
    log_softmax,
    lr_at,
    read_rows,
    save_checkpoint,
    trunk,
    write_rows,
)
from predprey.cli import main
from predprey.stats import ConditionSummary, RunRecord, StatsRow, compare
from predprey.train import MetricsRow
from tests_support import (
    HalfWrite,
    copy_net,
    get_flat,
    set_flat,
    traced_peak,
    write_metrics_csv,
    write_run_records,
    write_stats_csv,
    write_summary_csv,
)


def small_net(seed=7, obs=4, hidden=3, actions=2):
    return init_net(obs, actions, hidden_units=hidden, num_layers=1, seed=seed)


def naive_forward(net, obs):
    """Element-by-element oracle: explicit loops, no matrix ops."""
    h = list(obs)
    for w, b in zip(net.weights[:-2], net.biases[:-2]):
        nxt = []
        for j in range(w.shape[1]):
            acc = b[j]
            for i in range(w.shape[0]):
                acc += h[i] * w[i, j]
            nxt.append(np.tanh(acc))
        h = nxt
    logits = []
    for j in range(net.weights[-2].shape[1]):
        acc = net.biases[-2][j]
        for i in range(net.weights[-2].shape[0]):
            acc += h[i] * net.weights[-2][i, j]
        logits.append(acc)
    value = net.biases[-1][0]
    for i in range(net.weights[-1].shape[0]):
        value += h[i] * net.weights[-1][i, 0]
    return np.array(logits), value


class TestForward:
    def test_zero_parameters_give_zero_outputs_and_uniform_policy(self):
        net = small_net()
        net.flat[...] = 0.0
        logits, value = forward(net, np.ones(4))
        assert np.all(logits == 0.0)
        assert value == 0.0
        assert np.allclose(np.exp(log_softmax(logits)), 0.5)

    def test_identity_single_layer_passes_observation_through(self):
        # No hidden layers: the policy head is applied straight to the input.
        net = DenseNet([3, 3, 1], np.zeros(16))
        net.weights[0][...] = np.eye(3)
        e1 = np.array([1.0, 0.0, 0.0])
        logits, value = forward(net, e1)
        assert np.array_equal(logits, e1)
        assert value == 0.0

    def test_matches_naive_matmul_oracle(self):
        net = small_net(seed=7)
        rng = np.random.default_rng(7)
        for _ in range(5):
            obs = rng.normal(size=4)
            logits, value = forward(net, obs)
            exp_logits, exp_value = naive_forward(net, obs)
            assert np.abs(logits - exp_logits).max() < 1e-10
            assert abs(value - exp_value) < 1e-10

    def test_batched_matches_single(self):
        # Different gemm shapes may round differently; agreement is to fp
        # accuracy, bit-identity is only guaranteed for identical calls.
        net = small_net()
        obs = np.random.default_rng(3).normal(size=(5, 4))
        logits, values = forward(net, obs)
        for i in range(5):
            li, vi = forward(net, obs[i])
            assert np.allclose(li, logits[i], rtol=0, atol=1e-12)
            assert vi == pytest.approx(values[i], abs=1e-12)

    @pytest.mark.parametrize("n_prey", [1, 2, 6])
    def test_stacked_worlds_match_each_world_bitwise(self, n_prey):
        # lockstep worlds stack on a leading axis; each world's rows must give
        # exactly the bits they give on their own
        net = init_net(79, 6, seed=4)
        obs = np.random.default_rng(n_prey).normal(size=(50, n_prey, 79))
        logits, values = forward(net, obs)
        assert logits.shape == (50, n_prey, 6) and values.shape == (50, n_prey)
        for w in range(50):
            logits_w, values_w = forward(net, obs[w])
            assert np.array_equal(logits[w], logits_w) and np.array_equal(values[w], values_w)

    def test_deterministic_bitwise(self):
        net = small_net()
        obs = np.random.default_rng(0).normal(size=4)
        a = forward(net, obs)
        b = forward(net, obs)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]

    def test_dimension_mismatch_raises(self):
        with pytest.raises(StructuralError):
            forward(small_net(), np.zeros(5))

    def test_non_finite_observation_raises(self):
        with pytest.raises(InputError):
            forward(small_net(), np.array([1.0, np.nan, 0.0, 0.0]))


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        net = small_net()
        grad = backward(net, trunk(net, np.ones((1, 4))), np.zeros((1, 2)), np.zeros(1))
        assert grad.shape == net.flat.shape and np.all(grad == 0.0)

    def test_linear_value_gradient_is_observation(self):
        # loss = value on a headless net: d loss / d W_value[i] = obs[i] exactly.
        net = DenseNet([3, 2, 1], np.zeros(12))
        obs = np.array([[0.3, -1.2, 2.5]])
        grad = DenseNet(net.layer_sizes, backward(net, trunk(net, obs), np.zeros((1, 2)), np.ones(1)))
        assert np.array_equal(grad.weights[-1][:, 0], obs[0])
        assert grad.biases[-1][0] == 1.0

    def test_matches_central_finite_differences(self):
        net = init_net(4, 3, hidden_units=5, num_layers=2, seed=11)
        rng = np.random.default_rng(11)
        obs = rng.normal(size=4)
        dl = rng.normal(size=3)
        dv = rng.normal()

        def loss(flat):
            probe = copy_net(net)
            set_flat(probe, flat)
            logits, value = forward(probe, obs)
            return float(dl @ logits + dv * value)

        flat_grad = backward(net, trunk(net, obs[None]), dl[None], np.array([dv]))
        base = get_flat(net)
        h = 1e-5
        for k in range(len(base)):
            up, down = base.copy(), base.copy()
            up[k] += h
            down[k] -= h
            fd = (loss(up) - loss(down)) / (2 * h)
            denom = max(abs(fd), abs(flat_grad[k]), 1e-8)
            assert abs(fd - flat_grad[k]) / denom < 1e-4, f"param {k}"

    def test_shape_mismatch_raises(self):
        net = small_net()
        acts = trunk(net, np.ones((1, 4)))
        with pytest.raises(StructuralError):
            backward(net, acts, np.zeros((1, 3)), np.zeros(1))
        with pytest.raises(StructuralError):
            backward(net, acts[:1], np.zeros((1, 2)), np.zeros(1))


def expression_trunk(net, x):
    """The trunk as one expression a layer, three arrays each: the oracle for the in-place trunk."""
    acts = [x]
    for w, b in zip(net.weights[:-2], net.biases[:-2]):
        acts.append(np.tanh(acts[-1] @ w + b))
    return acts


def expression_backward(net, acts, d_logits, d_value):
    """The backward pass as whole-array expressions: the oracle for the in-place backward."""
    grad = np.zeros_like(net.flat)
    d_weights, d_biases = _layer_views(grad, net.layer_sizes)
    last = acts[-1]
    d_weights[-2][...] = last.T @ d_logits
    d_biases[-2][...] = d_logits.sum(axis=0)
    d_weights[-1][...] = last.T @ d_value[:, None]
    d_biases[-1][...] = d_value.sum(axis=0, keepdims=True)
    dh = d_logits @ net.weights[-2].T + d_value[:, None] @ net.weights[-1].T
    for k in range(net.n_hidden - 1, -1, -1):
        dz = dh * (1.0 - acts[k + 1] ** 2)
        d_weights[k][...] = acts[k].T @ dz
        d_biases[k][...] = dz.sum(axis=0)
        if k > 0:
            dh = dz @ net.weights[k].T
    return grad


def scenario_net(seed):
    """A net of the default training width (79 -> 128 -> 128 -> 6) with non-zero biases."""
    net = init_net(79, 6, hidden_units=128, num_layers=2, seed=seed)
    net.flat[...] += 0.05 * np.random.default_rng(seed).normal(size=net.flat.shape)
    return net


class TestInPlaceTrunkAndBackward:
    ROWS = ((6, 79), (50, 6, 79), (1024, 79))  # one world's prey, eval's stacked worlds, a minibatch

    def test_trunk_matches_the_expressions_bitwise_with_one_array_a_layer(self):
        net = scenario_net(21)
        for shape in self.ROWS:
            x = np.random.default_rng(len(shape)).normal(size=shape)
            acts, peak = traced_peak(trunk, net, x)
            want = expression_trunk(net, x)
            assert len(acts) == len(want) == 3
            assert all(np.array_equal(a, b) for a, b in zip(acts, want)), shape
            if shape[0] == 1024:  # at minibatch size the arrays dwarf the fixed overheads
                # a layer allocates only the activation it returns: three 1 MiB arrays a layer would add 1 MiB
                assert peak <= sum(a.nbytes for a in acts[1:]) + 256 * 1024, peak

    def test_backward_matches_the_expressions_bitwise_with_one_scratch_array(self):
        net = scenario_net(22)
        rng = np.random.default_rng(22)
        for shape in (s for s in self.ROWS if len(s) == 2):
            acts = trunk(net, rng.normal(size=shape))
            d_logits, d_value = rng.normal(size=(shape[0], 6)), rng.normal(size=shape[0])
            grad, peak = traced_peak(backward, net, acts, d_logits, d_value)
            assert np.array_equal(grad, expression_backward(net, acts, d_logits, d_value)), shape
            if shape[0] == 1024:
                # the gradient, plus dh and one tanh' scratch array of 1 MiB each
                assert peak <= grad.nbytes + 2 * acts[-1].nbytes + 256 * 1024, peak


class TestAdam:
    def test_zero_gradients_leave_parameters_and_bump_step(self):
        net = small_net()
        before = get_flat(net)
        state = AdamState.for_net(net)
        adam_step(net, state, np.zeros_like(net.flat), rate=0.1)
        assert np.array_equal(get_flat(net), before)
        assert state.step_count == 1

    def test_zero_rate_leaves_parameters(self):
        net = small_net()
        before = get_flat(net)
        state = AdamState.for_net(net)
        adam_step(net, state, np.ones_like(net.flat), rate=0.0)
        assert np.array_equal(get_flat(net), before)
        assert state.step_count == 1

    def test_single_step_matches_hand_trace(self):
        # One scalar parameter with gradient 1: bias correction makes both
        # moment ratios exactly 1, so the step is rate / (1 + eps).
        net = DenseNet([1, 1, 1], [0.5, 0.0, 0.25, 0.0])
        state = AdamState.for_net(net)
        grad = np.zeros(4)
        grad[0] = 1.0
        rate = 0.05
        adam_step(net, state, grad, rate)
        assert net.weights[0][0, 0] == 0.5 - rate / (1.0 + ADAM_EPS)
        assert net.weights[1][0, 0] == 0.25  # untouched parameter

    def test_non_finite_gradient_rejected_without_mutation(self):
        net = small_net()
        before = get_flat(net)
        state = AdamState.for_net(net)
        grad = np.zeros_like(net.flat)
        grad[0] = np.inf
        with pytest.raises(NumericsError):
            adam_step(net, state, grad, rate=0.1)
        assert np.array_equal(get_flat(net), before)
        assert state.step_count == 0

    def test_gradient_of_another_length_rejected(self):
        net = small_net()
        with pytest.raises(StructuralError):
            adam_step(net, AdamState.for_net(net), np.zeros(net.flat.size + 1), rate=0.1)


class TestLrSchedule:
    def test_table_values(self):
        assert lr_at(3.0e-4, 1_000_000, 0) == 3.0e-4
        assert lr_at(3.0e-4, 1_000_000, 1_000_000) == 0.0
        assert lr_at(3.0e-4, 1_000_000, 500_000) == pytest.approx(1.5e-4, rel=0, abs=1e-18)

    def test_clamps_past_the_end(self):
        assert lr_at(3.0e-4, 100, 101) == 0.0
        assert lr_at(3.0e-4, 100, 10_000) == 0.0

    def test_affine_in_step(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.integers(0, 1000, size=2)
            if (a + b) % 2:
                b += 1 if b < 1000 else -1
            mid = (a + b) // 2
            assert lr_at(1e-3, 1000, a) + lr_at(1e-3, 1000, b) == pytest.approx(
                2 * lr_at(1e-3, 1000, mid), rel=1e-12
            )

    def test_non_increasing(self):
        rates = [lr_at(1e-3, 997, s) for s in range(0, 1100, 7)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestCategoricalHelpers:
    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            logits = rng.normal(scale=rng.uniform(0.1, 30.0), size=rng.integers(2, 9))
            assert abs(np.exp(log_softmax(logits)).sum() - 1.0) < 1e-9

    def test_log_softmax_consistency(self):
        logits = np.array([1.0, 2.0, 3.0])
        plain = np.exp(logits) / np.exp(logits).sum()  # textbook softmax
        assert np.allclose(np.exp(log_softmax(logits)), plain, atol=1e-15)


class TestCheckpoint:
    def make_state(self, seed=0):
        net = init_net(7, 6, hidden_units=4, num_layers=2, seed=seed)
        state = AdamState.for_net(net)
        rng = np.random.default_rng(seed)
        adam_step(net, state, rng.normal(size=net.flat.shape), rate=1e-3)
        return net, state

    def test_roundtrip_is_byte_identical(self):
        net, state = self.make_state()
        blob = checkpoint_to_bytes(net, state, rng_seed=123, global_step=456)
        net2, state2, seed, step = checkpoint_from_bytes(blob)
        assert seed == 123 and step == 456
        assert checkpoint_to_bytes(net2, state2, seed, step) == blob

    def test_loaded_values_exact(self):
        net, state = self.make_state(3)
        blob = checkpoint_to_bytes(net, state, 9, 10)
        net2, state2, _, _ = checkpoint_from_bytes(blob)
        assert net2.layer_sizes == net.layer_sizes
        assert np.array_equal(net.flat, net2.flat)
        assert np.array_equal(state.first_moment, state2.first_moment)
        assert np.array_equal(state.second_moment, state2.second_moment)
        assert state2.step_count == state.step_count

    def test_wide_first_layer_forward_survives_the_round_trip_bitwise(self):
        # a fresh net and its loaded copy share one memory layout, so BLAS gives them the same bits
        net = init_net(79, 6, seed=2)
        net2 = checkpoint_from_bytes(checkpoint_to_bytes(net, AdamState.for_net(net), 0, 0))[0]
        obs = np.random.default_rng(2).normal(size=(1, 6, 79))
        (logits, values), (logits2, values2) = forward(net, obs), forward(net2, obs)
        assert np.array_equal(logits, logits2) and np.array_equal(values, values2)

    def test_save_at_step_zero_then_load(self, tmp_path):
        net = init_net(5, 6, seed=1)
        state = AdamState.for_net(net)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, net, state, rng_seed=1, global_step=0)
        net2, _, _, step = load_checkpoint(path)
        assert step == 0
        assert np.array_equal(get_flat(net), get_flat(net2))

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        import predprey.net as net_module

        net, state = self.make_state()
        path = tmp_path / "ck.bin"
        save_checkpoint(path, net, state, rng_seed=1, global_step=5)
        before = path.read_bytes()

        monkeypatch.setattr(net_module, "open", HalfWrite, raising=False)
        net2, state2 = self.make_state(seed=1)
        with pytest.raises(OSError):
            save_checkpoint(path, net2, state2, rng_seed=1, global_step=9)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert load_checkpoint(path)[3] == 5
        assert [p.name for p in tmp_path.iterdir()] == ["ck.bin"]

    def test_bad_tag_rejected(self):
        with pytest.raises(CheckpointError):
            checkpoint_from_bytes(b"NOTATAG!" + b"\x00" * 64)

    def test_corrupted_tail_byte_rejected(self):
        net, state = self.make_state()
        blob = bytearray(checkpoint_to_bytes(net, state, 1, 2))
        blob[-1] ^= 0xFF
        with pytest.raises(CheckpointError):
            checkpoint_from_bytes(bytes(blob))

    def test_truncated_rejected(self):
        net, state = self.make_state()
        blob = checkpoint_to_bytes(net, state, 1, 2)
        with pytest.raises(CheckpointError):
            checkpoint_from_bytes(blob[: len(blob) // 2])

    def test_version_mismatch_rejected(self):
        net, state = self.make_state()
        blob = bytearray(checkpoint_to_bytes(net, state, 1, 2))
        blob[8] = 99  # version field follows the 8-byte tag
        body = bytes(blob[:-4])
        blob = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(CheckpointError):
            checkpoint_from_bytes(blob)

    @pytest.mark.parametrize("sizes", [[], [5, 1], [5, 0, 1], [5, 6, 2]])
    def test_impossible_layer_sizes_rejected(self, sizes, tmp_path):
        body = b"PPACNET\x00" + struct.pack(f"<II{len(sizes)}I", 1, len(sizes), *sizes) + bytes(8 * 8)
        blob = body + struct.pack("<I", zlib.crc32(body))
        with pytest.raises(CheckpointError, match="layer_sizes"):
            checkpoint_from_bytes(blob)
        path = tmp_path / "bad.ckpt"
        path.write_bytes(blob)
        argv = ["eval", "--checkpoint", str(path), "--n-runs", "2", "--duration", "1", "-o", str(tmp_path / "out")]
        assert main(argv) == 4


class TestInit:
    def test_seeded_init_is_reproducible(self):
        a = init_net(10, 6, seed=42)
        b = init_net(10, 6, seed=42)
        assert np.array_equal(get_flat(a), get_flat(b))

    def test_head_scales(self):
        net = init_net(30, 6, seed=0)
        assert np.abs(net.weights[-2]).max() < 0.05  # policy head near zero
        assert np.abs(net.weights[-1]).max() > 0.05  # value head at unit scale

    def test_construction_rejects_a_vector_of_another_length(self):
        net = small_net()
        for flat in (np.zeros(net.flat.size + 1), np.zeros(net.flat.size - 1), np.zeros((1, net.flat.size))):
            with pytest.raises(StructuralError):
                DenseNet(net.layer_sizes, flat)

    def test_layers_are_fixed_views_of_the_vector(self):
        net = init_net(79, 6, seed=0)
        for p in net.weights + net.biases:
            assert p.flags.c_contiguous and np.shares_memory(p, net.flat)
        with pytest.raises(TypeError):
            net.weights[0] = np.zeros((79, 128))
        net.flat[0] = 7.0
        assert net.weights[0][0, 0] == 7.0


class TestAlignment:
    def test_parameter_vector_starts_on_a_cache_line(self, tmp_path):
        net = init_net(79, 6, seed=0)
        path = tmp_path / "ck.bin"
        save_checkpoint(path, net, AdamState.for_net(net), rng_seed=0, global_step=0)
        for built in (net, load_checkpoint(path)[0], copy_net(net)):
            assert built.flat.ctypes.data % 64 == 0

    @pytest.mark.parametrize("lead", [(6,), (50, 6), (1024,)])
    def test_outputs_do_not_depend_on_where_the_vector_starts(self, lead):
        net = init_net(79, 6, seed=5)
        obs = np.random.default_rng(len(lead)).normal(size=(*lead, 79))
        acts = trunk(net, obs)
        want = acts + list(heads(net, acts[-1]))
        buffer = np.empty(net.flat.size + 16)
        line = -buffer.ctypes.data % 64 // 8
        for offset in range(8):  # 0 to 56 bytes past a cache line
            moved = copy_net(net)
            moved.flat = buffer[line + offset : line + offset + net.flat.size]
            moved.flat[...] = net.flat
            moved.weights, moved.biases = _layer_views(moved.flat, net.layer_sizes)
            assert moved.flat.ctypes.data % 64 == 8 * offset
            acts = trunk(moved, obs)
            got = acts + list(heads(moved, acts[-1]))
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), offset


# ---------------------------------------------------------------------------
# row CSVs: write_rows against the hand-written writers of tests_support, and read_rows back

FLOATS = st.floats()  # nan and +-inf included
TOTALS = st.one_of(st.integers(0, 10**9), st.floats(0.0, allow_infinity=False))  # eval writes ints, a file reads floats
LABELS = st.text(st.characters(blacklist_categories=["Cs"]), max_size=12)
# groups without spread give F = inf or 0 and an undefined d
SMALL = st.sampled_from([0.0, 1.0, 2.5])
GROUPS = st.one_of(
    st.builds(lambda value, n: [value] * n, SMALL, st.integers(2, 6)),
    st.lists(st.one_of(SMALL, st.floats(-1e6, 1e6)), min_size=2, max_size=6),
)

ROW_FILES = {
    "metrics": (MetricsRow, st.builds(MetricsRow, st.integers(0, 2**63 - 1), *[FLOATS] * 6), write_metrics_csv),
    "run_records": (
        RunRecord,
        st.builds(RunRecord, st.integers(0, 10**9), TOTALS, TOTALS, TOTALS, st.integers(1, 10**9)),
        write_run_records,
    ),
    "summary": (ConditionSummary, st.builds(ConditionSummary, LABELS, st.integers(2, 10**6), *[FLOATS] * 8), write_summary_csv),
}
row_settings = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def same_rows(got, want) -> bool:
    """Equal row for row and field for field, with nan equal to nan."""
    return len(got) == len(want) and all(
        type(a) is type(b) and all(x == y or (x != x and y != y) for x, y in zip(astuple(a), astuple(b)))
        for a, b in zip(got, want)
    )


@pytest.mark.parametrize("kind", sorted(ROW_FILES))
@row_settings
@given(data=st.data())
def test_write_rows_writes_the_hand_written_bytes_and_reads_back(tmp_path, kind, data):
    cls, row_strategy, write_oracle = ROW_FILES[kind]
    rows = data.draw(st.lists(row_strategy, max_size=5))
    path, oracle = tmp_path / "rows.csv", tmp_path / "oracle.csv"
    write_rows(path, cls, rows)
    write_oracle(rows, oracle)
    assert path.read_bytes() == oracle.read_bytes()
    assert same_rows(read_rows(path, cls), rows)


@row_settings
@given(groups=st.lists(st.tuples(LABELS, GROUPS, GROUPS), max_size=4))
def test_stats_rows_write_the_hand_written_bytes_and_read_back(tmp_path, groups):
    rows = [compare(label, np.array(g1), np.array(g2)) for label, g1, g2 in groups]
    path, oracle = tmp_path / "rows.csv", tmp_path / "oracle.csv"
    write_rows(path, StatsRow, rows)
    write_stats_csv([(label, np.array(g1), np.array(g2)) for label, g1, g2 in groups], oracle)
    assert path.read_bytes() == oracle.read_bytes()
    assert same_rows(read_rows(path, StatsRow), rows)


def test_read_rows_refuses_a_derived_field_its_other_fields_do_not_give(tmp_path):
    path = tmp_path / "run_records.csv"
    write_rows(path, RunRecord, [RunRecord(0, 3.0, 1.0, 0.0, 10)])
    with open(path, "a", newline="") as fh:
        fh.write("1,1.0,2.0,3.0,10,999\r\n")
    with pytest.raises(InputError) as exc:
        read_rows(path, RunRecord)
    assert str(exc.value) == f"{path}: line 3: task_efficiency 999.0 is not the -2.4 its other fields give"
